"""In-memory span recorder and the wrappers that time mtable's layers.

``install`` replaces each public library function listed in ``LAYERS``
with a wrapper that opens a span on entry and closes it on exit.  The
wrapper is bound at every import site: each module of the package (and
the package itself) whose namespace holds the original function gets the
wrapper, so ``mtable.bounds.divisor_sieve`` and
``mtable.series.divisor_sieve`` are both traced, and so are calls a
module makes to its own functions.  Nothing in the library changes.

A span is (name, start, end, parent).  Spans live in flat arrays while
the invocation runs and are written out by ``Recorder.save`` after it.
A span's self time is its duration minus the durations of its direct
children; the spans of one invocation nest properly (one thread), so
the self times of all spans add up to the root span's duration.  Every
traced function belongs to exactly one layer metric, and library code
that is not traced is timed as part of its traced caller (or of
``cli.run`` when the CLI calls it directly).

Counts are taken at the same boundaries by per-function hooks that read
the call's arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

ROOT = "cli.run"

# layer metric -> (module, function) pairs it covers
LAYERS = {
    "products.count_segmented.self_s": [("products", "count_distinct_segmented")],
    "products.count_dense.self_s": [("products", "count_distinct_dense")],
    "products.census.self_s": [("products", "census")],
    "products.save_cache_s": [("products", "save_cache")],
    "products.load_cache_s": [("products", "load_cache")],
    "divisors.sieve.self_s": [("divisors", "divisor_sieve")],
    "divisors.scalar.self_s": [
        ("divisors", name)
        for name in (
            "divisor_list",
            "divisor_count",
            "divisor_sum",
            "incomplete_divisor_count",
            "incomplete_divisor_integral",
        )
    ],
    "bounds.divisor_sweep.self_s": [("bounds", "verify_divisor_bound")],
    "bounds.sigma_sweep.self_s": [("bounds", "verify_sigma_bound")],
    "bounds.monotonicity.self_s": [("bounds", "nicolas_monotonicity_check")],
    "bounds.floor.self_s": [("bounds", "nicolas_floor_check")],
    "bounds.bracket.self_s": [("bounds", "verify_integral_bracket")],
    "bounds.theorem.self_s": [
        ("bounds", "verify_theorem_lower_bound"),
        ("bounds", "verify_mean_bound"),
    ],
    "multiplicity.table_sum_checks.self_s": [("multiplicity", "table_sum_checks")],
    "multiplicity.table_multiplicities.self_s": [
        ("multiplicity", "table_multiplicities")
    ],
    "multiplicity.scalar.self_s": [
        ("multiplicity", name)
        for name in (
            "multiplicity_direct",
            "multiplicity_formula",
            "boundary_indicator",
            "universal_multiplicity",
        )
    ],
    "series.square_identity.self_s": [("series", "verify_square_identity")],
    "series.zeta_partial.self_s": [("series", "zeta_partial")],
}

# call-count metric -> layer metrics whose spans it counts
CALLS = {
    "products.calls": ("products.count_segmented.self_s", "products.count_dense.self_s"),
    "divisors.sieve.calls": ("divisors.sieve.self_s",),
    "divisors.scalar.calls": ("divisors.scalar.self_s",),
    "bounds.bracket.calls": ("bounds.bracket.self_s",),
    "multiplicity.scalar.calls": ("multiplicity.scalar.self_s",),
}

COUNTS = (
    "products.values_swept",
    "census.asked",
    "census.computed",
    "divisors.sieve.values",
    "divisors.sieve.bytes_computed",
    "bounds.args_checked",
    "bounds.flagged",
    "series.grid_terms",
)

_COUNTED = ("products.count_distinct_segmented", "products.count_distinct_dense")
_CENSUS = "products.census"

SWEEPS = (
    "verify_divisor_bound",
    "verify_sigma_bound",
    "nicolas_monotonicity_check",
    "nicolas_floor_check",
)


class Recorder:
    """Spans of one invocation, stored as parallel arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._open.pop()

    def summary(self) -> dict:
        """Per span name: self seconds and calls; plus the root's duration
        and, per census span, how many M(n) counts ran inside it."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        self_s = np.bincount(name, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        counted = [self._name_ids.get(span, -1) for span in _COUNTED]
        in_census = np.isin(name, counted) & child
        in_census[in_census] = name[parent[in_census]] == self._name_ids.get(_CENSUS, -1)
        return {
            "traced_s": float(dur[name == self._name_ids[ROOT]].sum()),
            "self_s": {n: float(self_s[i]) for i, n in enumerate(self.names)},
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "census_computed": int(in_census.sum()),
            "counts": dict(self.counts),
        }

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def layer_values(summary: dict, metric_of: dict[str, str]) -> dict[str, float]:
    """One invocation's additive per-layer values: self seconds per layer
    metric, cli.run.self_s, call counts, the hook counts and traced_s."""
    values = dict.fromkeys([*LAYERS, ROOT + ".self_s", *CALLS, *COUNTS], 0)
    values["traced_s"] = summary["traced_s"]
    for span, seconds in summary["self_s"].items():
        values[ROOT + ".self_s" if span == ROOT else metric_of[span]] += seconds
    for span, calls in summary["calls"].items():
        for metric, layers in CALLS.items():
            if metric_of.get(span) in layers:
                values[metric] += calls
    values.update(summary["counts"])
    values["census.computed"] = summary["census_computed"]
    return values


def _hook(fn):
    """Count probe for fn, or None: called as hook(rec, arguments, result)."""
    name = fn.__name__
    if f"products.{name}" in _COUNTED:
        def hook(rec, a, result):
            rec.counts["products.values_swept"] += a["n"] * a["n"]
    elif name == "census":
        def hook(rec, a, result):
            rec.counts["census.asked"] += len(a["n_values"])
    elif name in SWEEPS:
        def hook(rec, a, result):
            rec.counts["bounds.args_checked"] += a["hi"] - a["lo"] + 1
            if isinstance(result, list):
                rec.counts["bounds.flagged"] += len(result)
    elif name == "verify_square_identity":
        def hook(rec, a, result):
            rec.counts["series.grid_terms"] += a["n"] * a["n"]
    elif name == "divisor_sieve":
        # a call the cache answers computes nothing: count cache misses only
        misses = [fn.cache_info().misses if hasattr(fn, "cache_info") else 0]

        def hook(rec, a, result):
            if hasattr(fn, "cache_info"):
                before, misses[0] = misses[0], fn.cache_info().misses
                if misses[0] == before:
                    return
            rec.counts["divisors.sieve.values"] += a["limit"]
            rec.counts["divisors.sieve.bytes_computed"] += 16 * (a["limit"] + 1)
    else:
        return None
    return hook


def _wrapper(rec: Recorder, fn, name_id: int):
    hook = _hook(fn)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if hook is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            try:
                hook(rec, bound.arguments, result)
            except KeyError:
                # a renamed parameter: the count reads 0 rather than
                # failing the program's call
                pass
        return result

    return traced


def install(rec: Recorder) -> dict[str, str]:
    """Bind traced wrappers at every import site in the mtable package.

    Every loaded module of the package is scanned, so a function imported
    into a module added later is traced there too.  Returns {span name:
    layer metric}.  A listed function the library no longer has is
    skipped, so its metric reads 0.
    """
    modules = [
        m for name, m in list(sys.modules.items())
        if name == "mtable" or name.startswith("mtable.")
    ]
    wrappers = {}
    metric_of = {}
    for metric, functions in LAYERS.items():
        for module, fname in functions:
            fn = getattr(sys.modules.get(f"mtable.{module}"), fname, None)
            if fn is None:
                continue
            span = f"{module}.{fname}"
            metric_of[span] = metric
            wrappers[id(fn)] = _wrapper(rec, fn, rec.name_id(span))
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
    rec.name_id(ROOT)
    return metric_of
