"""The benchmark's workloads, their pinned answers and the output checker.

A workload is a fixed list of mtable CLI invocations (argv lists).  The
pinned answers depend on the arguments, so the arguments never vary; the
run seed only shuffles the order of the invocations within each pass.
Invocations that depend on each other (the two census runs sharing one
cache file) form one unit and keep their order.

Every invocation is checked against the JSON output recorded in
``expected.json`` at the commit that introduced the benchmark, with the
keys ``elapsed`` and ``algorithm`` left out (a route label may change).
The check compares parsed fields and the exit code, never bytes: keys
the program adds later are ignored, and every pinned number must match
exactly.  ``frozen_mismatches`` cross-checks that file against the
values the test suite freezes and the M(n) value pinned here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Values tests/test_acceptance.py freezes (CENSUS_COUNTS, SIGMA_12_MARGIN).
CENSUS_COUNTS = {
    10: 42,
    50: 800,
    100: 2906,
    1000: 248083,
    2000: 959759,
    3000: 2121063,
    4000: 3723723,
    5000: 5770205,
}
SIGMA_12_MARGIN = -0.00017994591719983077

# M(2^14), pinned from three routes that agreed when the benchmark was
# written: segmented serial, segmented with 2 workers, and segmented with
# --segment-bits 4194304.
M_16384 = 59415059

CENSUS_N_LIST = ",".join(str(n) for n in CENSUS_COUNTS)


@dataclass(frozen=True)
class Invocation:
    """One CLI call.  ``ident`` keys its pinned answer and names its
    ``cli.cmd.<ident>_s`` per-layer metric."""

    ident: str
    argv: tuple[str, ...]

    @property
    def parallel(self) -> bool:
        return "--parallel" in self.argv


@dataclass(frozen=True)
class Workload:
    name: str
    units: tuple[tuple[Invocation, ...], ...]
    # (serial, parallel) invocation idents of one table size, for
    # products.parallel_speedup; None where the workload has no such pair.
    speedup_pair: tuple[str, str] | None = None

    @property
    def invocations(self) -> list[Invocation]:
        return [inv for unit in self.units for inv in unit]


def _inv(ident: str, *argv: str) -> tuple[Invocation]:
    return (Invocation(ident, (*argv, "--format", "json")),)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "big_table",
            (
                _inv("count_16384", "count", "--n", "16384"),
                _inv("count_16384_parallel", "count", "--n", "16384", "--parallel"),
            ),
            speedup_pair=("count_16384", "count_16384_parallel"),
        ),
        Workload(
            "bound_sweep",
            (
                _inv("verify_divisor_bound_1e7", "verify", "--suite",
                     "divisor-bound", "--max", "10000000"),
                _inv("verify_sigma_bound_1e7", "verify", "--suite",
                     "sigma-bound", "--max", "10000000"),
                _inv("verify_monotonicity_1e7", "verify", "--suite",
                     "monotonicity", "--max", "10000000"),
            ),
        ),
        Workload(
            "small_calls",
            (
                _inv("verify_theorem_1500", "verify", "--suite", "theorem",
                     "--max", "1500"),
                _inv("verify_bracket_1e5", "verify", "--suite", "bracket",
                     "--max", "100000"),
                _inv("verify_identities_100", "verify", "--suite",
                     "identities", "--n", "100"),
                _inv("bounds_1e14", "bounds", "--k", "100000000000000"),
            ),
        ),
        Workload(
            "readme_cli",
            (
                _inv("count_5000_parallel", "count", "--n", "5000", "--parallel"),
                _inv("census_write", "census", "--n-list", CENSUS_N_LIST,
                     "--cache", "census.csv")
                + _inv("census_read", "census", "--n-list", CENSUS_N_LIST,
                       "--cache", "census.csv"),
                _inv("multiplicity_6_12", "multiplicity", "--n", "6", "--k", "12"),
                _inv("bounds_12", "bounds", "--k", "12"),
                _inv("bounds_12_alt", "bounds", "--k", "12", "--robin-c",
                     "6483/10000"),
                _inv("verify_divisor_bound", "verify", "--suite", "divisor-bound"),
                _inv("verify_sigma_bound", "verify", "--suite", "sigma-bound"),
                _inv("verify_theorem", "verify", "--suite", "theorem"),
                _inv("verify_bracket", "verify", "--suite", "bracket"),
                _inv("verify_monotonicity", "verify", "--suite", "monotonicity"),
                _inv("verify_identities", "verify", "--suite", "identities"),
                _inv("series_2_3_500", "series", "--s", "2,3", "--n", "500"),
            ),
        ),
    )
}

INVOCATIONS = {inv.ident: inv for w in WORKLOADS.values() for inv in w.invocations}


def load_expected() -> dict:
    """{ident: {"exit": int, "output": parsed JSON output}}."""
    return json.loads(EXPECTED_PATH.read_text())


def _mismatch(want, got, where: str) -> str | None:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return f"{where}: expected an object, got {got!r}"
        for key, sub in want.items():
            if key not in got:
                return f"{where}.{key}: missing"
            found = _mismatch(sub, got[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: expected {len(want)} entries, got {got!r}"
        for i, (w, g) in enumerate(zip(want, got)):
            found = _mismatch(w, g, f"{where}[{i}]")
            if found:
                return found
        return None
    # json keeps true/1/1.0 apart; Python's == would not
    if type(want) is not type(got) or want != got:
        return f"{where}: expected {want!r}, got {got!r}"
    return None


def check_output(pinned: dict, exit_code: int, stdout: str) -> str | None:
    """None when the invocation matches its pinned answer, else the reason."""
    if exit_code != pinned["exit"]:
        return f"exit code {exit_code}, expected {pinned['exit']}"
    try:
        got = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON ({exc})"
    return _mismatch(pinned["output"], got, "$")


def frozen_mismatches(expected: dict) -> list[str]:
    """Disagreements between expected.json and the independently frozen
    values; empty when the pins are consistent."""
    problems = []

    def want(ident: str, path: tuple, value):
        node = expected[ident]["output"]
        for step in path:
            node = node[step]
        if node != value:
            problems.append(f"{ident}{list(path)} = {node!r}, frozen value {value!r}")

    want("count_16384", ("m",), M_16384)
    want("count_16384_parallel", ("m",), M_16384)
    want("count_5000_parallel", ("m",), CENSUS_COUNTS[5000])
    for ident in ("census_write", "census_read"):
        rows = expected[ident]["output"]["rows"]
        got = {row["n"]: row["m"] for row in rows}
        if got != CENSUS_COUNTS:
            problems.append(f"{ident} rows {got} differ from CENSUS_COUNTS")
    margin = float(f"{SIGMA_12_MARGIN:.10f}")
    for ident in ("verify_sigma_bound", "verify_sigma_bound_1e7", "bounds_12"):
        flagged = expected[ident]["output"]["violations"]
        if [(v["argument"], v["margin"]) for v in flagged] != [(12, margin)]:
            problems.append(f"{ident} flags {flagged}, expected only n=12")
    for ident, code in (
        ("bounds_12", 1),
        ("verify_sigma_bound", 1),
        ("verify_sigma_bound_1e7", 1),
        ("bounds_12_alt", 0),
    ):
        if expected[ident]["exit"] != code:
            problems.append(f"{ident} exit {expected[ident]['exit']}, documented {code}")
    return problems
