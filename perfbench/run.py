"""mtable benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is the parent of this directory and
``mtable`` is imported from its ``src``.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Lines before it start with ``#`` and give the run record (seed, machine,
Python and numpy versions, commit) and any failures.  The full record,
with every sample, is written to ``.perfbench_out/runs/``.

Unit of work
------------
One CLI invocation.  Each runs in a fresh interpreter (``child.py``) that
imports numpy, ``mtable`` and ``mtable.cli`` and then times
``mtable.cli.run(argv)`` in-process with its standard output captured, so
the ``divisor_sieve`` / ``_divisor_tuple`` caches start cold as they do for
a CLI user.  Invocations run one at a time; the only concurrency is the
library's own ``--parallel`` pool.  A pass runs every invocation of the
workload once, in an order drawn from the seed; passes repeat until
``--seconds`` have elapsed.  Every invocation has a timeout; a timeout,
crash, OOM kill, wrong exit code or wrong pinned field is a failure.
``failed / attempted`` is the failure fraction (``fail_frac``).

Workloads (argv lists in ``workloads.py``, answers in ``expected.json``)
-----------------------------------------------------------------------
big_table    count --n 16384; count --n 16384 --parallel.  The segmented
             window loop and the process pool of ``products``; the
             serial/parallel pair at one n gives the 2-worker speedup.
             divisors, bounds and series are idle here.  (count --n 32768
             --parallel, 6 to 15 s a call on 2 shared vCPUs, left one to
             three passes a run and spread past the bound.)
bound_sweep  verify --suite divisor-bound|sigma-bound|monotonicity
             --max 10000000.  The ``divisors`` sieve (160 MB at 1e7) and
             the vectorised ``bounds`` evaluation; memory peaks here.  The
             sigma sweep keeps its one crossing at n = 12 and exits 1.
             products is idle here.
small_calls  verify --suite theorem --max 1500; verify --suite bracket
             --max 100000; verify --suite identities --n 100; bounds --k
             100000000000000.  Thousands of small calls, so per-call cost
             dominates; the only sizeable load on multiplicity and series.
readme_cli   every command of the README's Command line block, census run
             twice on one cache file in a fresh directory (the first
             writes the cache, the second reads it).  Start-up, cli
             formatting and the census cache dominate.

End-to-end metrics (``--trace 0``; tracing off)
-----------------------------------------------
wall_s       s   sum over the workload's invocations of the median time
                 in ``cli.run`` (argv in until output produced), scaled.
setup_s      s   median time from process launch until ``import mtable``
                 and ``import mtable.cli`` return: interpreter, numpy and
                 mtable import, scaled.  One sample per invocation.
peak_rss_mb  MB  largest peak RSS of any process of the run, pool workers
                 included.

Scaled times.  The host this was written on (2 vCPUs shared with other
tenants) changes speed by up to 1.4x for minutes at a time, so raw times
of two sets of runs of the same code spread by up to a third.  Each child
therefore times a fixed reference work (``child.probe``: an interpreted
loop and strided numpy writes with short and long strides, like the
program's own work) after
importing numpy and before importing ``mtable``, so the program cannot
change it.  Each invocation's ``cli.run`` and set-up times are multiplied
by ``PROBE_NOMINAL_S / probe_s``: the seconds they would take at the
reference speed, and raw seconds when the host runs at it.  A change to
the program moves a scaled time as much as a raw one.  The unscaled
metrics are printed on a ``# unscaled`` line and kept in the run record;
``host.probe_s`` reports the probe.  The probe's time is left out of
set-up and command times.  The probe is serial, so it places the host's
speed for serial work best; the 2-worker pool runs of big_table stay the
noisiest.

The median time of one command (``cli.cmd_p50_s`` below) is read from a
single invocation with few samples on most workloads and spread past the
25% bound between sets of runs, so it has no bound and is reported with
the per-layer metrics.

Per-layer metrics (``--trace 1``)
---------------------------------
A traced run alternates untraced and traced passes.  Self times come from
spans around the public functions of each module (``spans.py``); time
metrics are medians over traced passes, counts come from one traced pass
and must repeat exactly in every other.  A metric is 0 on a workload that
does not use its layer.  Each entry names the end-to-end metric (and
workload) it should move.

products      count_segmented.self_s, count_dense.self_s, calls,
              values_swept (sum of n^2 counted), parallel_speedup (serial
              / parallel cli.run time at n = 16384, untraced),
              cpu_per_wall (CPU of process and pool workers / wall time of
              --parallel invocations, untraced) -> wall_s big_table and
              small_calls.  census.self_s, save_cache_s, load_cache_s,
              cache_hit_ratio (census points served from the cache /
              points asked) -> wall_s readme_cli.
divisors      sieve.self_s, sieve.calls, sieve.values, sieve.bytes_computed
              (16 B x (limit + 1) per computed sieve, computed not
              measured) -> wall_s and peak_rss_mb bound_sweep.
              scalar.self_s, scalar.calls (divisor_list, divisor_count,
              divisor_sum, incomplete_divisor_count,
              incomplete_divisor_integral) -> wall_s small_calls.
bounds        divisor_sweep.self_s, sigma_sweep.self_s,
              monotonicity.self_s, floor.self_s (evaluation and verdicts,
              sieve excluded), args_checked, args_per_s, flagged (0 for
              the divisor sweep, 1 for the sigma sweep) -> wall_s
              bound_sweep.  bracket.self_s, bracket.calls, theorem.self_s
              -> wall_s small_calls.
multiplicity  table_sum_checks.self_s, table_multiplicities.self_s,
              scalar.self_s, scalar.calls -> wall_s small_calls and
              readme_cli.
series        square_identity.self_s, zeta_partial.self_s, grid_terms
              (sum of n^2 per identity call) -> wall_s small_calls and
              readme_cli.
cli           run.self_s (parsing, formatting and untraced library code
              the CLI calls directly) -> wall_s readme_cli.
              python_start_s, numpy_import_s, mtable_import_s (bare
              ``python -c pass``, ``import numpy``, ``import mtable.cli``
              launches, each as a difference of medians) -> setup_s.
              cmd_p50_s (median over the workload's invocations of the
              median untraced subprocess wall time of one invocation,
              start-up included: what a user of one command waits)
              -> setup_s and wall_s, readme_cli above all.
              cmd.<invocation>_s (median untraced cli.run time of one
              invocation) -> wall_s of its workload.
trace         overhead_s: traced minus untraced wall_s of this run,
              unscaled.
host          probe_s: median time of the reference work over the run's
              untraced invocations (PROBE_NOMINAL_S at the reference
              speed).  Per-layer times are not scaled.

Per invocation, the layer self times plus cli.run.self_s add up to the
invocation's traced time (``selftest.py`` checks this).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import time
from collections import defaultdict
from pathlib import Path

import spans
from workloads import INVOCATIONS, WORKLOADS, check_output, load_expected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench_out"

# A run must end within 180 s: no pass starts that cannot finish by this
# point, and no invocation runs past it.
HARD_LIMIT_S = 150.0
INVOCATION_TIMEOUT_S = 60.0
BARE_LAUNCHES = 5
# Seconds the child's reference work (child.probe) takes at the reference
# host speed: about its median on the 2-vCPU host of perfbench/README.md.
PROBE_NOMINAL_S = 0.016
BARE_COMMANDS = {
    "python": "pass",
    "numpy": "import numpy",
    "mtable": "import mtable, mtable.cli",
}

TIME_LAYERS = [*spans.LAYERS, spans.ROOT + ".self_s"]
COUNT_LAYERS = [*spans.CALLS, *spans.COUNTS]
SWEEP_LAYERS = [
    "bounds.divisor_sweep.self_s",
    "bounds.sigma_sweep.self_s",
    "bounds.monotonicity.self_s",
    "bounds.floor.self_s",
]


class BenchmarkError(Exception):
    """The benchmark cannot run here (no source tree, broken interpreter)."""


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _stop(proc: subprocess.Popen):
    """Kill the child's whole process group (pool workers too) and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Runner:
    def __init__(self, workload, seed: int, expected: dict):
        self.workload = workload
        self.rng = random.Random(seed)
        self.expected = expected
        self.env = _env()
        self.start = time.monotonic()
        self.deadline = self.start + HARD_LIMIT_S
        self.numpy_version = None
        self.work = OUT / "work" / f"{workload.name}-{os.getpid()}"
        self.spans_dir = OUT / "spans" / workload.name

    def warm_up(self):
        """One untimed import, so byte-code caches are written before timing."""
        done = subprocess.run(
            [sys.executable, "-c", BARE_COMMANDS["mtable"]],
            env=self.env, capture_output=True, timeout=INVOCATION_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise BenchmarkError(
                f"cannot import mtable from {SRC}: {done.stderr.decode()[-500:]}"
            )

    def bare_launches(self) -> dict[str, float]:
        """cli.python_start_s, cli.numpy_import_s, cli.mtable_import_s."""
        times = defaultdict(list)
        for _ in range(BARE_LAUNCHES):
            for key, code in BARE_COMMANDS.items():
                t = time.monotonic()
                subprocess.run([sys.executable, "-c", code], env=self.env,
                               check=True, timeout=INVOCATION_TIMEOUT_S)
                times[key].append(time.monotonic() - t)
        python, numpy, mtable = (_median(times[k]) for k in BARE_COMMANDS)
        return {
            "cli.python_start_s": python,
            "cli.numpy_import_s": numpy - python,
            "cli.mtable_import_s": mtable - numpy,
        }

    def launch(self, inv, traced: bool, cwd: Path) -> dict:
        sample = {"ident": inv.ident, "traced": traced}
        timeout = min(INVOCATION_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            sample["reason"] = "not started: run time limit reached"
            return sample
        job = {
            "argv": list(inv.argv),
            "src": str(SRC),
            "trace": traced,
            "spans": str(self.spans_dir / f"{inv.ident}.npz"),
        }
        launched = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(job)],
            cwd=cwd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            _stop(proc)
            sample["reason"] = f"timed out after {timeout:.0f} s"
            return sample
        finished = time.monotonic()
        if proc.returncode != 0:
            sample["reason"] = (
                f"process ended with status {proc.returncode}: "
                f"{err.decode(errors='replace')[-300:]}"
            )
            return sample
        report = json.loads(out.decode().splitlines()[-1])
        self.numpy_version = report["numpy_version"]
        if "error" in report:
            sample["reason"] = report["error"][-500:]
            return sample
        # the probe runs between the numpy and mtable imports; a user
        # does not wait for it
        sample.update(
            setup_s=report["import_done"] - launched - report["probe_wall_s"],
            cmd_s=finished - launched - report["probe_wall_s"],
            probe_s=report["probe_s"],
            run_s=report["run_s"],
            cpu_s=report["cpu_s"],
            rss_mb=report["maxrss_kb"] / 1024,
            layers=report.get("layers"),
            reason=check_output(
                self.expected[inv.ident], report["exit"], report["output"]
            ),
        )
        return sample

    def run_pass(self, traced: bool) -> list[dict]:
        if traced:
            self.spans_dir.mkdir(parents=True, exist_ok=True)
        order = self.rng.sample(self.workload.units, len(self.workload.units))
        samples = []
        for i, unit in enumerate(order):
            # each unit gets a fresh directory: the census cache starts absent
            cwd = self.work / f"unit-{i}"
            cwd.mkdir(parents=True)
            try:
                samples += [self.launch(inv, traced, cwd) for inv in unit]
            finally:
                shutil.rmtree(cwd)
        return samples

    def run(self, seconds: float, trace: bool) -> list[tuple[bool, list[dict]]]:
        passes = []
        longest = 0.0
        try:
            while True:
                traced = trace and len(passes) % 2 == 1
                began = time.monotonic()
                passes.append((traced, self.run_pass(traced)))
                now = time.monotonic()
                longest = max(longest, now - began)
                # start another pass if it would end closer to the time
                # asked for than stopping now; a traced run needs two
                wanted = now + longest / 2 < self.start + seconds
                wanted |= trace and len(passes) < 2
                if not wanted or now + longest > self.deadline:
                    return passes
        finally:
            shutil.rmtree(self.work, ignore_errors=True)


def _by_ident(samples: list[dict], key: str) -> dict[str, list[float]]:
    values = defaultdict(list)
    for s in samples:
        if key in s:
            values[s["ident"]].append(s[key])
    return values


def _wall(samples: list[dict]) -> float:
    return sum(s["run_s"] for s in samples if "run_s" in s)


def end_to_end(passes, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; ``scaled`` puts each invocation's times at
    the reference host speed (``PROBE_NOMINAL_S / probe_s``)."""
    timed = [s for traced, p in passes if not traced for s in p if "run_s" in s]
    if scaled:
        timed = [
            dict(s, **{k: s[k] * PROBE_NOMINAL_S / s["probe_s"] for k in ("run_s", "setup_s")})
            for s in timed
        ]
    run_s = _by_ident(timed, "run_s")
    return {
        "wall_s": sum(_median(v) for v in run_s.values()),
        "setup_s": _median([s["setup_s"] for s in timed]),
        "peak_rss_mb": max((s["rss_mb"] for s in timed), default=0.0),
    }


def _pass_layers(samples: list[dict]) -> dict[str, float]:
    total = defaultdict(float)
    for s in samples:
        for key, value in (s.get("layers") or {}).items():
            total[key] += value
    sweep_s = sum(total[m] for m in SWEEP_LAYERS)
    asked = total["census.asked"]
    total["bounds.args_per_s"] = total["bounds.args_checked"] / sweep_s if sweep_s else 0.0
    total["products.cache_hit_ratio"] = (
        (asked - total["census.computed"]) / asked if asked else 0.0
    )
    return total


def per_layer(workload, passes, bare: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of a traced run, and any count that did not repeat."""
    untraced = [p for traced, p in passes if not traced]
    traced = [_pass_layers(p) for t, p in passes if t]
    if not traced:
        return {}, ["no traced pass completed"]
    metrics = dict(bare)
    for key in [*TIME_LAYERS, "bounds.args_per_s"]:
        metrics[key] = _median([t[key] for t in traced])
    problems = []
    for key in [*COUNT_LAYERS, "products.cache_hit_ratio"]:
        seen = {t[key] for t in traced}
        if len(seen) > 1:
            problems.append(f"{key} differs between traced passes: {sorted(seen)}")
        metrics[key] = traced[0][key]

    timed = [s for p in untraced for s in p if "run_s" in s]
    run_s = _by_ident(timed, "run_s")
    cmd_s = _by_ident(timed, "cmd_s")
    metrics["cli.cmd_p50_s"] = _median([_median(v) for v in cmd_s.values()])
    metrics["host.probe_s"] = _median([s["probe_s"] for s in timed])
    for inv in INVOCATIONS.values():
        metrics[f"cli.cmd.{inv.ident}_s"] = _median(run_s[inv.ident])
    pair = workload.speedup_pair
    serial, parallel = (_median(run_s[i]) for i in pair) if pair else (0.0, 0.0)
    metrics["products.parallel_speedup"] = serial / parallel if parallel else 0.0
    cpu_per_wall = []
    for p in untraced:
        par = [s for s in p if "run_s" in s and INVOCATIONS[s["ident"]].parallel]
        wall = sum(s["run_s"] for s in par)
        if wall:
            cpu_per_wall.append(sum(s["cpu_s"] for s in par) / wall)
    metrics["products.cpu_per_wall"] = _median(cpu_per_wall)
    metrics["trace.overhead_s"] = (
        _median([_wall(p) for t, p in passes if t]) - _median([_wall(p) for p in untraced])
    )
    return metrics, problems


def record(runner: Runner, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "cores": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": runner.numpy_version,
        "platform": platform.platform(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Run one mtable benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, expected: dict | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if not (SRC / "mtable" / "__init__.py").is_file():
        print(f"error: no mtable source tree at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, expected or load_expected())
    try:
        runner.warm_up()
        bare = runner.bare_launches() if args.trace else {}
    except (BenchmarkError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    passes = runner.run(args.seconds, bool(args.trace))

    samples = [s for _, p in passes for s in p]
    failures = [f"{s['ident']}: {s['reason']}" for s in samples if s.get("reason")]
    if args.trace:
        metrics, problems = per_layer(workload, passes, bare)
        failures += problems
        unscaled = {}
    else:
        metrics = end_to_end(passes)
        unscaled = end_to_end(passes, scaled=False)
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s.get("reason")),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed
        },
    }
    rec = record(runner, args)
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(
        {"record": rec, "result": result, "all_metrics": metrics,
         "unscaled_metrics": unscaled, "failures": failures,
         "passes": [{"traced": t, "samples": p} for t, p in passes]},
        indent=1,
    ))
    print("# record " + json.dumps(rec))
    if unscaled:
        print("# unscaled " + json.dumps(unscaled))
    for failure in failures:
        print("# FAILED " + failure.replace("\n", " | "))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
