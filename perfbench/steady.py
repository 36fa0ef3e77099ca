"""Run the benchmark's workloads repeatedly and report how steady each
end-to-end metric is.

    python3 perfbench/steady.py [--repeats 10] [--workload NAME ...]
        [--seconds S] [--first-seed 1] [--trace] [--out FILE]
        [--baseline FILE]

Each repeat is one ``run.py`` run with the next seed.  Per workload and
end-to-end metric this prints the unit, the sample count, the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance as a share of the median) and whether that spread sits within
the bound ``BENCHMARK.json`` fixes for the metric.  It also prints the
failure fraction, failed / attempted invocations over all repeats.
``--repeats 1`` runs every workload once and prints every metric.

``--trace`` adds one traced run per workload and prints its per-layer
metrics.  ``--out`` writes everything as JSON (``baseline.json`` in this
directory was written this way).  ``--baseline`` compares each median
with the one in an earlier ``--out`` file and flags a metric whose median
got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(record, result) of one run.py run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    record = next(json.loads(line[len("# record "):]) for line in lines
                  if line.startswith("# record "))
    for line in lines:
        if line.startswith("# FAILED"):
            print(f"  {workload} seed {seed}: {line[2:]}")
    return record, json.loads(lines[-1])


def summarise(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
    spread = (q3 - q1) / median if median else float("inf")
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "within_bound": bound is None or spread <= bound,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text()) if args.baseline else None

    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workload or names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.repeats):
            record, result = run_once(workload, seed, args.seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        entry = {
            "record": record,
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "end_to_end": {
                m["name"]: dict(unit=m["unit"], **summarise(values[m["name"]], m["bound"]))
                for m in spec["end_to_end"]
            },
        }
        print(f"\n{workload}: seeds {args.first_seed}..{seed}, {args.seconds} s runs, "
              f"{record['cores']} cores, {record['ram_mb']} MB, Python "
              f"{record['python']}, numpy {record['numpy']}, commit {record['commit']}")
        print(f"  {'metric':12} {'unit':5} {'n':>3} {'median':>11} {'q1':>11} "
              f"{'q3':>11} {'spread':>7} {'bound':>6}")
        for name, s in entry["end_to_end"].items():
            verdict = "within bound" if s["within_bound"] else "SPREAD ABOVE BOUND"
            line = (f"  {name:12} {s['unit']:5} {len(s['values']):3} {s['median']:11.5g} "
                    f"{s['q1']:11.5g} {s['q3']:11.5g} {s['spread']:7.3f} "
                    f"{s['bound']:6.2f} {verdict}")
            if baseline:
                old = baseline["workloads"][workload]["end_to_end"][name]["median"]
                change = s["median"] / old - 1
                worse = change > s["bound"]
                line += f"  vs baseline {change:+.3f}{' WORSE THAN BOUND' if worse else ''}"
            print(line)
        print(f"  {'fail_frac':12} {'ratio':5} {entry['fail_frac']:.6g} "
              f"({failed} of {attempted} invocations failed)")
        if args.trace:
            _, traced = run_once(workload, args.first_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_correct"] = traced["correct"]
            print(f"  traced run (seed {args.first_seed}), correct={traced['correct']}:")
            for name, metric in traced["metrics"].items():
                if metric["value"]:
                    print(f"    {name:42} {metric['value']:12.6g} {metric['unit']}")
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
