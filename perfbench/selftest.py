"""Self-test of the benchmark (about a minute).

    python3 perfbench/selftest.py

Exits 0 when every check passes, 1 otherwise, printing one line per check:

1. BENCHMARK.json names the workloads ``workloads.py`` defines, and every
   metric name matches ``[A-Za-z0-9_.-]+``.
2. ``expected.json`` pins every invocation and agrees with the values the
   test suite freezes and the pinned M(16384).
3. A tampered pin (M(16384) + 1) drives fail_frac above 0 on big_table.
4. A traced readme_cli run is correct and reports every per-layer metric,
   and per invocation the layer self times plus cli.run.self_s add up to
   the invocation's traced time.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import contextlib
import copy
import io
import json
import math
import re

import run
import spans
from workloads import INVOCATIONS, WORKLOADS, frozen_mismatches, load_expected

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(argv: list[str], expected: dict | None = None) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv, expected)
    if code != 0:
        raise RuntimeError(f"run.py {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue().splitlines()[-1])


def check_spec() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            if not NAME.fullmatch(m["name"]):
                problems.append(f"bad metric name {m['name']!r}")
    return problems


def check_pins() -> list[str]:
    expected = load_expected()
    problems = [f"no pinned answer for {i}" for i in INVOCATIONS if i not in expected]
    return problems or frozen_mismatches(expected)


def check_tampered() -> list[str]:
    expected = copy.deepcopy(load_expected())
    expected["count_16384"]["output"]["m"] += 1
    result = _run(["--workload", "big_table", "--seed", "1", "--seconds", "1"], expected)
    if result["failed"] / result["attempted"] > 0 and not result["correct"]:
        return []
    return [f"tampered M(16384) went unnoticed: {result}"]


def check_trace() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    result = _run(["--workload", "readme_cli", "--seed", "1", "--seconds", "1",
                   "--trace", "1"])
    problems = [] if result["correct"] else [f"traced run not correct: {result}"]
    listed = {m["name"] for m in spec["per_layer"]}
    if set(result["metrics"]) != listed:
        problems.append(f"traced metrics differ: {set(result['metrics']) ^ listed}")
    record = json.loads((run.OUT / "runs" / "readme_cli-seed1-trace1.json").read_text())
    parts = [*spans.LAYERS, spans.ROOT + ".self_s"]
    for p in record["passes"]:
        for s in p["samples"] if p["traced"] else []:
            layers = s["layers"]
            total = sum(layers[k] for k in parts)
            if not math.isclose(total, layers["traced_s"], rel_tol=1e-9, abs_tol=1e-9):
                problems.append(
                    f"{s['ident']}: self times add to {total}, traced {layers['traced_s']}"
                )
    return problems


def main() -> int:
    failed = False
    for check in (check_spec, check_pins, check_tampered, check_trace):
        problems = check()
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {check.__name__}")
        for problem in problems:
            print(f"     {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
