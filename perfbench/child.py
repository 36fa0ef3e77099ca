"""Run one mtable CLI invocation in this fresh interpreter and report on it.

    python3 child.py '<json job>'

The job holds ``argv`` (the CLI arguments), ``src`` (the directory that
must provide ``mtable``), ``trace`` (wrap the library layers in spans)
and ``spans`` (where a traced run writes its spans).  The interpreter
imports numpy, times a fixed reference work (``probe``: how fast the host
runs right now), imports ``mtable`` and ``mtable.cli`` (what the
``mtable`` command imports), then times ``mtable.cli.run(argv)`` with its
standard output captured.  The probe runs before ``mtable`` is imported,
so nothing the program does can change it.  The report, one JSON object,
is the only line this process writes to standard output.  Timestamps use
CLOCK_MONOTONIC, which the parent shares, so it can measure set-up from
its own launch time.
"""

import time

import contextlib
import io
import json
import os
import resource
import sys
import traceback


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _reference_work(np) -> int:
    """Work like the program's own: an interpreted loop, strided writes
    with short strides into a 2 MiB boolean array, and a loop of strided
    writes with long strides into a 1 MiB window, as in products."""
    total = 0
    for i in range(60_000):
        total += i * i
    marks = np.zeros(1 << 21, dtype=bool)
    for a in range(1, 48):
        marks[a * a :: a] = True
    window = np.zeros(1 << 20, dtype=bool)
    for a in range(1024, 3072):
        window[a % 7 :: a] = True
    return total + int(np.count_nonzero(marks)) + int(np.count_nonzero(window))


def probe(np, repeats: int = 3) -> float:
    """Seconds the reference work takes now: the median of ``repeats``."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        _reference_work(np)
        times.append(time.perf_counter() - t)
    return sorted(times)[repeats // 2]


def main() -> int:
    job = json.loads(sys.argv[1])
    import numpy

    numpy_done = time.monotonic()
    probe_s = probe(numpy)
    probe_done = time.monotonic()
    import mtable
    import mtable.cli

    import_done = time.monotonic()
    report = {
        "numpy_done": numpy_done,
        "import_done": import_done,
        "probe_s": probe_s,
        "probe_wall_s": probe_done - numpy_done,
        "numpy_version": numpy.__version__,
    }
    src = os.path.realpath(job["src"])
    if not os.path.realpath(mtable.__file__).startswith(src + os.sep):
        report["error"] = f"mtable imported from {mtable.__file__}, not {src}"
        print(json.dumps(report))
        return 0
    recorder = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
        import spans

        recorder = spans.Recorder()
        metric_of = spans.install(recorder)
        root = recorder.name_id(spans.ROOT)
    out = io.StringIO()
    code = None
    cpu = _cpu_s()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if recorder is None:
                code = mtable.cli.run(job["argv"])
            else:
                i = recorder.open(root)
                try:
                    code = mtable.cli.run(job["argv"])
                finally:
                    recorder.close(i)
    except Exception:  # a crash is reported as a failed invocation
        report["error"] = traceback.format_exc()
    report["run_s"] = time.perf_counter() - start
    report["cpu_s"] = _cpu_s() - cpu
    report["exit"] = code
    report["output"] = out.getvalue()
    # ru_maxrss is in KiB on Linux; children are the reaped pool workers
    report["maxrss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if recorder is not None:
        report["layers"] = spans.layer_values(recorder.summary(), metric_of)
        recorder.save(job["spans"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
