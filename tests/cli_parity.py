"""Byte-for-byte parity of the mtable command line between two source trees.

    python tests/cli_parity.py OLD_SRC [NEW_SRC]

runs every command of ``commands()`` through ``mtable.cli.run`` with
OLD_SRC on the import path and again with NEW_SRC (default: the ``src``
directory next to this file), each tree in one fresh interpreter, and
compares standard output, exit code and standard error command by
command.  Elapsed times and the temporary cache directory are masked.
Prints each command that differs and exits 1, or exits 0 when all match.
Use it to check that a change to ``cli.py`` leaves its output alone,
with OLD_SRC an unpacked copy of the parent commit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

FORMATS = ("text", "json", "csv")
SUITES = ("identities", "divisor-bound", "sigma-bound", "theorem", "bracket", "monotonicity")

# each is run once per format
BASE = [
    ("count", "--n", "1"),
    ("count", "--n", "50"),
    ("count", "--n", "300", "--segment-bits", "65536"),
    ("count", "--n", "2000", "--parallel"),
    ("count", "--n", "100", "--segment-bits", "1024"),
    ("count", "--n", "0"),
    ("count", "--n", str(2**16 + 1)),
    ("count", "--n", "x"),
    ("census", "--n-list", "10,100"),
    ("census", "--n-list", "1,2,3,10"),
    ("census", "--n-list", "10,50", "--cache", "{tmp}/census.csv"),
    ("census", "--n-list", ",,"),
    ("census", "--n-list", "10,x"),
    ("census", "--n-list", "10,10000000"),
    ("multiplicity", "--n", "6", "--k", "12"),
    ("multiplicity", "--n", "6", "--k", "12", "--method", "direct"),
    ("multiplicity", "--n", "6", "--k", "12", "--method", "formula"),
    ("multiplicity", "--n", "2", "--k", "12", "--method", "formula"),
    ("multiplicity", "--n", "100", "--k", "97"),
    ("multiplicity", "--n", "1000", "--k", "720720"),
    ("bounds", "--k", "12"),
    ("bounds", "--k", "12", "--robin-c", "6483/10000"),
    ("bounds", "--k", "1"),
    ("bounds", "--k", "2"),
    ("bounds", "--k", str(2**61 - 1)),
    ("bounds", "--k", "1000000000", "--robin-c=-1e300"),
    ("bounds", "--k", "1000000000", "--robin-c=-1.7e308"),
    ("bounds", "--k", "1000000000", "--robin-c", "1e300"),
    ("bounds", "--k", "12", "--robin-c", "abc"),
    ("series", "--s", "0", "--n", "20"),
    ("series", "--s", "2,3", "--n", "50"),
    ("series", "--s", "-1", "--n", "30"),
    ("series", "--s", "2,3,4", "--n", "50"),
    ("series", "--s", "abc", "--n", "50"),
    ("series", "--s", "2", "--n", "0"),
    *(("verify", "--suite", suite) for suite in SUITES),
    ("verify", "--suite", "identities", "--n", "10"),
    ("verify", "--suite", "divisor-bound", "--max", "10000000"),
    ("verify", "--suite", "sigma-bound", "--max", "100"),
    ("verify", "--suite", "sigma-bound", "--max", "100000", "--robin-c", "6483/10000"),
    ("verify", "--suite", "theorem", "--max", "100"),
    ("verify", "--suite", "bracket", "--max", "1000", "--robin-c", "-1"),
    ("verify", "--suite", "monotonicity", "--max", "1000"),
    ("verify", "--suite", "sigma-bound", "--max", "100", "--robin-c=-1.7e308"),
    ("verify", "--suite", "bracket", "--max", "100", "--robin-c=-1.7e308"),
    ("verify", "--suite", "identities", "--n", "0"),
    ("verify", "--suite", "monotonicity", "--max", "114"),
    ("verify", "--suite", "theorem", "--max", "8193"),
    ("verify", "--suite", "divisor-bound", "--max", "1000000001"),
    ("verify", "--suite", "identities", "--max", "501"),
    ("verify", "--suite", "everything"),
]

# run as they are
OTHER = [
    ("--help",),
    *((command, "--help") for command in
      ("count", "multiplicity", "census", "verify", "bounds", "series")),
    (),
    ("frobnicate",),
    ("count",),
    ("--format", "xml", "count", "--n", "5"),
    ("--format", "json", "count", "--n", "50"),
    ("--format", "csv", "bounds", "--k", "12"),
]


def commands() -> list[tuple[str, ...]]:
    return [base + ("--format", fmt) for base in BASE for fmt in FORMATS] + OTHER


def _mask(text: str, tmp: str) -> str:
    text = text.replace(tmp, "<tmp>")
    text = re.sub(r'"elapsed": [^,}]+', '"elapsed": <t>', text)
    return re.sub(r"\b\d+\.\d{3}s\b", "<t>s", text)


def record() -> list[dict]:
    """Run every command in this interpreter; the result of each."""
    from mtable import cli

    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with warnings.catch_warnings():
                    warnings.simplefilter("default")
                    try:
                        code = cli.run([a.replace("{tmp}", tmp) for a in argv])
                    except Exception as exc:  # a traceback is a result too
                        code = f"raised {type(exc).__name__}: {exc}"
            results.append({
                "argv": " ".join(argv),
                "code": code,
                "stdout": _mask(out.getvalue(), tmp),
                "stderr": _mask(err.getvalue(), tmp),
            })
    return results


def _run_tree(src: str) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, __file__, "--record"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--record"]:
        print(json.dumps(record()))
        return 0
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    new_src = argv[1] if len(argv) == 2 else str(Path(__file__).resolve().parents[1] / "src")
    old, new = _run_tree(argv[0]), _run_tree(new_src)
    differ = [(a, b) for a, b in zip(old, new) if a != b]
    for a, b in differ:
        print(f"DIFFERS: {a['argv']}")
        for key in ("code", "stdout", "stderr"):
            if a[key] != b[key]:
                print(f"  {key}: {a[key]!r}\n   -> {b[key]!r}")
    print(f"{len(old)} commands, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
