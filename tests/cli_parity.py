"""Byte-for-byte parity of the mtable command line.

    python tests/cli_parity.py OLD_SRC [NEW_SRC]

runs every command of ``commands()`` through ``mtable.cli.run`` with
OLD_SRC on the import path and again with NEW_SRC (default: the ``src``
directory next to this file), each tree in one fresh interpreter, and
compares standard output, exit code and standard error command by
command.  Elapsed times and the temporary cache directory are masked.
Prints each command that differs and exits 1, or exits 0 when all match.
Use it to check that a change to ``cli.py`` leaves its output alone,
with OLD_SRC an unpacked copy of the parent commit.

    python tests/cli_parity.py --write

records the same results for this checkout's ``src``, in one fresh
interpreter, and writes them to ``cli_corpus.json`` beside this script:
one entry per command with its output split into lines, together with
the numpy version, Python version and machine they were recorded on.
``tests/test_parity.py`` compares a fresh record against that file.  A
change that moves output on purpose regenerates it; commands are
appended to the lists below, never removed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

CORPUS = Path(__file__).with_name("cli_corpus.json")

FORMATS = ("text", "json", "csv")
SUITES = ("identities", "divisor-bound", "sigma-bound", "theorem", "bracket", "monotonicity")

# each is run once per format
BASE = [
    ("count", "--n", "1"),
    ("count", "--n", "50"),
    ("count", "--n", "300", "--segment-bits", "65536"),
    ("count", "--n", "2000", "--parallel"),
    ("count", "--n", "100", "--segment-bits", "1024"),
    ("count", "--n", "1024"),
    ("count", "--n", "1025"),
    ("count", "--n", "16384", "--segment-bits", "65536", "--parallel"),
    ("count", "--n", "0"),
    ("count", "--n", str(2**16 + 1)),
    ("count", "--n", "x"),
    ("census", "--n-list", "10,100"),
    ("census", "--n-list", "1,2,3,10"),
    ("census", "--n-list", "1,2,3,1024,1025"),
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
    ("bounds", "--k", str(2**63 - 1)),
    ("bounds", "--k", str(2**62 + 7)),
    ("series", "--s", "0", "--n", "20"),
    ("series", "--s", "2,3", "--n", "50"),
    ("series", "--s", "-1", "--n", "30"),
    ("series", "--s", "2,3,4", "--n", "50"),
    ("series", "--s", "abc", "--n", "50"),
    ("series", "--s", "2", "--n", "0"),
    ("series", "--s", "2", "--n", "2000"),
    ("series", "--s", "0.5", "--n", "1000"),
    ("series", "--s", "1.5,-7", "--n", "777"),
    ("series", "--s", "-1", "--n", "2000"),
    ("series", "--s", "2,3", "--n", "1999"),
    *(("verify", "--suite", suite) for suite in SUITES),
    ("verify", "--suite", "identities", "--n", "10"),
    ("verify", "--suite", "identities", "--n", "200"),
    ("verify", "--suite", "identities", "--n", "500"),
    ("verify", "--suite", "divisor-bound", "--max", "10000000"),
    ("verify", "--suite", "sigma-bound", "--max", "100"),
    ("verify", "--suite", "sigma-bound", "--max", "100000", "--robin-c", "6483/10000"),
    ("verify", "--suite", "theorem", "--max", "100"),
    ("verify", "--suite", "bracket", "--max", "1000", "--robin-c", "-1"),
    ("verify", "--suite", "bracket", "--max", "100000", "--robin-c", "-1"),
    # past the rising point through windows the records do not clear, in
    # full and in part
    ("verify", "--suite", "sigma-bound", "--max", "10000000", "--robin-c", "-1"),
    ("verify", "--suite", "sigma-bound", "--max", "10000000", "--robin-c", "0"),
    ("verify", "--suite", "bracket", "--max", "2000000", "--robin-c", "-1"),
    ("verify", "--suite", "bracket", "--max", "10000000", "--robin-c", "0"),
    ("verify", "--suite", "theorem", "--max", "8192"),
    ("verify", "--suite", "monotonicity", "--max", "1000"),
    ("verify", "--suite", "sigma-bound", "--max", "100", "--robin-c=-1.7e308"),
    ("verify", "--suite", "bracket", "--max", "100", "--robin-c=-1.7e308"),
    ("verify", "--suite", "identities", "--n", "0"),
    ("verify", "--suite", "monotonicity", "--max", "114"),
    ("verify", "--suite", "theorem", "--max", "8193"),
    ("verify", "--suite", "divisor-bound", "--max", "1000000001"),
    ("verify", "--suite", "identities", "--max", "501"),
    ("verify", "--suite", "everything"),
    ("verify", "--suite", "theorem", "--max", "65536"),
    ("verify", "--suite", "theorem", "--max", "65537"),
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
    # help, a root option before the command, and stray commands
    ("-h",),
    ("verify", "-h"),
    ("--format=json", "bounds", "--k", "12"),
    ("--form", "json", "count", "--n", "5"),
    ("-5", "count"),
    ("--format", "json", "frobnicate", "count"),
    ("count", "--n", "5", "verify"),
    # negative option values after a space, read as their "=" spelling
    ("verify", "--suite", "sigma-bound", "--max", "100", "--robin-c", "-1.7e308"),
    ("verify", "--suite", "bracket", "--max", "100", "--robin-c", "-1e3"),
    ("bounds", "--k", "12", "--robin-c", "-1/2"),
    ("series", "--s", "-1,1", "--n", "3"),
    # shapes the table parser accepts and the ones it leaves to argparse
    ("count", "--n", "5", "--n", "6"),
    ("count", "--n=5"),
    ("count", "--n", "5", "--parallel=1"),
    ("census", "--n-list", "10", "--cache", "--parallel"),
    ("count", "--n="),
    ("count", "--", "--n", "5"),
    ("count", "--n", "5", "--"),
    ("series", "--s", "-", "--n", "3"),
    ("bounds", "--k", "1_2"),
    ("count", "--n", "+5"),
    ("verify", "--suite=theorem", "--max=30"),
    ("verify", "--suite", "theorem", "--ma", "30"),
    ("bounds", "--k", "12", "--robin", "1"),
    ("count", "--n", "5", "extra"),
    ("count", "-n", "5"),
]


def commands() -> list[tuple[str, ...]]:
    return [base + ("--format", fmt) for base in BASE for fmt in FORMATS] + OTHER


def _mask(text: str, tmp: str) -> str:
    text = text.replace(tmp, "<tmp>")
    text = re.sub(r'"elapsed": [^,}]+', '"elapsed": <t>', text)
    return re.sub(r"\b\d+\.\d{3}s\b", "<t>s", text)


def record() -> list[dict]:
    """Run every command in this interpreter, help text formatted at 80
    columns; the result of each."""
    from mtable import cli

    results = []
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
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


def host() -> dict:
    """What a recorded float repr or help text can depend on."""
    import numpy

    return {
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def corpus_entry(result: dict) -> dict:
    """A result of record() as the corpus stores it: each output as a
    list of its lines, so a diff of the file shows the line that moved."""
    return {key: value.split("\n") if key in ("stdout", "stderr") else value
            for key, value in result.items()}


def _run_tree(src: str) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, __file__, "--record"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--record"]:
        print(json.dumps(record()))
        return 0
    here_src = str(Path(__file__).resolve().parents[1] / "src")
    if argv == ["--write"]:
        entries = [corpus_entry(r) for r in _run_tree(here_src)]
        with open(CORPUS, "w") as fh:
            json.dump({**host(), "commands": entries}, fh, indent=1, ensure_ascii=False)
            fh.write("\n")
        print(f"wrote {len(entries)} commands to {CORPUS}")
        return 0
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    new_src = argv[1] if len(argv) == 2 else here_src
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
