"""Every command of tests/cli_parity.py against its recorded output.

tests/cli_corpus.json holds each command's exit code, stdout and stderr
(elapsed times and temporary paths masked), so a change that moves any
printed number or message fails here, naming the first command that
differs.  `python tests/cli_parity.py --write` regenerates the file
after an intended change.
"""

import json
from itertools import zip_longest

import cli_parity


def test_cli_output_matches_corpus():
    corpus = json.loads(cli_parity.CORPUS.read_text())
    here = cli_parity.host()
    moved = [f"{key} {corpus[key]} there, {value} here"
             for key, value in here.items() if corpus[key] != value]
    host_note = f" (recorded on another host: {'; '.join(moved)})" if moved else ""
    entries = map(cli_parity.corpus_entry, cli_parity.record())
    for recorded, now in zip_longest(corpus["commands"], entries):
        argv = (recorded or now)["argv"]
        assert now == recorded, f"first command that differs: {argv}{host_note}"
