"""Golden stdout: rendering changes must leave every byte of output alone.

``output_digests.json`` holds, for each job, its argv, its exit status and
the sha256 of its stdout, recorded on the tree before the CLI's JSON writer
replaced ``json.dumps``.  The jobs are every job of the seed-1 perfbench
decks and every polytope listing for n = 3..16 in all three formats.
"""

import hashlib
import json
from pathlib import Path

import pytest

from magiccount.cli import main

JOBS = json.loads(Path(__file__).with_name("output_digests.json").read_text())["jobs"]


@pytest.mark.parametrize("argv, status, digest", JOBS, ids=[" ".join(argv) for argv, _, _ in JOBS])
def test_stdout_matches_its_recorded_digest(capsys, argv, status, digest):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == status
    assert hashlib.sha256(out.encode()).hexdigest() == digest
