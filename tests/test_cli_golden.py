"""The CLI prints, byte for byte, what tests/golden/cli/ records.

Each golden file holds one command's exit code on its first line
(`exit N`) and then its stdout.  The built-in fixtures stop at n = 3; the
JSON input documents in the same directory (braid A4 and a weighted
rank-4 arrangement, both in C^4) pin degree-3 rings.  To record new
output after an intended change, run
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from arrspec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"
FIXTURES = [
    "example-a",
    "example-a-weighted",
    "example-b1",
    "example-b2",
    "lines:3",
    "lines:9",
    "generic3d:5",
]
# input documents, by file stem in GOLDEN
DOCUMENTS = ["braid-a4", "weighted-c4"]
COMMANDS = {"compute": ["--json"], "verify": [], "lattice": ["--json"]}
CASES = [(f, c) for f in FIXTURES for c in COMMANDS]
CASES += [(f, c) for f in DOCUMENTS for c in ("compute", "verify")]


def _golden_path(fixture: str, command: str) -> Path:
    return GOLDEN / f"{fixture.replace(':', '-')}.{command}.txt"


def _run(fixture: str, command: str) -> str:
    source = str(GOLDEN / f"{fixture}.json") if fixture in DOCUMENTS else fixture
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, source, *COMMANDS[command]])
    return f"exit {code}\n{out.getvalue()}"


def test_every_golden_file_is_a_case():
    assert sorted(GOLDEN.glob("*.txt")) == sorted(_golden_path(f, c) for f, c in CASES)


@pytest.mark.parametrize("fixture,command", CASES, ids=[f"{f}-{c}" for f, c in CASES])
def test_cli_prints_its_golden_output(fixture, command):
    assert _run(fixture, command) == _golden_path(fixture, command).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for fixture, command in CASES:
        _golden_path(fixture, command).write_text(_run(fixture, command), encoding="utf-8")
