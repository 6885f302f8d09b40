"""The CLI prints, byte for byte, what tests/golden/cli/ records.

Each golden file holds one command's exit code on its first line
(`exit N`) and then its stdout.  The built-in fixtures stop at n = 3; the
JSON input documents in the same directory (braid A4 and a weighted
rank-4 arrangement, both in C^4) pin degree-3 rings, a third
(example-b1's planes with the building set of its irreducible flats) pins
a custom building set, and a fourth (braid A3 in standard form, the six
forms x_i - x_j in C^4) pins a non-essential input, and a fifth (ten
lines in C^2 with multiplicities 1-3, degree 19) pins eigenvalues that
share their twist.  The documents under rejected/ must fail: not-utf8 (a
UTF-16 byte-order mark before "{}") exits 1 with empty stdout.  Without
`--building-set` the CLI runs on the minimal building set; the
`*-maximal` cases rerun three sources with `--building-set maximal`, so
the maximal model stays pinned byte for byte as well.  To record new
output after an intended change, run
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
The CI entry-point step runs every case through `python -m arrspec`,
reading the cases from this module.
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
DOCUMENTS = ["braid-a4", "weighted-c4", "custom-b1", "braid-a3-c4", "weighted-lines-c2"]
# documents the CLI rejects, by file stem in GOLDEN / "rejected": one compute case each
REJECTED = ["not-utf8"]
# case name in the golden file name -> command line after the source
COMMANDS = {
    "compute": ["compute", "--json"],
    "verify": ["verify"],
    "lattice": ["lattice", "--json"],
    "compute-text": ["compute", "--no-json"],
    "verify-json": ["verify", "--json"],
    "compute-maximal": ["compute", "--json", "--building-set", "maximal"],
    "verify-maximal": ["verify", "--building-set", "maximal"],
    "lattice-maximal": ["lattice", "--json", "--building-set", "maximal"],
}
CASES = [(f, c) for f in FIXTURES + DOCUMENTS for c in ("compute", "verify", "lattice")]
CASES += [("example-b1", "compute-text"), ("example-b1", "verify-json")]
CASES += [
    (f, c)
    for f in ("example-b1", "generic3d:5", "braid-a4")
    for c in ("compute-maximal", "verify-maximal", "lattice-maximal")
]
CASES += [(f, "compute") for f in REJECTED]


def _golden_path(fixture: str, case: str) -> Path:
    return GOLDEN / f"{fixture.replace(':', '-')}.{case}.txt"


def _argv(fixture: str, case: str) -> list[str]:
    """The case's command line after the program name."""
    source = fixture
    if fixture in DOCUMENTS:
        source = str(GOLDEN / f"{fixture}.json")
    elif fixture in REJECTED:
        source = str(GOLDEN / "rejected" / f"{fixture}.json")
    command, *options = COMMANDS[case]
    return [command, source, *options]


def _run(fixture: str, case: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_argv(fixture, case))
    return f"exit {code}\n{out.getvalue()}"


def test_every_golden_file_is_a_case():
    assert sorted(GOLDEN.glob("*.txt")) == sorted(_golden_path(f, c) for f, c in CASES)


@pytest.mark.parametrize("fixture,case", CASES, ids=[f"{f}-{c}" for f, c in CASES])
def test_cli_prints_its_golden_output(fixture, case):
    assert _run(fixture, case) == _golden_path(fixture, case).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for fixture, case in CASES:
        _golden_path(fixture, case).write_text(_run(fixture, case), encoding="utf-8")
