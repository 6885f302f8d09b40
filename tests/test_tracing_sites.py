"""The benchmark's tracer still finds every function it wraps.

`perfbench/tracing.py` wraps functions by (module, attribute) name and
lists each name it cannot find on an `absent:` line; the benchmark's
traced runs expect that line to name only `arrspec.spectrum.reduce_top`,
which the pairing no longer calls.  This reads the tracer's site lists
without installing anything, so a refactor that drops a wrapped name
fails here, not only in a traced benchmark run.
"""

from __future__ import annotations

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_wrapped_name_resolves_but_reduce_top():
    # run from its source, so that no bytecode is cached beside it
    tracing: dict = {"__name__": "tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing)
    absent = []
    for modname, attr in tracing["SPAN_SITES"]:
        if getattr(importlib.import_module(modname), attr, None) is None:
            absent.append(f"{modname}.{attr}")
    for modname, clsname, attr in tracing["HOT_SITES"]:
        owner = importlib.import_module(modname)
        if clsname is not None:
            owner = getattr(owner, clsname, None)
        if getattr(owner, attr, None) is None:
            absent.append(f"{modname}.{clsname + '.' if clsname else ''}{attr}")
    assert absent == ["arrspec.spectrum.reduce_top"]
