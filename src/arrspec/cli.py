"""Command line interface.

Subcommands: `compute` (spectrum of an arrangement), `lattice` (dump the
intersection lattice and building set), `verify` (run the self-check
battery and report).  The positional argument is either a built-in
fixture name or a path to a JSON input document.

Exit codes: 0 success, 1 validation failure (bad input, or a failed
verification check), 2 structural or internal error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .arrangement import (
    Arrangement,
    StructureError,
    ValidationError,
    build_lattice,
    euler_projective_complement,
)
from .checks import run_checks
from .docio import load_input, parse_closure_sets, read_json, render, result_to_dict
from .fixtures import fixture_names, resolve_fixture
from .spectrum import choose_building, prepare, spectrum_from_setup


def _load(args):
    """The arrangement, and its building set as `choose_building` takes it:
    None for the minimal set, "maximal", or closure sets.

    `--building-set` decides when given: `maximal`, or a JSON file of
    closure sets.  Without it the input document does, and a fixture or a
    document that names none takes the minimal set, as `prepare` does.
    """
    arrangement, closures = resolve_fixture(args.source), None
    if arrangement is None:
        doc = load_input(args.source)
        arrangement, closures = doc.arrangement, doc.building_closures
    path = args.building_set
    if path is None:
        return arrangement, closures
    if path == "maximal":
        return arrangement, path
    return arrangement, parse_closure_sets(read_json(path), path)


def _cmd_compute(args) -> int:
    arrangement, closures = _load(args)
    setup = prepare(arrangement, closures)
    result = spectrum_from_setup(setup)
    checks = None if args.no_checks else run_checks(setup, result)
    if args.json:
        sys.stdout.write(render(result_to_dict(result, checks)))
    else:
        print(f"degree {result.degree}")
        for pt in result.points:
            print(f"  alpha {pt.alpha}: multiplicity {pt.mult} (k={pt.k}, p={pt.p})")
        if checks is not None:
            for c in checks:
                print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}")
    if checks is not None and not all(c.passed for c in checks):
        return 1
    return 0


def _cmd_lattice(args) -> int:
    arrangement, closures = _load(args)
    lattice = build_lattice(arrangement)
    bs = choose_building(lattice, closures)
    euler = euler_projective_complement(lattice)
    if args.json:
        doc = {
            "n": arrangement.n,
            "degree": arrangement.degree,
            "essential": lattice.is_essential,
            "euler_projective_complement": euler,
            "flats": [
                {
                    "index": i,
                    "closure": list(f.closure),
                    "dim": f.dim,
                    "codim": f.codim,
                    "mobius": mu,
                }
                for i, (f, mu) in enumerate(zip(lattice.flats, lattice.mobius))
            ],
            "covers": [list(pair) for pair in lattice.covers()],
            "building_set": [
                {
                    "index": i,
                    "label": bs.label(i),
                    "dim": bs.dims[i],
                    "codim": bs.codims[i],
                    "closure": None if i == 0 else list(bs.closures[i]),
                }
                for i in range(bs.size)
            ],
        }
        sys.stdout.write(render(doc))
        return 0
    print(f"arrangement: n={arrangement.n}, {arrangement.size} hyperplanes, degree {arrangement.degree}")
    print(f"essential: {'yes' if lattice.is_essential else 'no'}")
    print(f"flats ({len(lattice.flats)}):")
    for i, (f, mu) in enumerate(zip(lattice.flats, lattice.mobius)):
        closure = "{" + ",".join(map(str, f.closure)) + "}"
        print(f"  [{i}] dim {f.dim} codim {f.codim} mobius {mu:+d} closure {closure}")
    print("covers (flat > flat):")
    for i, j in lattice.covers():
        print(f"  [{i}] > [{j}]")
    kind = "maximal" if bs.is_maximal else "minimal" if closures is None else "custom"
    print(f"building set ({bs.size} elements, {kind}):")
    for i in range(bs.size):
        what = "formal zero element" if i == 0 else bs.label(i)
        print(f"  c{i} = {what} (dim {bs.dims[i]}, codim {bs.codims[i]})")
    print(f"euler characteristic of projectivized complement: {euler}")
    return 0


def _cmd_verify(args) -> int:
    arrangement, closures = _load(args)
    setup = prepare(arrangement, closures)
    result = spectrum_from_setup(setup)
    checks = run_checks(setup, result)
    ok = all(c.passed for c in checks)
    if args.json:
        doc = result_to_dict(result, checks)
        doc["all_passed"] = ok
        sys.stdout.write(render(doc))
    else:
        for c in checks:
            print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="arrspec",
        description="Hodge spectra of central hyperplane arrangements, exactly.",
        epilog="built-in fixtures: " + ", ".join(fixture_names()),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, json_default: bool) -> None:
        p.add_argument("source", help="fixture name or path to a JSON input document")
        p.add_argument(
            "--json",
            action=argparse.BooleanOptionalAction,
            default=json_default,
            help="structured JSON output",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="accepted for compatibility and ignored (must be at least 1)",
        )
        p.add_argument(
            "--building-set",
            metavar="maximal|FILE",
            help="maximal, or a JSON file with explicit closure sets; without it, the "
            "input document's building_set (the minimal set of irreducible flats if it names none)",
        )

    p_compute = sub.add_parser("compute", help="compute the Hodge spectrum")
    common(p_compute, json_default=True)
    p_compute.add_argument(
        "--no-checks", action="store_true", help="skip the self-check battery"
    )
    p_compute.set_defaults(func=_cmd_compute)

    p_lattice = sub.add_parser("lattice", help="dump flats, Mobius values, building set")
    common(p_lattice, json_default=False)
    p_lattice.set_defaults(func=_cmd_lattice)

    p_verify = sub.add_parser("verify", help="run self-checks and report")
    common(p_verify, json_default=False)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StructureError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
