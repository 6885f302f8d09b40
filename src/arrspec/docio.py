"""JSON documents for arrangements and spectrum results.

Rationals are carried as strings like "2/3" (integers may stay bare JSON
numbers on input).  Output is rendered with sorted keys and a fixed
indent, so equal results are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .arrangement import Arrangement, Hyperplane, ValidationError, as_fraction
from .checks import CheckResult
from .spectrum import SpectrumResult


@dataclass
class InputDocument:
    """A parsed input document.  `building_closures` is its building set as
    `choose_building` takes it: None when the document names none (the
    minimal set), "maximal", or the listed closure sets."""

    arrangement: Arrangement
    building_closures: Literal["maximal"] | list[list[int]] | None = None


def _coeff(value, where: str) -> Fraction:
    if isinstance(value, float):
        raise ValidationError(f"{where}: floating point is not accepted; use a string like \"1/3\"")
    try:
        return as_fraction(value)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def parse_input(text: str) -> InputDocument:
    """The document's arrangement and building set: no "building_set" key
    gives None, "maximal" stays "maximal", and a list is checked to be
    closure sets."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ValidationError("input document must be a JSON object")
    unknown = set(raw) - {"n", "hyperplanes", "building_set"}
    if unknown:
        raise ValidationError(f"unknown fields: {', '.join(sorted(unknown))}")
    if "n" not in raw or "hyperplanes" not in raw:
        raise ValidationError('input document needs fields "n" and "hyperplanes"')
    n = raw["n"]
    if not isinstance(n, int):
        raise ValidationError('"n" must be an integer')
    hps_raw = raw["hyperplanes"]
    if not isinstance(hps_raw, list):
        raise ValidationError('"hyperplanes" must be a list')
    hps = []
    for i, h in enumerate(hps_raw):
        where = f"hyperplanes[{i}]"
        if not isinstance(h, dict):
            raise ValidationError(f"{where} must be an object")
        if "coeffs" not in h:
            raise ValidationError(f'{where} needs a "coeffs" list')
        coeffs = h["coeffs"]
        if not isinstance(coeffs, list):
            raise ValidationError(f"{where}.coeffs must be a list")
        normal = tuple(_coeff(c, f"{where}.coeffs[{j}]") for j, c in enumerate(coeffs))
        extra = set(h) - {"coeffs", "mult"}
        if extra:
            raise ValidationError(f"{where}: unknown fields {', '.join(sorted(extra))}")
        hps.append(Hyperplane(normal, h.get("mult", 1)))
    arrangement = Arrangement(n, hps)

    if "building_set" not in raw:
        return InputDocument(arrangement)
    building = raw["building_set"]
    if building == "maximal":
        return InputDocument(arrangement, building)
    return InputDocument(arrangement, parse_closure_sets(building, '"building_set"'))


def parse_closure_sets(raw, where: str) -> list[list[int]]:
    """Explicit closure sets: a list of lists of hyperplane indices (not booleans)."""
    if not (
        isinstance(raw, list)
        and all(
            isinstance(cs, list) and all(type(i) is int for i in cs) for cs in raw
        )
    ):
        raise ValidationError(
            f"{where}: expected a list of closure sets (lists of hyperplane indices)"
        )
    return [list(cs) for cs in raw]


def load_input(path: str) -> InputDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    return parse_input(text)


def arrangement_to_dict(arrangement: Arrangement) -> dict:
    return {
        "n": arrangement.n,
        "hyperplanes": [
            {"coeffs": [str(c) for c in h.normal], "mult": h.mult}
            for h in arrangement.hyperplanes
        ],
    }


def result_to_dict(result: SpectrumResult, checks: list[CheckResult] | None = None) -> dict:
    doc = {
        "degree": result.degree,
        "spectrum": [
            {"alpha": str(pt.alpha), "mult": pt.mult, "k": pt.k, "p": pt.p}
            for pt in result.points
        ],
        "warnings": list(result.warnings),
    }
    if checks is not None:
        doc["checks"] = [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ]
    return doc


def render(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_output(text: str) -> dict:
    """Inverse of `render` on the data level."""
    return json.loads(text)
