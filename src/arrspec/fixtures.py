"""Built-in example arrangements, addressable by name from the CLI."""

from __future__ import annotations

from .arrangement import Arrangement, ValidationError


def _three_lines() -> Arrangement:
    # x * y * (x + y) in the plane
    return Arrangement.from_normals(2, [(1, 0), (0, 1), (1, 1)])


def _three_lines_weighted() -> Arrangement:
    # x^2 * y * (x + y)
    return Arrangement.from_normals(2, [(1, 0), (0, 1), (1, 1)], [2, 1, 1])


def _quartic_one() -> Arrangement:
    # (x^2 - y^2) * (x + z) * (x + 2z)
    return Arrangement.from_normals(
        3, [(1, -1, 0), (1, 1, 0), (1, 0, 1), (1, 0, 2)]
    )


def _quartic_two() -> Arrangement:
    # (x^2 - y^2) * (x^2 - z^2)
    return Arrangement.from_normals(
        3, [(1, -1, 0), (1, 1, 0), (1, 0, -1), (1, 0, 1)]
    )


def _lines(d: int) -> Arrangement:
    if d < 1:
        raise ValidationError("lines fixture needs at least one line")
    normals = [(1, 0)]
    if d >= 2:
        normals.append((0, 1))
    normals.extend((1, j) for j in range(1, d - 1))
    return Arrangement.from_normals(2, normals)


def _generic3d(m: int) -> Arrangement:
    if m < 1:
        raise ValidationError("generic3d fixture needs at least one plane")
    # moment-curve normals: any three are linearly independent
    return Arrangement.from_normals(3, [(1, t, t * t) for t in range(m)])


# the largest parameter of each parametric fixture: `Arrangement` compares
# every pair of normals, and the spectrum's layers grow faster still
FIXTURE_LIMITS = {"lines:": 1000, "generic3d:": 30}

_NAMED = {
    "example-a": _three_lines,
    "example-a-weighted": _three_lines_weighted,
    "example-b1": _quartic_one,
    "example-b2": _quartic_two,
}


def fixture_names() -> list[str]:
    return sorted(_NAMED) + ["lines:<d>", "generic3d:<m>"]


def resolve_fixture(name: str) -> Arrangement | None:
    """Arrangement for a fixture name, or None if the name is not a fixture."""
    if name in _NAMED:
        return _NAMED[name]()
    for prefix, builder in (("lines:", _lines), ("generic3d:", _generic3d)):
        if name.startswith(prefix):
            raw = name[len(prefix):]
            try:
                count = int(raw)
            except ValueError:
                raise ValidationError(f"fixture {name!r}: {raw!r} is not an integer") from None
            limit = FIXTURE_LIMITS[prefix]
            if count > limit:
                raise ValidationError(f"fixture {name!r}: the limit is {prefix}{limit}")
            return builder(count)
    return None
