"""A look inside the computation for six generic planes in C^3.

Generic here means: normals on the moment curve, so every pair of planes
meets in a distinct line and no three lines are coplanar beyond the
forced incidences.  The script exposes the nested sets, the relation
ideal, one characteristic class per exterior power, and the final
intersection-number extraction.
"""

from fractions import Fraction

from arrspec import (
    enumerate_nested,
    multiplicity,
    prepare,
    r_alpha,
    reduce_top,
    run_checks,
    spectrum_from_setup,
)
from arrspec.fixtures import resolve_fixture
from arrspec.spectrum import beta

# the maximal building set: every line and the origin
setup = prepare(resolve_fixture("generic3d:6"), "maximal")
bs = setup.building
print("building set size:", bs.size, " ambient dimension:", setup.n)

nested = enumerate_nested(bs, setup.n - 1)
by_size = {}
for subset in nested:
    by_size[len(subset)] = by_size.get(len(subset), 0) + 1
print("nested subsets by size:", by_size)

ideal = setup.ideal
degrees = {}
for g in ideal.generators:
    degrees[g.degree()] = degrees.get(g.degree(), 0) + 1
print("ideal generators by degree:", degrees)
print("quotient ranks:", ideal.quotient_ranks)

# the todd class integrates to 1: the resolution is a rational variety
print("integral of todd class:", reduce_top(setup.classes.todd, ideal))

# one multiplicity by hand: eigenvalue data, twisting class, pairing
k = 1
eig = beta(setup.arrangement, k)
for p in range(setup.n):
    r = r_alpha(setup.classes, eig, p)
    pairing = reduce_top(r * setup.classes.todd, ideal)
    sign = (-1) ** (setup.n - 1 - p)
    assert multiplicity(setup, k, p) == sign * pairing
    print(
        "k={} p={}  alpha={}  sign {:+d}  <R todd> = {}  multiplicity {}".format(
            k, p, Fraction(k, setup.degree) + p, sign, pairing, multiplicity(setup, k, p)
        )
    )

result = spectrum_from_setup(setup)
print("\nspectrum:", ", ".join("{}:{}".format(a, m) for a, m in result.as_pairs()))

print("\nverification battery:")
for check in run_checks(setup, result):
    print("  [{}] {}".format("PASS" if check.passed else "FAIL", check.name))
