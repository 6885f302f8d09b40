"""The spectrum is a lattice invariant: two quartic surfaces, one answer.

(x^2-y^2)(x+z)(x+2z) and (x^2-y^2)(x^2-z^2) are different arrangements
of four planes in C^3, but their intersection lattices are isomorphic,
so every number this package computes agrees between them.  Note the
negative multiplicity at t^2: spectra of non-isolated singularities are
virtual and need not be effective.
"""

from arrspec import Arrangement, prepare, spectrum_from_setup

quartics = {
    "(x^2-y^2)(x+z)(x+2z)": [(1, -1, 0), (1, 1, 0), (1, 0, 1), (1, 0, 2)],
    "(x^2-y^2)(x^2-z^2)": [(1, -1, 0), (1, 1, 0), (1, 0, -1), (1, 0, 1)],
}

results = {}
for label, normals in quartics.items():
    # the maximal building set, the model whose ranks the paper prints
    setup = prepare(Arrangement.from_normals(3, normals), "maximal")
    lat = setup.lattice
    by_codim = {}
    for flat in lat.flats:
        by_codim[flat.codim] = by_codim.get(flat.codim, 0) + 1
    print(label)
    print("  flats by codimension:", by_codim)
    print("  cohomology ranks    :", setup.ideal.quotient_ranks)
    results[label] = spectrum_from_setup(setup)

first, second = results.values()
assert first.as_pairs() == second.as_pairs()

print("\ncommon spectrum:")
for pt in first.points:
    print("  multiplicity {:>2} at t^{}".format(pt.mult, pt.alpha))
