"""Exact Hodge spectra of central hyperplane arrangements.

The spectrum of a product of powers of linear forms depends only on the
intersection lattice of the hyperplanes and the multiplicities.  This
package computes it exactly over the rationals: the lattice, a building
set and its nested subsets, the truncated cohomology ring of the log
resolution with its relation ideal, the characteristic classes living in
that ring, and finally one integer multiplicity per candidate exponent.
"""

from .arrangement import (
    Arrangement,
    Flat,
    Hyperplane,
    IntersectionLattice,
    StructureError,
    ValidationError,
    build_lattice,
    euler_projective_complement,
)
from .checks import CheckResult, plane_curve_oracle, run_checks
from .chern import CharClasses, ch_dual_exterior_roots, char_classes, q_series
from .nested import (
    BuildingSet,
    building_from_closures,
    d_value,
    enumerate_nested,
    is_nested,
    maximal_building,
    minimal_building,
)
from .ring import (
    GradedPoly,
    IdealPresentation,
    QuotientElement,
    ideal_generators,
    reduce_top,
)
from .spectrum import (
    EigenData,
    SpectralPoint,
    SpectrumResult,
    SpectrumSetup,
    a_coeff,
    beta,
    multiplicity,
    prepare,
    r_alpha,
    s_value,
    spectrum,
    spectrum_from_setup,
    twist_exp,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "BuildingSet",
    "CharClasses",
    "CheckResult",
    "EigenData",
    "Flat",
    "GradedPoly",
    "Hyperplane",
    "IdealPresentation",
    "IntersectionLattice",
    "QuotientElement",
    "SpectralPoint",
    "SpectrumResult",
    "SpectrumSetup",
    "StructureError",
    "ValidationError",
    "a_coeff",
    "beta",
    "build_lattice",
    "building_from_closures",
    "ch_dual_exterior_roots",
    "char_classes",
    "d_value",
    "enumerate_nested",
    "euler_projective_complement",
    "ideal_generators",
    "is_nested",
    "maximal_building",
    "minimal_building",
    "multiplicity",
    "plane_curve_oracle",
    "prepare",
    "q_series",
    "r_alpha",
    "reduce_top",
    "run_checks",
    "s_value",
    "spectrum",
    "spectrum_from_setup",
    "twist_exp",
    "__version__",
]
