"""homotor: multigraded Tor tables of monomial ideals over a prime field,
the sum/product complexes attached to an ideal family, the spectral
sequences relating them, and degreewise verification suites for the
homological identities they satisfy."""

__version__ = "0.1.0"

from .exactlin import GF, PrimeField
from .monomial import (
    MonomialIdeal,
    Multidegree,
    combine,
    iter_box,
    lcm_deg,
    membership,
    quotient_dimension,
)
from .gcomplex import (
    GradedComplex,
    Summand,
    TorTable,
    cancel_units,
    module_homology_table,
    resolution,
    taylor_resolution,
)
from .multicomplex import Multicomplex, hypercube_augment, tensor
from .spectral import FilteredTotal, SpectralPages, build_filtration, pages
from .torlab import (
    betti_table,
    family_box,
    independence,
    multi_tor,
    rigidity_check,
    serre_a8_check,
    tor1_oracle,
)
from .sumprod import (
    augmented_interior_H,
    build_p_complex,
    build_s_complex,
    complex_homology_table,
    exactness_equivalences,
    mv_total_complex,
    verify_identities,
)
from .support import region_compare, supportoftors_check
from .cli import parse_problem, random_instance, run
