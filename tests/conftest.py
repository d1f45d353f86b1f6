import itertools

import pytest
from hypothesis import settings

from homotor import MonomialIdeal, Multidegree
from homotor.cli import random_instance
from homotor.gcomplex import (
    GradedComplex,
    cancel_units,
    exterior_complex,
    free_summand,
    taylor_resolution,
    with_coefficient,
)
from homotor.multicomplex import Multicomplex, hypercube_augment, tensor, totalize

settings.register_profile("det", derandomize=True, max_examples=60)
settings.load_profile("det")


def stream(seed, count, **params):
    """Deterministic family stream used across the suites."""
    return [random_instance(seed + t, **params) for t in range(count)]


def tensor_total(ideals, coefficient=None):
    """Every module resolved: the total of the tensor of the unit-cancelled
    Taylor resolutions, with R/coefficient applied termwise.  Its homology
    is the Tor table that the balanced ``multi_tor`` must reproduce."""
    total = totalize(
        tensor([cancel_units(taylor_resolution(ideal)) for ideal in ideals])
    )
    if coefficient is not None and not coefficient.is_zero():
        total = with_coefficient(total, coefficient)
    return total


def unit_koszul(n, orientation="chain"):
    """K(1,...,1;R) on n exterior generators (or its cochain dual); exact."""
    zero = Multidegree.zero(n)
    terms, entries = exterior_complex(
        n, lambda s: free_summand(zero, label=s), orientation
    )
    return GradedComplex(n, terms, entries, orientation)


def region(m, keep):
    """The multicomplex on the positions q of m with keep(q): a face is a
    subcomplex, an interior a quotient, and either keeps the entries of m
    between its positions."""
    return Multicomplex(m.n_axes, m.n_vars,
                        {q: ss for q, ss in m.terms.items() if keep(q)}, m.diffs)


def direct_e1(factors, gamma, kind):
    """First page at gamma of one of the four filtrations of
    tensor(factors), computed directly: at (p, .) the homology of the faces
    with p axes set to zero (kcone kinds; kcone_augmented leaves out the
    origin, where all n are), of the interiors of the p-axis faces
    (interior), or of the augmented interiors of the p-factor subfamilies
    (interior_augmented)."""
    m = tensor(factors)
    n = m.n_axes
    out = {}

    def add(p, c, offset):
        for i, d in c.homology_at(gamma).items():
            if d:
                out[(p, i - offset)] = out.get((p, i - offset), 0) + d

    for p in range(n + 1):
        for S in itertools.combinations(range(n), p):
            if kind in ("kcone", "kcone_augmented"):
                if kind == "kcone_augmented" and p == n:
                    continue
                add(p, totalize(region(m, lambda q: not any(q[i] for i in S))), 0)
            elif kind == "interior":
                support = set(S)
                add(p, totalize(region(
                    m, lambda q: {i for i, v in enumerate(q) if v} == support)), p)
            elif p:
                add(p, hypercube_augment(tensor([factors[i] for i in S])), p)
    return out


def free_complex(dims, diffs=None):
    """The free complex in one variable with dims[i] zero-shift summands in
    term i and d_i = diffs[i], a ScalarMatrix: its fibre at (0,) is the
    matrix complex itself."""
    terms = {i: [free_summand((0,))] * d for i, d in dims.items()}
    entries = {
        i: [(c, r, v) for (r, c), v in m.entries.items()]
        for i, m in (diffs or {}).items()
    }
    return GradedComplex(1, terms, entries)


@pytest.fixture
def kxy():
    """Common ideals in k[x, y]."""
    return {
        "x": MonomialIdeal(2, [(1, 0)]),
        "y": MonomialIdeal(2, [(0, 1)]),
        "m": MonomialIdeal(2, [(1, 0), (0, 1)]),
        "xy": MonomialIdeal(2, [(1, 1)]),
        "x2xy": MonomialIdeal(2, [(2, 0), (1, 1)]),
    }


@pytest.fixture
def kxyz():
    return {
        "x": MonomialIdeal(3, [(1, 0, 0)]),
        "y": MonomialIdeal(3, [(0, 1, 0)]),
        "z": MonomialIdeal(3, [(0, 0, 1)]),
        "xy": MonomialIdeal(3, [(1, 1, 0)]),
    }
