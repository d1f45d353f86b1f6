import pytest
from hypothesis import settings

from homotor import MonomialIdeal
from homotor.cli import random_instance
from homotor.gcomplex import (
    GradedComplex,
    cancel_units,
    free_summand,
    taylor_resolution,
    with_coefficient,
)
from homotor.multicomplex import tensor, totalize

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
