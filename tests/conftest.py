import itertools

import pytest
from hypothesis import settings

from homotor import MonomialIdeal, Multidegree
from homotor.cli import random_instance
from homotor.exactlin import GF
from homotor.gcomplex import (
    FREE,
    IDEAL,
    GradedComplex,
    cancel_units,
    exterior_complex,
    free_summand,
    taylor_resolution,
    with_coefficient,
)
from homotor.multicomplex import Multicomplex, hypercube_augment, tensor, totalize
from homotor.spectral import SpectralPages, _check_page

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


def summand_alive(s, gamma) -> bool:
    """Whether the summand s contributes one basis vector at degree gamma,
    read off its shift and ideal: the reference for ``alive_masks``."""
    if not s.shift.leq(gamma):
        return False
    if s.kind == FREE:
        return True
    member = s.ideal.contains(Multidegree(g - t for g, t in zip(gamma, s.shift)))
    return member if s.kind == IDEAL else not member


def block_rank_pages(filtered, gamma, fld=GF()):
    """The pages of filtered at gamma from masked block ranks of d.

    With F_i(p) the number of alive degree-i summands of level <= p, and
    R_i(a, b) the rank of the block of d_i whose source summands have level
    <= b and whose target summands have level > a, so that
    dim(F_b ∩ d^{-1}F_a) = F_i(b) - R_i(a, b):

        num_r(i, p)     = [F_i(p) - R_i(p-r, p)] - [F_i(p-1) - R_i(p-r, p-1)]
        dim E^r_{p,i-p} = num_r(i, p) - [R_{i+1}(p-1, p+r-1) - R_{i+1}(p, p+r-1)]
        rank of d^r out of (p, i) = num_r(i, p) - num_{r+1}(i, p)

    num_r is the dimension of (F_p ∩ d^{-1}F_{p-r} + F_{p-1}) / F_{p-1},
    the bracket that of (d(F_{p+r-1}) ∩ F_p + F_{p-1}) / F_{p-1}, and E^r_p
    is the first over the second.  Pages are computed for r = 1..N+2 and
    kept up to r_stab, the least r >= 2 with d^s = 0 for every s >= r - 1.
    The reference for the persistence pairing of ``spectral.pages``.
    """
    total, N = filtered.total, filtered.N
    below = {
        i: [sum(1 << k for k, v in enumerate(lv) if v <= p) for p in range(N + 1)]
        for i, lv in filtered.levels.items()
    }
    alive = total.alive_masks(gamma)
    window = [i for i, mask in sorted(alive.items()) if mask]

    def level(i, p):
        """The alive summands of term i at level <= p."""
        if p < 0 or i not in below:
            return 0
        return alive[i] & below[i][min(p, N)]

    def F(i, p):
        return level(i, p).bit_count()

    def R(i, a, b):
        src, tgt = level(i, b), alive.get(i - 1, 0) & ~level(i - 1, a)
        return total._masked_rank(i, src, tgt, fld) if src and tgt else 0

    def num(i, p, r):
        return (F(i, p) - R(i, p - r, p)) - (F(i, p - 1) - R(i, p - r, p - 1))

    page_tables = []
    rank_tables = []
    for r in range(1, N + 3):
        dims = {}
        ranks = {}
        for i in window:
            for p in range(N + 1):
                n_r = num(i, p, r)
                e = n_r - (R(i + 1, p - 1, p + r - 1) - R(i + 1, p, p + r - 1))
                rk = n_r - num(i, p, r + 1)
                if e:
                    dims[(p, i - p)] = e
                if rk:
                    ranks[(p, i - p)] = rk
        _check_page(r, dims, ranks, page_tables, rank_tables)
        page_tables.append(dims)
        rank_tables.append(ranks)
    last_moving = max((s for s, rk in enumerate(rank_tables, 1) if rk), default=0)
    r_stab = max(2, last_moving + 2)
    del page_tables[r_stab:], rank_tables[r_stab:]
    e_inf = page_tables[-1]
    base_h = {i: F(i, N) - R(i, -1, N) - R(i + 1, -1, N) for i in window}
    totals = {}
    for (p, q), d in e_inf.items():
        totals[p + q] = totals.get(p + q, 0) + d
    check = {i: (totals.get(i, 0), base_h.get(i, 0)) for i in set(base_h) | set(totals)}
    return SpectralPages(
        pages=page_tables,
        ranks=rank_tables,
        e_infinity=e_inf,
        abutment_check=check,
        converged=all(lhs == rhs for lhs, rhs in check.values()),
        r_stab=r_stab,
        levels=N,
    )


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
