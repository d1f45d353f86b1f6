"""The filtered-complex spectral sequence engine and its builders."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    block_rank_pages,
    direct_e1,
    free_complex,
    pair_intersection,
    persistence_pairs_oracle,
    region,
)
from homotor import cli, gcomplex, spectral, sumprod, support
from homotor.errors import (
    EmptyInput,
    FiltrationViolation,
    InvalidKind,
    InvariantBroken,
    UnitIdeal,
)
from homotor.exactlin import GF
from homotor.gcomplex import GradedComplex, free_summand, taylor_resolution
from homotor.monomial import MonomialIdeal, Multidegree, iter_box
from homotor.multicomplex import hypercube_augment, hypercube_extend, koszul_cone, tensor
from homotor.spectral import FilteredTotal, build_filtration, pages
from homotor.sumprod import build_p_complex, build_s_complex, mv_total_complex, truncated
from homotor.torlab import family_box

P = GF().p
ID = {1: [(0, 0, 1)]}


def _pages(dims, diffs, levels, fld=GF()):
    return pages(FilteredTotal(free_complex(dims, diffs), levels), (0,), fld)


def test_zero_differential_gives_associated_graded():
    levels = {0: [0, 1], 1: [0, 0, 1]}
    pg = _pages({0: 2, 1: 3}, {}, levels)
    assert pg.e1 == {(0, 0): 1, (1, -1): 1, (0, 1): 2, (1, 0): 1}
    assert pg.e_infinity == pg.e1
    assert pg.converged


def test_identity_complex_two_step_filtration():
    pg = _pages({0: 1, 1: 1}, ID, {0: [0], 1: [1]})
    assert pg.e1 == {(0, 0): 1, (1, 0): 1}
    assert pg.ranks[0] == {(1, 0): 1}  # d^1 is an isomorphism
    assert pg.page(2) == {}
    assert pg.converged


def test_filtration_violation_detected():
    with pytest.raises(FiltrationViolation):
        FilteredTotal(free_complex({0: 1, 1: 1}, ID), {0: [1], 1: [0]})
    # checked over Z: an entry that vanishes mod p still raises the level
    total = free_complex({0: 1, 1: 1}, {1: [(0, 0, P)]})
    with pytest.raises(FiltrationViolation):
        FilteredTotal(total, {0: [1], 1: [0]})


def test_filtration_checked_on_summands_dead_at_every_evaluated_degree():
    """The entry between the shift-1 summands raises the level; no degree
    where only the zero-shift summands are alive can hide it."""
    terms = {i: [free_summand((0,)), free_summand((1,))] for i in (0, 1)}
    total = GradedComplex(1, terms, {1: [(0, 0, 1), (1, 1, 1)]})
    assert total.alive_masks((0,)) == {0: 0b01, 1: 0b01}
    with pytest.raises(FiltrationViolation):
        FilteredTotal(total, {0: [0, 1], 1: [0, 0]})
    FilteredTotal(total, {0: [0, 1], 1: [0, 1]})


def test_non_exhaustive_filtration_rejected():
    total = free_complex({0: 2})
    for levels in ({0: [0, -1]}, {0: [0]}, {0: [0, 0, 0]}, {1: [0]}):
        with pytest.raises(FiltrationViolation):
            FilteredTotal(total, levels)


def test_missing_degree_sits_at_level_zero():
    pg = _pages({0: 1, 1: 1}, ID, {1: [0]})
    assert pg.e1 == {} and pg.r_stab == 2 and pg.converged


def test_broken_block_rank_is_an_invariant_failure(monkeypatch):
    masked_rank = GradedComplex._masked_rank
    monkeypatch.setattr(GradedComplex, "_masked_rank", lambda c, i, s, t, fld: (
        masked_rank(c, i, s, t, fld) + bool(c._block(i, s, t, fld.p))))
    with pytest.raises(InvariantBroken):
        _pages({0: 1, 1: 1}, ID, {0: [0], 1: [1]})


def test_dropped_pair_is_an_invariant_failure(monkeypatch):
    """Without its pair the two summands would be unpaired: the pages still
    keep their bookkeeping, but the pair count no longer equals the rank of
    the unfiltered block."""
    pairing = spectral.persistence_pairs
    monkeypatch.setattr(spectral, "persistence_pairs", lambda *a: pairing(*a)[:-1])
    with pytest.raises(InvariantBroken):
        _pages({0: 1, 1: 1}, ID, {0: [0], 1: [1]})


def test_pairs_follow_the_level_order():
    """d_1 sends both sources to the sum of the targets.  Sources are taken
    by (level, index), so the level-0 source 1 pairs with the target of
    highest (level, index), target 1, and source 0 reduces to zero."""
    total = free_complex({0: 2, 1: 2}, {1: [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]})
    filtered = FilteredTotal(total, {0: [0, 0], 1: [1, 0]})
    alive = total.alive_masks((0,))
    assert spectral.persistence_pairs(filtered, 1, alive) == [(1, 1)]
    pg = pages(filtered, (0,))
    assert pg.e1 == {(0, 0): 1, (1, 0): 1} == pg.e_infinity
    assert pg.r_stab == 2 and pg.converged


# -- the pages against their definitions, by enumeration over GF(3) ----------


def _span(vectors, dim, p):
    """All GF(p) combinations of vectors in GF(p)^dim, as a frozenset."""
    out = {(0,) * dim}
    for v in vectors:
        out = {tuple((a + c * b) % p for a, b in zip(u, v)) for u in out for c in range(p)}
    return frozenset(out)


def _plus(a, b, p):
    return frozenset(tuple((x + y) % p for x, y in zip(u, v)) for u in a for v in b)


def _dim(space, p):
    return round(math.log(len(space), p))


def _apply(entries, x, rows, p):
    y = [0] * rows
    for (r, c), v in entries.items():
        y[r] = (y[r] + v * x[c]) % p
    return tuple(y)


def _random_filtered_complex(rng):
    """Three degrees of at most 4 vectors, N in 1..3, entries in -1..1 and
    d_1 d_2 = 0 over Z: the rows of d_1 are drawn from the
    filtration-respecting vectors that kill d_2."""
    N = rng.randint(1, 3)
    dims = [rng.randint(1, 4) for _ in range(3)]
    levels = {i: [rng.randint(0, N) for _ in range(dims[i])] for i in range(3)}
    d2 = {
        (r, c): rng.choice((-1, 1))
        for r in range(dims[1]) for c in range(dims[2])
        if levels[1][r] <= levels[2][c] and rng.random() < 0.6
    }
    d1 = {}
    for r in range(dims[0]):
        rows = [
            u for u in itertools.product((-1, 0, 1), repeat=dims[1])
            if all(u[c] == 0 for c in range(dims[1]) if levels[1][c] < levels[0][r])
            and all(sum(u[m] * d2.get((m, c), 0) for m in range(dims[1])) == 0
                    for c in range(dims[2]))
        ]
        for c, v in enumerate(rng.choice(rows)):
            if v:
                d1[(r, c)] = v
    diffs = {
        i: [(r, c, v) for (r, c), v in d.items()] for i, d in ((1, d1), (2, d2))
    }
    return dict(enumerate(dims)), diffs, levels, N, dims, {1: d1, 2: d2}


def _pages_by_enumeration(levels, N, dims, d, p):
    """E^r and the ranks of d^r for r = 1..N+1, from Z^r_p = F_p ∩ d^{-1}F_{p-r}
    + F_{p-1} and B^r_p = d(F_{p+r-1}) ∩ F_p + F_{p-1}."""
    def dim(i):
        return dims[i] if 0 <= i < 3 else 0

    def filt(i, p_):
        n = dim(i)
        basis = [tuple(int(k == c) for k in range(n))
                 for c in range(n) if levels[i][c] <= p_]
        return _span(basis, n, p)

    def image(i, space):
        if i not in d:
            return frozenset({(0,) * dim(i - 1)})
        return frozenset(_apply(d[i], x, dim(i - 1), p) for x in space)

    def cycles(i, p_, r):
        if i not in d:
            return filt(i, p_)
        target = filt(i - 1, p_ - r)
        return frozenset(x for x in filt(i, p_) if _apply(d[i], x, dim(i - 1), p) in target)

    def boundaries(i, p_, r):
        return _plus(image(i + 1, filt(i + 1, p_ + r - 1)) & filt(i, p_), filt(i, p_ - 1), p)

    out = []
    for r in range(1, N + 2):
        page, ranks = {}, {}
        for i in range(3):
            for p_ in range(N + 1):
                e = (_dim(_plus(cycles(i, p_, r), filt(i, p_ - 1), p), p)
                     - _dim(boundaries(i, p_, r), p))
                if e:
                    page[(p_, i - p_)] = e
                target = boundaries(i - 1, p_ - r, r)
                rk = _dim(_plus(image(i, cycles(i, p_, r)), target, p), p) - _dim(target, p)
                if rk:
                    ranks[(p_, i - p_)] = rk
        out.append((page, ranks))
    return out


def test_pages_against_enumeration():
    p = 3
    fld = GF(p)
    rng = random.Random(3)
    for _ in range(80):
        terms, diffs, levels, N, dims, d = _random_filtered_complex(rng)
        pg = _pages(terms, diffs, levels, fld)
        want = _pages_by_enumeration(levels, N, dims, d, p)
        moving = [s for s, (_, ranks) in enumerate(want, 1) if ranks]
        assert pg.r_stab == max([2] + [s + 2 for s in moving])
        for r, (page, ranks) in enumerate(want, 1):
            assert pg.page(r) == page, (levels, d, r)
            assert (pg.ranks[r - 1] if r <= pg.r_stab else {}) == ranks, (levels, d, r)
        assert pg.converged


def res(*gens):
    n = len(gens[0])
    return taylor_resolution(MonomialIdeal(n, gens))


FAMILIES = [
    [(1, 0)], [(0, 1)],
]


def build_m(gen_lists):
    return tensor([res(*g) for g in gen_lists])


GEN_CHOICES = [
    [[(1, 0)], [(0, 1)]],
    [[(1, 0)], [(1, 0)]],
    [[(1, 0), (0, 1)], [(1, 0), (0, 1)]],
    [[(2, 0), (1, 1)], [(0, 1)]],
    [[(1, 0, 0)], [(0, 1, 0)], [(1, 1, 0), (0, 0, 1)]],
]


@pytest.mark.parametrize("kind", ["kcone", "kcone_augmented", "interior",
                                  "interior_augmented"])
def test_builder_e1_and_convergence(kind):
    for gens in GEN_CHOICES:
        factors = [res(*g) for g in gens]
        m = tensor(factors)
        box = m.total.stable_box()
        gammas = [Multidegree((0,) * m.n_vars), box,
                  Multidegree(tuple(min(1, b) for b in box))]
        filtered = build_filtration(m, kind=kind)
        for gamma in gammas:
            pg = pages(filtered, gamma)
            assert pg.converged, (gens, kind, tuple(gamma), pg.abutment_check)
            assert pg.e1 == direct_e1(factors, gamma, kind), (gens, kind, tuple(gamma))


def test_builder_abutments_match_target_complexes():
    m = build_m([[(1, 0), (0, 1)], [(1, 0), (0, 1)]])
    kcone, kcone_aug, interior_aug = (
        build_filtration(m, kind=kind)
        for kind in ("kcone", "kcone_augmented", "interior_augmented")
    )
    for gamma in iter_box(m.total.stable_box()):
        got = pages(kcone, gamma).total_dims()
        h = region(m, all).total.homology_at(gamma)
        assert got == {i: d for i, d in h.items() if d}
        got = pages(kcone_aug, gamma).total_dims()
        h = hypercube_augment(m).homology_at(gamma)
        assert got == {i: d for i, d in h.items() if d}
        got = pages(interior_aug, gamma).total_dims()
        want = {i: d for i, d in m.total.homology_at(gamma).items() if d}
        assert got == want


def test_levels_are_weights_of_the_layout_positions():
    """Each of the six filtered totals is the total of its multicomplex,
    whose layout puts position q in degree |q| + shift (one below for the
    extended multicomplex), and the summand that layout lists at position q
    sits at level weight(q): the cone index, the number of nonzero
    coordinates (of the first n for the extended multicomplex), or the
    position of the S/P factor."""
    for seed, n in ((3, 2), (4, 3)):
        family = cli.random_instance(seed, n_vars=2, n_ideals=n, max_gens=2, max_exp=2)
        m = tensor([gcomplex.resolution(i) for i in family])
        resolved = gcomplex.resolution(MonomialIdeal.zero(2))
        cases = {
            "kcone": (koszul_cone(m), 0, lambda q: q[-1]),
            "kcone_augmented": (koszul_cone(hypercube_extend(m), face_axes=n), -1,
                                lambda q: q[-1]),
            "interior": (m, 0, lambda q: sum(1 for v in q if v)),
            "interior_augmented": (hypercube_extend(m), -1,
                                   lambda q: sum(1 for v in q[:n] if v)),
            "sum_to_product": (
                tensor([truncated(build_s_complex(family)), resolved]), 0,
                lambda q: q[0]),
            "product_to_sum": (tensor([build_p_complex(family), resolved]), 0,
                               lambda q: q[0]),
        }
        for kind, (mc, shift, weight) in cases.items():
            if kind in cli.MV_KINDS:
                filtered = mv_total_complex(kind, family)
            else:
                filtered = build_filtration(m, kind=kind)
            assert mc.shift == shift, kind
            assert all(sum(q) + shift == i for i, qs in mc.layout.items() for q in qs)
            assert filtered.total.terms == mc.total.terms, kind
            assert filtered.levels == {
                i: [weight(q) for q in qs] for i, qs in mc.layout.items()
            }, kind


def test_build_filtration_clamps_gamma():
    m = build_m([[(1, 0)], [(0, 1)]])
    filtered = build_filtration(m, kind="interior")
    a = pages(filtered, Multidegree((9, 9)))
    b = pages(filtered, m.total.stable_box())
    assert a.e1 == b.e1 and a.e_infinity == b.e_infinity


def test_build_filtration_unknown_kind():
    m = build_m([[(1, 0)], [(0, 1)]])
    with pytest.raises(InvalidKind):
        build_filtration(m, kind="diagonal")


def test_kcone_columns_exact_off_interior():
    """The cone-axis columns are exact unless the position has full support,
    where they collapse to the single original term."""
    from homotor.gcomplex import module_homology_table
    from homotor.multicomplex import koszul_cone

    m = build_m([[(1, 0), (0, 1)], [(2, 0)]])
    cone = koszul_cone(m)
    n = m.n_axes
    for q in m.terms:
        terms = {}
        entries = {}
        for p in range(n + 1):
            pos = q + (p,)
            if pos in cone.terms:
                terms[p] = cone.terms[pos]
                es = cone.diffs.get((pos, n))
                if es:
                    entries[p] = list(es)
        column = GradedComplex(m.n_vars, terms, entries)
        if all(v > 0 for v in q):
            assert set(terms) == {0}
            assert len(terms[0]) == len(m.terms[q])
        else:
            assert not module_homology_table(column).entries, q


def test_s_complex_fiber_at_origin(kxy):
    from homotor.sumprod import build_s_complex

    s = build_s_complex([kxy["x"], kxy["y"]])
    masks = s.alive_masks((0, 0))
    assert [masks.get(i, 0).bit_count() for i in (0, -1, -2)] == [1, 2, 1]
    assert s.homology_at((0, 0)) == {0: 0, -1: 0, -2: 0}
    assert tuple(s.stable_box()) == (1, 1)


def test_kcone_on_one_axis_degenerates():
    m = build_m([[(1,), ]])
    # one axis: only the d^1 column inclusion can fire, so everything
    # stabilizes at the second page
    kcone = build_filtration(m, kind="kcone")
    for g in ((0,), (1,)):
        pg = pages(kcone, Multidegree(g))
        assert pg.converged
        assert pg.page(2) == pg.e_infinity
    pg = pages(kcone, Multidegree((1,)))
    assert pg.e1 == pg.e_infinity


# -- Mayer-Vietoris builders --------------------------------------------------


def test_mv_product_to_sum_pair():
    x = MonomialIdeal(2, [(1, 0)])
    y = MonomialIdeal(2, [(0, 1)])
    pg = pages(mv_total_complex("product_to_sum", [x, y]), Multidegree((0, 0)))
    # E^1 row: P_1 (two summands alive) and P_2 (one), at q = 0
    assert pg.e1 == {(1, 0): 2, (2, 0): 1}
    assert pg.converged
    # abutment: Tor_{i-1}(R, R/(x,y)): only Tor_0 = k at the origin survives
    assert pg.total_dims() == {1: 1}


def test_mv_sum_to_product_pair_in_one_variable():
    x = MonomialIdeal(1, [(1,)])
    stp = mv_total_complex("sum_to_product", [x, x])
    table = {}
    for g in ((0,), (1,), (2,)):
        pg = pages(stp, Multidegree(g))
        assert pg.converged
        table[g] = pg.total_dims()
    # abutment of the S-side double complex is H(S_- tensor R), computed to
    # ker/coker of R/x + R/x -> R/x: one class at degree 0
    assert table == {(0,): {1: 1}, (1,): {}, (2,): {}}


def test_mv_e1_matches_tor_of_sums_and_products():
    """First pages list Tor_q(M, R/(sum)) resp. Tor_q(M, R/(product))."""
    from homotor.torlab import multi_tor
    from homotor.monomial import combine

    fam = [MonomialIdeal(2, [(1, 0), (0, 1)]), MonomialIdeal(2, [(1, 1)])]
    coeff = MonomialIdeal(2, [(2, 0)])
    n = len(fam)
    stp_total = mv_total_complex("sum_to_product", fam, coeff)
    pts_total = mv_total_complex("product_to_sum", fam, coeff)
    for gamma in [(0, 0), (1, 1), (2, 2)]:
        stp = pages(stp_total, Multidegree(gamma))
        pts = pages(pts_total, Multidegree(gamma))
        assert stp.converged and pts.converged
        # column totals: sum over subsets of Tor_q dims
        for (w, q), dim in stp.e1.items():
            p = n - w
            expect = 0
            for T in itertools.combinations(range(n), p):
                merged = combine([fam[i] for i in T], "sum")
                tor = multi_tor([merged], coefficient=coeff)
                expect += tor.dim(q, tuple(min(g, b) for g, b in zip(gamma, tor.box)))
            assert dim == expect, ("sum_to_product", gamma, (w, q))
        for (w, q), dim in pts.e1.items():
            expect = 0
            for T in itertools.combinations(range(n), w):
                merged = combine([fam[i] for i in T], "product")
                tor = multi_tor([merged], coefficient=coeff)
                expect += tor.dim(q, tuple(min(g, b) for g, b in zip(gamma, tor.box)))
            assert dim == expect, ("product_to_sum", gamma, (w, q))


def test_mv_degenerates_for_disjoint_variables():
    """With disjoint variable ideals and M = R only the bottom row is
    populated, and the sequence stops moving after the second page."""
    fam = [MonomialIdeal(3, [(1, 0, 0)]), MonomialIdeal(3, [(0, 1, 0)]),
           MonomialIdeal(3, [(0, 0, 1)])]
    stp = mv_total_complex("sum_to_product", fam)
    for g in ((0, 0, 0), (1, 1, 0)):
        pg = pages(stp, Multidegree(g))
        assert all(q == 0 for (_, q) in pg.e1)
        assert pg.page(2) == pg.e_infinity
        assert pg.converged


def test_mv_rejects_unit_ideal():
    with pytest.raises(UnitIdeal):
        mv_total_complex("product_to_sum", [MonomialIdeal.unit(2)])


def test_an_empty_family_raises_empty_input():
    with pytest.raises(EmptyInput):
        family_box([])
    for kind in ("sum_to_product", "product_to_sum"):
        with pytest.raises(EmptyInput):
            mv_total_complex(kind, [])


def test_pair_tor1_recovered_from_sum_to_product():
    """0 -> Tor_1 -> R/IJ -> R/(I cap J) -> 0 degreewise for a pair."""
    from homotor.monomial import combine
    from homotor.torlab import multi_tor

    x = MonomialIdeal(1, [(1,)])
    fam = [x, x]
    box = (4,)
    tor = multi_tor(fam, box=box)
    prod = combine(fam, "product")
    inter = pair_intersection(*fam)
    stp = mv_total_complex("sum_to_product", fam)
    for g in iter_box(box):
        dim_rij = 0 if prod.contains(g) else 1
        dim_rint = 0 if inter.contains(g) else 1
        assert tor.dim(1, g) == dim_rij - dim_rint
        # the H_1 of the sum-to-product total complex carries R/(I cap J)
        pg = pages(stp, g)
        assert pg.total_dims().get(1, 0) == dim_rint


# -- totals built once per command ---------------------------------------------


KINDS = ["kcone", "kcone_augmented", "interior", "interior_augmented"]


@st.composite
def families(draw, min_size=2):
    """min_size-3 proper ideals of 1-2 generators, exponents 0..2, in 2-3
    variables."""
    n = draw(st.integers(2, 3))
    exponent = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    ideal = st.lists(exponent, min_size=1, max_size=2).map(
        lambda gens: MonomialIdeal(n, gens)
    )
    return draw(st.lists(ideal, min_size=min_size, max_size=3))


@settings(deadline=None, max_examples=15)
@given(families(min_size=1), st.sampled_from([2, 3]))
def test_augmented_interior_is_the_top_column_of_e1(family, p):
    """H_i of ``hypercube_augment(m)`` is E^1_{n, i - n} of the
    interior_augmented filtration at every degree of the box: E^1 is the
    homology of gr F, and its top column gr_n F, the positions whose first
    n coordinates are all nonzero, is the augmented interior."""
    m = tensor([gcomplex.resolution(i) for i in family])
    n = m.n_axes
    aug = hypercube_augment(m)
    filtered = build_filtration(m, kind="interior_augmented")
    for gamma in iter_box(family_box(family)):
        got = {(n, i - n): d for i, d in aug.homology_at(gamma, GF(p)).items() if d}
        e1 = pages(filtered, gamma, GF(p)).e1
        assert got == {pq: d for pq, d in e1.items() if pq[0] == n and d}, (p, tuple(gamma))


def _beyond(box):
    """Every degree of the box and one past it, which is clamped back."""
    return list(iter_box(box)) + [Multidegree(tuple(b + 1 for b in box))]


def _same_pages(a, b):
    return (a.pages, a.ranks, a.e_infinity, a.r_stab, a.converged) == (
        b.pages, b.ranks, b.e_infinity, b.r_stab, b.converged
    )


@settings(deadline=None, max_examples=15)  # each example builds up to 112 totals
@given(families())
def test_memoised_filtrations_match_fresh_multicomplexes(family):
    """One filtered total per kind, held across every degree of the box and
    one past it, gives the pages of a total built from a multicomplex made
    afresh for each degree."""
    m = tensor([taylor_resolution(i) for i in family])
    for kind in KINDS:
        reused = build_filtration(m, kind=kind)
        for gamma in _beyond(family_box(family)):
            fresh_m = tensor([taylor_resolution(i) for i in family])
            fresh = build_filtration(fresh_m, kind=kind)
            assert _same_pages(pages(reused, gamma), pages(fresh, gamma)), (kind, gamma)


@settings(deadline=None, max_examples=12)
@given(families())
def test_cached_mv_totals_match_uncached(family):
    """The same for both Mayer-Vietoris kinds, with and without a
    coefficient: one total held across the degrees against one built afresh
    for each degree."""
    for coefficient in (None, family[-1]):
        for kind in ("sum_to_product", "product_to_sum"):
            reused = mv_total_complex(kind, family, coefficient)
            for gamma in _beyond(family_box(family, coefficient)):
                fresh = mv_total_complex(kind, family, coefficient)
                assert _same_pages(pages(reused, gamma), pages(fresh, gamma)), (
                    kind, coefficient, gamma)


@settings(deadline=None, max_examples=15)  # up to 234 fibres an example, twice each
@given(families(), st.booleans())
def test_pairing_matches_block_rank_oracle(family, with_module):
    """The pages read off the persistence pairs equal those of the masked
    block-rank formulas, for all six kinds over GF(2), GF(3) and GF(32003),
    at the degrees the spectral command samples and one past the box."""
    coefficient = family[-1] if with_module else None
    totals = [build_filtration(tensor([taylor_resolution(i) for i in family]), kind=kind)
              for kind in KINDS]
    totals += [mv_total_complex(kind, family, coefficient)
               for kind in ("sum_to_product", "product_to_sum")]
    box = family_box(family, coefficient)
    degrees = cli._sample_degrees(box) + [Multidegree(tuple(b + 1 for b in box))]
    for filtered in totals:
        for p in (2, 3, 32003):
            for gamma in degrees:
                got = pages(filtered, gamma, GF(p))
                want = block_rank_pages(filtered, gamma, GF(p))
                assert _same_pages(got, want), (p, tuple(gamma))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), families(), st.booleans())
def test_pairing_equals_the_block_oracle(seed, family, with_module):
    """The pairs read off the layout a filtered total keeps equal, list for
    list, those of the re-keyed and sorted block of its total: on a random
    filtered matrix complex and on the six builder totals of a family, over
    GF(2), GF(3) and GF(32003), for every d_i at the sampled degrees of the
    total's box and one past it."""
    terms, diffs, levels, _, _, _ = _random_filtered_complex(random.Random(seed))
    coefficient = family[-1] if with_module else None
    totals = [FilteredTotal(free_complex(terms, diffs), levels)]
    totals += [build_filtration(tensor([taylor_resolution(i) for i in family]), kind=kind)
               for kind in KINDS]
    totals += [mv_total_complex(kind, family, coefficient)
               for kind in ("sum_to_product", "product_to_sum")]
    for filtered in totals:
        box = filtered.total.stable_box()
        for gamma in cli._sample_degrees(box) + [tuple(b + 1 for b in box)]:
            alive = filtered.total.alive_masks(gamma)
            for i in alive:
                if i - 1 not in filtered.levels:
                    continue
                for p in (2, 3, 32003):
                    assert spectral.persistence_pairs(filtered, i, alive, GF(p)) == \
                        persistence_pairs_oracle(filtered, i, alive, GF(p)), (p, i, gamma)


def test_pages_are_computed_once_per_fibre_class(monkeypatch):
    """Over the degrees the spectral command samples and one past the box,
    each fibre class pairs each d_i with both masks nonzero once, and two
    degrees share one pages object exactly when their alive masks agree."""
    family = [MonomialIdeal(2, [(2, 0), (1, 1)]), MonomialIdeal(2, [(0, 2), (1, 0)])]
    filtered = build_filtration(tensor([gcomplex.resolution(i) for i in family]),
                                kind="interior")
    box = family_box(family)
    degrees = cli._sample_degrees(box) + [Multidegree(tuple(b + 1 for b in box))]
    pairing = _Counter(spectral.persistence_pairs)
    monkeypatch.setattr(spectral, "persistence_pairs", pairing)
    got = [pages(filtered, gamma) for gamma in degrees]
    masks = [filtered.total.alive_masks(gamma) for gamma in degrees]
    classes = {tuple(alive.values()): alive for alive in masks}
    assert 1 < len(classes) < len(degrees)
    paired = [(tuple(alive.values()), i) for _, i, alive, _ in pairing.calls]
    assert sorted(paired) == sorted(
        (cls, i) for cls, alive in classes.items()
        for i, mask in alive.items() if mask and alive.get(i - 1))
    for (a, ma), (b, mb) in itertools.product(zip(got, masks), repeat=2):
        assert (a is b) == (ma == mb)


def test_page_table_is_keyed_by_the_field():
    """d = 2 is an isomorphism over GF(3) and zero over GF(2), at one degree
    of one filtered total."""
    filtered = FilteredTotal(free_complex({0: 1, 1: 1}, {1: [(0, 0, 2)]}),
                             {0: [0], 1: [1]})
    over2, over3 = pages(filtered, (0,), GF(2)), pages(filtered, (0,), GF(3))
    assert over2.e_infinity == {(0, 0): 1, (1, 0): 1} and over3.e_infinity == {}
    assert pages(filtered, (0,), GF(2)) is over2


def test_spectral_pages_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        _pages({0: 1}, {}, {0: [0]}).r_stab = 3


class _Counter:
    """Wraps a builder and records the arguments of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, *args, **kwargs):
        self.calls.append(args)
        return self.fn(*args, **kwargs)


@pytest.mark.parametrize("kind", KINDS + ["sum_to_product", "product_to_sum"])
def test_spectral_command_builds_one_total(kind, monkeypatch):
    totals = _Counter(spectral._by_weight)
    mv_totals = _Counter(cli.mv_total_complex)
    for module in (spectral, sumprod):  # sumprod filters the Mayer-Vietoris totals
        monkeypatch.setattr(module, "_by_weight", totals)
    monkeypatch.setattr(cli, "mv_total_complex", mv_totals)
    problem = cli.ProblemFile(32003, ["x", "y"], {
        "I": MonomialIdeal(2, [(2, 0), (1, 1)]),
        "J": MonomialIdeal(2, [(0, 2), (1, 0)]),
    })
    report = cli.run("spectral", problem, {"kind": kind})
    assert len(report["results"]["pages"]) > 1
    # a Mayer-Vietoris total is itself one filtered total
    assert (len(totals.calls), len(mv_totals.calls)) == (
        (1, 0) if kind in KINDS else (1, 1)
    )


def test_support_check_builds_one_mv_total_per_kind_and_subset(monkeypatch):
    """One call over p = 1, 2, 3 builds each total and each Tor table once:
    a singleton's product and sum are one ideal."""
    mv_totals = _Counter(support.mv_total_complex)
    tors = _Counter(support.multi_tor)
    monkeypatch.setattr(support, "mv_total_complex", mv_totals)
    monkeypatch.setattr(support, "multi_tor", tors)
    reports = support.supportoftors_check(
        [MonomialIdeal.variables(3, [i]) for i in range(3)], None, [1, 2, 3])
    assert list(reports) == [1, 2, 3]
    assert all(r.passed for r in reports.values())
    assert len(reports[3].context["union_cells"]) > 1
    built = [(kind, tuple(ideals)) for kind, ideals, _ in mv_totals.calls]
    assert len(built) == len(set(built)) == 2 * 7  # two kinds, 7 nonempty subsets
    tabled = [tuple(ideals) for (ideals,) in tors.calls]
    assert len(tabled) == len(set(tabled)) == 7 + 4  # 7 products, 4 sums with |T| >= 2


def test_exactness_check_builds_one_total_per_subfamily(monkeypatch):
    """Only (m, m) and the triple have nonvanishing rows, so only they need
    an interior_augmented total."""
    totals = _Counter(spectral._by_weight)
    monkeypatch.setattr(spectral, "_by_weight", totals)
    m, xy = MonomialIdeal(2, [(1, 0), (0, 1)]), MonomialIdeal(2, [(1, 1)])
    problem = cli.ProblemFile(32003, ["x", "y"], {"A": m, "B": m, "C": xy})
    report = cli.run("equiv-exactness", problem, {})
    assert not report["results"]["context"]["rows_exact"]
    assert len(totals.calls) == 2
