"""The filtered-complex spectral sequence engine and its builders."""

import dataclasses
import itertools
import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    _check_page,
    abuts_to_the_total,
    block_rank_pages,
    direct_e1,
    free_complex,
    pair_intersection,
    persistence_pairs_oracle,
    region,
    s_minus,
    total_dims,
)
from homotor import cli, gcomplex, spectral, sumprod, support, torlab
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
from homotor.sumprod import build_p_complex, build_s_complex, mv_total_complex
from homotor.torlab import family_box, multi_tor

P = GF().p
ID = {1: [(0, 0, 1)]}


def _pages(dims, diffs, levels, fld=GF()):
    return pages(FilteredTotal(free_complex(dims, diffs), levels), (0,), fld)


def _abuts(dims, diffs, levels, fld=GF()):
    """The pages of ``_pages`` and whether they abut to their total's homology."""
    filtered = FilteredTotal(free_complex(dims, diffs), levels)
    pg = pages(filtered, (0,), fld)
    return pg, abuts_to_the_total(pg, filtered, (0,), fld)


def test_zero_differential_gives_associated_graded():
    levels = {0: [0, 1], 1: [0, 0, 1]}
    pg, abuts = _abuts({0: 2, 1: 3}, {}, levels)
    assert pg.e1 == {(0, 0): 1, (1, -1): 1, (0, 1): 2, (1, 0): 1}
    assert pg.e_infinity == pg.e1
    assert abuts and total_dims(pg) == {0: 2, 1: 3}


def test_identity_complex_two_step_filtration():
    pg, abuts = _abuts({0: 1, 1: 1}, ID, {0: [0], 1: [1]})
    assert pg.e1 == {(0, 0): 1, (1, 0): 1}
    assert pg.ranks[0] == {(1, 0): 1}  # d^1 is an isomorphism
    assert pg.page(2) == {}
    assert abuts and total_dims(pg) == {}


def test_filtration_violation_detected():
    with pytest.raises(FiltrationViolation):
        FilteredTotal(free_complex({0: 1, 1: 1}, ID), {0: [1], 1: [0]})
    # checked over Z: an entry that vanishes mod p still raises the level
    total = free_complex({0: 1, 1: 1}, {1: [(0, 0, P)]})
    with pytest.raises(FiltrationViolation):
        FilteredTotal(total, {0: [1], 1: [0]})


def test_filtration_violation_names_the_level_and_the_terms():
    """The level-1 source of d_1 hits a level-2 target."""
    with pytest.raises(FiltrationViolation) as caught:
        FilteredTotal(free_complex({0: 1, 1: 1}, ID), {0: [2], 1: [1]})
    assert str(caught.value) == "d(F_1) not inside F_1 between terms 1 and 0"


def test_filtration_checked_on_summands_dead_at_every_evaluated_degree():
    """The entry between the shift-1 summands raises the level; no degree
    where only the zero-shift summands are alive can hide it."""
    terms = {i: [free_summand((0,)), free_summand((1,))] for i in (0, 1)}
    total = GradedComplex(1, terms, {1: {0: [(0, 1)], 1: [(1, 1)]}})
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
    pg, abuts = _abuts({0: 1, 1: 1}, ID, {1: [0]})
    assert pg.e1 == {} and pg.r_stab == 2 and abuts


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


@pytest.mark.parametrize("r, dims, ranks, before, message", [
    # a negative rank
    (1, {(1, 0): 1, (0, 0): 1}, {(1, 0): -1}, ([], []),
     "rank -1 of d^1 out of (p,q)=(1, 0) at r=1"),
    # a rank above the dimension of its source, here 0
    (1, {(0, 0): 1}, {(1, 0): 1}, ([], []), "rank 1 of d^1 out of (p,q)=(1, 0) at r=1"),
    # a rank above the dimension of its target, (p - r, q + r - 1), here 0
    (2, {(2, 0): 2, (0, 0): 1}, {(2, 0): 1}, ([{(2, 0): 2, (0, 0): 1}], [{}]),
     "rank 1 of d^2 out of (p,q)=(2, 0) at r=2"),
    # a negative dimension
    (1, {(0, 0): -1}, {}, ([], []), "negative page dimension at r=1, (p,q)=(0, 0)"),
    # a place of page 2 that page 1 has not
    (2, {(0, 0): 1}, {}, ([{}], [{}]), "page bookkeeping broken at r=2, (p,q)=(0, 0)"),
    # a place of page 1 gone from page 2 with no rank of d^1 out of or into it
    (2, {}, {}, ([{(0, 0): 1}], [{}]), "page bookkeeping broken at r=2, (p,q)=(0, 0)"),
])
def test_check_page_refuses_each_broken_rule(r, dims, ranks, before, message):
    """Each rule of the page check that ``block_rank_pages`` runs, on
    made-up pages that no rank formula builds: the pages of every other
    test keep them all."""
    with pytest.raises(InvariantBroken) as caught:
        _check_page(r, dims, ranks, *before)
    assert str(caught.value) == message


def test_check_page_accepts_the_boundary_cases():
    """A rank of 0, a rank equal to both its dimensions, a dimension of 0,
    and a place of page 1 that d^1 empties into page 2 all pass: the
    inequalities of the rules are strict where they must be."""
    _check_page(1, {(1, 0): 1, (0, 0): 1, (5, 5): 0}, {(1, 0): 1, (3, 3): 0}, [], [])
    _check_page(2, {(2, 0): 1}, {}, [{(1, 0): 1, (0, 0): 1, (2, 0): 1}], [{(1, 0): 1}])


def _counted_pages(free, moving):
    """``pages``' counting loop on a made-up free count per (term, level)
    and made-up pairs (term of d, level of b, level of d) of positive gap:
    (page tables, rank tables, r_stab)."""
    r_stab = max([2] + [ld - lb + 2 for _, lb, ld in moving])
    page_tables, rank_tables = [], []
    for r in range(1, r_stab + 1):
        counts = dict(free)
        ranks = {}
        for i, lb, ld in moving:
            if ld - lb >= r:
                counts[(i - 1, lb)] += 1
                counts[(i, ld)] += 1
            if ld - lb == r:
                ranks[(ld, i - ld)] = ranks.get((ld, i - ld), 0) + 1
        page_tables.append({(p, i - p): e for (i, p), e in counts.items() if e})
        rank_tables.append(ranks)
    return page_tables, rank_tables, r_stab


def _pages_of_made_up_pairs(free, moving):
    """``pages`` on a complex with no differential whose term-i, level-p
    summands number free[(i, p)] + the pair ends there, paired as moving
    says by a stand-in pairing, with the rank check fed the pair counts;
    None if some place would need fewer than 0 summands, or ends with none."""
    ends = {place: 0 for place in free}
    for i, lb, ld in moving:
        ends[(i - 1, lb)] += 1
        ends[(i, ld)] += 1
    sizes = {place: free[place] + ends[place] for place in free}
    if any(n < 0 or (n == 0 and ends[place]) for place, n in sizes.items()):
        return None
    index, levels = {}, {}
    for (i, p), n in sorted(sizes.items()):
        index[(i, p)] = len(levels.setdefault(i, []))
        levels[i] += [p] * n
    taken = dict.fromkeys(free, 0)

    def end(place):  # the next summand at place, round the place's summands
        k = index[place] + taken[place] % sizes[place]
        taken[place] += 1
        return k
    pairs = {}
    for i, lb, ld in moving:
        pairs.setdefault(i, []).append((end((i - 1, lb)), end((i, ld))))
    filtered = FilteredTotal(free_complex({i: len(lv) for i, lv in levels.items()}), levels)
    filtered.total._masked_rank = lambda i, src, tgt, fld: len(pairs.get(i, []))
    with mock.patch.object(spectral, "persistence_pairs",
                           lambda f, i, alive, fld: pairs.get(i, [])):
        return pages(filtered, (0,))


_PLACES = [(i, p) for i in range(3) for p in range(3)]


@settings(deadline=None, max_examples=200)
@given(st.fixed_dictionaries({place: st.integers(-1, 2) for place in _PLACES}),
       st.lists(st.tuples(st.integers(1, 2), st.integers(0, 2), st.integers(0, 2))
                .filter(lambda t: t[1] < t[2]), max_size=6))
def test_the_page_rules_fail_exactly_on_a_negative_free_count(free, moving):
    """Under ``pages``' formulas the four page rules fail on some r <= r_stab
    exactly when some free count is negative, the one rule ``pages`` keeps;
    and ``pages`` itself, fed the same pairs, refuses exactly those inputs
    and otherwise builds the counted pages."""
    page_tables, rank_tables, r_stab = _counted_pages(free, moving)
    negative = any(e < 0 for e in free.values())
    refused = False
    try:
        for r in range(1, r_stab + 1):
            _check_page(r, page_tables[r - 1], rank_tables[r - 1],
                        page_tables[:r - 1], rank_tables[:r - 1])
    except InvariantBroken:
        refused = True
    assert refused == negative
    try:
        pg = _pages_of_made_up_pairs(free, moving)
    except InvariantBroken as exc:
        assert negative and "more pair ends than summands" in str(exc)
    else:
        if pg is not None:
            assert not negative
            assert (pg.pages, pg.ranks, pg.r_stab) == (page_tables, rank_tables, r_stab)


def test_a_summand_ending_two_pairs_is_an_invariant_failure(monkeypatch):
    """d_1 the identity on two summands per term, the level-0 target made
    the pivot of both sources: the pair count is still the rank, but term 0
    has one level-0 summand and two pair ends there."""
    pairing = spectral.persistence_pairs
    monkeypatch.setattr(spectral, "persistence_pairs",
                        lambda *a: [(0, d) for _, d in pairing(*a)])
    with pytest.raises(InvariantBroken,
                       match="^term 0, level 0: 1 more pair ends than summands$"):
        _pages({0: 2, 1: 2}, {1: [(0, 0, 1), (1, 1, 1)]}, {0: [0, 1], 1: [1, 1]})


def test_spectral_command_exits_3_on_a_summand_ending_two_pairs(tmp_path, capsys, monkeypatch):
    """Every pivot of a term redirected to its first pair's: on the kcone
    pages of (x, y) twice, some (term, level) gets more pair ends than
    summands, and ``homotor spectral`` exits 3 with ``InvariantBroken``."""
    pairing = spectral.persistence_pairs

    def first_pivot(*args):
        pairs = pairing(*args)
        return [(pairs[0][0], d) for _, d in pairs]
    monkeypatch.setattr(spectral, "persistence_pairs", first_pivot)
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({"variables": ["x", "y"],
                                "ideals": {"I": [[1, 0], [0, 1]], "J": [[1, 0], [0, 1]]}}))
    assert cli.main(["spectral", str(path), "--kind", "kcone"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "InvariantBroken"
    assert error["message"].endswith("more pair ends than summands")


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
    assert pg.r_stab == 2 and abuts_to_the_total(pg, filtered, (0,))


def test_the_lowest_term_has_no_pairs():
    """Term 0 of the interior filtration of (x) ⊗ (y) has no term below it:
    its block is empty, as ``_masked_rank`` reads it, so it has no pairs at
    any degree of the box, and neither has d_1 where term 0 is dead, or
    where term 1 is missing from the masks."""
    x, y = MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(0, 1)])
    filtered = build_filtration(
        tensor([gcomplex.resolution(x), gcomplex.resolution(y)]), kind="interior")
    assert min(filtered.levels) == 0
    paired = 0
    for gamma in iter_box(filtered.total.stable_box()):
        alive = filtered.total.alive_masks(gamma)
        paired += len(spectral.persistence_pairs(filtered, 1, alive))
        assert spectral.persistence_pairs(filtered, 0, alive) == []
        assert spectral.persistence_pairs(filtered, 1, {**alive, 0: 0}) == []
        assert spectral.persistence_pairs(filtered, 1, {0: alive[0]}) == []
    assert paired


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
        pg, abuts = _abuts(terms, diffs, levels, fld)
        want = _pages_by_enumeration(levels, N, dims, d, p)
        moving = [s for s, (_, ranks) in enumerate(want, 1) if ranks]
        assert pg.r_stab == max([2] + [s + 2 for s in moving])
        for r, (page, ranks) in enumerate(want, 1):
            assert pg.page(r) == page, (levels, d, r)
            assert (pg.ranks[r - 1] if r <= pg.r_stab else {}) == ranks, (levels, d, r)
        assert abuts, (levels, d)


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
            assert abuts_to_the_total(pg, filtered, gamma), (gens, kind, tuple(gamma))
            assert pg.e1 == direct_e1(factors, gamma, kind), (gens, kind, tuple(gamma))


def test_builder_abutments_match_target_complexes():
    m = build_m([[(1, 0), (0, 1)], [(1, 0), (0, 1)]])
    kcone, kcone_aug, interior_aug = (
        build_filtration(m, kind=kind)
        for kind in ("kcone", "kcone_augmented", "interior_augmented")
    )
    for gamma in iter_box(m.total.stable_box()):
        got = total_dims(pages(kcone, gamma))
        h = region(m, all).total.homology_at(gamma)
        assert got == {i: d for i, d in h.items() if d}
        got = total_dims(pages(kcone_aug, gamma))
        h = hypercube_augment(m).homology_at(gamma)
        assert got == {i: d for i, d in h.items() if d}
        got = total_dims(pages(interior_aug, gamma))
        want = {i: d for i, d in m.total.homology_at(gamma).items() if d}
        assert got == want


def test_levels_are_weights_of_the_layout_positions():
    """Each of the six filtered totals is the total of its multicomplex,
    whose layout puts position q in degree |q| + shift (one below for the
    extended multicomplex), and the summand that layout lists at position q
    sits at level weight(q): the number of face coordinates at 1 (the
    last n of the cone's, after the n + 1 extended axes for the augmented
    cone), the number of nonzero
    coordinates (of the first n for the extended multicomplex), or the
    position of the S/P factor."""
    for seed, n in ((3, 2), (4, 3)):
        family = cli.random_instance(seed, n_vars=2, n_ideals=n, max_gens=2, max_exp=2)
        m = tensor([gcomplex.resolution(i) for i in family])
        resolved = gcomplex.resolution(MonomialIdeal.zero(2))
        cases = {
            "kcone": (koszul_cone(m), 0, lambda q: sum(q[n:])),
            "kcone_augmented": (koszul_cone(hypercube_extend(m), face_axes=n), -1,
                                lambda q: sum(q[n + 1:])),
            "interior": (m, 0, lambda q: sum(1 for v in q if v)),
            "interior_augmented": (hypercube_extend(m), -1,
                                   lambda q: sum(1 for v in q[:n] if v)),
            "sum_to_product": (
                tensor([s_minus(family), resolved]), 0,
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
    """At each position q of m, the column of the cone over the face
    coordinates s, the positions q + s joined by the identity maps of the
    face axes, is exact unless q has full support, where it collapses to
    the single original term at s = 0."""
    from homotor.gcomplex import module_homology_table
    from homotor.multicomplex import Multicomplex, koszul_cone

    m = build_m([[(1, 0), (0, 1)], [(2, 0)]])
    cone = koszul_cone(m)
    n = m.n_axes
    for q in m.terms:
        terms = {pos[n:]: ss for pos, ss in cone.terms.items() if pos[:n] == q}
        d = {(pos[n:], k - n): rows for (pos, k), rows in cone.diffs.items()
             if pos[:n] == q and k >= n}
        column = Multicomplex(n, m.n_vars, terms, d).total
        if all(v > 0 for v in q):
            assert list(terms) == [(0,) * n]
            assert terms[(0,) * n] == m.terms[q]
        else:
            assert len(terms) == 2 ** sum(1 for v in q if not v), q
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
        assert abuts_to_the_total(pg, kcone, g)
        assert pg.page(2) == pg.e_infinity
    pg = pages(kcone, Multidegree((1,)))
    assert pg.e1 == pg.e_infinity


# -- Mayer-Vietoris builders --------------------------------------------------


def test_mv_product_to_sum_pair():
    x = MonomialIdeal(2, [(1, 0)])
    y = MonomialIdeal(2, [(0, 1)])
    pts = mv_total_complex("product_to_sum", [x, y])
    pg = pages(pts, Multidegree((0, 0)))
    # E^1 row: P_1 (two summands alive) and P_2 (one), at q = 0
    assert pg.e1 == {(1, 0): 2, (2, 0): 1}
    assert abuts_to_the_total(pg, pts, (0, 0))
    # abutment: Tor_{i-1}(R, R/(x,y)): only Tor_0 = k at the origin survives
    assert total_dims(pg) == {1: 1}


def test_mv_sum_to_product_pair_in_one_variable():
    x = MonomialIdeal(1, [(1,)])
    stp = mv_total_complex("sum_to_product", [x, x])
    table = {}
    for g in ((0,), (1,), (2,)):
        pg = pages(stp, Multidegree(g))
        assert abuts_to_the_total(pg, stp, g)
        table[g] = total_dims(pg)
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
        assert abuts_to_the_total(stp, stp_total, gamma)
        assert abuts_to_the_total(pts, pts_total, gamma)
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
        assert abuts_to_the_total(pg, stp, g)


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
        assert total_dims(pg).get(1, 0) == dim_rint


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
    return (a.pages, a.ranks, a.e_infinity, a.r_stab) == (
        b.pages, b.ranks, b.e_infinity, b.r_stab
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


def _six_totals(family, coefficient=None):
    """{kind: its filtered total} of the family, the four multicomplex
    kinds over the Taylor resolutions and the two Mayer-Vietoris kinds
    against R/coefficient."""
    m = tensor([taylor_resolution(i) for i in family])
    totals = {kind: build_filtration(m, kind=kind) for kind in KINDS}
    totals.update((kind, mv_total_complex(kind, family, coefficient)) for kind in cli.MV_KINDS)
    return totals


@pytest.mark.parametrize("kind", KINDS + list(cli.MV_KINDS))
@settings(deadline=None, max_examples=10)
@given(families(), st.booleans())
def test_abutment_is_the_total_homology(kind, family, with_module):
    """E^infinity sums, diagonal by diagonal, to the homology of the total
    at the degrees the spectral command samples and one past the box, over
    GF(2), GF(3) and GF(32003): the comparison that ``pages`` leaves to its
    check of each term's pairs against the rank of its block."""
    coefficient = family[-1] if with_module and kind in cli.MV_KINDS else None
    filtered = _six_totals(family, coefficient)[kind]
    box = family_box(family, coefficient)
    for p in (2, 3, 32003):
        for gamma in cli._sample_degrees(box) + [Multidegree(tuple(b + 1 for b in box))]:
            pg = pages(filtered, gamma, GF(p))
            assert abuts_to_the_total(pg, filtered, gamma, GF(p)), (p, tuple(gamma))


@settings(deadline=None, max_examples=25)
@given(families().flatmap(lambda f: st.tuples(st.just(f), st.permutations(f))),
       st.sampled_from([2, 3, 32003]))
def test_permuting_the_family_keeps_tor_and_pages(families_pair, p):
    """A permuted family has the same ``multi_tor`` table and, at every
    sampled degree, the same pages of all six kinds: Tor, the interior and
    cone filtrations and the Mayer-Vietoris sequences are symmetric in the
    family, whichever module ``multi_tor`` leaves unresolved."""
    family, permuted = families_pair
    fld = GF(p)
    a, b = multi_tor(family, fld=fld), multi_tor(permuted, fld=fld)
    assert (a.entries, a.box) == (b.entries, b.box)
    before, after = _six_totals(family), _six_totals(permuted)
    for kind, filtered in before.items():
        for gamma in cli._sample_degrees(family_box(family)):
            assert _same_pages(pages(filtered, gamma, fld),
                               pages(after[kind], gamma, fld)), (kind, tuple(gamma))


@settings(deadline=None, max_examples=25)
@given(families().flatmap(lambda f: st.tuples(st.just(f), st.permutations(range(f[0].n)))),
       st.sampled_from([2, 3, 32003]))
def test_permuting_the_variables_moves_tor_and_pages(family_sigma, p):
    """Renaming the variables by sigma moves every degree by sigma: the
    ``multi_tor`` table of the renamed family at sigma(gamma), the S and P
    homology tables of both variants there, and the pages of all six kinds
    there (e1, e-infinity, r_stab and every rank table), are the original
    ones at gamma, at every sampled degree of the box and one past it.  A
    fresh variable that no ideal uses adds a trailing coordinate 0 to every
    entry and box of the same tables, and to every degree of the same
    pages."""
    family, sigma = family_sigma
    fld = GF(p)

    def moved(v):  # coordinate j of the renamed degree is coordinate sigma[j]
        return tuple(v[k] for k in sigma)

    def widened(v):
        return tuple(v) + (0,)

    renamed = [MonomialIdeal(ideal.n, [moved(g) for g in ideal.gens]) for ideal in family]
    fresh = [MonomialIdeal(ideal.n + 1, [widened(g) for g in ideal.gens]) for ideal in family]

    def tables(fam):
        out = {"tor": multi_tor(fam, fld=fld)}
        for build in (build_s_complex, build_p_complex):
            for variant in ("quotient", "tilde"):
                out[build.__name__, variant] = sumprod.complex_homology_table(
                    build(fam, variant), fld)
        return out

    before = tables(family)
    for image, move in ((renamed, moved), (fresh, widened)):
        for name, b in tables(image).items():
            a = before[name]
            assert {(i, move(gamma)): d for (i, gamma), d in a.entries.items()} == b.entries, name
            assert move(a.box) == tuple(b.box), name
    box = family_box(family)
    totals = _six_totals(family)
    for image, move in ((renamed, moved), (fresh, widened)):
        after = _six_totals(image)
        for kind, filtered in totals.items():
            for gamma in cli._sample_degrees(box) + [tuple(v + 1 for v in box)]:
                assert _same_pages(pages(filtered, gamma, fld),
                                   pages(after[kind], move(gamma), fld)), (kind, tuple(gamma))


def test_permuting_a_tie_changes_the_unresolved_module(monkeypatch):
    """(x, y) and (x^2, y^2) have two generators each, so ``multi_tor``
    leaves the first of them unresolved, the ideal its ``base_change``
    takes: the two orders build different complexes and still give one
    table."""
    unresolved = []
    change = torlab.base_change
    monkeypatch.setattr(torlab, "base_change",
                        lambda c, ideal: unresolved.append(ideal) or change(c, ideal))
    m, squares = MonomialIdeal(2, [(1, 0), (0, 1)]), MonomialIdeal(2, [(2, 0), (0, 2)])
    a, b = multi_tor([m, squares]), multi_tor([squares, m])
    assert unresolved == [m, squares]
    assert (a.entries, a.box) == (b.entries, b.box) and a.entries


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), families(), st.booleans())
def test_pairing_equals_the_block_oracle(seed, family, with_module):
    """The pairs of ``persistence_pairs``, from the keys a filtered total
    lays out once, equal, list for list, those of the oracle, which re-keys
    and sorts its total's block from the levels on every call: on a random
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
    each fibre class pairs each d_i out of an alive term once, and two
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
        (cls, i) for cls, alive in classes.items() for i, mask in alive.items() if mask)
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
    """Wraps a builder and records the arguments of every call, the
    positional ones in ``calls`` and the keywords in ``keywords``."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []
        self.keywords = []
        self.results = []

    def __call__(self, *args, **kwargs):
        self.calls.append(args)
        self.keywords.append(kwargs)
        self.results.append(self.fn(*args, **kwargs))
        return self.results[-1]


@pytest.mark.parametrize("kind", KINDS + ["sum_to_product", "product_to_sum"])
def test_spectral_command_builds_one_total(kind, monkeypatch):
    """One ``FilteredTotal`` per command, the Mayer-Vietoris ones
    included, which for M = R filter X itself without ``_by_weight``."""
    totals = _Counter(FilteredTotal)
    mv_totals = _Counter(cli.mv_total_complex)
    for module in (spectral, sumprod):  # sumprod filters the Mayer-Vietoris totals
        monkeypatch.setattr(module, "FilteredTotal", totals)
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
    """One call over p = 1, 2, 3 builds each total and each Tor table once,
    a singleton's product and sum being one ideal, and reads the homology
    of each (kind, subset, degree) once; with M = R no total is a tensor.
    Each total is built by ``mv_total_complex``, the one Mayer-Vietoris
    builder, so it is filtered exactly once, with or without a module, and
    only its ``.total``'s homology is read.  Every table and total reads
    the call's one map of resolutions."""
    mv_totals = _Counter(support.mv_total_complex)
    tors = _Counter(support.multi_tor)
    tensors = _Counter(sumprod.tensor)
    filtered = _Counter(FilteredTotal)
    homology_at = GradedComplex.homology_at
    read = []  # (complex, degree) of each homology_at call
    monkeypatch.setattr(support, "mv_total_complex", mv_totals)
    for module in (spectral, sumprod):
        monkeypatch.setattr(module, "FilteredTotal", filtered)
    monkeypatch.setattr(support, "multi_tor", tors)
    monkeypatch.setattr(sumprod, "tensor", tensors)
    monkeypatch.setattr(GradedComplex, "homology_at", lambda c, g, fld=GF(): (
        read.append((c, tuple(g))) or homology_at(c, g, fld)))
    family = [MonomialIdeal.variables(3, [i]) for i in range(3)]
    reports = support.supportoftors_check(family, None, [1, 2, 3])
    assert list(reports) == [1, 2, 3]
    assert all(r.passed for r in reports.values())
    assert len(reports[3].context["union_cells"]) > 1
    built = [(kind, tuple(ideals)) for kind, ideals, *_ in mv_totals.calls]
    assert len(built) == len(set(built)) == 2 * 7  # two kinds, 7 nonempty subsets
    assert len(filtered.calls) == len(built)
    tabled = [tuple(ideals) for ideals, *_ in tors.calls]
    assert len(tabled) == len(set(tabled)) == 7 + 4  # 7 products, 4 sums with |T| >= 2
    # the homology of each (kind, subset, degree) that some p tests, read once
    assert len({id(kw["resolutions"]) for kw in mv_totals.keywords + tors.keywords}) == 1
    subset = {id(total.total): (kind, tuple(ideals)) for (kind, ideals, *_), total
              in zip(mv_totals.calls, mv_totals.results)}
    read = [(*subset[id(c)], g) for c, g in read]
    tested = {(kind, tuple(family[i] for i in T), tuple(g))
              for p, report in reports.items()
              for T in itertools.chain(*(itertools.combinations(range(3), u)
                                         for u in range(1, p + 1)))
              for kind in ("sum_to_product", "product_to_sum")
              for g in report.context["union_cells"][:support.SPECTRAL_DEGREES]}
    assert len(read) == len(set(read)) and set(read) == tested
    # M = R: each total is X itself, and sumprod builds no Multicomplex
    assert tensors.calls == []
    before = len(mv_totals.calls)
    assert support.supportoftors_check(family, family[0], [2])[2].passed
    assert len(tensors.calls) == len(mv_totals.calls) - before == 2 * 6
    assert len(filtered.calls) == len(mv_totals.calls)


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
