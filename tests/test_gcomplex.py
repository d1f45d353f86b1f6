"""Graded complexes: Koszul and Taylor builders, fibers, stability boxes,
homology tables."""

import functools
import gc
import itertools
import weakref
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    lcm_by_zip,
    masked_rank_oracle,
    stream,
    summand_alive,
    unit_koszul,
    with_coefficient,
)
from homotor.errors import (
    BoxTooSmall,
    CompositionNonzero,
    InvalidKind,
    LengthMismatch,
    MixedKinds,
    ParamOutOfRange,
    UnitIdeal,
    ValidationError,
)
from homotor import gcomplex
from homotor.exactlin import GF
from homotor.gcomplex import (
    IDEAL,
    MAX_TAYLOR_GENERATORS,
    GradedComplex,
    Summand,
    base_change,
    cancel_units,
    exterior_complex,
    free_summand,
    ideal_augment,
    module_homology_table,
    resolution,
    summand,
    taylor_resolution,
)
from homotor.monomial import MonomialIdeal, Multidegree, iter_box
from homotor.multicomplex import Multicomplex, hypercube_augment, tensor
from homotor.sumprod import (
    augmented_interior_H,
    build_p_complex,
    build_s_complex,
    complex_homology_table,
)
from homotor.torlab import tor1_oracle


def ranks_of(c):
    return {i: len(ss) for i, ss in sorted(c.terms.items())}


def test_koszul_units_shapes_and_exactness():
    k1 = unit_koszul(1)
    assert ranks_of(k1) == {0: 1, 1: 1}
    assert k1.d[1] == {0: [(0, 1)]}
    k2 = unit_koszul(2)
    assert ranks_of(k2) == {0: 1, 1: 2, 2: 1}
    k3 = unit_koszul(3)
    assert ranks_of(k3) == {0: 1, 1: 3, 2: 3, 3: 1}
    for k in (k1, k2, k3):
        assert not module_homology_table(k).entries  # exact at every fiber
    kc = unit_koszul(2, "cochain")
    assert not module_homology_table(kc).entries


def test_koszul_cochain_is_the_negated_transpose():
    for n in range(1, 5):
        chain, cochain = unit_koszul(n), unit_koszul(n, "cochain")
        assert cochain.terms == {-i: ss for i, ss in chain.terms.items()}
        transposed = {1 - i: {} for i in chain.d}
        for i, rows in chain.d.items():
            for s, row in rows.items():
                for t, c in row:
                    transposed[1 - i].setdefault(t, []).append((s, c))
        assert cochain.d == {i: {t: sorted(row) for t, row in rows.items()}
                             for i, rows in transposed.items()}


def test_taylor_shapes():
    m = MonomialIdeal(2, [(1, 0), (0, 1)])
    t = taylor_resolution(m)
    assert ranks_of(t) == {0: 1, 1: 2, 2: 1}
    assert tuple(t.summands(2)[0].shift) == (1, 1)

    i = MonomialIdeal(2, [(2, 0), (1, 1)])
    t = taylor_resolution(i)
    assert sorted(tuple(s.shift) for s in t.summands(1)) == [(1, 1), (2, 0)]
    assert tuple(t.summands(2)[0].shift) == (2, 1)

    x = MonomialIdeal(2, [(1, 0)])
    assert ranks_of(taylor_resolution(x)) == {0: 1, 1: 1}
    with pytest.raises(UnitIdeal):
        taylor_resolution(MonomialIdeal.unit(2))


def test_taylor_is_resolution():
    """H_0 = R/I pattern and H_{>0} = 0, over the full box."""
    for gens in ([(1, 0), (0, 1)], [(2, 0), (1, 1)], [(2, 1), (1, 2), (0, 3)]):
        ideal = MonomialIdeal(2, gens)
        table = module_homology_table(taylor_resolution(ideal))
        assert all(i == 0 for i in table.nonzero_indices())
        for gamma in iter_box(table.box):
            expect = 0 if ideal.contains(gamma) else 1
            assert table.dim(0, gamma) == expect


def test_fiber_examples():
    m = MonomialIdeal(2, [(1, 0), (0, 1)])
    t = taylor_resolution(m)
    f0 = t.alive_masks((0, 0))
    assert [f0.get(i, 0).bit_count() for i in (0, 1, 2)] == [1, 0, 0]
    f11 = t.alive_masks((1, 1))
    assert [f11.get(i, 0).bit_count() for i in (0, 1, 2)] == [1, 2, 1]
    assert t.homology_at((1, 1)) == {0: 0, 1: 0, 2: 0}


def test_stable_box_examples():
    m = MonomialIdeal(2, [(1, 0), (0, 1)])
    assert tuple(taylor_resolution(m).stable_box()) == (1, 1)
    x = MonomialIdeal(1, [(1,)])
    squared = tensor([taylor_resolution(x), taylor_resolution(x)]).total
    assert tuple(squared.stable_box()) == (2,)


def test_homogeneity_rejected():
    # free -> free entry must not raise the shift
    terms = {0: (free_summand((1, 0)),), 1: (free_summand((0, 0)),)}
    with pytest.raises(ValidationError):
        GradedComplex(2, terms, {1: {0: [(0, 1)]}})
    # cyclic -> cyclic needs the induced map to be defined
    a = summand(MonomialIdeal(2, [(1, 0)]))
    b = summand(MonomialIdeal(2, [(2, 0)]))
    with pytest.raises(ValidationError):
        GradedComplex(2, {0: (b,), 1: (a,)}, {1: {0: [(0, 1)]}})
    # the reverse inclusion is fine
    GradedComplex(2, {0: (a,), 1: (b,)}, {1: {0: [(0, 1)]}})
    # equal ideals do not excuse a raised shift
    with pytest.raises(ValidationError):
        GradedComplex(2, {0: (summand(a.ideal, (0, 1)),), 1: (a,)},
                      {1: {0: [(0, 1)]}})
    # coefficients are exact integers: a float sign is rejected
    with pytest.raises(ValidationError):
        GradedComplex(2, {0: (a,), 1: (b,)}, {1: {0: [(0, -1.0)]}})


def test_a_free_module_is_the_quotient_by_zero():
    """R(-a) has one encoding, R/0(-a), so a free and a quotient summand
    share a complex: R(0) -> R/(x)(0) is legal, and its H_1 is the ideal
    (x), one dimension at each degree of (x)."""
    for a in ((0, 0), (2, 1)):
        assert free_summand(a) == summand(MonomialIdeal.zero(2), a)
    x = MonomialIdeal(2, [(1, 0)])
    c = GradedComplex(2, {1: (free_summand((0, 0)),), 0: (summand(x),)},
                      {1: {0: [(0, 1)]}})
    table = module_homology_table(c, box=(2, 2))
    assert table.slice(1) == {tuple(g): 1 for g in iter_box((2, 2)) if x.contains(g)}
    assert table.nonzero_indices() == [1]


def test_summands_in_another_variable_count_are_refused():
    """A summand whose shift or ideal has a length other than the
    complex's variable count is refused where the complex is built."""
    three = MonomialIdeal(3, [(0, 0, 1)])
    for bad in (summand(three, (0, 0, 0)), summand(three, (0, 0)),
                summand(MonomialIdeal(1, [(1,)]), (0, 0)), free_summand((0, 0, 0))):
        with pytest.raises(LengthMismatch):
            GradedComplex(2, {0: (bad,)}, {})


def test_malformed_summands_entries_and_orientations_rejected():
    zero = Multidegree.zero(2)
    # a shift that is not a Multidegree or an ideal that is not a MonomialIdeal
    for bad in (Summand(zero, None), Summand((0, 0), MonomialIdeal.zero(2))):
        with pytest.raises(ValidationError, match="Multidegree shift and a MonomialIdeal"):
            GradedComplex(2, {0: (bad,)}, {})
    with pytest.raises(InvalidKind):
        GradedComplex(2, {0: (free_summand(zero),)}, {}, "twisted")
    terms = {0: (free_summand(zero),), 1: (free_summand(zero),)}
    with pytest.raises(ValidationError):
        GradedComplex(2, terms, {1: {0: [(1, 1)]}})
    with pytest.raises(InvalidKind):
        exterior_complex(1, lambda s: free_summand(zero), "cochains")


def test_every_table_builder_meets_the_tor_table_precondition():
    """``TorTable`` keeps its entries as given: every builder passes int
    indices, plain-tuple degrees of ints and nonzero int dimensions."""
    for family in stream(0, 6, n_vars=2, n_ideals=3, max_gens=2, max_exp=2):
        tables = [
            module_homology_table(tensor([resolution(i) for i in family]).total),
            complex_homology_table(build_s_complex(family)),
            complex_homology_table(build_p_complex(family)),
            augmented_interior_H(family),
            tor1_oracle(family),
        ]
        for table in tables:
            for (i, g), d in table.entries.items():
                assert type(i) is int and type(g) is tuple
                assert all(type(v) is int for v in g)
                assert type(d) is int and d != 0


def test_dd_zero_checked_symbolically():
    terms = {i: (free_summand((0, 0)),) for i in (0, 1, 2)}
    with pytest.raises(CompositionNonzero):
        GradedComplex(2, terms, {1: {0: [(0, 1)]}, 2: {0: [(0, 1)]}})


@st.composite
def maps_and_variants(draw):
    """(n_src, n_tgt, a map in normal form, the same map with its sources
    and each row's targets shuffled, some coefficients split in two, some
    zero sums added, in rows of their own too, and some entries as lists)."""
    n_src, n_tgt = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    coefficient = st.integers(-3, 3).filter(bool)
    sources = draw(st.dictionaries(st.integers(0, n_src - 1),
                                   st.sets(st.integers(0, n_tgt - 1), min_size=1)))
    normal = {s: [(t, draw(coefficient)) for t in sorted(ts)] for s, ts in sorted(sources.items())}
    target = st.integers(0, n_tgt - 1)
    variant = {}
    for s in draw(st.permutations(range(n_src))):
        row = []
        for t, c in normal.get(s, ()):
            k = draw(st.integers(-2, 2))
            row += [(t, c - k), (t, k)] if k else [(t, c)]
        for t, k in draw(st.lists(st.tuples(target, coefficient), max_size=2)):
            row += [(t, k), (t, -k)]
        row = [list(e) if draw(st.booleans()) else e for e in draw(st.permutations(row))]
        if row or draw(st.booleans()):
            variant[s] = row
    return n_src, n_tgt, normal, variant


@settings(max_examples=200)
@given(maps_and_variants())
def test_the_one_scan_and_the_merge_sort_give_one_normal_form(case):
    """A map in normal form is copied by ``_rows``' scan, and the same map
    shuffled, split, padded with zero sums or with entries as lists goes
    through the merge and the sort: both give the normal map, sources in
    order, its rows new lists of (target, coefficient) tuples."""
    n_src, n_tgt, normal, variant = case
    scanned = gcomplex._rows(normal, n_src, n_tgt, lambda: "map")
    assert list(scanned.items()) == list(normal.items())
    assert all(scanned[s] is not normal[s] for s in normal)
    merged = gcomplex._rows(variant, n_src, n_tgt, lambda: "map")
    assert list(merged.items()) == list(normal.items())


def test_ideal_summand_fiber():
    j = summand(MonomialIdeal(2, [(1, 0)]))
    assert not summand_alive(j, Multidegree((0, 1)), IDEAL)
    assert summand_alive(j, Multidegree((1, 1)), IDEAL)
    r = summand(MonomialIdeal.unit(2))  # the whole ring
    assert summand_alive(r, Multidegree((0, 0)), IDEAL)


def test_module_homology_table_box_guard():
    t = taylor_resolution(MonomialIdeal(2, [(1, 0), (0, 1)]))
    with pytest.raises(BoxTooSmall):
        module_homology_table(t, box=(0, 0))
    bigger = module_homology_table(t, box=(2, 2))
    assert bigger.dim(0, (0, 0)) == 1


def test_module_homology_table_refuses_a_huge_box_before_the_sweep(monkeypatch):
    """A box of more than MAX_BOX_POINTS degrees is refused before the walk
    looks up the row of any value of the box."""
    t = taylor_resolution(MonomialIdeal(2, [(1, 0), (0, 1)]))

    def bisect_right(cut, v):
        raise AssertionError("the box was walked")

    monkeypatch.setattr(gcomplex, "bisect_right", bisect_right)
    with pytest.raises(ParamOutOfRange):
        module_homology_table(t, box=(1000, 1000))


def test_with_coefficient_matches_longer_family():
    """Tensoring the resolution with R/J fiberwise computes Tor against R/J."""
    from homotor.multicomplex import tensor
    from homotor.torlab import multi_tor

    i1 = MonomialIdeal(2, [(1, 0), (0, 1)])
    i2 = MonomialIdeal(2, [(1, 1)])
    box = (2, 2)
    direct = multi_tor([i1, i2], box=box)
    total = tensor([taylor_resolution(i1)]).total
    coeff = module_homology_table(with_coefficient(total, i2), box=box)
    assert direct.entries == coeff.entries


def test_base_change_of_r_is_one_cyclic_summand():
    """R/I as a complex is the base change of R(0), the resolution of the
    zero ideal: the one summand R/I in degree 0.  The unit ideal, whose
    quotient is zero, is refused."""
    i = MonomialIdeal(2, [(2, 0), (1, 1)])
    c = base_change(resolution(MonomialIdeal.zero(2)), i)
    assert c.terms == {0: (summand(i),)}
    assert c.d == {}
    with pytest.raises(UnitIdeal):
        base_change(taylor_resolution(i), MonomialIdeal.unit(2))


def test_base_change_refuses_an_ideal_kind_complex():
    """base_change is c ⊗ R/J for c of cyclic summands; the tilde S
    complex, of ideal summands, is refused as ``tensor`` refuses it, not
    returned as a cyclic complex whose summands are read as quotients."""
    family = [MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(0, 1)])]
    tilde = build_s_complex(family, "tilde")
    assert tilde.kind == IDEAL
    for j in (MonomialIdeal.zero(2), MonomialIdeal(2, [(1, 1)])):
        with pytest.raises(MixedKinds, match="cyclic summands"):
            base_change(tilde, j)
    with pytest.raises(MixedKinds, match="cyclic summands"):
        tensor([tilde])


def test_ideal_augment_puts_the_ideal_above_the_corner():
    """On the augmentation of no axis, R -> R by the identity, ideal_augment
    gives I -> R one index up: I(0) at 1, the unit ideal at 0 and the
    inclusion, so its homology is R/I at index 0.  On the augmented
    interior of one resolution, every summand above the corner, at any
    index, becomes I at its shift and the corner the unit ideal.  A cyclic
    complex with a non-free summand, and an ideal-kind one, are refused."""
    i = MonomialIdeal(2, [(2, 0), (1, 1)])
    point = Multicomplex(0, 2, {(): [free_summand((0, 0))]}, {})
    c = ideal_augment(hypercube_augment(point), i)
    assert c.kind == IDEAL
    assert c.terms == {1: (summand(i),), 0: (summand(MonomialIdeal.unit(2)),)}
    assert c.d == {1: {0: [(0, 1)]}}
    table = module_homology_table(c)
    assert table.entries == {(0, tuple(g)): 1 for g in iter_box(table.box)
                             if not i.contains(g)}
    aug = hypercube_augment(tensor([resolution(MonomialIdeal(2, [(1, 0), (0, 1)]))]))
    c = ideal_augment(aug, i)
    assert {k - 1: [s.shift for s in ss] for k, ss in c.terms.items()} == \
        {k: [s.shift for s in ss] for k, ss in aug.terms.items()}
    low = min(c.terms)
    assert all(s.ideal == (MonomialIdeal.unit(2) if k == low else i)
               for k, ss in c.terms.items() for s in ss)
    assert c.d == {k + 1: rows for k, rows in aug.d.items()}
    for bad in (base_change(aug, i), build_s_complex([i, i], "tilde")):
        with pytest.raises(MixedKinds, match="free summands"):
            ideal_augment(bad, i)


@st.composite
def cyclic_complexes_and_ideals(draw):
    """A cyclic complex in non-negative degrees, free or not (resolutions,
    a tensor total, a resolution with a coefficient, the quotient P
    complex), and an ideal to change its base by: zero or proper."""
    n = draw(st.integers(1, 3))
    a, b = draw(st.lists(proper_ideals(n), min_size=2, max_size=2))
    x = draw(st.sampled_from([
        lambda: taylor_resolution(a), lambda: resolution(a),
        lambda: tensor([resolution(a), taylor_resolution(b)]).total,
        lambda: with_coefficient(taylor_resolution(a), b),
        lambda: build_p_complex([a, b])]))()
    j = draw(st.one_of(st.just(MonomialIdeal.zero(n)), proper_ideals(n)))
    return x, j


@settings(deadline=None, max_examples=40)
@given(cyclic_complexes_and_ideals())
def test_base_change_is_the_total_of_the_tensor_with_one_summand(case):
    """base_change(x, J) is, term for term and entry for entry, the total of
    the tensor of x with the one-summand complex R/J in degree 0, and
    tensoring x alone gives x back: the two identities that let a Tor table
    tensor only the modules it resolves.  Each summand becomes
    R/(its ideal + J) at its shift, as ``with_coefficient`` builds it."""
    x, j = case
    one = GradedComplex(x.n, {0: (summand(j),)}, {})
    changed = base_change(x, j)
    total = tensor([x, one]).total
    assert (changed.terms, changed.d) == (total.terms, total.d)
    assert changed.d == x.d
    reference = with_coefficient(x, j)
    assert {i: [(s.shift, s.ideal) for s in ss] for i, ss in changed.terms.items()} \
        == {i: [(s.shift, s.ideal) for s in ss] for i, ss in reference.terms.items()}
    alone = tensor([x]).total
    assert (alone.terms, alone.d) == (x.terms, x.d)


def test_rebuilt_complexes_keep_their_kind():
    """``cancel_units`` rebuilds a tilde complex, whose summands are the
    ideals J(-a), as one of ideal kind: a tilde S with two equal summands
    (x) loses that pair and keeps its fibres."""
    family = [MonomialIdeal(1, [(1,)]), MonomialIdeal(1, [(2,)])]
    s = build_s_complex(family, "tilde")
    reduced = cancel_units(s)
    assert ranks_of(reduced) == {0: 1, -1: 1}
    for c in (reduced, cancel_units(build_p_complex(family, "tilde"))):
        assert c.kind == IDEAL
    box = s.stable_box()
    assert module_homology_table(reduced, box=box) == module_homology_table(s, box=box)


def test_taylor_resolution_refuses_more_than_16_generators(monkeypatch):
    """An ideal with more generators than the Taylor guard allows is refused
    before anything is built; one at the limit reaches the builder."""
    def build(*args):
        raise AssertionError("the 2^g summands were listed")

    def staircase(g):
        return MonomialIdeal(2, [(k, g - 1 - k) for k in range(g)])

    monkeypatch.setattr(gcomplex, "exterior_complex", build)
    for make in (taylor_resolution, resolution):
        with pytest.raises(ParamOutOfRange):
            make(staircase(MAX_TAYLOR_GENERATORS + 1))
    with pytest.raises(AssertionError, match="listed"):
        taylor_resolution(staircase(MAX_TAYLOR_GENERATORS))


def test_stability_pullback_for_taylor():
    """Fibers above the box repeat the boundary fiber."""
    ideal = MonomialIdeal(2, [(2, 1), (1, 2)])
    t = taylor_resolution(ideal)
    box = t.stable_box()
    big = Multidegree(tuple(b + 2 for b in box))
    table = module_homology_table(t, box=big)
    small = module_homology_table(t, box=box)
    for gamma in iter_box(big):
        clamped = tuple(min(g, b) for g, b in zip(gamma, box))
        for i in t.window():
            assert table.dim(i, gamma) == small.dim(i, clamped)


@st.composite
def proper_ideals(draw, n):
    exponent = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    return MonomialIdeal(n, draw(st.lists(exponent, min_size=1, max_size=3)))


@st.composite
def complexes_of_every_kind(draw):
    """Free: a tensor of Taylor resolutions.  Cyclic: a resolution with a
    quotient coefficient, or the quotient S complex.  Ideal: the tilde S and
    P complexes.  The S and P terms carry sums and products of the ideals,
    so their generator counts differ from summand to summand."""
    n = draw(st.integers(1, 3))
    ideals = draw(st.lists(proper_ideals(n), min_size=2, max_size=3))
    a, b = ideals[:2]
    build = draw(st.sampled_from(["tensor", "coefficient", "quotient", "tilde", "p"]))
    if build == "tensor":
        return tensor([taylor_resolution(a), taylor_resolution(b)]).total
    if build == "coefficient":
        return with_coefficient(taylor_resolution(a), b)
    if build == "p":
        return build_p_complex(ideals, "tilde")
    return build_s_complex(ideals, build)


@settings(deadline=None)
@given(complexes_of_every_kind())
def test_masked_rank_matches_the_dense_oracle(c):
    """The rank of every alive block of d, at every degree of the stable box
    over GF(2), GF(3) and GF(32003), is the dense reference rank."""
    for gamma in iter_box(c.stable_box()):
        masks = c.alive_masks(gamma)
        for i in c.window()[1:]:
            src, tgt = masks.get(i, 0), masks.get(i - 1, 0)
            for p in (2, 3, 32003):
                assert c._masked_rank(i, src, tgt, GF(p)) == masked_rank_oracle(
                    c, i, src, tgt, p), (i, tuple(gamma), p)


@st.composite
def complexes_and_growth(draw):
    """A complex of every kind, the free and cyclic ones also with a
    quotient coefficient, and a growth of 1-2 per coordinate."""
    c = draw(complexes_of_every_kind())
    if c.kind != IDEAL and draw(st.booleans()):
        c = with_coefficient(c, draw(proper_ideals(c.n)))
    return c, draw(st.lists(st.integers(1, 2), min_size=c.n, max_size=c.n))


@settings(deadline=None)
@given(complexes_and_growth())
def test_table_sweep_matches_the_per_degree_walk(case):
    """module_homology_table, one sweep and one homology per fibre class,
    equals homology_at at every degree of the stable box and of the box
    grown by 1-2, entries in the same order (degree, then i), over GF(2),
    GF(3) and GF(32003); a box short of the stable box is refused."""
    c, growth = case
    stable = c.stable_box()
    _assert_table_is_the_walk(c, [None, tuple(b + g for b, g in zip(stable, growth))])
    for k, b in enumerate(stable):
        if b:
            short = list(stable)
            short[k] -= 1
            with pytest.raises(BoxTooSmall):
                module_homology_table(c, box=short)


def _assert_table_is_the_walk(c, boxes):
    """Over each box and GF(2), GF(3) and GF(32003), module_homology_table
    equals homology_at at every degree, entries in the same order (degree,
    then i)."""
    for box in boxes:
        for p in (2, 3, 32003):
            table = module_homology_table(c, GF(p), box)
            walk = {(i, tuple(gamma)): h for gamma in iter_box(table.box)
                    for i, h in c.homology_at(gamma, GF(p)).items() if h}
            assert table.entries == walk
            assert list(table.entries) == list(walk)


def test_long_runs_sweep_as_the_per_degree_walk():
    """(x^40, y) makes runs of 40 degrees in x: its resolution, alone and
    with the coefficient (x^3 y), tabulates as the per-degree walk over the
    stable box and over it grown by 1-2."""
    ideal = MonomialIdeal(2, [(40, 0), (0, 1)])
    for c in (resolution(ideal), base_change(resolution(ideal), MonomialIdeal(2, [(3, 1)]))):
        stable = c.stable_box()
        assert max(stable) >= 40
        _assert_table_is_the_walk(c, [None] + [tuple(b + g for b in stable) for g in (1, 2)]
                                  + [(stable[0] + 1, stable[1] + 2)])


def test_a_swept_complex_is_freed_without_a_gc_pass():
    """The box sweep leaves no reference cycle through the complex: once
    its last reference goes, the complex goes too, with its rank cache and
    threshold tables, while the cyclic garbage collector is off."""
    family = [MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 1, 1)]),
              MonomialIdeal(3, [(0, 0, 2), (1, 0, 1)])]
    gc.disable()
    try:
        for build in (lambda: taylor_resolution(family[0]),
                      lambda: build_s_complex(family)):
            c = build()
            module_homology_table(c)
            ref = weakref.ref(c)
            del c
            assert ref() is None
    finally:
        gc.enable()


def test_the_sweep_computes_homology_once_per_class_int(monkeypatch):
    """On a fixed Tor complex of three ideals, two resolved and one changed
    into by ``base_change``, module_homology_table computes homology once
    per distinct class int (_alive of a swept state), from that class's
    split into term masks.  The class ints are exactly as many as the
    distinct masks tuples of the per-summand oracle, so the int is the same
    equivalence, and fewer than the distinct states, which are fewer than
    the degrees."""
    family = [MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 1, 1)]),
              MonomialIdeal(3, [(0, 0, 2), (1, 0, 1)]),
              MonomialIdeal(3, [(0, 2, 0), (1, 1, 1)])]
    c = base_change(tensor([resolution(family[0]), resolution(family[1])]).total,
                    family[2])
    states = _degree_states(c, c.stable_box())
    classes = {c._alive(state) for state in states}
    oracle = {tuple(_summand_masks(c, gamma).values()) for gamma in iter_box(c.stable_box())}
    assert len(classes) == len(oracle) < len(set(states)) < len(states)
    homology = GradedComplex._homology
    computed = []

    def counted_homology(self, masks, field):
        computed.append(tuple(masks.values()))
        return homology(self, masks, field)

    monkeypatch.setattr(GradedComplex, "_homology", counted_homology)
    module_homology_table(c)
    assert sorted(computed) == sorted(oracle)


def test_the_sweep_ranks_no_empty_block(monkeypatch):
    """On the same fixed tensor, a rank with an empty source or target mask
    is 0 without a block or an elimination: pivot_pairs is never called
    with an empty row list, and the table is the per-degree walk's."""
    family = [MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 1, 1)]),
              MonomialIdeal(3, [(0, 0, 2), (1, 0, 1)]),
              MonomialIdeal(3, [(0, 2, 0), (1, 1, 1)])]
    c = base_change(tensor([resolution(family[0]), resolution(family[1])]).total,
                    family[2])
    eliminate = gcomplex.pivot_pairs
    rows_per_call = []

    def counted(rows, p):
        rows_per_call.append(len(rows))
        return eliminate(rows, p)

    monkeypatch.setattr(gcomplex, "pivot_pairs", counted)
    table = module_homology_table(c)
    assert rows_per_call and 0 not in rows_per_call
    assert table.entries == {(i, tuple(gamma)): h for gamma in iter_box(table.box)
                             for i, h in c.homology_at(gamma).items() if h}


def _summand_masks(c, gamma):
    """{i: bitmask of the summands of term i that summand_alive finds alive
    at gamma}: the per-summand oracle of the packed fibre state."""
    return {i: sum(1 << k for k, s in enumerate(ss) if summand_alive(s, gamma, c.kind))
            for i, ss in c.terms.items()}


def _assert_masks_match_summands(c, degrees=None):
    """Bit k of alive_masks(gamma)[i] is summand_alive at every gamma of
    ``degrees``, by default the stability box grown by 2 in each coordinate."""
    if degrees is None:
        degrees = iter_box(tuple(b + 2 for b in c.stable_box()))
    for gamma in degrees:
        assert c.alive_masks(gamma) == _summand_masks(c, gamma), tuple(gamma)


def _degree_states(c, box):
    """The packed fibre state of each degree of the box, in lexicographic
    order, narrowed coordinate by coordinate as ``alive_masks`` narrows it:
    the states the sweep must read."""
    cuts, full, rows = c._tables()[:3]
    states = []
    for gamma in iter_box(box):
        state = full
        for cut, row, g in zip(cuts, rows, gamma):
            state &= row[bisect_right(cut, g) - 1]
        states.append(state)
    return states


def _swept_masks(c, box) -> dict:
    """{degree: the term masks module_homology_table hands ``_homology``
    there}, degrees in the order of the table's entries.  ``_homology`` is
    replaced by one that gives every term the dim 1 + its mask, so each
    degree has an entry per term and the entries spell out the masks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GradedComplex, "_homology",
                      lambda self, masks, field: {i: 1 + m for i, m in masks.items()})
        table = module_homology_table(c, box=box)
    swept = {}
    for (i, gamma), h in table.entries.items():
        swept.setdefault(gamma, {})[i] = h - 1
    return swept


def _assert_sweep_matches_summands(c, box):
    """The sweep over ``box`` lists each degree once, in lexicographic
    order, and the term masks it computes homology from at a degree, like
    alive_masks there, are bit for bit the per-summand oracle."""
    swept = _swept_masks(c, box)
    assert list(swept) == [tuple(g) for g in iter_box(box)]
    for gamma, masks in swept.items():
        expected = _summand_masks(c, gamma)
        assert masks == expected, gamma
        assert c.alive_masks(gamma) == expected, gamma


@settings(deadline=None)
@given(complexes_of_every_kind())
def test_alive_masks_match_summand_alive(c):
    _assert_masks_match_summands(c)


@settings(deadline=None)
@given(complexes_and_growth())
def test_swept_masks_match_summand_alive(case):
    """Every kind of complex, free and cyclic ones also with a quotient
    coefficient: at every degree of the stable box and of the box grown by
    1-2, the swept and the read masks equal the per-summand oracle, which
    shares no code with the packed rows, so a wrong field offset shows."""
    c, growth = case
    stable = c.stable_box()
    for box in (stable, tuple(b + g for b, g in zip(stable, growth))):
        _assert_sweep_matches_summands(c, box)


def test_alive_masks_with_unequal_generator_counts():
    """S complexes whose summand ideals have unequal generator counts agree
    with the per-summand oracle over the box grown by 2 and in the sweep,
    in both variants.  In the second family the product ideal has 9
    generators and every other summand 1-3, so each summand owns as many
    corner fields as that one and most of them stay empty."""
    families = [
        [MonomialIdeal(3, [(2, 0, 0), (0, 1, 1), (1, 1, 0)]),
         MonomialIdeal(3, [(0, 0, 2)]),
         MonomialIdeal(3, [(0, 2, 0), (1, 0, 1)])],
        [MonomialIdeal(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
         MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
         MonomialIdeal(3, [(1, 0, 0)])],
    ]
    for ideals in families:
        for variant in ("quotient", "tilde"):
            c = build_s_complex(ideals, variant)
            counts = {len(s.ideal.gens) for ss in c.terms.values() for s in ss}
            assert len(counts) > 2
            _assert_masks_match_summands(c)
            _assert_sweep_matches_summands(c, tuple(b + 1 for b in c.stable_box()))
    assert counts == {1, 3, 9}
    ideals = families[0]
    shifted = with_coefficient(taylor_resolution(ideals[0]), ideals[2])
    _assert_masks_match_summands(shifted)


def test_alive_masks_at_large_exponents():
    """The tables hold one entry per distinct threshold, not per exponent
    value, so a huge exponent costs nothing; degrees on both sides of each
    threshold agree with summand_alive."""
    big = 10**9
    a = MonomialIdeal(2, [(big, 0), (0, 1)])
    b = MonomialIdeal(2, [(1, 1)])
    for c in (with_coefficient(taylor_resolution(a), b),
              build_s_complex([a, b], "tilde")):
        values = (0, 1, 2, big - 1, big, big + 1, 2 * big)
        _assert_masks_match_summands(c, itertools.product(values, repeat=2))


def test_alive_masks_rejects_bad_degrees():
    c = build_s_complex([MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(0, 1)])],
                        "tilde")
    with pytest.raises(LengthMismatch):
        c.alive_masks((1, 1, 1))
    with pytest.raises(LengthMismatch):
        c.alive_masks((1,))
    with pytest.raises(ValidationError):
        c.alive_masks((1, -1))


def _koszul_on_monomials(n, gens):
    """The Koszul complex on distinct monomials: free summands shifted by
    the sum (not the lcm) of the monomials in each subset."""
    zero = Multidegree.zero(n)
    terms, d = exterior_complex(
        len(gens),
        lambda s: free_summand(
            functools.reduce(Multidegree.add, (Multidegree(gens[i]) for i in s), zero)
        ),
    )
    return GradedComplex(n, terms, d)


@st.composite
def resolutions_to_reduce(draw):
    """Taylor resolutions (1-6 generators) and Koszul complexes on monomials,
    totals of tensors of two Taylor resolutions, and any of these with a
    quotient coefficient, in 1-3 variables.  The generators share one total
    degree, so they are minimal and their lcms often coincide: those are the
    Taylor summands that cancel."""
    n = draw(st.integers(1, 3))
    degree = draw(st.integers(1, 3))
    monomials = [m for m in itertools.product(range(degree + 1), repeat=n)
                 if sum(m) == degree]
    generators = st.lists(st.sampled_from(monomials), min_size=1, max_size=6,
                          unique=True)
    gens = draw(generators)
    build = draw(st.sampled_from(["taylor", "koszul", "tensor"]))
    if build == "taylor":
        c = taylor_resolution(MonomialIdeal(n, gens))
    elif build == "koszul":
        c = _koszul_on_monomials(n, gens)
    else:
        a, b = MonomialIdeal(n, gens[:3]), MonomialIdeal(n, draw(generators)[:3])
        c = tensor([taylor_resolution(a), taylor_resolution(b)]).total
    if draw(st.booleans()):
        c = with_coefficient(c, draw(proper_ideals(n)))
    return c


def _nonzero(homology: dict) -> dict:
    return {i: h for i, h in homology.items() if h}


@settings(max_examples=200, deadline=None)
@given(resolutions_to_reduce())
def test_cancel_units_keeps_every_fibre(c):
    """The reduced complex has the homology of c at every degree of c's
    stability box, over GF(2) and GF(32003), the same box, and no unit
    entry left to cancel."""
    reduced = cancel_units(c)
    box = c.stable_box()
    assert reduced.stable_box() == box
    for gamma in iter_box(box):
        for p in (2, 32003):
            assert _nonzero(reduced.homology_at(gamma, GF(p))) == \
                _nonzero(c.homology_at(gamma, GF(p))), (p, tuple(gamma))
    again = cancel_units(reduced)
    assert again.terms == reduced.terms
    assert again.d == reduced.d


def _unit_pairs(c):
    """The entries of c with coefficient ±1 between two summands of equal
    shift and equal generators, compared as plain tuples: the entries
    ``cancel_units`` may cancel."""
    return [(i, s, t) for i, rows in c.d.items() for s, row in rows.items() for t, v in row
            if abs(v) == 1
            and tuple(c.terms[i][s].shift) == tuple(c.terms[i - 1][t].shift)
            and c.terms[i][s].ideal.gens == c.terms[i - 1][t].ideal.gens]


@settings(max_examples=300, deadline=None)
@given(resolutions_to_reduce())
def test_cancel_units_returns_its_input_exactly_when_nothing_cancels(c):
    """``cancel_units(c) is c`` exactly when c has no unit pair; otherwise
    the result is a new complex with fewer summands."""
    reduced = cancel_units(c)
    if _unit_pairs(c):
        assert reduced is not c
        assert sum(map(len, reduced.terms.values())) < sum(map(len, c.terms.values()))
    else:
        assert reduced is c
    assert not _unit_pairs(reduced)
    assert cancel_units(reduced) is reduced


def test_a_cancelling_resolution_keeps_the_taylor_tables():
    """A pinned ideal whose Taylor resolution cancels (several lcms
    coincide) has, reduced, the Taylor resolution's table over GF(2),
    GF(3) and GF(32003); a Koszul complex on variables cancels nothing."""
    ideal = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2)])
    taylor = taylor_resolution(ideal)
    reduced = resolution(ideal)
    assert reduced is not taylor
    assert ranks_of(reduced) == {0: 1, 1: 5, 2: 6, 3: 2}
    assert ranks_of(taylor) == {0: 1, 1: 5, 2: 10, 3: 10, 4: 5, 5: 1}
    for p in (2, 3, 32003):
        table = module_homology_table(reduced, GF(p))
        assert table == module_homology_table(taylor, GF(p), table.box)
        for i in range(-1, 7):
            assert table.is_zero(i) == (not table.slice(i))
    koszul = taylor_resolution(MonomialIdeal.variables(3, [0, 1, 2]))
    assert resolution(MonomialIdeal.variables(3, [0, 1, 2])).terms == koszul.terms
    assert cancel_units(koszul) is koszul


def test_the_sweep_reads_each_state_once(monkeypatch):
    """On the fixed complex of the class test above, module_homology_table
    reads the fibre class of each distinct state once: ``_alive`` runs
    exactly once per distinct state of the box's degrees, though the
    degrees repeat states."""
    family = [MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 1, 1)]),
              MonomialIdeal(3, [(0, 0, 2), (1, 0, 1)]),
              MonomialIdeal(3, [(0, 2, 0), (1, 1, 1)])]
    c = base_change(tensor([resolution(family[0]), resolution(family[1])]).total,
                    family[2])
    states = _degree_states(c, c.stable_box())
    assert len(set(states)) < len(states)
    alive = GradedComplex._alive
    read = []

    def counted_alive(self, state):
        read.append(state)
        return alive(self, state)

    monkeypatch.setattr(GradedComplex, "_alive", counted_alive)
    table = module_homology_table(c)
    assert sorted(read) == sorted(set(states))
    assert table.entries == {(i, tuple(gamma)): h for gamma in iter_box(table.box)
                             for i, h in c.homology_at(gamma).items() if h}


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 3)] * n).filter(any), min_size=1, max_size=6)))
def test_taylor_shifts_are_the_lcms_and_share_one_zero_ideal(gens):
    """Each Taylor summand on a subset of the (at most 6) minimal
    generators is free, shifted by the lcm of the subset, as a fold of the
    reference lcm; all summands share one zero ideal."""
    ideal = MonomialIdeal(len(gens[0]), gens)
    c = taylor_resolution(ideal)
    zero = Multidegree.zero(ideal.n)
    ideals = {id(s.ideal) for ss in c.terms.values() for s in ss}
    assert len(ideals) == 1
    assert c.terms[0][0].ideal.is_zero()
    for p, ss in c.terms.items():
        subsets = itertools.combinations(ideal.gens, p)
        assert [s.shift for s in ss] == [functools.reduce(lcm_by_zip, sub, zero)
                                         for sub in subsets]
