"""Multiple Tor tables, the Tor_1 oracle, independence, Betti invariants,
rigidity and the proper-intersection equivalence."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import diagonal_tor, koszul_betti, stream, tensor_total, with_coefficient
from homotor import torlab
from homotor.exactlin import GF
from homotor.errors import BoxTooSmall, EmptyInput, LengthMismatch, UnitIdeal
from homotor.gcomplex import (
    cancel_units,
    module_homology_table,
    resolution,
    taylor_resolution,
)
from homotor.monomial import MonomialIdeal, check_family, iter_box
from homotor.multicomplex import tensor
from homotor.sumprod import build_s_complex
from homotor.torlab import (
    betti_table,
    family_box,
    independence,
    multi_tor,
    rigidity_check,
    serre_a8_check,
    tor1_oracle,
)


def test_multi_tor_distinct_variables(kxy):
    t = multi_tor([kxy["x"], kxy["y"]])
    assert t.records() == [{"i": 0, "degree": [0, 0], "dim": 1}]


def test_multi_tor_maximal_ideal_square(kxy):
    t = multi_tor([kxy["m"], kxy["m"]])
    assert t.slice(1) == {(0, 1): 1, (1, 0): 1}
    assert t.slice(2) == {(1, 1): 1}


def test_multi_tor_top_degree_remark():
    """Tor_{n(s-1)} of s copies of R/m is the residue field: n=1, s=2."""
    x = MonomialIdeal(1, [(1,)])
    t = multi_tor([x, x])
    assert t.slice(1) == {(1,): 1}
    # and for s = 3 in one variable, Tor_2 = k at degree 2
    t3 = multi_tor([x, x, x])
    assert t3.slice(2) == {(2,): 1}


def test_multi_tor_single_ideal_is_quotient():
    i = MonomialIdeal(2, [(2, 0), (1, 1)])
    t = multi_tor([i])
    assert t.nonzero_indices() == [0]
    for g in iter_box(t.box):
        assert t.dim(0, g) == (0 if i.contains(g) else 1)


def test_multi_tor_rejects_bad_input():
    with pytest.raises(EmptyInput):
        multi_tor([])
    with pytest.raises(UnitIdeal):
        multi_tor([MonomialIdeal.unit(2)])
    # check_family refuses a unit coefficient as it refuses a unit ideal in
    # the family, before anything is resolved
    with pytest.raises(UnitIdeal, match="^R/I is zero for the unit ideal$"):
        multi_tor([MonomialIdeal(2, [(1, 0)])], coefficient=MonomialIdeal.unit(2))
    # a coefficient in fewer or more variables than the family
    for coefficient in (MonomialIdeal(1, [(1,)]), MonomialIdeal(3, [(1, 0, 0)])):
        with pytest.raises(LengthMismatch):
            multi_tor([MonomialIdeal(2, [(1, 0)])], coefficient=coefficient)


def test_unit_ideal_in_a_family_raises_one_error():
    """Every path that takes a family or an ideal refuses (1) with the class
    and message of the quotient factor: R/I is zero."""
    x, unit = MonomialIdeal(2, [(1, 0)]), MonomialIdeal.unit(2)
    for check in (multi_tor, build_s_complex, rigidity_check, serre_a8_check,
                  lambda family: betti_table(family[1])):
        with pytest.raises(UnitIdeal, match="^R/I is zero for the unit ideal$"):
            check([x, unit])


def test_coefficient_consistency(kxy):
    """multi_tor([...], M=R/J) agrees with appending J to the family."""
    fams = [
        ([kxy["x"]], kxy["y"]),
        ([kxy["m"], kxy["x"]], kxy["xy"]),
        ([kxy["x2xy"]], kxy["m"]),
    ]
    for family, coeff in fams:
        longer = multi_tor(family + [coeff])
        box = longer.box
        with_coeff = multi_tor(family, coefficient=coeff, box=box)
        assert with_coeff.entries == longer.entries


def test_resolution_independence(kxy):
    """The Koszul complexes on the variables, left unreduced, give the same
    Tor as multi_tor.  For ideals generated by variables the Taylor
    resolution is that Koszul complex."""
    m, x = kxy["m"], kxy["x"]
    default = multi_tor([m, x])
    swapped = tensor([taylor_resolution(MonomialIdeal.variables(2, [0, 1])),
                taylor_resolution(MonomialIdeal.variables(2, [0]))]).total
    table = module_homology_table(swapped, box=default.box)
    assert table.entries == default.entries


def test_tor1_oracle_examples(kxy):
    t = tor1_oracle([kxy["m"], kxy["x"]])
    assert t.slice(1) == {(1, 0): 1}
    assert tor1_oracle([kxy["x"], kxy["y"]]).slice(1) == {}
    x1 = MonomialIdeal(1, [(1,)])
    t = tor1_oracle([x1, x1, x1])
    assert t.dim(1, (1,)) == 2
    assert t.dim(1, (2,)) == 0


def test_tor1_oracle_equals_multi_tor_on_stream():
    for fam in stream(11000, 40, n_vars=3, n_ideals=3, max_gens=2, max_exp=2):
        box = family_box(fam)
        table = multi_tor(fam, box=box)
        oracle = tor1_oracle(fam, box=box)
        for g in iter_box(box):
            assert table.dim(1, g) == oracle.dim(1, g), (fam, tuple(g))


def test_independence_examples(kxyz):
    rep = independence([kxyz["x"], kxyz["y"], kxyz["z"]], strong=True)
    assert rep.independent and rep.agreement
    x1 = MonomialIdeal(1, [(1,)])
    assert not independence([x1, x1]).independent
    rep = independence([MonomialIdeal(2, [(1, 0), (0, 1)]),
                        MonomialIdeal(2, [(1, 0)])]).independent
    assert not rep


def test_independence_recursion_agreement_on_stream():
    for fam in stream(12000, 25, n_vars=2, n_ideals=3, max_gens=2, max_exp=2):
        rep = independence(fam, strong=True)
        assert rep.agreement, [i.gens for i in fam]


def test_betti_examples(kxy):
    b = betti_table(kxy["m"])
    assert (b.pd, b.depth, b.dim, b.is_cm) == (2, 0, 0, True)
    assert sorted(r["i"] for r in b.betti.records()) == [0, 1, 1, 2]
    b = betti_table(kxy["xy"])
    assert (b.pd, b.depth, b.dim, b.is_cm) == (1, 1, 1, True)
    b = betti_table(kxy["x2xy"])
    assert (b.pd, b.depth, b.dim, b.is_cm) == (2, 0, 1, False)
    b = betti_table(MonomialIdeal.zero(2))
    assert (b.pd, b.depth, b.dim, b.is_cm) == (0, 2, 2, True)


def test_rigidity_examples(kxy):
    rep = rigidity_check([kxy["x"], kxy["y"]])
    assert rep.passed and rep.top_index == 0 and rep.epsilon == 0
    assert rep.sum_pd == 2
    rep = rigidity_check([kxy["m"], kxy["m"]])
    assert rep.passed and rep.top_index == 2 and rep.epsilon == 0
    assert rep.sum_pd == 4
    x1 = MonomialIdeal(1, [(1,)])
    rep = rigidity_check([x1, x1])
    assert rep.passed and rep.top_index == 1 and rep.epsilon == 0


def test_rigidity_tabulates_no_one_ideal_prefix(kxyz, monkeypatch):
    """multi_tor([I]) is R/I at index 0 alone, so a one-ideal prefix can
    give no prefix_vanishing witness: without a coefficient, rigidity_check
    tabulates its family and its prefixes of two or more ideals only."""
    family = [kxyz["x"], kxyz["xy"], kxyz["z"]]
    calls = []
    real = torlab.multi_tor

    def counted(ideals, coefficient=None, *args, **kwargs):
        if coefficient is None:
            calls.append(len(ideals))
        return real(ideals, coefficient, *args, **kwargs)

    monkeypatch.setattr(torlab, "multi_tor", counted)
    assert rigidity_check(family).passed
    assert calls == [3, 2]
    assert all(real([ideal]).nonzero_indices() == [0] for ideal in family)


def test_serre_examples(kxy):
    assert serre_a8_check([kxy["x"], kxy["y"]]).triple == (True, True, True)
    x1 = MonomialIdeal(2, [(1, 0)])
    assert serre_a8_check([x1, x1]).triple == (False, False, False)
    rep = serre_a8_check([kxy["m"], kxy["x2xy"]])
    assert rep.triple == (False, False, False)
    assert rep.passed


def test_family_box_with_coefficient(kxy):
    assert tuple(family_box([kxy["m"], kxy["x2xy"]])) == (3, 2)
    assert tuple(family_box([kxy["x"]], coefficient=kxy["xy"])) == (2, 1)
    total = tensor_total([kxy["m"], kxy["x2xy"]])
    assert tuple(total.stable_box()) == (3, 2)


def _families_with_cancellations():
    """Random families, and families of equal-degree ideals whose Taylor
    resolutions lose summands to cancel_units."""
    yield from stream(13000, 4, n_vars=3, n_ideals=4, max_gens=3, max_exp=2)
    x2 = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 1, 1)])
    m2 = MonomialIdeal(3, [(1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)])
    yz = MonomialIdeal(3, [(0, 1, 0), (0, 0, 1)])
    yield [x2, m2, yz, MonomialIdeal(3, [(1, 0, 0), (0, 2, 0)])]
    xy2 = MonomialIdeal(3, [(2, 0, 0), (1, 1, 0), (0, 2, 0)])
    yield [xy2, m2, yz, MonomialIdeal(3, [(1, 1, 1)])]


def _plain_betti(ideal, fld=GF()):
    """Tor(R/I, k) from the unreduced Taylor resolution of R/I tensored with
    the Koszul complex on the variables, over its own stability box."""
    n = ideal.n
    variables = taylor_resolution(MonomialIdeal.variables(n, range(n)))
    total = tensor([taylor_resolution(ideal), variables]).total
    return module_homology_table(total, fld)


@st.composite
def ideals_and_zero(draw):
    """Ideals with 1-6 generators of exponents 0..2 in 1-4 variables, and
    the zero ideal."""
    n = draw(st.integers(1, 4))
    exponent = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    return MonomialIdeal(n, draw(st.one_of(st.just([]),
                                            st.lists(exponent, min_size=1, max_size=6))))


@settings(deadline=None)
@given(ideals_and_zero())
def test_betti_table_is_tor_against_the_residue_field(ideal):
    """betti_table (Tor of R/I against R/(x_1, ..., x_n) through multi_tor)
    equals the homology of the Taylor resolution tensored with the Koszul
    complex on the variables, entries and box, over GF(2) and GF(32003)."""
    for p in (2, 32003):
        assert betti_table(ideal, GF(p)).betti == _plain_betti(ideal, GF(p))


@settings(deadline=None)
@given(ideals_and_zero())
def test_betti_table_matches_the_koszul_simplicial_oracle(ideal):
    """betti_table equals conftest.koszul_betti, read off the upper Koszul
    simplicial complexes on the lcm lattice with no resolution, over GF(2),
    GF(3) and GF(32003)."""
    for p in (2, 3, 32003):
        assert betti_table(ideal, GF(p)).betti.entries == koszul_betti(ideal, p)


@pytest.mark.parametrize("unresolved", [True, False], ids=["R/I-unresolved", "R/I-resolved"])
def test_multi_tor_against_the_maximal_ideal_matches_the_koszul_oracle(
        monkeypatch, unresolved):
    """multi_tor([I], m) equals the Koszul simplicial oracle both when R/I
    has at least n minimal generators and is left unresolved (only the
    residue field R/m is resolved) and when it has fewer and is resolved."""
    calls = []

    def counting(ideal):
        calls.append(ideal)
        return resolution(ideal)

    monkeypatch.setattr(torlab, "resolution", counting)
    ideals = [fam[0] for fam in stream(17000, 40, n_vars=2, n_ideals=1, max_gens=3)
              if (len(fam[0].gens) >= 2) == unresolved]
    assert len(ideals) >= 5
    m = MonomialIdeal.variables(2, range(2))
    for ideal in ideals:
        for p in (2, 3, 32003):
            calls.clear()
            assert multi_tor([ideal], m, GF(p)).entries == koszul_betti(ideal, p)
            assert calls == [m if unresolved else ideal]


RP2_FACETS = [{0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 4, 5}, {0, 1, 5},
              {1, 2, 4}, {1, 3, 4}, {1, 3, 5}, {2, 3, 5}, {2, 4, 5}]


def test_rp2_betti_tables_depend_on_the_characteristic():
    """The Stanley-Reisner ideal of the 6-vertex RP^2 is generated by its 10
    minimal nonfaces, squarefree cubics.  RP^2 has reduced homology over
    GF(2) only, so by Hochster's formula beta_{3,(1..1)}(R/I) and
    beta_{4,(1..1)} are 1 over GF(2) and 0 over GF(3) (Reisner;
    Bruns-Herzog 5.3).  The reduced resolution keeps one entry between
    summands of equal shift, 2 from term 4 to term 3, which no unit
    cancellation may remove."""
    nonfaces = [t for t in itertools.combinations(range(6), 3) if set(t) not in RP2_FACETS]
    ideal = MonomialIdeal(6, [tuple(int(v in t) for v in range(6)) for t in nonfaces])
    assert len(ideal.gens) == 10
    top = (1,) * 6
    for p, totals, pd in ((2, {0: 1, 1: 10, 2: 15, 3: 7, 4: 1}, 4),
                          (3, {0: 1, 1: 10, 2: 15, 3: 6}, 3)):
        rep = betti_table(ideal, GF(p))
        assert rep.betti.entries == koszul_betti(ideal, p)
        assert len(rep.betti.entries) == sum(totals.values())  # 34 and 32
        assert {i: sum(rep.betti.slice(i).values()) for i in totals} == totals
        assert rep.pd == pd == rep.betti.max_nonzero_index()
        assert [rep.betti.dim(i, top) for i in (3, 4)] == ([1, 1] if p == 2 else [0, 0])
    r = resolution(ideal)
    assert [(i, abs(v)) for i, es in r.entries.items() for s, t, v in es
            if r.terms[i][s].shift == r.terms[i - 1][t].shift] == [(4, 2)]


def test_tables_match_the_unreduced_taylor_tensor():
    """multi_tor and betti_table tensor unit-cancelled Taylor resolutions
    of all modules but one; their tables equal the homology of the plain
    Taylor tensor over the same box."""
    for fam in _families_with_cancellations():
        coeff = fam[3]
        for family, coefficient in ((fam[:2], None), (fam[:3], None),
                                    (fam[:2], coeff), (fam[:3], coeff)):
            table = multi_tor(family, coefficient=coefficient)
            plain = tensor([taylor_resolution(i) for i in family]).total
            if coefficient is not None:
                plain = with_coefficient(plain, coefficient)
            assert module_homology_table(plain, box=table.box) == table
        for ideal in fam:
            assert betti_table(ideal).betti == _plain_betti(ideal)


def test_reduced_taylor_of_x2_xy_y2_is_minimal():
    """Taylor of (x^2, xy, y^2) has 8 summands; the top one cancels against
    the face with the same lcm x^2y^2, leaving 6, the total Betti number."""
    ideal = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    taylor = taylor_resolution(ideal)
    assert sum(map(len, taylor.terms.values())) == 8
    reduced = cancel_units(taylor)
    assert {i: len(ss) for i, ss in reduced.terms.items()} == {0: 1, 1: 3, 2: 2}
    total_betti = sum(r["dim"] for r in betti_table(ideal).betti.records())
    assert total_betti == 6


DEGREE_TWO = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]


@st.composite
def families_and_coefficients(draw):
    """1-3 ideals with exponents 0..2 in 1-3 variables and an optional
    coefficient.  In 3 variables one ideal may have 5-6 degree-2
    generators, whose Taylor resolution cancel_units shrinks; a repeated
    ideal or a coefficient equal to the first ideal ties the reduced sizes."""
    n = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    ideal = st.lists(exponent, max_size=3).map(lambda gens: MonomialIdeal(n, gens))
    family = draw(st.lists(ideal, min_size=1, max_size=3))
    if n == 3 and draw(st.booleans()):
        gens = st.lists(st.sampled_from(DEGREE_TWO), min_size=5, max_size=6, unique=True)
        family[draw(st.integers(0, len(family) - 1))] = MonomialIdeal(3, draw(gens))
    if len(family) > 1 and draw(st.booleans()):
        family[-1] = family[0]
    coefficient = draw(st.one_of(st.none(), ideal, st.just(family[0])))
    return family, coefficient


@settings(deadline=None)
@given(families_and_coefficients())
def test_balanced_multi_tor_matches_the_fully_resolved_tensor(case):
    """multi_tor leaves its largest module unresolved; its table, box
    included, equals the homology of the tensor of every module's reduced
    resolution over family_box, over GF(2), GF(3) and GF(32003)."""
    family, coefficient = case
    resolved = tensor_total(family, coefficient)
    box = family_box(family, coefficient)
    for p in (2, 3, 32003):
        table = multi_tor(family, coefficient, GF(p))
        assert table == module_homology_table(resolved, GF(p), box)


@st.composite
def pairs_in_two_variables(draw):
    """Two ideals of 1-3 generators with exponents 0..2 in 2 variables, and
    no coefficient, the zero one or a third such ideal."""
    exponent = st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)
    ideal = st.lists(exponent, min_size=1, max_size=3).map(lambda g: MonomialIdeal(2, g))
    coefficient = draw(st.one_of(st.none(), st.just(MonomialIdeal.zero(2)), ideal))
    return [draw(ideal), draw(ideal)], coefficient


@settings(deadline=None, max_examples=200)
@given(pairs_in_two_variables(), st.sampled_from([2, 3, 32003]), st.data())
def test_multi_tor_matches_the_diagonal_oracle(case, p, data):
    """At a few nonzero cells and a few degrees of the box, multi_tor's
    table equals Tor read off the Koszul complex of the diagonal, which
    resolves nothing: every index, with and without a coefficient."""
    family, coefficient = case
    table = multi_tor(family, coefficient, GF(p))
    cells = sorted(table.support())
    degrees = [tuple(g) for g in iter_box(table.box)]
    for g in set(data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3))
                 + data.draw(st.lists(st.sampled_from(degrees), max_size=2))):
        expected = {i: d for (i, h), d in table.entries.items() if h == g}
        assert diagonal_tor(family, coefficient, g, p) == expected, g


@st.composite
def three_modules(draw):
    """Three modules in 2-3 variables, each R/I with I of 1-3 generators
    of exponents 0..2: three ideals, or two ideals and a coefficient."""
    n = draw(st.integers(2, 3))
    exponent = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    ideal = st.lists(exponent, min_size=1, max_size=3).map(lambda g: MonomialIdeal(n, g))
    family = [draw(ideal), draw(ideal)]
    if draw(st.booleans()):
        return family + [draw(ideal)], None
    return family, draw(ideal)


@pytest.mark.slow
@settings(deadline=None, max_examples=300)
@given(three_modules(), st.sampled_from([2, 3, 32003]), st.data())
def test_multi_tor_matches_the_diagonal_oracle_on_three_modules(case, p, data):
    """The diagonal oracle against multi_tor on three modules, at one or
    two nonzero cells and at most one more degree of the box."""
    family, coefficient = case
    table = multi_tor(family, coefficient, GF(p))
    cells = sorted(table.support())
    degrees = [tuple(g) for g in iter_box(table.box)]
    for g in set(data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=2))
                 + data.draw(st.lists(st.sampled_from(degrees), max_size=1))):
        expected = {i: d for (i, h), d in table.entries.items() if h == g}
        assert diagonal_tor(family, coefficient, g, p) == expected, g


@settings(deadline=None)
@given(families_and_coefficients())
def test_the_family_box_is_the_stable_box_of_the_tor_total(case):
    """The box check_family returns with a family is the stability box of
    the total multi_tor tabulates, whichever module stays unresolved, with
    zero ideals, zero coefficients and nonzero ones."""
    family, coefficient = case
    totals = []

    def capture(c, fld, box):
        totals.append(c)
        return module_homology_table(c, fld, box)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(torlab, "module_homology_table", capture)
        multi_tor(family, coefficient)
    assert check_family(family, coefficient)[1] == totals[0].stable_box()


def test_exactly_one_module_stays_unresolved():
    """Merging two unresolved modules R/I_2 and R/J into R/(I_2 + J) gives
    dim Tor_1 = 1 at (2, 0); the correct table has 2 there."""
    i1 = MonomialIdeal(2, [(0, 1), (2, 0)])
    i2 = MonomialIdeal(2, [(2, 0)])
    table = multi_tor([i1, i2], coefficient=i1)
    assert table.dim(1, (2, 0)) == 2


def test_default_box_is_the_family_box_and_smaller_boxes_are_refused(kxy):
    """The default box of multi_tor and betti_table is family_box; a box
    that misses family_box in any coordinate raises BoxTooSmall, whichever
    module stays unresolved."""
    big = MonomialIdeal(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    cases = [([kxy["m"], kxy["x2xy"]], None), ([kxy["x"], big], kxy["y"]),
             ([kxy["x2xy"]], big), ([big], None), ([MonomialIdeal.zero(2)], None)]
    for family, coefficient in cases:
        box = family_box(family, coefficient)
        assert multi_tor(family, coefficient).box == box
        for k in range(2):
            if box[k]:
                smaller = list(box)
                smaller[k] -= 1
                with pytest.raises(BoxTooSmall):
                    multi_tor(family, coefficient, box=smaller)
    variables = MonomialIdeal.variables(2, range(2))
    for ideal in (kxy["m"], kxy["x2xy"], big, MonomialIdeal.zero(2)):
        assert betti_table(ideal).betti.box == family_box([ideal], variables)


def test_only_the_modules_the_tensor_uses_are_resolved(monkeypatch):
    """The module with the most minimal generators is picked before any
    resolution is built and is never resolved: a Betti table of a
    7-generator ideal in 3 variables resolves only the residue field, and
    multi_tor of a 4- and a 5-generator ideal resolves only the first."""
    calls = []

    def counting(ideal):
        calls.append(ideal)
        return resolution(ideal)

    monkeypatch.setattr(torlab, "resolution", counting)
    seven = MonomialIdeal(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (2, 1, 0),
                              (1, 2, 0), (0, 2, 1), (1, 1, 1)])
    betti_table(seven)
    assert calls == [MonomialIdeal.variables(3, range(3))]
    calls.clear()
    i4 = MonomialIdeal(3, [(2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 1, 1)])
    j5 = MonomialIdeal(3, [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (2, 0, 1)])
    multi_tor([i4, j5])
    assert calls == [i4]


def test_tor_table_dim_rejects_a_degree_of_the_wrong_length():
    t = multi_tor([MonomialIdeal.variables(2, [0]), MonomialIdeal.variables(2, [1])])
    assert t.dim(0, (0, 0)) == 1
    for gamma in ((0,), (0, 0, 0)):
        with pytest.raises(LengthMismatch):
            t.dim(0, gamma)


def test_tor_table_dim_beyond_the_box_reads_the_clamped_degree():
    """Every table's box is a stability box, so dim beyond it is dim at
    min(gamma, box): the value a table over a larger box holds there, and
    the degree its support region answers for."""
    x = MonomialIdeal(2, [(1, 0)])
    t = multi_tor([x, x])
    assert tuple(t.box) == (2, 0)
    assert t.dim(1, (1, 5)) == t.dim(1, (1, 0)) == 1
    assert t.clamp((1, 5)) in t.support(1)
    for fam in stream(11100, 12, n_vars=2, n_ideals=2, max_gens=2, max_exp=2):
        box = family_box(fam)
        wide = [b + 2 for b in box]
        for build in (multi_tor, tor1_oracle):
            table, wide_table = build(fam), build(fam, box=wide)
            for g in iter_box(wide):
                for i in range(4):
                    assert table.dim(i, g) == wide_table.dim(i, g), (fam, i, tuple(g))


def test_tor1_oracle_refuses_a_box_below_the_family_box():
    """The same error and message as multi_tor's, instead of a table that
    reads 0 where Tor_1 is not."""
    x = MonomialIdeal(2, [(1, 0)])
    with pytest.raises(BoxTooSmall, match=r"^box \(0, 0\) does not dominate \(2, 0\)$"):
        tor1_oracle([x, x], box=(0, 0))
    with pytest.raises(BoxTooSmall, match=r"^box \(0, 0\) does not dominate \(2, 0\)$"):
        multi_tor([x, x], box=(0, 0))
