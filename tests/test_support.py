"""Support regions and the union-equality checker for disjoint variable
blocks."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    region_compare_oracle,
    region_rebase,
    set_partitions,
    singleton_box_fold,
    support_check_at,
    table_cells,
)
from homotor import support
from homotor.cli import random_instance
from homotor.errors import (
    BoxTooSmall,
    LengthMismatch,
    ParamOutOfRange,
    UnitIdeal,
    ValidationError,
)
from homotor.gcomplex import TorTable
from homotor.monomial import MonomialIdeal, Multidegree, check_family
from homotor.support import region_compare, supportoftors_check, variable_blocks
from homotor.torlab import family_box, multi_tor


def blocks(n, partition):
    """The ideals generated by the variables of each block."""
    return [MonomialIdeal.variables(n, J) for J in partition]


def test_support_region_basics(kxy):
    assert TorTable({}, (1, 1)).support() == frozenset()
    table = multi_tor([kxy["m"], kxy["x"]])
    assert sorted(table.support(1)) == [(1, 0)]
    assert table.support() == table_cells(table)
    # interior cell: no upward closure reaches (2, 0) within the box (2, 1)
    assert tuple(table.box) == (2, 1)
    assert table.dim(1, (2, 0)) == 0


def test_support_region_member_rejects_a_degree_of_the_wrong_length():
    t = multi_tor([MonomialIdeal.variables(2, [0]), MonomialIdeal.variables(2, [1])])
    assert t.clamp((0, 0)) in t.support() and t.clamp((5, 5)) not in t.support()
    for gamma in ((5,), (5, 5, 5)):
        with pytest.raises(LengthMismatch):
            t.clamp(gamma)


def test_tor_table_dim_and_support_member_refuse_a_negative_exponent():
    """A degree with a negative exponent is refused, as ``alive_masks``
    refuses it, and does not read as an empty fibre."""
    x = MonomialIdeal.variables(2, [0])
    t = multi_tor([x, MonomialIdeal.variables(2, [1])])
    for gamma in ((-1, 0), (0, -1)):
        with pytest.raises(ValidationError, match="negative exponent"):
            t.dim(0, gamma)
        with pytest.raises(ValidationError, match="negative exponent"):
            t.clamp(gamma)


def test_support_region_upward_closure():
    """(x)/(x^2) in k[x,y] is free in the y direction, so the single cell
    at (1, 0) with box (2, 0) represents the whole ray."""
    x = MonomialIdeal(2, [(1, 0)])
    table = multi_tor([x, x])
    assert tuple(table.box) == (2, 0)
    assert sorted(table.support(1)) == [(1, 0)]
    assert table.clamp((1, 7)) in table.support(1)
    assert table.clamp((2, 7)) not in table.support(1)


def test_regions_over_one_box_are_not_relisted(monkeypatch):
    """A comparison of two tables over one box never walks the box."""
    from homotor import support

    a = TorTable({(1, (1, 1)): 1}, (2, 1))
    b = TorTable({(0, (2, 0)): 1}, (2, 1))

    def walk(box):
        raise AssertionError("the box was walked")

    monkeypatch.setattr(support, "iter_box", walk)
    assert region_compare(a, b)["left_minus_right"] == [[1, 1]]


def test_region_compare_and_rebase():
    """Tables over different boxes are compared over the lcm box, where a
    cell on a box face stands for its ray, as the rebase oracle reads it."""
    a = TorTable({(1, (1, 1)): 1}, (1, 1))
    assert region_compare(a, a)["equal"]
    b = TorTable({(1, (1, 1)): 1, (2, (2, 1)): 1}, (2, 1))
    cmp = region_compare(a, b)
    # a's cell (1,1) touches its box so it expands to (2,1) as well: equal
    assert cmp["equal"]
    c = TorTable({(1, (2, 1)): 1}, (2, 1))
    cmp = region_compare(a, c)
    assert not cmp["equal"]
    assert cmp["left_minus_right"] == [[1, 1]]
    assert region_rebase(a.box, a.support(), c.box) == {(1, 1), (2, 1)}
    for x, y in ((a, b), (a, c), (c, b)):
        assert region_compare(x, y) == region_compare_oracle(
            (x.box, x.support()), (y.box, y.support()))
    with pytest.raises(BoxTooSmall):
        region_rebase(c.box, c.support(), (1, 1))


@st.composite
def single_ideal_tables(draw):
    """Two single-ideal Tor tables in 1-3 variables, each over its own
    stability box, with no coefficient, the zero one, or a shared one of
    1-2 generators; exponents 0..2."""
    n = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    ideal = st.lists(exponent, min_size=1, max_size=3).map(lambda g: MonomialIdeal(n, g))
    coefficient = draw(st.one_of(
        st.none(), st.just(MonomialIdeal.zero(n)),
        st.lists(exponent, min_size=1, max_size=2).map(lambda g: MonomialIdeal(n, g))))
    return [multi_tor([draw(ideal)], coefficient=coefficient) for _ in range(2)]


@settings(deadline=None, max_examples=40)
@given(single_ideal_tables())
def test_region_compare_equals_the_rebase_oracle(tables):
    """On random single-ideal tables, with and without a coefficient, the
    clamp comparison gives the dict that rebasing both regions to the lcm
    box and comparing cell by cell gives."""
    a, b = tables
    assert region_compare(a, b) == region_compare_oracle(
        (a.box, table_cells(a)), (b.box, table_cells(b)))


def test_supportoftors_examples():
    r = supportoftors_check(blocks(2, [[0], [1]]), None, [1, 2])
    assert list(r) == [1, 2] and r[1].passed and r[2].passed
    assert ({p: rep.to_json() for p, rep in r.items()} == {
        p: rep.to_json()
        for p, rep in supportoftors_check(blocks(2, [[0], [1]]), MonomialIdeal.zero(2),
                                          [1, 2]).items()})
    r = supportoftors_check(blocks(2, [[0], [1]]), MonomialIdeal(2, [(1, 1)]), [2])
    assert list(r) == [2] and r[2].passed


def test_supportoftors_rejects_overlap():
    """Overlapping blocks, a zero ideal and a generator that is not a
    variable are each refused with the one rule's error; the unit ideal, as
    everywhere, with UnitIdeal."""
    x = MonomialIdeal.variables(2, [0])
    for family in (blocks(2, [[0, 1], [1]]), [x, MonomialIdeal.zero(2)],
                   [x, MonomialIdeal(2, [(0, 2)])]):
        with pytest.raises(ValidationError, match="single variables, in pairwise"):
            supportoftors_check(family, None, [1])
    with pytest.raises(UnitIdeal):
        supportoftors_check([x, MonomialIdeal.unit(2)], None, [1])


def test_supportoftors_refuses_a_coefficient_in_other_variables():
    with pytest.raises(LengthMismatch):
        supportoftors_check(blocks(2, [[0], [1]]), MonomialIdeal(1, [(1,)]), [1])


@pytest.mark.parametrize("p", [0, 3])
def test_supportoftors_rejects_p_outside_the_family(p):
    with pytest.raises(ParamOutOfRange):
        supportoftors_check(blocks(2, [[0], [1]]), None, [1, p])


def test_supportoftors_with_module_coefficients():
    m = MonomialIdeal(3, [(1, 0, 2)])
    r = supportoftors_check(blocks(3, [[0], [1, 2]]), m, [2])[2]
    assert r.passed, r.to_json()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_pass_reports_equal_the_per_p_oracle(n):
    """Every set partition of n variables, against R and against a random
    R/I: one call over all p gives the reports of the per-p oracle, and so
    does one call for every other block, the way ``--subset`` passes them."""
    for k, part in enumerate(set_partitions(range(n))):
        s = len(part)
        quotient = random_instance(120000 + 100 * n + k, n_vars=n, n_ideals=1,
                                   max_gens=2, max_exp=2)[0]
        for coeff in (MonomialIdeal.zero(n), quotient):
            reports = supportoftors_check(blocks(n, part), coeff, range(1, s + 1))
            assert {p: r.to_json() for p, r in reports.items()} == {
                p: support_check_at(part, coeff, p).to_json() for p in range(1, s + 1)
            }
            chosen = part[::2]
            u = len(chosen)
            assert (supportoftors_check(blocks(n, chosen), coeff, [u])[u].to_json()
                    == support_check_at(chosen, coeff, u).to_json())


def test_supportoftors_tables_only_the_subsets_of_the_asked_sizes(monkeypatch):
    """p = 1 on three blocks tables and totals the singletons alone, and no
    p tables nothing."""
    tabled = []
    tor = support.multi_tor
    monkeypatch.setattr(support, "multi_tor", lambda ideals, *args, **kwargs: (
        tabled.append(ideals) or tor(ideals, *args, **kwargs)))
    family = blocks(3, [[0], [1], [2]])
    assert supportoftors_check(family, None, []) == {} and tabled == []
    assert list(supportoftors_check(family, None, [1])) == [1]
    assert tabled == [[ideal] for ideal in family]


def test_support_report_fails_on_made_up_tables():
    """No variable-block family fails the check, so the failure paths run
    on made-up tables and homology: a product and a sum of different
    supports; then a total that differs from its expected Tor at one
    index, lacks it at one and has homology at one where none is expected,
    while an index whose Tor is 0 at the degree agrees, and so does an
    index with neither."""
    box = Multidegree((1, 1))
    product = TorTable({(0, (0, 0)): 1, (1, (1, 0)): 1}, box)
    total_sum = TorTable({(0, (0, 0)): 1, (1, (0, 1)): 1}, box)
    asked = []
    report = support._support_report(
        [(0,)], box, {(0,): (product, total_sum)},
        lambda kind, T, g: asked.append((kind, T, g)) or [{"at": list(g)}])
    assert report.context["union_cells"] == [[0, 0], [1, 0]]
    assert report.assertions[0]["witnesses"] == [
        {"side": "product_only", "cells": [[1, 0]]},
        {"side": "sum_only", "cells": [[0, 1]]}]
    tested = [(0, 0), (0, 1), (1, 0)]
    assert asked == [(kind, (0,), g) for kind in ("sum_to_product", "product_to_sum")
                     for g in tested]
    assert [(a["name"], a["passed"], a["witnesses"]) for a in report.assertions[1:]] == [
        (f"{kind}_containment", False, [{"at": list(g)} for g in tested])
        for kind in ("sum_to_product", "product_to_sum")]

    # Tor against the sum at (1, 1): 2 at index 0, 1 at index 1, and index
    # 2 nonzero elsewhere only; the product-to-sum total is moved up by 1
    tor_sum = TorTable({(0, (1, 1)): 2, (1, (1, 1)): 1, (2, (0, 0)): 1}, box)
    homology = {0: 0, 1: 1, 4: 1}  # index 2 missing: read as 0
    where = {"kind": "product_to_sum", "subset": [0, 1], "degree": [1, 1]}
    assert support._containment("product_to_sum", (0, 1), (1, 1), (None, tor_sum),
                                homology) == [
        {**where, "i": 1, "actual": 1, "expected": 2},
        {**where, "i": 2, "actual": 0, "expected": 1},
        {**where, "i": 4, "actual": 1, "expected": 0}]


def test_support_box_is_the_same_for_every_p():
    """Every product or sum over a subset has exponent 1 on exactly its
    variables, so the singletons already reach the box of every p."""
    coeff = MonomialIdeal(4, [(2, 0, 1, 0), (0, 1, 0, 0)])
    reports = supportoftors_check(blocks(4, [[0], [1, 2], [3]]), coeff, [1, 2, 3])
    boxes = {tuple(r.context["box"]) for r in reports.values()}
    whole = family_box([MonomialIdeal.variables(4, range(4))], coeff)
    assert boxes == {tuple(whole)} == {(3, 2, 2, 1)}


@st.composite
def blocks_and_coefficients(draw):
    """A ``variable_blocks`` family in 1-5 variables (each variable in one
    of up to four blocks, or in none) and a coefficient: None, zero, or
    1-3 generators with exponents 0..2."""
    n = draw(st.integers(1, 5))
    labels = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)
                  .filter(lambda ls: max(ls) >= 0))
    family = blocks(n, [[i for i in range(n) if labels[i] == b]
                        for b in sorted(set(labels) - {-1})])
    exponent = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    coefficient = draw(st.one_of(
        st.none(), st.just(MonomialIdeal.zero(n)),
        st.lists(exponent, min_size=1, max_size=3).map(lambda g: MonomialIdeal(n, g))))
    return family, coefficient


@settings(deadline=None)
@given(blocks_and_coefficients())
def test_the_family_box_is_the_singleton_box_fold(case):
    """On a variable_blocks family the box check_family returns, which
    supportoftors_check reads every table over, is the lcm of the single
    ideals' boxes with the coefficient."""
    family, coefficient = case
    assert variable_blocks(family)
    assert check_family(family, coefficient)[1] == singleton_box_fold(family, coefficient)
