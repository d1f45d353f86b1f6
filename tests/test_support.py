"""Support regions and the union-equality checker for disjoint variable
blocks."""

import pytest

from conftest import set_partitions, support_check_at
from homotor.cli import random_instance
from homotor.errors import (
    BoxTooSmall,
    EmptyInput,
    LengthMismatch,
    OverlappingPartitions,
    ParamOutOfRange,
    ValidationError,
)
from homotor.gcomplex import TorTable
from homotor.monomial import MonomialIdeal, Multidegree
from homotor.support import (
    SupportRegion,
    region_compare,
    support_region,
    supportoftors_check,
)
from homotor.torlab import family_box, multi_tor


def test_support_region_basics(kxy):
    empty = support_region(TorTable({}, (1, 1)))
    assert empty.is_empty()
    table = multi_tor([kxy["m"], kxy["x"]])
    r1 = support_region(table, j=1)
    assert r1.sorted_cells() == [(1, 0)]
    # interior cell: no upward closure reaches (2, 0) within the box (2, 1)
    assert tuple(table.box) == (2, 1)
    assert not r1.member((2, 0))


def test_support_region_member_rejects_a_degree_of_the_wrong_length():
    t = multi_tor([MonomialIdeal.variables(2, [0]), MonomialIdeal.variables(2, [1])])
    region = support_region(t)
    assert region.member((0, 0)) and not region.member((5, 5))
    for gamma in ((5,), (5, 5, 5)):
        with pytest.raises(LengthMismatch):
            region.member(gamma)


def test_support_region_upward_closure():
    """(x)/(x^2) in k[x,y] is free in the y direction, so the single cell
    at (1, 0) with box (2, 0) represents the whole ray."""
    x = MonomialIdeal(2, [(1, 0)])
    table = multi_tor([x, x])
    r = support_region(table, j=1)
    assert tuple(table.box) == (2, 0)
    assert r.sorted_cells() == [(1, 0)]
    assert r.member((1, 7))
    assert not r.member((2, 7))


def test_regions_over_one_box_are_not_relisted(monkeypatch):
    """Rebasing to the region's own box returns it, so a union or a
    comparison of regions over one box never walks the box."""
    from homotor import support

    a = SupportRegion(Multidegree((2, 1)), frozenset({(1, 1)}))
    b = SupportRegion(Multidegree((2, 1)), frozenset({(2, 0)}))
    assert a.rebase((2, 1)) is a

    def walk(box):
        raise AssertionError("the box was walked")

    monkeypatch.setattr(support, "iter_box", walk)
    assert a.union(b) == SupportRegion(Multidegree((2, 1)), frozenset({(1, 1), (2, 0)}))
    assert region_compare(a, b)["left_minus_right"] == [[1, 1]]


def test_region_compare_and_rebase():
    a = SupportRegion(Multidegree((1, 1)), frozenset({(1, 1)}))
    assert region_compare(a, a)["equal"]
    b = SupportRegion(Multidegree((2, 1)), frozenset({(1, 1), (2, 1)}))
    cmp = region_compare(a, b)
    # a's cell (1,1) touches its box so it expands to (2,1) as well: equal
    assert cmp["equal"]
    c = SupportRegion(Multidegree((2, 1)), frozenset({(2, 1)}))
    cmp = region_compare(a, c)
    assert not cmp["equal"]
    assert cmp["left_minus_right"] == [[1, 1]]
    # a union rebases both regions to the common box first
    assert a.union(c).cells == {(1, 1), (2, 1)}
    with pytest.raises(BoxTooSmall):
        c.rebase((1, 1))


def test_supportoftors_examples():
    r = supportoftors_check([[0], [1]], MonomialIdeal.zero(2), [1, 2])
    assert list(r) == [1, 2] and r[1].passed and r[2].passed
    r = supportoftors_check([[0], [1]], MonomialIdeal(2, [(1, 1)]), [2])
    assert list(r) == [2] and r[2].passed


def test_supportoftors_rejects_overlap():
    with pytest.raises(OverlappingPartitions):
        supportoftors_check([[0, 1], [1]], MonomialIdeal.zero(2), [1])
    with pytest.raises(EmptyInput, match="block 1 "):
        supportoftors_check([[0], []], MonomialIdeal.zero(2), [1])
    with pytest.raises(ValidationError):
        supportoftors_check([[0], [2]], MonomialIdeal.zero(2), [1])


@pytest.mark.parametrize("p", [0, 3])
def test_supportoftors_rejects_p_outside_the_family(p):
    with pytest.raises(ParamOutOfRange):
        supportoftors_check([[0], [1]], MonomialIdeal.zero(2), [1, p])


def test_supportoftors_with_module_coefficients():
    m = MonomialIdeal(3, [(1, 0, 2)])
    r = supportoftors_check([[0], [1, 2]], m, [2])[2]
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
            reports = supportoftors_check(part, coeff, range(1, s + 1))
            assert {p: r.to_json() for p, r in reports.items()} == {
                p: support_check_at(part, coeff, p).to_json() for p in range(1, s + 1)
            }
            chosen = part[::2]
            u = len(chosen)
            assert (supportoftors_check(chosen, coeff, [u])[u].to_json()
                    == support_check_at(chosen, coeff, u).to_json())


def test_support_box_is_the_same_for_every_p():
    """Every product or sum over a subset has exponent 1 on exactly its
    variables, so the singletons already reach the box of every p."""
    coeff = MonomialIdeal(4, [(2, 0, 1, 0), (0, 1, 0, 0)])
    reports = supportoftors_check([[0], [1, 2], [3]], coeff, [1, 2, 3])
    boxes = {tuple(r.context["box"]) for r in reports.values()}
    whole = family_box([MonomialIdeal.variables(4, range(4))], coeff)
    assert boxes == {tuple(whole)} == {(3, 2, 2, 1)}
