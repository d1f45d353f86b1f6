"""Multiple Tor tables, the Tor_1 oracle, independence, Betti invariants,
rigidity and the proper-intersection equivalence."""

import pytest

from conftest import stream
from homotor.errors import EmptyInput, UnitIdeal, ZeroModule
from homotor.gcomplex import (
    cancel_units,
    koszul_variables,
    module_homology_table,
    taylor_resolution,
    with_coefficient,
)
from homotor.monomial import MonomialIdeal, Multidegree, iter_box
from homotor.multicomplex import tensor, totalize
from homotor.torlab import (
    betti_table,
    family_box,
    independence,
    multi_tor,
    rigidity_check,
    serre_a8_check,
    tensor_total,
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
    with pytest.raises(ZeroModule):
        multi_tor([MonomialIdeal(2, [(1, 0)])], coefficient=MonomialIdeal.unit(2))


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
    """Swapping Taylor for the variable Koszul resolution leaves Tor alone."""
    m, x = kxy["m"], kxy["x"]
    default = multi_tor([m, x])
    swapped = totalize(
        tensor([koszul_variables([Multidegree((1, 0)), Multidegree((0, 1))]),
                koszul_variables([Multidegree((1, 0))])])
    )
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


def test_rigidity_exhaustive_subsets(kxy):
    rep = rigidity_check([kxy["x"], kxy["y"], kxy["m"]], exhaustive_subsets=True)
    assert rep.passed


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


def test_tables_match_the_unreduced_taylor_tensor():
    """multi_tor and betti_table tensor unit-cancelled Taylor resolutions;
    their tables equal the homology of the plain Taylor tensor over the
    same box."""
    for fam in _families_with_cancellations():
        coeff = fam[3]
        for family, coefficient in ((fam[:2], None), (fam[:3], None),
                                    (fam[:2], coeff), (fam[:3], coeff)):
            table = multi_tor(family, coefficient=coefficient)
            plain = totalize(tensor([taylor_resolution(i) for i in family]))
            if coefficient is not None:
                plain = with_coefficient(plain, coefficient)
            assert module_homology_table(plain, box=table.box) == table
        for ideal in fam:
            betti = betti_table(ideal).betti
            variables = koszul_variables([Multidegree.unit(3, i) for i in range(3)])
            plain = totalize(tensor([taylor_resolution(ideal), variables]))
            assert module_homology_table(plain, box=betti.box) == betti


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
