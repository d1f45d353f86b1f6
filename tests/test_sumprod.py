"""Sum and product complexes and the homology identification suites."""

import functools
import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    exactness_equivalences_oracle,
    full_augmented_interior,
    independence_oracle,
    mv_tensor_total,
    p_simplicial,
    s_closed_form,
    s_minus,
    stream,
    tensor_total,
    unit_koszul,
    verify_identities_oracle,
)
from homotor import gcomplex, sumprod
from homotor.cli import random_instance
from homotor.errors import ParamOutOfRange
from homotor.exactlin import GF
from homotor.gcomplex import (
    GradedComplex,
    TorTable,
    module_homology_table,
    resolution,
    taylor_resolution,
    unresolved,
)
from homotor.monomial import (
    MonomialIdeal,
    Multidegree,
    check_family,
    combine,
    iter_box,
    lcm_deg,
    membership,
)
from homotor.multicomplex import hypercube_augment, tensor
from homotor.spectral import build_filtration, pages
from homotor.sumprod import (
    augmented_interior_H,
    build_p_complex,
    build_s_complex,
    complex_homology_table,
    diff_tables,
    exactness_equivalences,
    mv_total_complex,
    verify_identities,
)
from homotor.torlab import betti_table, family_box, independence, multi_tor


def ranks_of(c):
    return {i: len(ss) for i, ss in sorted(c.terms.items())}


def test_s_complex_pair_shape(kxy):
    s = build_s_complex([kxy["x"], kxy["y"]])
    assert ranks_of(s) == {-2: 1, -1: 2, 0: 1}
    # 0 -> R/xy -> R/x + R/y -> R/(x,y) -> 0 is exact
    assert complex_homology_table(s).records() == []


def test_s_complex_single_ideal(kxy):
    s = build_s_complex([kxy["x2xy"]])
    assert ranks_of(s) == {-1: 1, 0: 1}
    assert s.d[0] == {0: [(0, 1)]}
    assert complex_homology_table(s).records() == []


def test_s_complex_triple_matrix_pattern(kxyz):
    """The S^1 -> S^2 entries realize the alternating pair matrix up to
    sign normalization of the bases."""
    family = [kxyz["x"], kxyz["y"], kxyz["z"]]
    s = build_s_complex(family)
    rows = s.d[-1]
    mat = np.zeros((3, 3), dtype=int)
    # target k is R/(sum over the k-th pair): (0, 1), (0, 2), (1, 2)
    targets = [s.summands(-2)[k].ideal for k in range(3)]
    assert targets == [combine([family[i] for i in pair], "sum")
                       for pair in itertools.combinations(range(3), 2)]
    for src, row in rows.items():
        for tgt, coeff in row:
            mat[tgt, src] = coeff
    # reorder rows to complement order (target (1,2) pairs with source 0 ...)
    reordered = mat[[2, 1, 0], :]
    intro = np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])
    # diagonal sign changes on rows and columns reach the intro matrix
    for rs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1), (1, -1, -1),
               (-1, -1, 1), (-1, 1, -1), (-1, -1, -1)):
        for cs in ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1), (1, -1, -1),
                   (-1, -1, 1), (-1, 1, -1), (-1, -1, -1)):
            if (np.diag(rs) @ reordered @ np.diag(cs) == intro).all():
                return
    raise AssertionError(f"no sign normalization matches: {reordered}")


def test_p_complex_shapes(kxy):
    p = build_p_complex([kxy["x"], kxy["y"]])
    assert ranks_of(p) == {1: 2, 2: 1}
    t = complex_homology_table(p)
    # H_1(P) = R/(x,y) pattern
    assert t.slice(1) == {(0, 0): 1}
    assert t.slice(2) == {}

    f4 = [MonomialIdeal(4, [tuple(1 if j == i else 0 for j in range(4))])
          for i in range(4)]
    p4 = build_p_complex(f4)
    assert [len(p4.summands(i)) for i in (4, 3, 2, 1)] == [1, 4, 6, 4]

    p1 = build_p_complex([kxy["x"]])
    t = complex_homology_table(p1)
    for g in iter_box(t.box):
        assert t.dim(1, g) == (0 if kxy["x"].contains(g) else 1)


def test_s_and_p_carry_the_unit_koszul_differentials():
    """Both complexes are the unit Koszul complex on the subsets of the
    family with other summands, in the degrees they share with it: summand
    k of term ±p is on the k-th p-subset in ``combinations`` order."""
    for n in range(1, 5):
        family = random_instance(n, n_vars=2, n_ideals=n)
        bottom = {"product": MonomialIdeal.unit(2), "sum": combine(family, "product")}
        for variant in ("quotient", "tilde"):
            for built, koszul, op in (
                (build_p_complex(family, variant), unit_koszul(n), "product"),
                (build_s_complex(family, variant), unit_koszul(n, "cochain"), "sum"),
            ):
                for i, ss in built.terms.items():
                    assert [s.ideal for s in ss] == [
                        combine([family[j] for j in S], op) if S else bottom[op]
                        for S in itertools.combinations(range(n), abs(i))
                    ]
                shared = {i: rows for i, rows in koszul.d.items()
                          if i in built.terms and i - 1 in built.terms}
                assert built.d == shared


def test_h1_of_p_is_quotient_by_sum_on_stream():
    for fam in stream(13000, 20, n_vars=2, n_ideals=3, max_gens=2, max_exp=2):
        p = build_p_complex(fam)
        t = complex_homology_table(p)
        total = combine(fam, "sum")
        for g in iter_box(t.box):
            assert t.dim(1, g) == (0 if total.contains(g) else 1)


def test_s_complex_dependent_pair_one_variable():
    """S for (x),(x) in k[x]: H^0 = Tor_1 pattern (one class at degree 1),
    all higher cohomology zero; fiber ranks at degrees 0,1,2 decide it."""
    x = MonomialIdeal(1, [(1,)])
    s = build_s_complex([x, x])
    t = complex_homology_table(s, box=(2,))
    assert t.slice(0) == {(1,): 1}
    assert t.slice(1) == {} and t.slice(2) == {}
    tor = multi_tor([x, x], box=(2,))
    assert t.slice(0) == tor.slice(1)


def test_tilde_variants_shift_homology(kxy):
    """H^i(S) = H^{i+1}(tilde S) and H_i(P) = H_{i-1}(tilde P)."""
    fams = [
        [kxy["x"], kxy["y"]],
        [kxy["m"], kxy["x2xy"]],
        [kxy["x"], kxy["x"]],
        [kxy["m"], kxy["m"], kxy["xy"]],
    ]
    for fam in fams:
        s = build_s_complex(fam)
        st = build_s_complex(fam, variant="tilde")
        assert st.summands(0)[0].ideal == combine(fam, "product")
        box = s.stable_box()
        a = complex_homology_table(s, box=box)
        b = complex_homology_table(st, box=box)
        for i in range(0, len(fam) + 1):
            assert a.slice(i) == b.slice(i + 1), (i, [f.gens for f in fam])
        p = build_p_complex(fam)
        pt = build_p_complex(fam, variant="tilde")
        box = p.stable_box()
        a = complex_homology_table(p, box=box)
        b = complex_homology_table(pt, box=box)
        for i in range(0, len(fam) + 2):
            assert a.slice(i) == b.slice(i - 1), (i, [f.gens for f in fam])


def test_euler_characteristic_of_s_fibers(kxy):
    fam = [kxy["m"], kxy["xy"]]
    s = build_s_complex(fam)
    table = module_homology_table(s)
    for g in iter_box(table.box):
        chi_terms = sum((-1) ** i * mask.bit_count()
                        for i, mask in s.alive_masks(g).items())
        chi_h = sum((-1) ** i * d for i, d in
                    ((i, table.dim(i, g)) for i in s.window()))
        assert chi_terms == chi_h


@st.composite
def families(draw):
    """1-3 ideals of 0-3 generators (0 gives the zero ideal), exponents
    0..2, in 1-3 variables."""
    n = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    ideal = st.lists(exponent, max_size=3).map(lambda gens: MonomialIdeal(n, gens))
    return draw(st.lists(ideal, min_size=1, max_size=3))


@settings(deadline=None)
@given(families())
def test_family_box_is_the_lcm_of_the_verified_stable_boxes(family):
    """verify_identities tabulates Tor, S, P and the augmented interior over
    family_box: the lcm of their stability boxes, with Tor's taken on the
    fully resolved tensor."""
    aug = hypercube_augment(tensor([taylor_resolution(i) for i in family]))
    complexes = (tensor_total(family), build_s_complex(family),
                 build_p_complex(family), aug)
    boxes = [c.stable_box() for c in complexes]
    assert family_box(family) == functools.reduce(lcm_deg, boxes)


def test_verify_identities_curated(kxy, kxyz):
    for fam in (
        [kxy["x"], kxy["y"]],
        [kxy["m"], kxy["m"]],
        [MonomialIdeal(1, [(1,)]), MonomialIdeal(1, [(1,)])],
        [kxyz["x"], kxyz["y"], kxyz["z"]],
        [kxyz["x"], kxyz["y"], kxyz["xy"]],
    ):
        rep = verify_identities(fam)
        assert rep.passed, rep.to_json()


def test_verify_identities_hypothesis_gating(kxyz):
    rep = verify_identities([kxyz["x"], kxyz["xy"], kxyz["y"]])
    assert not rep.context["strict_subfamilies_independent"]
    by_name = {a["name"]: a for a in rep.assertions}
    assert not by_name["sum_homology_vs_tor"]["checked"]
    assert by_name["partial_product_range"]["checked"]
    assert rep.passed


def test_verify_identities_on_filtered_stream():
    # pairs always satisfy the strict-subfamily hypothesis; triples only
    # sometimes, which exercises the gating
    checked = 0
    for fam in stream(14000, 15, n_vars=2, n_ideals=2, max_gens=2, max_exp=2):
        rep = verify_identities(fam)
        assert rep.passed, ([i.gens for i in fam], rep.to_json())
        if rep.context["strict_subfamilies_independent"]:
            checked += 1
    for fam in stream(14100, 15, n_vars=3, n_ideals=3, max_gens=2, max_exp=2):
        rep = verify_identities(fam)
        assert rep.passed, ([i.gens for i in fam], rep.to_json())
        if rep.context["strict_subfamilies_independent"]:
            checked += 1
    assert checked >= 15  # every pair plus any independent triples


@st.composite
def families_of_two_to_four(draw):
    """2-4 ideals of 0-2 generators (0 gives the zero ideal), exponents
    0..2, in 2-3 variables."""
    n = draw(st.integers(2, 3))
    exponent = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    ideal = st.lists(exponent, max_size=2).map(lambda gens: MonomialIdeal(n, gens))
    return draw(st.lists(ideal, min_size=2, max_size=4))


@settings(deadline=None, max_examples=40)
@given(families_of_two_to_four(), st.sampled_from([2, 3, 32003]))
def test_four_term_left_side_is_h0_minus_h1_of_s(family, p):
    """In each fibre dim ker d^1 = H^1(S) + rank d^0 and rank d^0 = S^0 -
    H^0(S), so S^0 - H^1(S_-) = H^0(S) - H^1(S) at every box cell, with S^0
    read by membership in the product and H^1(S_-) off the reference S_-:
    independent strict subfamilies or not.  For a pair H^1(S) = 0 (the
    Mayer-Vietoris sequence), so the four-term assertions read H^0(S)
    alone."""
    fld, n = GF(p), len(family)
    box = check_family(family)[1]
    s = build_s_complex(family)
    s_tab = complex_homology_table(s, fld, box)
    h1_minus = module_homology_table(s_minus(family), fld, box).slice(n - 1)
    product = combine(family, "product")
    for g in map(tuple, iter_box(box)):
        s0 = 0 if membership(g, product) else 1
        assert s0 - h1_minus.get(g, 0) == s_tab.dim(0, g) - s_tab.dim(1, g), g
    assert n > 2 or not s_tab.slice(1)


@st.composite
def families_of_three_or_four(draw):
    """3-4 ideals of 1-2 generators, exponents 0..2, in 3-5 variables.
    Variable k is ideal k's own for k < n; each further one is owned by one
    ideal or shared by all.  An ideal's generators use only its own and the
    shared variables, so most families are pairwise Tor-independent and the
    rest overlap in a shared variable."""
    n = draw(st.integers(3, 4))
    n_vars = draw(st.integers(n, 5))
    owner = [*range(n), *draw(st.lists(st.integers(0, n), min_size=n_vars - n,
                                       max_size=n_vars - n))]

    def ideal(k):
        exponent = st.tuples(*[st.integers(0, 2) if owner[v] in (k, n) else st.just(0)
                               for v in range(n_vars)]).filter(any)
        return MonomialIdeal(n_vars, draw(st.lists(exponent, min_size=1, max_size=2)))
    return [ideal(k) for k in range(n)]


@settings(deadline=None, max_examples=60)
@given(families_of_three_or_four(), st.sampled_from([2, 3, 32003]))
def test_pairwise_independent_families_zero_the_lower_four_term_terms(family, p):
    """At n >= 3 the four-term assertions read H^0(S) alone because, when
    every pair is Tor-independent, H^1(S) = 0, Tor_{n-2} = 0 and H_{n-1}(P)
    = 0: the pairs lie in disjoint variables (test_monomial_tor1_criterion),
    so each fibre of S is the augmented cochain complex of a simplex and
    Tor_k = 0 for every k >= 1 by Künneth."""
    fld, n = GF(p), len(family)
    pairs_independent = all(multi_tor([a, b], fld=fld).is_zero(1)
                            for a, b in itertools.combinations(family, 2))
    assume(pairs_independent)
    box = check_family(family)[1]
    s_tab = complex_homology_table(build_s_complex(family), fld, box)
    p_tab = complex_homology_table(build_p_complex(family), fld, box)
    tor = multi_tor(family, fld=fld, box=box)
    assert not s_tab.slice(1)
    assert tor.nonzero_indices() == [0]
    assert not p_tab.slice(n - 1)


def test_diff_tables_reads_a_missing_degree_as_zero():
    """A degree on one side only is compared with 0 on the other, and its
    witness says so; witnesses come in degree order, at most ``limit``."""
    assert diff_tables({(1,): 2}, {}) == [{"degree": [1], "expected": 0, "actual": 2}]
    assert diff_tables({(1,): 1}, {(0,): 1, (1,): 1}) == [
        {"degree": [0], "expected": 1, "actual": 0}]
    assert diff_tables({(k,): 1 for k in range(5)}, {}, limit=2) == [
        {"degree": [0], "expected": 0, "actual": 1},
        {"degree": [1], "expected": 0, "actual": 1}]


def test_verify_identities_compares_the_stated_ranges(monkeypatch):
    """Each slice assertion of ``verify_identities`` compares exactly the
    indices i of the range its comment states, on strongly independent
    families of 2, 3 and 4 ideals (p* = n - 1, s_max = 0, 0 and 1):
    H^i(S) = Tor_{n-i-1} for 2 <= i <= n-2, H^n(S) = 0 and for n >= 3
    H^{n-1}(S) = 0, Tor_{n+i} = H_{n+i}(augmented interior) for
    0 <= i <= s_max, H_i(P) = Tor_{i-1} for 1 <= i <= n, Tor_i = H_{i+1}(P)
    for 1 <= i <= p*, and H_i(P) = H^{n-i}(S) at i = 0 and 2 <= i <= n-2."""
    compared = {}
    compare = sumprod._compare_slices

    def recorded(report, name, checked, pairs):
        if checked:
            pairs = list(pairs)
            compared[name] = [i for i, _, _ in pairs]
        compare(report, name, checked, pairs)

    monkeypatch.setattr(sumprod, "_compare_slices", recorded)

    def variables(n_vars, *blocks):
        return [MonomialIdeal(n_vars, [tuple(int(k == j) for k in range(n_vars))
                                       for j in block]) for block in blocks]

    want = {
        2: {"sum_homology_vs_tor": [], "sum_top_vanishing": [2],
            "top_tor_vs_augmented": [0], "product_homology_vs_tor": [1, 2],
            "partial_product_range": [1], "product_vs_sum_homology": [0]},
        3: {"sum_homology_vs_tor": [], "sum_top_vanishing": [3, 2],
            "top_tor_vs_augmented": [0], "product_homology_vs_tor": [1, 2, 3],
            "partial_product_range": [1, 2], "product_vs_sum_homology": [0]},
        4: {"sum_homology_vs_tor": [2], "sum_top_vanishing": [4, 3],
            "top_tor_vs_augmented": [0, 1], "product_homology_vs_tor": [1, 2, 3, 4],
            "partial_product_range": [1, 2, 3], "product_vs_sum_homology": [0, 2]},
    }
    for family in (variables(2, [0], [1]), variables(3, [0], [1], [2]),
                   variables(5, [0], [1], [2], [3, 4])):
        compared.clear()
        report = verify_identities(family)
        assert report.passed and report.context["partial_independence_bound"] == len(family) - 1
        assert compared == want[len(family)], len(family)


def test_verify_assertions_compare_nonzero_sides_on_a_pinned_pair(monkeypatch):
    """On I = J = (x, y) six assertions of ``verify_identities`` compare a
    nonzero side with a nonzero side and pass.  The other three compare
    zero with zero on every monomial family, as the README says:
    sum_top_vanishing states a vanishing; product_vs_sum_homology reads
    H_0(P) = 0 (P_0 = R/R is dropped) against H^n(S) = 0; and the range
    2 <= i <= n-2 of both needs n >= 4, where the pairwise independent
    ideals lie in disjoint variables, S is exact and Tor_i = 0 for i > 0."""
    compared = {}
    compare = sumprod._compare_slices

    def recorded(report, name, checked, pairs):
        pairs = list(pairs) if checked else []
        compared[name] = [(i, bool(lhs), bool(rhs)) for i, lhs, rhs in pairs]
        compare(report, name, checked, pairs)

    monkeypatch.setattr(sumprod, "_compare_slices", recorded)
    m = MonomialIdeal(2, [(1, 0), (0, 1)])
    family = [m, m]
    report = verify_identities(family)
    assert all(a["checked"] and a["passed"] for a in report.assertions)
    live = {name: [i for i, lhs, rhs in pairs if lhs and rhs]
            for name, pairs in compared.items()}
    assert live == {"sum_homology_vs_tor": [], "sum_top_vanishing": [],
                    "top_tor_vs_augmented": [0], "product_homology_vs_tor": [1, 2],
                    "partial_product_range": [1], "product_vs_sum_homology": []}
    # four_term_bookkeeping: H^0(S) = Tor_1; four_term_product: H^0(S) =
    # H_2(P); surjection_injection_bounds at s = 0: Tor_2 = H_{2,0}
    box = family_box(family)
    tor = multi_tor(family, box=box)
    s0 = complex_homology_table(build_s_complex(family), box=box).slice(0)
    p2 = complex_homology_table(build_p_complex(family), box=box).slice(2)
    aug0 = augmented_interior_H(family).slice(0)
    assert all([s0, tor.slice(1), p2, tor.slice(2), aug0])


def _disjoint_families(seed, count):
    """count families of 3-4 ideals in pairwise disjoint variables: each of
    n..5 variables belongs to one ideal, and each ideal has 1-2 generators
    in its own variables, exponents 0..2."""
    rng = random.Random(seed)
    families = []
    for _ in range(count):
        n = rng.randint(3, 4)
        owner = [*range(n), *(rng.randrange(n) for _ in range(rng.randint(0, 5 - n)))]
        family = []
        for k in range(n):
            own = [v for v, o in enumerate(owner) if o == k]
            gens = []
            for _ in range(rng.randint(1, 2)):
                exponent = [rng.randint(0, 2) if o == k else 0 for o in owner]
                exponent[rng.choice(own)] = rng.randint(1, 2)
                gens.append(tuple(exponent))
            family.append(MonomialIdeal(len(owner), gens))
        families.append(family)
    return families


def test_v_t_is_strict_subfamily_independence():
    """V_t (t >= 1), Tor_q = 0 for 1 <= q < p + t on every strict subfamily
    of size p >= 2, is the strict-subfamily independence verify_identities
    reports, so surjection_injection_bounds checks every s under it with ==.
    At n >= 3, V_t asks Tor_1 = 0 of every pair, the ideals then lie in
    pairwise disjoint variables (test_monomial_tor1_criterion), and every
    strict subfamily is independent by Künneth.  Seeded 3-4-ideal families,
    random and pairwise disjoint, over three fields, at t = 1, 2, 3."""
    families = (stream(39000, 6, n_vars=3, n_ideals=3)
                + stream(39100, 4, n_vars=4, n_ideals=4, max_gens=1)
                + _disjoint_families(39200, 5))
    seen = set()
    for family in families:
        n = len(family)
        for fld in (GF(2), GF(3), GF(32003)):
            tables = {sub: multi_tor([family[i] for i in sub], fld=fld)
                      for size in range(2, n)
                      for sub in itertools.combinations(range(n), size)}
            strict_ok = verify_identities(family, fld).context[
                "strict_subfamilies_independent"]
            seen.add(strict_ok)
            for t in (1, 2, 3):
                v_t = all(table.is_zero(q) for sub, table in tables.items()
                          for q in range(1, len(sub) + t))
                assert v_t == strict_ok, ([i.gens for i in family], fld.p, t)
    assert seen == {True, False}


def test_surjection_bounds_relabel_the_top_range_witnesses(kxyz, monkeypatch):
    """With six cells added to the augmented interior at q = 0 and 1 of
    I = J = (x, y), both top-range assertions fail, and
    surjection_injection_bounds lists the first four mismatches in (s,
    degree) order, the first four top_tor_vs_augmented witnesses
    relabelled; where strict_ok is false it is unchecked, with no witness."""
    table = sumprod.augmented_interior_H

    def padded(*args, **kwargs):
        t = table(*args, **kwargs)
        entries = dict(t.entries)
        for q in (0, 1):
            for g in sorted(map(tuple, iter_box(t.box)))[:3]:
                entries[q, g] = entries.get((q, g), 0) + 1
        return TorTable(entries, t.box)

    monkeypatch.setattr(sumprod, "augmented_interior_H", padded)
    m = MonomialIdeal(2, [(1, 0), (0, 1)])
    family = [m, m]
    box = family_box(family)
    tor, aug = multi_tor(family, box=box), padded(family)
    want = [{"s": s, "degree": list(g), "tor": tor.dim(2 + s, g), "aug": aug.dim(s, g),
             "iso_expected": True}
            for s in range(3) for g in sorted(set(tor.slice(2 + s)) | set(aug.slice(s)))
            if tor.dim(2 + s, g) != aug.dim(s, g)]
    assert len(want) == 6
    by_name = {a["name"]: a for a in verify_identities(family).assertions}
    top, bounds = by_name["top_tor_vs_augmented"], by_name["surjection_injection_bounds"]
    assert top["checked"] and not top["passed"] and len(top["witnesses"]) == 6
    assert bounds["checked"] and not bounds["passed"]
    assert bounds["witnesses"] == want[:4]
    assert bounds["witnesses"] == [
        {"s": w["i"], "degree": w["degree"], "tor": w["actual"], "aug": w["expected"],
         "iso_expected": True} for w in top["witnesses"][:4]]
    rep = verify_identities([kxyz["x"], kxyz["xy"], kxyz["y"]])
    assert not rep.context["strict_subfamilies_independent"]
    assert rep.assertions[-1] == {"name": "surjection_injection_bounds", "checked": False,
                                  "passed": None, "witnesses": [], "note": None}


def test_verify_identities_builds_no_truncation_and_walks_no_box(kxy, kxyz, monkeypatch):
    """The four-term assertions read S off its table: verify_identities
    builds no S_- (no Mayer-Vietoris total), tests no membership in the product and iterates no box
    (a complex's own validation still tests membership), and still reports
    what its reference reports."""
    families = [[kxy["x"], kxy["y"]], [kxy["m"], kxy["m"]],
                [kxyz["x"], kxyz["y"], kxyz["z"]], [kxyz["x"], kxyz["y"], kxyz["xy"]]]
    want = [verify_identities_oracle(fam).to_json() for fam in families]

    def refused(*args):
        raise AssertionError("called by verify_identities")

    for name in ("mv_total_complex", "membership", "iter_box"):
        monkeypatch.setattr(sumprod, name, refused, raising=False)
    got = [verify_identities(fam).to_json() for fam in families]
    assert got == want
    checked = {a["name"]: a["checked"] for a in got[2]["assertions"]}
    assert checked["four_term_bookkeeping"] and checked["four_term_product"]


def test_augmented_interior_rows(kxy):
    # q = -1 row reproduces P_p dimensions
    fam = [kxy["x"], kxy["y"]]
    t = augmented_interior_H(fam)
    prod = combine(fam, "product")
    for g in iter_box(t.box):
        assert t.dim(-1, g) == (0 if prod.contains(g) else 1)
    # independence kills q = 0: kernel of I1 (x) I2 -> I1 I2 vanishes
    assert t.slice(0) == {}
    # m, m: the kernel is 1-dimensional in degree (1,1)
    t = augmented_interior_H([kxy["m"], kxy["m"]])
    assert t.slice(0) == {(1, 1): 1}
    # single-axis augmentation gives back the quotient pattern
    t = augmented_interior_H([kxy["x2xy"]])
    for g in iter_box(t.box):
        assert t.dim(-1, g) == (0 if kxy["x2xy"].contains(g) else 1)


def _exponents(n):
    """Nonzero exponent vectors in n variables, entries 0..2."""
    return st.tuples(*[st.integers(0, 2)] * n).filter(any)


def _ideals(n):
    """Proper ideals in n variables of 1-3 generators with entries 0..2."""
    return st.lists(_exponents(n), min_size=1, max_size=3).map(lambda g: MonomialIdeal(n, g))


@st.composite
def interior_families(draw, min_size=1, max_size=4):
    """From min_size to max_size proper ideals in 2-3 variables, exponents
    0..2.  An ideal has 1-3 generators or, so that ties for the most
    generators are common, k distinct ones of total degree 2, an antichain,
    k fixed per family."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, 3))
    tied = st.lists(_exponents(n).filter(lambda e: sum(e) == 2), min_size=k, max_size=k,
                    unique=True).map(lambda g: MonomialIdeal(n, g))
    size = draw(st.integers(min_size, max_size))
    return draw(st.lists(st.one_of(_ideals(n), tied), min_size=size, max_size=size))


@settings(deadline=None, max_examples=40)
@given(interior_families(), st.sampled_from([2, 3, 32003]))
def test_s_has_the_closed_form(family, p):
    """Every cell of the quotient S's table over its box is
    ``s_closed_form``'s, which reads membership only: H(S) is (∩ I_i)/(∏ I_i)
    in degree 0, over GF(2), GF(3) and GF(32003), for families of 1-4
    ideals in 2-3 variables."""
    table = complex_homology_table(build_s_complex(family), GF(p))
    assert table.entries == {(i, tuple(g)): d for g in iter_box(table.box)
                             for i, d in s_closed_form(family, g).items()}


@settings(deadline=None, max_examples=40)
@given(interior_families(), st.sampled_from([2, 3, 32003]))
def test_p_has_the_simplicial_form(family, p):
    """Every cell of the quotient P's table over its box is
    ``p_simplicial``'s, which reads membership in the products and ranks
    the boundary maps of Δ(gamma): H_i(P)_gamma = H~_{i-2}(Δ(gamma)), over
    GF(2), GF(3) and GF(32003), for families of 1-4 ideals in 2-3
    variables."""
    table = complex_homology_table(build_p_complex(family), GF(p))
    assert table.entries == {(i, tuple(g)): d for g in iter_box(table.box)
                             for i, d in p_simplicial(family, g, p).items()}


@settings(deadline=None, max_examples=40)
@given(interior_families(), st.sampled_from([2, 3, 32003]))
def test_tilde_s_and_p_are_the_quotients_shifted(family, p):
    """The tilde lemma, at every degree: H^i(tilde S) = H^{i-1}(S) and
    H_i(tilde P) = H_{i+1}(P), since 0 -> tilde X -> X_R -> X -> 0 is exact
    fibrewise and X_R, every summand R(0), is the exact augmented simplex
    complex.  So every cell of the tilde tables over their boxes is
    ``s_closed_form``'s one index up and ``p_simplicial``'s one index
    down, over GF(2), GF(3) and GF(32003), for families of 1-4 ideals in
    2-3 variables."""
    s = complex_homology_table(build_s_complex(family, "tilde"), GF(p))
    assert s.entries == {(i + 1, tuple(g)): d for g in iter_box(s.box)
                         for i, d in s_closed_form(family, g).items()}
    pt = complex_homology_table(build_p_complex(family, "tilde"), GF(p))
    assert pt.entries == {(i - 1, tuple(g)): d for g in iter_box(pt.box)
                          for i, d in p_simplicial(family, g, p).items()}


@settings(deadline=None, max_examples=30)
@given(interior_families(), st.sampled_from([2, 3, 32003]))
def test_augmented_interior_matches_the_full_tensor(family, p):
    """``augmented_interior_H``, which leaves one ideal unresolved, has the
    entries of ``full_augmented_interior``, the augmentation of the tensor
    of every resolution, shifted by the subset size: for every subset of
    1-4 ideals, over GF(2), GF(3) and GF(32003)."""
    fld = GF(p)
    for size in range(1, len(family) + 1):
        for subset in itertools.combinations(range(len(family)), size):
            chosen = [family[i] for i in subset]
            box = family_box(chosen)
            want = module_homology_table(full_augmented_interior(chosen), fld, box)
            got = augmented_interior_H(chosen, fld)
            assert got.box == box
            assert got.entries == {(i - size, g): d for (i, g), d in want.entries.items()}


def test_augmented_interior_leaves_an_ideal_past_the_taylor_bound_unresolved():
    """An ideal of 17 degree-5 generators has no Taylor resolution, and the
    augmented interior of it and J = (x, y^2) never asks for one: it is the
    ideal left unresolved.  The table is the top range of their Tor,
    Tor_{2+q} = H_{2,q}, which ``multi_tor`` also gets without resolving
    it."""
    big = MonomialIdeal(3, [g for g in itertools.product(range(6), repeat=3)
                            if sum(g) == 5][:17])
    j = MonomialIdeal(3, [(1, 0, 0), (0, 2, 0)])
    with pytest.raises(ParamOutOfRange, match="at most 16 generators"):
        taylor_resolution(big)
    aug = augmented_interior_H([big, j])
    tor = multi_tor([big, j])
    assert aug.box == tor.box == family_box([big, j])
    assert aug.nonzero_indices() == [-1, 0] and tor.nonzero_indices() == [0, 1, 2]
    assert all(aug.slice(q) == tor.slice(2 + q) for q in range(len(big.gens) + 2))


@settings(deadline=None, max_examples=30)
@given(interior_families(2, 4), st.data(), st.sampled_from([2, 3, 32003]))
def test_tables_from_a_shared_map_match_fresh_ones(family, data, p):
    """Every table a checker builds from its one map of resolutions equals
    the one built with a fresh map, what each table makes when no map is
    given: for every subfamily of 2-4 ideals, its Tor table, with no
    coefficient and with a drawn one that is zero or a proper ideal, and
    its augmented interior, then the Betti table of each ideal and of the
    sum, all from one map filled as they go, over GF(2), GF(3) and
    GF(32003)."""
    n = family[0].n
    coefficient = data.draw(st.one_of(st.none(), st.just(MonomialIdeal.zero(n)), _ideals(n)))
    fld, shared = GF(p), {}
    for size in range(1, len(family) + 1):
        for subset in itertools.combinations(range(len(family)), size):
            chosen = [family[i] for i in subset]
            for coeff in {None, coefficient}:
                assert multi_tor(chosen, coeff, fld, resolutions=shared) == \
                    multi_tor(chosen, coeff, fld)
            assert augmented_interior_H(chosen, fld, resolutions=shared) == \
                augmented_interior_H(chosen, fld)
    for ideal in [*family, combine(family, "sum")]:
        assert betti_table(ideal, fld, resolutions=shared).to_json() == \
            betti_table(ideal, fld).to_json()
    assert all((c.terms, c.d) == (resolution(ideal).terms, resolution(ideal).d)
               for ideal, c in shared.items())


@settings(deadline=None, max_examples=30)
@given(interior_families())
def test_augmented_interior_never_resolves_the_unresolved_ideal(family):
    """``augmented_interior_H`` resolves each chosen ideal but the one
    ``unresolved`` picks, once: that one is resolved only when the subset
    chooses it again at another place."""
    resolved = []
    real = gcomplex.resolution
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gcomplex, "resolution",
                      lambda ideal: resolved.append(ideal) or real(ideal))
        for size in range(1, len(family) + 1):
            for subset in itertools.combinations(range(len(family)), size):
                chosen = [family[i] for i in subset]
                u = unresolved(chosen)
                resolved.clear()
                augmented_interior_H(chosen)
                assert Counter(resolved) == Counter(
                    {ideal for k, ideal in enumerate(chosen) if k != u})


def _exactness_curated(kxy, kxyz):
    return [
        [kxy["x"], kxy["y"]],
        [kxy["x"], kxy["x"]],
        [MonomialIdeal(1, [(1,)]), MonomialIdeal(1, [(1,)])],
        [kxyz["x"], kxyz["y"], kxyz["xy"]],
        [kxyz["x"], kxyz["y"], kxyz["z"]],
        # the pair (m, m) has nonvanishing rows, forcing the page engine
        [kxy["m"], kxy["m"], kxy["xy"]],
    ]


def test_exactness_equivalences_curated(kxy, kxyz):
    for fam in _exactness_curated(kxy, kxyz):
        rep = exactness_equivalences(fam)
        assert rep.passed, rep.to_json()


def test_checkers_match_their_oracles(kxy, kxyz):
    """verify_identities, exactness_equivalences and strong independence
    report what their references report, on seeded families of 2-3 ideals
    in 2-3 variables and on the curated exactness families, over three
    fields."""
    families = _exactness_curated(kxy, kxyz)
    for seed, (n_vars, n_ideals) in enumerate([(2, 2), (3, 3), (2, 3), (3, 2)]):
        families += stream(19000 + 100 * seed, 3, n_vars=n_vars, n_ideals=n_ideals)
    strict = set()
    for fam in families:
        for fld in (GF(2), GF(3), GF(32003)):
            got = verify_identities(fam, fld).to_json()
            assert got == verify_identities_oracle(fam, fld).to_json()
            strict.add(got["context"]["strict_subfamilies_independent"])
            assert (exactness_equivalences(fam, fld).to_json()
                    == exactness_equivalences_oracle(fam, fld).to_json())
            assert (independence(fam, fld, strong=True).to_json()
                    == independence_oracle(fam, fld, strong=True).to_json())
    assert strict == {True, False}


def _truths(report):
    """The context and the (name, checked, passed) of each assertion of a
    checker report, without the witnesses, which name subfamilies."""
    return report.context, [(a["name"], a["checked"], a["passed"]) for a in report.assertions]


@settings(deadline=None, max_examples=25)
@given(interior_families(2, 3).flatmap(
    lambda d: st.tuples(st.just(d), st.permutations(range(len(d))))),
    st.sampled_from([2, 3, 32003]))
def test_permuting_the_family_keeps_sp_tables_and_checker_truths(drawn, p):
    """Relation 1 on the sum/product side: the family permuted by pi has
    the same S and P homology tables (both variants), the augmented
    interior table of a subset T equals the original's at pi(T),
    whichever ideal is left unresolved, and
    ``verify``, ``equiv-exactness`` and ``indep --strong`` give the same
    truth values and p*, every subset's independence moved by pi."""
    family, pi = drawn
    permuted = [family[k] for k in pi]
    fld, n = GF(p), len(family)
    for build in (build_s_complex, build_p_complex):
        for variant in ("quotient", "tilde"):
            a = complex_homology_table(build(family, variant), fld)
            b = complex_homology_table(build(permuted, variant), fld)
            assert (a.entries, a.box) == (b.entries, b.box), (build.__name__, variant)
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            a = augmented_interior_H([permuted[k] for k in subset], fld)
            b = augmented_interior_H([family[i] for i in sorted(pi[k] for k in subset)], fld)
            assert (a.entries, a.box) == (b.entries, b.box), subset
    assert _truths(verify_identities(permuted, fld)) == _truths(verify_identities(family, fld))
    assert (_truths(exactness_equivalences(permuted, fld))
            == _truths(exactness_equivalences(family, fld)))
    a, b = independence(permuted, fld, strong=True), independence(family, fld, strong=True)
    assert (a.context["independent"], a.context["agreement"]) == (
        b.context["independent"], b.context["agreement"])
    for size in range(2, n + 1):
        for subset in itertools.combinations(range(n), size):
            moved = sorted(pi[k] for k in subset)
            assert a.context["subsets"][str(list(subset))] == b.context["subsets"][str(moved)]


def test_permuting_a_tie_changes_the_unresolved_ideal(monkeypatch):
    """(x, y) and (x^2, y^2) have two generators each, so the augmented
    interior leaves the first of them unresolved, the ideal
    ``ideal_augment`` takes: the two orders build different complexes and
    still give one table, with nonzero q >= 0 rows."""
    unresolved = []
    augment = sumprod.ideal_augment
    monkeypatch.setattr(sumprod, "ideal_augment",
                        lambda c, ideal: unresolved.append(ideal) or augment(c, ideal))
    m, squares = MonomialIdeal(2, [(1, 0), (0, 1)]), MonomialIdeal(2, [(2, 0), (0, 2)])
    a = augmented_interior_H([m, squares])
    b = augmented_interior_H([squares, m])
    assert unresolved == [m, squares]
    assert (a.entries, a.box) == (b.entries, b.box)
    assert any(q >= 0 for q in a.nonzero_indices())


def test_checkers_build_once_per_subfamily(kxyz, monkeypatch):
    """On x, y, z, where every subfamily is independent, the exactness check
    makes one Tor table, one P and one S per subfamily of size >= 2 (its
    reference makes 8, 7 and 7), and verify_identities takes its augmented
    interior from one augmented_interior_H call."""
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("multi_tor", "build_p_complex", "build_s_complex"):
        count(sumprod, name)
    family = [kxyz["x"], kxyz["y"], kxyz["z"]]
    assert exactness_equivalences(family).passed
    assert calls == {"multi_tor": 4, "build_p_complex": 4, "build_s_complex": 4}
    calls.clear()
    count(sumprod, "augmented_interior_H")
    assert verify_identities(family).passed
    assert calls["augmented_interior_H"] == 1


def test_exactness_tables_only_for_subfamilies_of_two_or_more(kxyz, monkeypatch):
    """Only subfamilies of size >= 2 have their H tables read: three pairs and
    the triple, told apart by their sizes and their family boxes, which
    differ; each table is over the box its own family check gives, and
    every table reads the call's one map of resolutions."""
    family = [kxyz["x"], kxyz["y"], kxyz["xy"]]
    calls, maps = [], set()
    table = sumprod.augmented_interior_H

    def counted(ideals, fld=GF(), *, resolutions):
        maps.add(id(resolutions))
        t = table(ideals, fld, resolutions=resolutions)
        calls.append((len(ideals), tuple(t.box)))
        return t

    monkeypatch.setattr(sumprod, "augmented_interior_H", counted)
    exactness_equivalences(family)
    assert len(maps) == 1
    expected = sorted((len(sub), tuple(family_box([family[i] for i in sub])))
                      for sub in [(0, 1), (0, 1, 2), (0, 2), (1, 2)])
    assert len({box for _, box in expected}) == 4
    assert sorted(calls) == expected


def test_exactness_resolves_each_ideal_at_most_once_and_builds_each_tensor_once(monkeypatch):
    """On (xy^2), (y^2, xy), (y, x^2), where q >= 0 rows of the augmented
    interior survive, so pages are read, the exactness check resolves each
    ideal at most once, into the one map that all its tables read.  Each
    subfamily of size >= 2 builds one tensor for its H table, of the map's
    resolutions of its ideals but the unresolved one, and the full tensor
    of the map's resolutions of its ideals only where its page engine reads
    it."""
    family = [MonomialIdeal(2, [(1, 2)]), MonomialIdeal(2, [(0, 2), (1, 1)]),
              MonomialIdeal(2, [(0, 1), (2, 0)])]
    resolved, tensors, tables, filtered = [], [], [], []
    resolution_, tensor_ = gcomplex.resolution, sumprod.tensor
    table, build = sumprod.augmented_interior_H, sumprod.build_filtration

    def counted_resolution(ideal):
        resolved.append(ideal)
        return resolution_(ideal)

    def kept_tensor(factors):
        tensors.append((list(factors), tensor_(factors)))
        return tensors[-1][1]

    def kept_table(chosen, *args, resolutions, **kwargs):
        tables.append((list(chosen), resolutions))
        return table(chosen, *args, resolutions=resolutions, **kwargs)

    def kept_build(m, *, kind):
        filtered.append(m)
        return build(m, kind=kind)

    def same(a, b):
        return len(a) == len(b) and all(x is y for x, y in zip(a, b))

    monkeypatch.setattr(gcomplex, "resolution", counted_resolution)
    monkeypatch.setattr(sumprod, "tensor", kept_tensor)
    monkeypatch.setattr(sumprod, "augmented_interior_H", kept_table)
    monkeypatch.setattr(sumprod, "build_filtration", kept_build)
    exactness_equivalences(family)
    assert len(resolved) == len(set(resolved)) and len(tables) == 4 and filtered
    (resolutions,) = {id(r): r for _, r in tables}.values()
    assert set(resolutions) == set(resolved)
    full = [factors for factors, m in tensors if any(m is f for f in filtered)]
    short = [factors for factors, m in tensors if not any(m is f for f in filtered)]
    assert len(full) == len(filtered) and len(short) == len(tables)
    assert all(any(same(factors, [resolutions[i] for i in chosen]) for chosen, _ in tables)
               for factors in full)
    # the k-th table builds the k-th short tensor, of its resolutions but one
    for factors, (chosen, _) in zip(short, tables):
        u = unresolved(chosen)
        assert same(factors, [resolutions[i] for k, i in enumerate(chosen) if k != u])


def test_exactness_equivalences_truth_values(kxy, kxyz):
    """The four conditions, pinned: all hold on x, y, z; on (x), (x) and on
    (x), (xy), (z) the pair (0, 1) is dependent, its P has H_2 and its S
    has H^0, while every q >= 0 row stays exact, so both equivalences
    hold with (1) false.  On (y^2, xy), (x^2, y^2) all four fail, and the
    pair's own page E^2_{2,0} at (2, 3) is the row witness, which reading
    only the degrees of subfamilies of size >= 3 would miss."""
    rep = exactness_equivalences([kxyz["x"], kxyz["y"], kxyz["z"]])
    assert rep.context == {"strongly_independent": True, "rows_exact": True,
                           "product_rows_exact": True, "sum_rows_exact": True}
    dependent = {"strongly_independent": False, "rows_exact": True,
                 "product_rows_exact": False, "sum_rows_exact": False}
    rep = exactness_equivalences([kxy["x"], kxy["x"]])
    assert rep.context == dependent
    assert [a["witnesses"] for a in rep.assertions] == [
        [{"subfamily": [0, 1], "i": 2}], [{"subfamily": [0, 1], "i": 0}]]
    rep = exactness_equivalences([kxyz["x"], kxyz["xy"], kxyz["z"]])
    assert rep.context == dependent
    assert [a["witnesses"] for a in rep.assertions] == [
        [{"subfamily": [0, 1], "i": 2}, {"subfamily": [0, 1, 2], "i": 2}],
        [{"subfamily": [0, 1], "i": 0}, {"subfamily": [0, 1, 2], "i": 0}]]
    assert rep.passed
    rep = exactness_equivalences([MonomialIdeal(2, [(0, 2), (1, 1)]),
                                  MonomialIdeal(2, [(2, 0), (0, 2)])])
    assert rep.context == {"strongly_independent": False, "rows_exact": False,
                           "product_rows_exact": False, "sum_rows_exact": False}
    rows = {"subfamily": [0, 1], "degree": [2, 3], "p": 2, "q": 0}
    assert [a["witnesses"] for a in rep.assertions] == [
        [rows, {"subfamily": [0, 1], "i": 2}], [rows, {"subfamily": [0, 1], "i": 0}]]
    assert rep.passed


def test_exactness_rows_are_read_on_the_second_page():
    """Row exactness reads E^2, not a later page: on (x^2yz^2, x^2y^2z),
    (y^2, x^2z^2), (x^2), (y) the whole family's first row witness is
    E^2_{2,0} at (4, 3, 3), which d_2 kills, so E^3 has no q >= 0 entry at
    p >= 2 there."""
    family = [MonomialIdeal(3, [(2, 1, 2), (2, 2, 1)]), MonomialIdeal(3, [(0, 2, 0), (2, 0, 2)]),
              MonomialIdeal(3, [(2, 0, 0)]), MonomialIdeal(3, [(0, 1, 0)])]
    rep = exactness_equivalences(family)
    assert {"subfamily": [0, 1, 2, 3], "degree": [4, 3, 3], "p": 2, "q": 0} in (
        rep.assertions[0]["witnesses"])
    filtered = build_filtration(tensor([resolution(i) for i in family]),
                                kind="interior_augmented")
    third = pages(filtered, (4, 3, 3), GF()).page(3)
    assert not any(d for (p, q), d in third.items() if p >= 2 and q >= 0)


# -- documented statement-boundary regressions --------------------------------


def test_intro_indexing_convention_fails(kxy):
    """The introduction's H^i(S) = Tor_{n-i} indexing must fail: n = 2,
    i = 2 gives H^2(S) = 0 against Tor_0 = R/(x+y) != 0 at the origin."""
    fam = [kxy["x"], kxy["y"]]
    s_tab = complex_homology_table(build_s_complex(fam))
    tor = multi_tor(fam, box=s_tab.box)
    n = 2
    witnesses = []
    for i in range(2, n + 1):
        for g in iter_box(s_tab.box):
            if s_tab.dim(i, g) != tor.dim(n - i, g):
                witnesses.append((i, tuple(g)))
    assert (2, (0, 0)) in witnesses


def test_body_indexing_at_boundary_index_fails(kxyz):
    """The body's range 'i >= 2' overshoots at i = n-1: for the strongly
    independent triple the sum complex is exact while Tor_0 is not zero."""
    fam = [kxyz["x"], kxyz["y"], kxyz["z"]]
    s_tab = complex_homology_table(build_s_complex(fam))
    tor = multi_tor(fam, box=s_tab.box)
    assert s_tab.dim(2, (0, 0, 0)) == 0
    assert tor.dim(3 - 2 - 1, (0, 0, 0)) == 1


def test_product_vs_sum_at_index_one_fails(kxyz):
    """H_1(P) = R/(sum) never vanishes while H^{n-1}(S) always does (n >= 3),
    so the i = 1 edge of the product-sum comparison cannot hold."""
    fam = [kxyz["x"], kxyz["y"], kxyz["z"]]
    p_tab = complex_homology_table(build_p_complex(fam))
    s_tab = complex_homology_table(build_s_complex(fam), box=p_tab.box)
    assert p_tab.dim(1, (0, 0, 0)) == 1
    assert s_tab.dim(2, (0, 0, 0)) == 0


# -- raw Taylor factors against reduced ones ------------------------------------


def test_s_minus_is_built_in_one_pass(monkeypatch):
    """A sum_to_product total builds S_- with one ``GradedComplex`` call, with
    and without a module: no S is built first and then truncated.  With
    M = R the total is that S_-."""
    built = []
    monkeypatch.setattr(sumprod, "GradedComplex",
                        lambda *args: built.append(args) or GradedComplex(*args))
    family = [MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(0, 1), (1, 1)])]
    total = mv_total_complex("sum_to_product", family).total
    assert len(built) == 1
    built.clear()
    mv_total_complex("sum_to_product", family, family[1])
    assert len(built) == 1
    want = s_minus(family)
    assert (total.terms, total.d, total.kind) == (want.terms, want.d, want.kind)


@settings(deadline=None)
@given(families(), st.sampled_from(["sum_to_product", "product_to_sum"]),
       st.booleans())
def test_mv_total_with_m_equal_r_is_x_itself(family, kind, zero_ideal):
    """For M = R, given as None or as the zero ideal, ``mv_total_complex``
    is the total of X tensored with the resolution of the zero ideal: the
    same terms, differential and levels, and the same pages at every degree
    of the box over three fields."""
    coefficient = MonomialIdeal.zero(family[0].n) if zero_ideal else None
    total = mv_total_complex(kind, family, coefficient)
    oracle = mv_tensor_total(kind, family)
    assert total.total.terms == oracle.total.terms
    assert total.total.d == oracle.total.d
    assert total.levels == oracle.levels
    for g in iter_box(family_box(family)):
        for fld in (GF(2), GF(3), GF(32003)):
            assert pages(total, g, fld) == pages(oracle, g, fld)


@st.composite
def wide_families(draw):
    """[I, J] in 2 or 3 variables: I has five generators (first exponents
    rising, second falling, so they form an antichain), J one or two, and
    the coefficient is I or J."""
    n = draw(st.integers(2, 3))
    rising = sorted(draw(st.lists(st.integers(0, 5), min_size=5, max_size=5,
                                  unique=True)))
    last = draw(st.lists(st.integers(0, 1), min_size=5, max_size=5))
    wide = MonomialIdeal(n, [(a, 5 - a, c)[:n] for a, c in zip(rising, last)])
    exponent = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    narrow = MonomialIdeal(n, draw(st.lists(exponent, min_size=1, max_size=2)))
    family = [wide, narrow]
    return family, draw(st.sampled_from(family))


def test_raw_and_reduced_factors_agree(monkeypatch):
    """Every consumer of ``resolution`` gives the answers of the raw Taylor
    resolution it replaced: the pages, page-differential ranks and r_stab
    of all six kinds, augmented_interior_H,
    and the verify_identities report, over three fields."""
    fields = [GF(2), GF(3), GF(32003)]
    shrunk = []

    def answers(family, coefficient, factors):
        box = family_box(family, coefficient)
        degrees = {Multidegree(box), Multidegree(b // 2 for b in box),
                   Multidegree(min(1, b) for b in box)}
        filtered = {kind: build_filtration(tensor(factors), kind=kind)
                    for kind in ("kcone", "kcone_augmented", "interior",
                                 "interior_augmented")}
        for kind in ("sum_to_product", "product_to_sum"):
            filtered[kind] = mv_total_complex(kind, family, coefficient)
        out = {}
        for fld in fields:
            for kind, total in filtered.items():
                for g in degrees:
                    pg = pages(total, g, fld)
                    out[kind, fld.p, g] = (pg.pages, pg.ranks, pg.r_stab)
            out["aug", fld.p] = augmented_interior_H(family, fld)
            out["verify", fld.p] = verify_identities(family, fld).to_json()
        return out

    @settings(deadline=None, max_examples=4)
    @given(wide_families())
    def check(drawn):
        family, coefficient = drawn
        raw = [taylor_resolution(i) for i in family]
        reduced = [resolution(i) for i in family]
        shrunk.append([sum(map(len, c.terms.values())) for c in raw]
                      != [sum(map(len, c.terms.values())) for c in reduced])
        with monkeypatch.context() as patch:
            patch.setattr(gcomplex, "resolution", taylor_resolution)
            want = answers(family, coefficient, raw)
        assert answers(family, coefficient, reduced) == want

    check()
    assert any(shrunk)
