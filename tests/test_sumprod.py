"""Sum and product complexes and the homology identification suites."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    exactness_equivalences_oracle,
    independence_oracle,
    stream,
    tensor_total,
    unit_koszul,
    verify_identities_oracle,
    with_coefficient,
)
from homotor import sumprod
from homotor.cli import random_instance
from homotor.errors import UnitIdeal, ValidationError
from homotor.exactlin import GF
from homotor.gcomplex import module_homology_table, resolution, taylor_resolution
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
    exactness_equivalences,
    mv_total_complex,
    verify_identities,
)
from homotor.torlab import family_box, independence, multi_tor


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
    assert s.entries[0] == ((0, 0, 1),)
    assert complex_homology_table(s).records() == []


def test_s_complex_triple_matrix_pattern(kxyz):
    """The S^1 -> S^2 entries realize the alternating pair matrix up to
    sign normalization of the bases."""
    family = [kxyz["x"], kxyz["y"], kxyz["z"]]
    s = build_s_complex(family)
    entries = s.entries[-1]
    mat = np.zeros((3, 3), dtype=int)
    # target k is R/(sum over the k-th pair): (0, 1), (0, 2), (1, 2)
    targets = [s.summands(-2)[k].ideal for k in range(3)]
    assert targets == [combine([family[i] for i in pair], "sum")
                       for pair in itertools.combinations(range(3), 2)]
    for src, tgt, coeff in entries:
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
                shared = {i: es for i, es in koszul.entries.items()
                          if i in built.terms and i - 1 in built.terms}
                assert built.entries == shared


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
    read by membership in the product and H^1(S_-) off ``truncated``:
    independent strict subfamilies or not."""
    fld, n = GF(p), len(family)
    box = check_family(family)[1]
    s = build_s_complex(family)
    s_tab = complex_homology_table(s, fld, box)
    h1_minus = module_homology_table(sumprod.truncated(s), fld, box).slice(n - 1)
    product = combine(family, "product")
    for g in map(tuple, iter_box(box)):
        s0 = 0 if membership(g, product) else 1
        assert s0 - h1_minus.get(g, 0) == s_tab.dim(0, g) - s_tab.dim(1, g), g


def test_verify_identities_builds_no_truncation_and_walks_no_box(kxy, kxyz, monkeypatch):
    """The four-term assertions read S off its table: verify_identities
    builds no S_-, tests no membership in the product and iterates no box
    (a complex's own validation still tests membership), and still reports
    what its reference reports."""
    families = [[kxy["x"], kxy["y"]], [kxy["m"], kxy["m"]],
                [kxyz["x"], kxyz["y"], kxyz["z"]], [kxyz["x"], kxyz["y"], kxyz["xy"]]]
    want = [verify_identities_oracle(fam).to_json() for fam in families]

    def refused(*args):
        raise AssertionError("called by verify_identities")

    for name in ("truncated", "membership", "iter_box"):
        monkeypatch.setattr(sumprod, name, refused, raising=False)
    got = [verify_identities(fam).to_json() for fam in families]
    assert got == want
    checked = {a["name"]: a["checked"] for a in got[2]["assertions"]}
    assert checked["four_term_bookkeeping"] and checked["four_term_product"]


def test_augmented_interior_rows(kxy):
    # q = -1 row reproduces P_p dimensions
    fam = [kxy["x"], kxy["y"]]
    t = augmented_interior_H(fam, [0, 1])
    prod = combine(fam, "product")
    for g in iter_box(t.box):
        assert t.dim(-1, g) == (0 if prod.contains(g) else 1)
    # independence kills q = 0: kernel of I1 (x) I2 -> I1 I2 vanishes
    assert t.slice(0) == {}
    # m, m: the kernel is 1-dimensional in degree (1,1)
    t = augmented_interior_H([kxy["m"], kxy["m"]], [0, 1])
    assert t.slice(0) == {(1, 1): 1}
    # single-axis augmentation gives back the quotient pattern
    t = augmented_interior_H([kxy["x2xy"]], [0])
    for g in iter_box(t.box):
        assert t.dim(-1, g) == (0 if kxy["x2xy"].contains(g) else 1)


def test_augmented_interior_unit_coefficient_raises(kxy):
    """The same error and message as multi_tor's."""
    with pytest.raises(UnitIdeal, match="^R/I is zero for the unit ideal$"):
        augmented_interior_H([kxy["x"], kxy["y"]], [0, 1], MonomialIdeal.unit(2))


@pytest.mark.parametrize("subset", [[-1], [2], [0, 5]])
def test_augmented_interior_refuses_indices_outside_the_family(kxy, subset):
    """An index outside the family is refused, not read from the end of
    the list or raised as an IndexError."""
    with pytest.raises(ValidationError, match=r"outside 0\.\.1$"):
        augmented_interior_H([kxy["x"], kxy["y"]], subset)


def test_augmented_interior_coefficient_matches_with_coefficient():
    """The coefficient enters as the one-summand factor R/J; the table is
    the one of the augmentation with R/J applied summand by summand."""
    for t, family in enumerate(stream(17200, 12, n_vars=2, n_ideals=3)):
        coefficient = family.pop()
        subset = [0, 1] if t % 2 else [1]
        aug = hypercube_augment(tensor([resolution(family[i]) for i in subset]))
        table = module_homology_table(with_coefficient(aug, coefficient),
                                      box=family_box([family[i] for i in subset],
                                                     coefficient))
        want = {(i - len(subset), g): d for (i, g), d in table.entries.items()}
        assert augmented_interior_H(family, subset, coefficient).entries == want


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

    for name in ("multi_tor", "_p_complex", "_s_complex"):
        count(sumprod, name)
    family = [kxyz["x"], kxyz["y"], kxyz["z"]]
    assert exactness_equivalences(family).passed
    assert calls == {"multi_tor": 4, "_p_complex": 4, "_s_complex": 4}
    calls.clear()
    count(sumprod, "augmented_interior_H")
    assert verify_identities(family).passed
    assert calls["augmented_interior_H"] == 1


def test_exactness_tables_only_for_subfamilies_of_two_or_more(kxyz, monkeypatch):
    """Only subfamilies of size >= 2 have their H tables read: three pairs and
    the triple, told apart by their number of axes and their family boxes,
    which differ."""
    family = [kxyz["x"], kxyz["y"], kxyz["xy"]]
    calls = []
    table = sumprod._interior_table

    def counted(m, coefficient, fld, box):
        calls.append((m.n_axes, tuple(box)))
        return table(m, coefficient, fld, box)

    monkeypatch.setattr(sumprod, "_interior_table", counted)
    exactness_equivalences(family)
    expected = sorted((len(sub), tuple(family_box([family[i] for i in sub])))
                      for sub in [(0, 1), (0, 1, 2), (0, 2), (1, 2)])
    assert len({box for _, box in expected}) == 4
    assert sorted(calls) == expected


def test_exactness_resolves_each_ideal_once_and_builds_each_tensor_once(monkeypatch):
    """On (xy^2), (y^2, xy), (y, x^2), where q >= 0 rows of the augmented
    interior survive, so pages are read, the exactness check resolves each
    of the three ideals once and builds one tensor per subfamily of size
    >= 2; the page engine of a subfamily reads the very tensor its H table
    was built from."""
    family = [MonomialIdeal(2, [(1, 2)]), MonomialIdeal(2, [(0, 2), (1, 1)]),
              MonomialIdeal(2, [(0, 1), (2, 0)])]
    calls = {"resolution": 0, "tensor": 0}
    tables, filtered = [], []
    resolution_, tensor_ = sumprod.resolution, sumprod.tensor
    table, build = sumprod._interior_table, sumprod.build_filtration

    def counted_resolution(ideal):
        calls["resolution"] += 1
        return resolution_(ideal)

    def counted_tensor(factors):
        calls["tensor"] += 1
        return tensor_(factors)

    def kept_table(m, *args):
        tables.append(m)
        return table(m, *args)

    def kept_build(m, *, kind):
        filtered.append(m)
        return build(m, kind=kind)

    monkeypatch.setattr(sumprod, "resolution", counted_resolution)
    monkeypatch.setattr(sumprod, "tensor", counted_tensor)
    monkeypatch.setattr(sumprod, "_interior_table", kept_table)
    monkeypatch.setattr(sumprod, "build_filtration", kept_build)
    exactness_equivalences(family)
    assert calls == {"resolution": 3, "tensor": 4}
    assert len(tables) == 4 and filtered
    assert all(any(m is t for t in tables) for m in filtered)


def test_exactness_equivalences_truth_values(kxy, kxyz):
    rep = exactness_equivalences([kxyz["x"], kxyz["y"], kxyz["z"]])
    assert rep.context["strongly_independent"]
    assert rep.context["rows_exact"] and rep.context["product_rows_exact"]
    assert rep.context["sum_rows_exact"]
    rep = exactness_equivalences([kxy["x"], kxy["x"]])
    assert not rep.context["strongly_independent"]
    assert not (rep.context["product_rows_exact"] and rep.context["rows_exact"])


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
    of all six kinds, augmented_interior_H with and without a coefficient,
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
            for coeff in (None, coefficient):
                out["aug", fld.p, coeff] = augmented_interior_H(
                    family, [0, 1], coeff, fld)
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
            patch.setattr(sumprod, "resolution", taylor_resolution)
            want = answers(family, coefficient, raw)
        assert answers(family, coefficient, reduced) == want

    check()
    assert any(shrunk)
