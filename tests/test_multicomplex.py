"""Multicomplexes: tensor construction, totalization and the hypercube
augmentation."""

from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    augment_in_two_steps,
    axes_oracle,
    packed_cone_labels,
    packed_koszul_cone,
    shifted_oracle,
    tensor_by_search,
    truncated_cochain,
    with_coefficient,
)
from homotor import multicomplex
from homotor.cli import random_instance
from homotor.errors import (
    CompositionNonzero,
    EmptyInput,
    LengthMismatch,
    MixedKinds,
    ParamOutOfRange,
    ValidationError,
)
from homotor.exactlin import GF
from homotor.gcomplex import (
    GradedComplex,
    cancel_units,
    free_summand,
    module_homology_table,
    resolution,
    summand,
    taylor_resolution,
)
from homotor.monomial import MonomialIdeal, Multidegree, combine, iter_box
from homotor.multicomplex import (
    Multicomplex,
    hypercube_augment,
    hypercube_extend,
    koszul_cone,
    tensor,
)
from homotor.spectral import _by_weight, build_filtration, pages
from homotor.sumprod import build_p_complex, build_s_complex, mv_total_complex


def res(*gens):
    n = len(gens[0])
    return taylor_resolution(MonomialIdeal(n, gens))


def test_tensor_two_principal():
    m = tensor([res((1, 0)), res((0, 1))])
    assert len(m.terms) == 4
    assert set(m.terms) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_tensor_single_factor_is_identity():
    t = res((1, 0), (0, 1))
    m = tensor([t])
    total = m.total
    assert {i: len(ss) for i, ss in total.terms.items()} == {
        i: len(ss) for i, ss in t.terms.items()
    }
    assert module_homology_table(total).entries == module_homology_table(t).entries


def test_tensor_rejects_ideal_factors_and_negative_degrees():
    x, y = MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(0, 1)])
    with pytest.raises(MixedKinds):
        tensor([shifted_oracle(build_s_complex([x, y], "tilde"), 2)])
    with pytest.raises(ValidationError):
        tensor([build_s_complex([x, y])])
    with pytest.raises(EmptyInput):
        tensor([])
    with pytest.raises(ValidationError):
        Multicomplex(1, 1, {(-1,): (free_summand((0,)),)}, {})


@st.composite
def factors_and_ideals(draw):
    """Two free complexes (Taylor resolutions, reduced or not) in 1-3
    variables and two coefficient ideals, the zero ideal among them."""
    n = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 2)] * n).filter(any)

    def ideal(min_size):
        return MonomialIdeal(n, draw(st.lists(exponent, min_size=min_size, max_size=3)))

    a, b = (taylor_resolution(ideal(1)) for _ in range(2))
    if draw(st.booleans()):
        a = cancel_units(a)
    return a, b, ideal(0), ideal(0)


@settings(deadline=None)
@given(factors_and_ideals())
def test_tensor_with_cyclic_factors_matches_with_coefficient(case):
    """A cyclic factor R/J carries J into every product summand, so the
    total is the free total tensored with R/J, and with R/(J + K) when the
    other factor is cyclic over K."""
    a, b, j, k = case
    free_total = tensor([a, b]).total
    for fld in (GF(2), GF()):
        assert module_homology_table(tensor([with_coefficient(a, j), b]).total, fld) \
            == module_homology_table(with_coefficient(free_total, j), fld)
        both = tensor([with_coefficient(a, j), with_coefficient(b, k)]).total
        assert module_homology_table(both, fld) == module_homology_table(
            with_coefficient(free_total, combine([j, k], "sum")), fld)


@st.composite
def tensor_factors(draw):
    """1-3 factors in one variable count of 1-3, each a Taylor resolution,
    a reduced resolution, a one-summand complex R/J, the P complex or the
    S_- complex of a family of 2-3 ideals."""
    n = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    ideals = st.lists(exponent, min_size=1, max_size=3).map(
        lambda gens: MonomialIdeal(n, gens))

    def factor():
        build = draw(st.sampled_from(["taylor", "reduced", "quotient", "p", "s_minus"]))
        if build == "taylor":
            return taylor_resolution(draw(ideals))
        if build == "reduced":
            return resolution(draw(ideals))
        if build == "quotient":
            return GradedComplex(n, {0: (summand(draw(ideals)),)}, {})
        family = draw(st.lists(ideals, min_size=2, max_size=3))
        if build == "p":
            return build_p_complex(family)
        return mv_total_complex("sum_to_product", family).total

    return [factor() for _ in range(draw(st.integers(1, 3)))]


@settings(deadline=None)
@given(tensor_factors())
def test_tensor_matches_the_combo_search(factors):
    """The mixed-radix entries of ``tensor`` are the ones found by scanning
    every combo and reading the acting factor's row of its summand."""
    m, want = tensor(factors), tensor_by_search(factors)
    assert m.terms == want.terms
    assert m.diffs == want.diffs


def test_hypercube_augment_composes_psi_once(monkeypatch):
    """Only the top vertex (1, ..., 1) gets the corner in the augmentation,
    so psi is composed there alone: one ``_compose_chain`` call per
    ``hypercube_augment`` on a 3-axis tensor, against one per vertex of the
    unit cube for ``hypercube_extend``."""
    m = tensor([res((1, 0), (0, 1)), res((1, 1), (2, 0)), res((0, 2), (1, 0))])
    compose = multicomplex._compose_chain
    calls = []

    def counted(*args):
        calls.append(args[1])
        return compose(*args)

    monkeypatch.setattr(multicomplex, "_compose_chain", counted)
    hypercube_augment(m)
    assert calls == [(1, 1, 1)]
    calls.clear()
    hypercube_extend(m)
    assert len(calls) == 8


@settings(deadline=None)
@given(tensor_factors())
def test_hypercube_augment_matches_the_two_step_build(factors):
    m = tensor(factors)
    aug, want = hypercube_augment(m), augment_in_two_steps(m)
    assert aug.terms == want.terms
    assert aug.d == want.d


@settings(deadline=None)
@given(tensor_factors(), st.integers(0, 3))
def test_one_summand_quotient_factor_is_with_coefficient(factors, seed):
    """Tensoring a total with the one-summand complex R/J gives the terms,
    order and entries of the summandwise coefficient quotient."""
    total = tensor(factors).total
    j = random_instance(seed, n_vars=total.n, n_ideals=1)[0]
    quotient = GradedComplex(total.n, {0: (summand(j),)}, {})
    got, want = tensor([total, quotient]).total, with_coefficient(total, j)
    assert got.terms == want.terms
    assert got.d == want.d


def test_axis_checks_raise_composition_nonzero():
    one = (free_summand((0,)),)
    with pytest.raises(CompositionNonzero, match="d∘d != 0 from degree 2"):
        Multicomplex(1, 1, {(0,): one, (1,): one, (2,): one},
                     {((1,), 0): {0: [(0, 1)]}, ((2,), 0): {0: [(0, 1)]}})
    square = {q: one for q in ((0, 0), (1, 0), (0, 1), (1, 1))}
    edges = {((1, 0), 0): {0: [(0, 1)]}, ((0, 1), 1): {0: [(0, 1)]},
             ((1, 1), 0): {0: [(0, 1)]}}
    Multicomplex(2, 1, square, {**edges, ((1, 1), 1): {0: [(0, 1)]}})
    with pytest.raises(CompositionNonzero, match="d∘d != 0 from degree 2"):
        Multicomplex(2, 1, square, {**edges, ((1, 1), 1): {0: [(0, -1)]}})


@st.composite
def perturbed_multicomplexes(draw):
    """A multicomplex built by ``tensor``, ``koszul_cone`` or
    ``hypercube_extend``, and its axis entries with one coefficient moved
    by 1 or 2 (an entry moved to 0 is dropped)."""
    build = draw(st.sampled_from([lambda m: m, koszul_cone, hypercube_extend]))
    m = build(tensor(draw(tensor_factors())))
    assume(m.diffs)
    key = draw(st.sampled_from(sorted(m.diffs)))
    rows = m.diffs[key]
    s, at = draw(st.sampled_from([(s, at) for s, row in rows.items()
                                  for at in range(len(row))]))
    row = list(rows[s])
    t, c = row[at]
    row[at] = (t, c + draw(st.sampled_from([-2, -1, 1, 2])))
    return m, {**m.diffs, key: {**rows, s: row}}


@settings(deadline=None)
@given(perturbed_multicomplexes())
def test_total_check_is_the_axis_conditions(case):
    """A multicomplex is refused, by its total's d∘d = 0 check, exactly
    when some axis fails to square to zero or some pair of axes fails to
    commute."""
    m, diffs = case
    assert axes_oracle(m) is None
    args = (m.n_axes, m.n_vars, m.terms, diffs)
    if axes_oracle(SimpleNamespace(n_axes=m.n_axes, terms=m.terms, diffs=diffs)) is None:
        Multicomplex(*args)
    else:
        with pytest.raises(CompositionNonzero):
            Multicomplex(*args)


def test_maps_that_cannot_be_axis_maps_are_refused():
    """A map is refused when an entry names a summand its source or target
    position does not have, when its key has the wrong arity, or when it
    starts at a negative coordinate or lowers a zero one; a map out of or
    into a position of N^n that holds no summand is dropped."""
    terms = {(0, 0): (free_summand((0,)),), (1, 0): (free_summand((1,)),),
             (0, 1): (free_summand((1,)),)}
    # (0, 1) holds one summand: source index 1 would land on the summand of
    # (1, 0) in the total
    for s, t in ((1, 0), (0, 1), (-1, 0)):
        with pytest.raises(ValidationError, match="outside its 1 -> 1 summands"):
            Multicomplex(2, 1, terms, {((0, 1), 1): {s: [(t, 1)]}})
    with pytest.raises(LengthMismatch, match="wrong arity"):
        Multicomplex(2, 1, terms, {((1,), 0): {0: [(0, 1)]}})
    for key in (((0, 1), 0), ((-1, 1), 1)):
        with pytest.raises(ValidationError, match=r"outside N\^n"):
            Multicomplex(2, 1, terms, {key: {0: [(0, 1)]}})
    m = Multicomplex(2, 1, terms, {((0, 1), 1): {0: [(0, 1)]},
                                   ((1, 1), 0): {0: [(0, 1)]}, ((2, 0), 0): {5: [(5, 1)]}})
    assert m.diffs == {((0, 1), 1): {0: [(0, 1)]}}


def test_inhomogeneous_axis_entry_refused_at_construction():
    """R(0) at position 1 cannot map to R(-1) at position 0."""
    with pytest.raises(ValidationError, match="inhomogeneous"):
        Multicomplex(1, 1, {(1,): (free_summand((0,)),), (0,): (free_summand((1,)),)},
                     {((1,), 0): {0: [(0, 1)]}})


def test_multicomplex_builds_its_total_once(monkeypatch):
    """Building a multicomplex builds one complex, its total, at its own
    shift.  ``hypercube_augment``, ``hypercube_extend``, ``koszul_cone``
    after it and ``build_filtration`` of every kind build no complex beyond
    the total of each multicomplex they build: ``hypercube_augment`` builds
    one multicomplex, the top level of the extension, and its total, and
    ``kcone_augmented`` one, the cone of the extension's unchecked parts."""
    factors = [res((1, 0), (0, 1)), res((1, 1), (2, 0))]
    builds = {"graded": 0, "multi": 0}

    def counted(cls, key):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            builds[key] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", wrapper)

    counted(GradedComplex, "graded")
    counted(Multicomplex, "multi")
    m = tensor(factors)
    assert builds == {"graded": 1, "multi": 1}
    cases = {
        "hypercube_augment": (lambda: hypercube_augment(m), 1),
        "hypercube_extend": (lambda: hypercube_extend(m), 1),
        "koszul_cone∘hypercube_extend":
            (lambda: koszul_cone(hypercube_extend(m), face_axes=2), 2),
        **{kind: (lambda kind=kind: build_filtration(m, kind=kind), multis)
           for kind, multis in (("kcone", 1), ("kcone_augmented", 1),
                                ("interior", 0), ("interior_augmented", 1))},
    }
    for name, (build, multis) in cases.items():
        before = dict(builds)
        build()
        assert (builds["graded"] - before["graded"],
                builds["multi"] - before["multi"]) == (multis, multis), name


@st.composite
def s_families(draw):
    """A family of 1-3 ideals in 1-3 variables, each with 1-3 generators."""
    n = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    return [MonomialIdeal(n, gens) for gens in
            draw(st.lists(st.lists(exponent, min_size=1, max_size=3),
                          min_size=1, max_size=3))]


@settings(deadline=None)
@given(tensor_factors(), s_families())
def test_totals_are_built_at_the_degrees_they_are_read(factors, family):
    """The total and layout of ``hypercube_extend(m)`` and of
    ``koszul_cone(hypercube_extend(m), face_axes=n)`` are those of the same
    positions at shift 0 moved by -1, and the S_- that ``mv_total_complex``
    builds in one pass is the cochain truncation of S moved up by n: term
    by term, entry by entry, of the quotient kind."""
    m = tensor(factors)
    for built in (hypercube_extend(m), koszul_cone(hypercube_extend(m), face_axes=m.n_axes)):
        assert built.shift == -1
        plain = Multicomplex(built.n_axes, built.n_vars, built.terms, built.diffs)
        want = shifted_oracle(plain.total, -1)
        assert built.total.terms == want.terms
        assert built.total.d == want.d
        assert built.layout == {i - 1: qs for i, qs in plain.layout.items()}
    s = build_s_complex(family)
    got = mv_total_complex("sum_to_product", family).total
    want = shifted_oracle(truncated_cochain(s), len(family))
    assert got.terms == want.terms
    assert got.d == want.d
    assert got.kind == want.kind


def test_axis_indices_are_checked():
    """An entry on an axis outside 0..n_axes - 1, and a face-axis count
    outside 0..n_axes, are refused; the cone has one axis more per face
    axis."""
    one = (free_summand((0,)),)
    for k in (-1, 1):
        with pytest.raises(ValidationError, match=rf"axis {k} outside 0\.\.0$"):
            Multicomplex(1, 1, {(0,): one, (1,): one}, {((1,), k): {0: [(0, 1)]}})
    m = tensor([res((1, 0)), res((0, 1))])
    for fa in (-1, 3):
        with pytest.raises(ParamOutOfRange, match="face_axes"):
            koszul_cone(m, face_axes=fa)
    for fa in range(3):
        assert koszul_cone(m, face_axes=fa).n_axes == 2 + fa


def _labelled_total(cone, labels):
    """The total of a Koszul cone keyed by the labels of its summands:
    {label: summand} and {(source label, target label): coefficient}."""
    terms = {}
    for i, ss in cone.total.terms.items():
        terms.update(zip(labels[i], ss, strict=True))
    assert len(terms) == sum(map(len, cone.total.terms.values())), "labels repeat"
    entries = {(labels[i][s], labels[i - 1][t]): c
               for i, rows in cone.total.d.items() for s, row in rows.items() for t, c in row}
    return terms, entries


@settings(deadline=None, max_examples=30)
@given(tensor_factors(), st.booleans(), st.data())
def test_the_cube_cone_is_the_packed_cone_reordered(factors, extend, data):
    """``koszul_cone``, one 0/1 axis per face axis, is the packed cone of
    ``packed_koszul_cone`` with the summands of each term reordered:
    labelled (q, S, index in m_q), the two totals have the same summands,
    the same entries and the same levels |S|, so the same pages, ranks and
    r_stab at every degree of the stable box over GF(2) and GF(32003).
    Both are built on a tensor and on its hypercube extension, with every
    face-axis count."""
    m = tensor(factors)
    if extend:
        m = hypercube_extend(m)
    n = m.n_axes
    fa = data.draw(st.integers(0, n), label="face_axes")
    cube, packed = koszul_cone(m, face_axes=fa), packed_koszul_cone(m, fa)
    assert (cube.n_axes, cube.shift) == (n + fa, m.shift)
    cube_labels = packed_cone_labels(cube, n, fa, packed=False)
    packed_labels = packed_cone_labels(packed, n, fa, packed=True)
    assert _labelled_total(cube, cube_labels) == _labelled_total(packed, packed_labels)
    by_cube = _by_weight(cube, lambda q: sum(q[n:]))
    by_packed = _by_weight(packed, lambda q: q[-1])
    for filtered, labels in ((by_cube, cube_labels), (by_packed, packed_labels)):
        assert filtered.levels == {i: [len(S) for _, S, _ in lab] for i, lab in labels.items()}
    for gamma in iter_box(cube.total.stable_box()):
        for fld in (GF(2), GF(32003)):
            got, want = pages(by_cube, gamma, fld), pages(by_packed, gamma, fld)
            assert (got.pages, got.ranks, got.r_stab) == (want.pages, want.ranks, want.r_stab)


def test_tensor_refuses_factors_past_the_summand_bound(monkeypatch):
    """The bound is on the product of the factors' summand counts, read
    before anything is built: eight 4-summand resolutions are at it, a
    tensor at the bound is built and one past it is refused."""
    assert multicomplex.MAX_TENSOR_SUMMANDS == 4 ** 8
    monkeypatch.setattr(multicomplex, "MAX_TENSOR_SUMMANDS", 16)
    four, two = res((1, 0), (0, 1)), res((1, 1))
    assert sum(map(len, tensor([four, four]).total.terms.values())) == 16
    with pytest.raises(ParamOutOfRange, match="at most 16 summands, its factors make 32"):
        tensor([four, four, two])


def _counted_inits(mp):
    """Patch ``Multicomplex.__init__`` to count its calls in the list returned."""
    calls, init = [], Multicomplex.__init__

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        init(self, *args, **kwargs)

    mp.setattr(Multicomplex, "__init__", counted)
    return calls


def _summands(m):
    return sum(map(len, m.terms.values()))


@settings(deadline=None, max_examples=40)
@given(tensor_factors(), st.data())
def test_cones_are_refused_past_the_summand_bound(factors, data):
    """``koszul_cone`` (any face axes), ``hypercube_extend`` and the
    ``kcone_augmented`` filtration, which counts the cone of the extension
    on m, count their summands before any position is built, exactly: a
    bound at the built cone's count admits it, and one below it refuses it
    with that count, with no Multicomplex built and no corner attached
    first."""
    m = tensor(factors)
    face_axes = data.draw(st.integers(0, m.n_axes))
    for name, build in (("koszul_cone", lambda: koszul_cone(m, face_axes)),
                        ("hypercube_extend", lambda: hypercube_extend(m)),
                        ("koszul_cone",
                         lambda: build_filtration(m, kind="kcone_augmented").total)):
        size = _summands(build())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(multicomplex, "MAX_TENSOR_SUMMANDS", size)
            assert _summands(build()) == size
            mp.setattr(multicomplex, "MAX_TENSOR_SUMMANDS", size - 1)
            built, attached = _counted_inits(mp), []
            mp.setattr(multicomplex, "_attach_corner", lambda *args: attached.append(args))
            with pytest.raises(ParamOutOfRange, match=(
                    f"^{name} supports at most {size - 1} summands, its copies make {size}$")):
                build()
            assert built == [] and attached == []


def test_cones_refuse_many_axes_before_building():
    """Under the real bound, a one-summand multicomplex on 17 axes gives
    2^17 cone copies, and 2^17 corner copies plus itself to the hypercube
    extension: both are refused, and neither builds a Multicomplex."""
    m = Multicomplex(17, 1, {(0,) * 17: [free_summand((0,))]}, {})
    with pytest.MonkeyPatch.context() as mp:
        built = _counted_inits(mp)
        with pytest.raises(ParamOutOfRange, match=f"^koszul_cone supports at most "
                           f"{multicomplex.MAX_TENSOR_SUMMANDS} summands, its copies make "
                           f"{2 ** 17}$"):
            koszul_cone(m)
        with pytest.raises(ParamOutOfRange, match=f"its copies make {2 ** 17 + 1}$"):
            hypercube_extend(m)
        assert built == []


def test_tensor_of_variable_koszuls_totalizes_to_joint_koszul():
    kx = taylor_resolution(MonomialIdeal.variables(2, [0]))
    ky = taylor_resolution(MonomialIdeal.variables(2, [1]))
    total = tensor([kx, ky]).total
    joint = taylor_resolution(MonomialIdeal.variables(2, [0, 1]))
    assert module_homology_table(total).entries == module_homology_table(joint).entries
    assert {i: len(ss) for i, ss in total.terms.items()} == {0: 1, 1: 2, 2: 1}


def test_totalize_signs_square_to_zero():
    # three dependent factors make every mixed square appear; building the
    # multicomplex builds its total, whose constructor checks d∘d = 0
    tensor([res((1, 0, 0), (0, 1, 0)), res((0, 1, 1)), res((1, 0, 1))])


def test_totalize_shift():
    m = tensor([res((1, 0)), res((0, 1))])
    shifted = Multicomplex(m.n_axes, m.n_vars, m.terms, m.diffs, shift=-1)
    assert min(m.total.window()) == 0
    assert min(shifted.total.window()) == -1
    assert shifted.layout == {i - 1: qs for i, qs in m.layout.items()}


@pytest.mark.parametrize("shift", [0, -1])
@pytest.mark.parametrize("build, own_shift", [
    (lambda m: m, 0),
    (koszul_cone, 0),
    (lambda m: koszul_cone(hypercube_extend(m), face_axes=m.n_axes), -1),
    (hypercube_extend, -1),
], ids=["tensor", "kcone", "kcone_extended", "extended"])
def test_totalize_follows_layout(build, own_shift, shift):
    """layout lists each summand of m once, positions in sorted order and
    the summands of each in their order, in degree |q| + m.shift; term i
    of the total is those very summands in that order.  A multicomplex
    extended by ``hypercube_extend`` sits one shift below its input; each
    is checked as built and rebuilt ``shift`` lower."""
    for seed, n_ideals in ((0, 2), (1, 2), (2, 3)):
        family = random_instance(seed, n_vars=2, n_ideals=n_ideals, max_gens=2, max_exp=2)
        built = build(tensor([resolution(i) for i in family]))
        assert built.shift == own_shift
        m = Multicomplex(built.n_axes, built.n_vars, built.terms, built.diffs,
                         own_shift + shift)
        listed, total = m.layout, m.total
        assert set(listed) == set(total.terms)
        assert sorted(q for qs in listed.values() for q in qs) == sorted(
            q for q, ss in m.terms.items() for _ in ss)
        for i, qs in listed.items():
            assert qs == sorted(qs) and all(sum(q) + m.shift == i for q in qs)
            expected = [s for q in dict.fromkeys(qs) for s in m.terms[q]]
            assert len(total.terms[i]) == len(expected)
            assert all(a is b for a, b in zip(total.terms[i], expected))


def test_hypercube_augment_one_axis():
    # +C over a single axis glues the resolution back together
    m = tensor([res((1,))])
    aug = hypercube_augment(m)
    table = module_homology_table(aug)
    assert table.records() == [{"i": 0, "degree": [0], "dim": 1}]
    # with no axis, the interior is m_() itself, joined to the corner m_()
    # by the identity: R -> R one index down, exact everywhere
    aug = hypercube_augment(Multicomplex(0, 1, {(): m.terms[(0,)]}, {}))
    assert aug.terms == {0: m.terms[(0,)], -1: m.terms[(0,)]}
    assert aug.d == {0: {0: [(0, 1)]}}
    assert module_homology_table(aug).entries == {}


def test_hypercube_augment_two_principal():
    """H_1 has the R/(xy) pattern and nothing else, over every field: psi,
    the identity of the corner composed with the axis maps, has unit
    coefficients, so even over GF(2) it stays nonzero."""
    m = tensor([res((1, 0)), res((0, 1))])
    aug = hypercube_augment(m)
    prod = MonomialIdeal(2, [(1, 1)])
    for p in (2, 3, 32003):
        table = module_homology_table(aug, GF(p))
        assert table.nonzero_indices() == [1]
        for gamma in iter_box(table.box):
            assert table.dim(1, gamma) == (0 if prod.contains(gamma) else 1)


def test_hypercube_augment_maximal_ideal_pair():
    m2 = MonomialIdeal(2, [(1, 0), (0, 1)])
    m = tensor([taylor_resolution(m2), taylor_resolution(m2)])
    aug = hypercube_augment(m)
    table = module_homology_table(aug)
    # kernel of m (x) m -> m^2 is one-dimensional, in degree (1,1)
    assert table.slice(2) == {(1, 1): 1}


def test_hypercube_extension_preserves_homology():
    """H(+C) = H(C): the extension glues an exact cube on top."""
    fams = [
        [(1, 0), (0, 1)],
        [(2, 0), (1, 1)],
    ]
    m = tensor([res(*fams[0]), res(*fams[1])])
    plain = m.total
    extended = hypercube_extend(m).total
    t1 = module_homology_table(plain)
    t2 = module_homology_table(extended, box=t1.box)
    assert t1.entries == t2.entries


def test_totalize_tensor_taylor_pair_tor1():
    """Tor_1 of R/(x,y) and R/(x) is (I cap J)/IJ = (x)/(x^2, xy)."""
    m = tensor([res((1, 0), (0, 1)), res((1, 0))])
    table = module_homology_table(m.total)
    assert table.slice(1) == {(1, 0): 1}


def test_stability_of_multicomplex_fibers():
    m = tensor([res((1, 0), (0, 1)), res((2, 0))])
    total = m.total
    box = total.stable_box()
    big = Multidegree(tuple(b + 2 for b in box))
    table = module_homology_table(total, box=big)
    for gamma in iter_box(big):
        clamped = tuple(min(g, b) for g, b in zip(gamma, box))
        for i in total.window():
            assert table.dim(i, gamma) == table.dim(i, clamped)
