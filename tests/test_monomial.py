"""Multidegrees, monomial ideals, lattice operations, Krull dimension."""

import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (
    add_by_zip,
    lcm_by_zip,
    leq_by_zip,
    membership_by_leq,
    pair_intersection,
    sub_by_zip,
)
from homotor.errors import (
    EmptyInput,
    HomotorError,
    InvalidKind,
    LengthMismatch,
    ParamOutOfRange,
    UnitIdeal,
    ValidationError,
)
from homotor.monomial import (
    MAX_BOX_POINTS,
    MAX_VARS_FOR_DIMENSION,
    MonomialIdeal,
    Multidegree,
    combine,
    iter_box,
    lcm_deg,
    membership,
    quotient_dimension,
    subfamilies,
)

degrees2 = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(Multidegree)
ideals2 = st.lists(degrees2.filter(lambda d: d.total() > 0), min_size=1, max_size=3).map(
    lambda gens: MonomialIdeal(2, gens)
)


def test_lcm_examples():
    assert lcm_deg(Multidegree((2, 0)), Multidegree((1, 1))) == (2, 1)
    assert lcm_deg(Multidegree((0, 0)), Multidegree((3, 1))) == (3, 1)
    assert lcm_deg(Multidegree((1, 2, 0)), Multidegree((1, 0, 2))) == (1, 2, 2)
    with pytest.raises(LengthMismatch):
        lcm_deg(Multidegree((1,)), Multidegree((1, 2)))


def test_multidegree_validation():
    with pytest.raises(ValidationError):
        Multidegree((-1, 0))
    with pytest.raises(ValidationError):
        Multidegree((1, 0)).sub(Multidegree((2, 0)))


def test_a_non_integer_exponent_is_refused_not_truncated():
    """``int`` would read (0.5, 1) as (0, 1), making this ideal (y), and
    (1.7, 0) as (1, 0); both are refused, as is a degree that is no
    sequence at all.  numpy integers pass, as ints."""
    with pytest.raises(ValidationError, match=r"^exponent 0\.5 is not an integer$"):
        MonomialIdeal(2, [(0.5, 1)])
    with pytest.raises(ValidationError, match=r"^exponent 1\.7 is not an integer$"):
        Multidegree((1.7, 0))
    for exponents in (1.5, 3, None):
        with pytest.raises(ValidationError, match="are not a sequence"):
            Multidegree(exponents)
    m = Multidegree((np.int64(1), np.uint8(2)))
    assert m == (1, 2) and all(type(e) is int for e in m)
    assert MonomialIdeal(np.int32(2), [m]) == MonomialIdeal(2, [(1, 2)])


def test_variable_indices_outside_the_ring_are_refused():
    """A variable index outside 0..n-1 names no variable: it is refused,
    with that range, not read as the degree 0 (which would make the unit
    ideal)."""
    assert MonomialIdeal.variables(2, [1]) == MonomialIdeal(2, [(0, 1)])
    for i in (5, 2, -1):
        with pytest.raises(ParamOutOfRange, match=rf"variable index {i} outside 0\.\.1$"):
            Multidegree.unit(2, i)
        with pytest.raises(ParamOutOfRange, match=r"outside 0\.\.1$"):
            MonomialIdeal.variables(2, [0, i])


def test_ideal_equality_and_hash_read_the_variable_count_and_generators():
    """Ideals are equal when their variable counts and minimal generators
    are, and hash as the plain tuple (n, generator tuples), so the order of
    every set and dict of ideals is that of those tuples."""
    a = MonomialIdeal(2, [(1, 0), (0, 1), (1, 1)])
    assert a == MonomialIdeal(2, [(0, 1), (1, 0)])
    assert a != MonomialIdeal(2, [(1, 0)]) and a != a.gens
    assert MonomialIdeal.zero(2) != MonomialIdeal.zero(3)
    assert hash(a) == hash((2, ((0, 1), (1, 0))))


def test_membership_examples():
    x = MonomialIdeal(2, [(1, 0)])
    assert membership((1, 0), x)
    assert not membership((0, 5), x)
    i = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert membership((2, 1), i)
    with pytest.raises(LengthMismatch, match="degree length 1 != 2"):
        membership((1,), x)
    for member in (membership, lambda g, ideal: ideal.contains(g)):
        with pytest.raises(ValidationError, match="negative exponent"):
            member((2, -3), x)


def test_minimalization():
    i = MonomialIdeal(2, [(1, 0), (2, 0), (1, 1)])
    assert [tuple(g) for g in i.gens] == [(1, 0)]
    assert MonomialIdeal.unit(2).is_unit()
    assert MonomialIdeal.zero(2).is_zero()


def test_combine_examples():
    x = MonomialIdeal(2, [(1, 0)])
    y = MonomialIdeal(2, [(0, 1)])
    m = MonomialIdeal(2, [(1, 0), (0, 1)])
    assert combine([x, y], "sum") == m
    assert combine([x, y], "product") == MonomialIdeal(2, [(1, 1)])
    assert pair_intersection(m, x) == x
    with pytest.raises(EmptyInput):
        combine([], "sum")
    with pytest.raises(InvalidKind):
        combine([x, y], "intersection")


def test_combine_with_degenerate_ideals():
    x = MonomialIdeal(2, [(1, 0)])
    zero = MonomialIdeal.zero(2)
    assert combine([x, zero], "sum") == x
    assert combine([x, zero], "product").is_zero()
    assert pair_intersection(x, zero).is_zero()


def _sum(ideals):
    return combine(ideals, "sum")


def _intersection(ideals):
    return reduce(pair_intersection, ideals)


@given(st.lists(ideals2, min_size=1, max_size=3), st.sampled_from([_sum, _intersection]))
def test_combine_idempotent_commutative(ideals, op):
    base = op(ideals)
    assert op(ideals + [ideals[0]]) == base  # idempotent
    assert op(list(reversed(ideals))) == base  # commutative
    if len(ideals) == 3:
        left = op([op(ideals[:2]), ideals[2]])
        assert left == base  # associative on generator sets


@given(ideals2, ideals2)
def test_product_inside_intersection(i, j):
    prod = combine([i, j], "product")
    inter = pair_intersection(i, j)
    for g in prod.gens:
        assert membership(g, inter)
    for g in inter.gens:
        assert membership(g, i)


def test_quotient_dimension_examples():
    assert quotient_dimension(MonomialIdeal(2, [(1, 1)])) == (1, 1)
    assert quotient_dimension(MonomialIdeal(2, [(1, 0), (0, 1)])) == (0, 2)
    assert quotient_dimension(MonomialIdeal(2, [(2, 0), (1, 1)])) == (1, 1)
    assert quotient_dimension(MonomialIdeal.zero(3)) == (3, 0)
    with pytest.raises(UnitIdeal):
        quotient_dimension(MonomialIdeal.unit(2))
    # the search takes up to MAX_VARS_FOR_DIMENSION variables, and no more
    x0 = [(1,) + (0,) * (MAX_VARS_FOR_DIMENSION - 1)]
    assert quotient_dimension(MonomialIdeal(MAX_VARS_FOR_DIMENSION, x0)) == (
        MAX_VARS_FOR_DIMENSION - 1, 1)
    with pytest.raises(ParamOutOfRange, match="at most"):
        quotient_dimension(MonomialIdeal(MAX_VARS_FOR_DIMENSION + 1, [x0[0] + (0,)]))


@given(st.lists(
    st.tuples(*(st.integers(0, 2) for _ in range(4))).map(Multidegree)
    .filter(lambda d: d.total() > 0),
    min_size=1, max_size=4,
))
def test_quotient_dimension_against_prime_enumeration(gens):
    """dim R/I = max dimension of a coordinate prime containing I."""
    ideal = MonomialIdeal(4, gens)
    best = -1
    for r in range(5):
        for s in itertools.combinations(range(4), r):
            # prime (x_i : i not in s) contains I iff no generator lives on s
            if all(not g.support() <= set(s) for g in ideal.gens):
                best = max(best, len(s))
    dim, codim = quotient_dimension(ideal)
    assert dim == best
    assert codim == 4 - best


def test_iter_box_refuses_more_than_max_box_points_when_called():
    assert MAX_BOX_POINTS == 1000 * 1000
    iter_box((999, 999))  # exactly MAX_BOX_POINTS degrees: accepted, not walked
    with pytest.raises(ParamOutOfRange, match="1001000 degrees"):
        iter_box((999, 1000))
    with pytest.raises(ParamOutOfRange):
        iter_box((100000, 100000, 100000))


def test_iter_box_order():
    cells = list(iter_box((1, 1)))
    assert cells == [(0, 0), (0, 1), (1, 0), (1, 1)]


@given(st.lists(st.integers(0, 9), max_size=6),
       st.lists(st.integers(0, 7), max_size=4, unique=True))
def test_subfamilies_visit_by_size_then_lexicographically(members, sizes):
    """Every subset whose size is listed, by size in the order given, then
    in lexicographic order of the indices, each with the tuple of its
    members: against the subsets read off the bits of 0 .. 2^n - 1."""
    n = len(members)
    subsets = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
    want = [(s, tuple(members[i] for i in s))
            for size in sizes for s in sorted(s for s in subsets if len(s) == size)]
    assert list(subfamilies(members, sizes)) == want


def test_subfamilies_is_lazy():
    """The walk reads a size only when it reaches it, so a scan that stops
    at its first hit visits no later subset."""
    read = []
    walk = subfamilies("abc", (read.append(size) or size for size in range(1, 4)))
    assert read == []
    assert next(walk) == ((0,), ("a",)) and read == [1]
    assert [indices for indices, _ in walk][2:4] == [(0, 1), (0, 2)] and read == [1, 2, 3]


def _outcome(f, *args):
    """(type, value) of f(*args), or (error class, message) if it raises a
    HomotorError."""
    try:
        value = f(*args)
    except HomotorError as exc:
        return type(exc), str(exc)
    return type(value), value


def _vectors(n, low=0):
    return st.lists(st.integers(low, 5), min_size=n, max_size=n).map(tuple)


@st.composite
def operand_pairs(draw):
    """(a, b): a Multidegree with n in 0..4 and exponents 0..5; b mostly of
    the same length, either a Multidegree or a plain tuple that may hold
    negative entries."""
    n = draw(st.integers(0, 4))
    m = draw(st.sampled_from([n, n, n, (n + 1) % 5]))
    a = Multidegree(draw(_vectors(n)))
    if draw(st.booleans()):
        return a, Multidegree(draw(_vectors(m)))
    return a, draw(_vectors(m, low=-5))


@given(operand_pairs())
def test_degree_arithmetic_matches_the_generator_oracles(case):
    """leq, add, sub and lcm_deg give what the generator-based references
    give: the same value, of exact type Multidegree, or the same error class
    and message (a negative entry of a plain operand, a negative difference,
    a length mismatch)."""
    a, b = case
    for fast, slow in ((Multidegree.leq, leq_by_zip), (Multidegree.add, add_by_zip),
                       (Multidegree.sub, sub_by_zip), (lcm_deg, lcm_by_zip)):
        assert _outcome(fast, a, b) == _outcome(slow, a, b)
    assert _outcome(lcm_deg, b, a) == _outcome(lcm_by_zip, b, a)
    assert _outcome(lcm_deg, b, b) == _outcome(lcm_by_zip, b, b)
    assert _outcome(Multidegree.zero, len(a)) == (Multidegree, (0,) * len(a))


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.lists(_vectors(n).map(Multidegree), max_size=3),
    _vectors(n, low=-5) | _vectors(n).map(Multidegree) | _vectors((n + 1) % 5),
)))
def test_membership_matches_the_generator_oracle(case):
    """Minimal generators and membership of a degree, a plain tuple with
    negative entries or one of another length included, are what the
    references give."""
    gens, gamma = case
    n = len(gens[0]) if gens else len(gamma)
    ideal = MonomialIdeal(n, gens)
    assert ideal.gens == tuple(sorted(set(
        g for g in gens if not any(h != g and leq_by_zip(h, g) for h in gens))))
    assert _outcome(membership, gamma, ideal) == _outcome(membership_by_leq, gamma, ideal)


@given(st.integers(0, 4).flatmap(lambda n: _vectors(n, low=-5)))
def test_a_multidegree_is_validated_once(exps):
    """The constructor validates outside values, with the same error as
    before, and returns a Multidegree argument itself."""
    if min(exps, default=0) < 0:
        with pytest.raises(ValidationError, match="negative exponent in"):
            Multidegree(exps)
        with pytest.raises(ValidationError, match="negative exponent in"):
            Multidegree(list(exps))
        return
    m = Multidegree(exps)
    assert type(m) is Multidegree and m == exps
    assert Multidegree(m) is m
    assert Multidegree(list(m)) == m and Multidegree(list(m)) is not m
    box = list(iter_box(m))
    assert box == [Multidegree(t) for t in itertools.product(*(range(e + 1) for e in m))]
    assert all(type(g) is Multidegree for g in box)
