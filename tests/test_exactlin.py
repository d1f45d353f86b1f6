"""Exact GF(p) linear algebra: ranks by pivot pairs, and fiber homology."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import free_complex, pivot_pairs_scaled
from homotor.errors import ValidationError
from homotor.exactlin import GF, PrimeField, pivot_pairs

LARGEST_PRIME = 2**31 - 1


def test_prime_field_rejects_composites():
    """Every characteristic below 2,000 is accepted exactly when a sieve
    finds it prime, squares of primes and odd composites with no factor 3
    included, and the envelope ends below 2^31."""
    sieve = [False, False] + [True] * 1998
    for k in range(2, 45):
        sieve[k * k::k] = [False] * len(sieve[k * k::k])
    for n, prime in enumerate(sieve):
        if prime:
            assert PrimeField(n).p == n
        else:
            with pytest.raises(ValidationError):
                PrimeField(n)
    # the supported envelope ends below 2^31
    assert PrimeField(LARGEST_PRIME).p == LARGEST_PRIME
    with pytest.raises(ValidationError):
        PrimeField(4294967311)
    assert GF().p == 32003


def _rank(a, p):
    """The rank over GF(p) of the integer rows a: the number of pivot pairs
    of their nonzero entries mod p."""
    rows = [(r, {c: v % p for c, v in enumerate(row) if v % p}) for r, row in enumerate(a)]
    return len(pivot_pairs(rows, p))


def test_rank_identity_and_zero():
    assert _rank([[1, 0], [0, 1]], 5) == 2
    assert _rank([[0] * 4] * 3, 5) == 0


def test_rank_dependent_rows_mod7():
    # [[1,2],[2,4]]: second row is twice the first, rank 1 by hand reduction
    assert _rank([[1, 2], [2, 4]], 7) == 1


def test_rank_characteristic_matters():
    # [[2]] over GF(2) is the zero matrix
    assert _rank([[2]], 2) == 0
    assert _rank([[2]], 3) == 1


def test_pivot_pairs_take_rows_in_the_given_order():
    """Each row becomes the pivot row of its lowest column left after
    reduction; a row that reduces to zero pairs with nothing."""
    rows = [("a", {0: 1, 1: 1}), ("b", {0: 2, 1: 2}), ("c", {1: 3, 2: 1})]
    assert pivot_pairs(rows, 5) == [("a", 0), ("c", 1)]
    rows = [("c", {1: 3, 2: 1}), ("b", {0: 2, 1: 2}), ("a", {0: 1, 1: 1})]
    assert pivot_pairs(rows, 5) == [("c", 1), ("b", 0)]


@settings(max_examples=150)
@given(st.sampled_from([2, 3, 32003]), st.data())
def test_unscaled_pivot_rows_give_the_scaled_kernels_pairs(p, data):
    """Keeping each pivot row as reduced, with the inverse of its lowest
    entry, gives the pairs of the kernel that stores a copy scaled to 1,
    for rows taken in the order given: the same rows become the pivot rows
    of the same columns, in the same order."""
    rows = data.draw(st.lists(st.dictionaries(st.integers(0, 7), st.integers(1, p - 1),
                                              max_size=6), max_size=10))
    assert pivot_pairs([(k, dict(r)) for k, r in enumerate(rows)], p) == \
        pivot_pairs_scaled([(k, dict(r)) for k, r in enumerate(rows)], p)


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 6)),
        max_size=18,
    )
)
def test_rank_transpose_invariant(entries):
    a = [[0] * 6 for _ in range(6)]
    for r, c, v in entries:
        a[r][c] = v
    assert _rank(a, 7) == _rank(list(zip(*a)), 7)


@st.composite
def dense_matrices(draw, max_rows, max_cols, values):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    row = st.lists(values, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@settings(deadline=None)
@given(dense_matrices(4, 5, st.integers(-6, 6)))
def test_rank_counts_the_row_space(a):
    """Over GF(5) the row space of a rank-r matrix has exactly 5^r vectors."""
    p = 5
    span = {
        tuple(sum(k * x for k, x in zip(ks, col)) % p for col in zip(*a))
        for ks in itertools.product(range(p), repeat=len(a))
    }
    assert p ** _rank(a, p) == len(span)


def _rank_over_rationals(a):
    rows = [[Fraction(v) for v in row] for row in a]
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


@settings(deadline=None)
@given(dense_matrices(6, 6, st.integers(0, 3)))
def test_rank_at_the_largest_prime_matches_the_rationals(a):
    """Every minor of a matrix of size at most 6x6 with entries 0..3 is below
    6!*3^6 < p in absolute value, so it vanishes mod p exactly when it
    vanishes over Q."""
    assert _rank(a, LARGEST_PRIME) == _rank_over_rationals(a)


@st.composite
def redundant_matrices(draw):
    """Up to 8 rows of length at most 4: up to 4 rows with entries 0..3, and
    copies or pairwise sums of them, shuffled."""
    cols = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, 3), min_size=cols, max_size=cols)
    base = draw(st.lists(row, min_size=1, max_size=4))
    pick = st.integers(0, len(base) - 1)
    derived = draw(st.lists(st.tuples(pick, pick, st.booleans()),
                            max_size=8 - len(base)))
    rows = base + [
        base[i] if copy else [x + y for x, y in zip(base[i], base[j])]
        for i, j, copy in derived
    ]
    return [rows[k] for k in draw(st.permutations(range(len(rows))))]


@settings(deadline=None)
@given(redundant_matrices())
def test_rank_of_tall_redundant_matrices_matches_the_rationals(a):
    """Rows that reduce to zero against the earlier pivots.  Entries are at
    most 6, so every minor is below 4!*6^4 < p in absolute value."""
    assert _rank(a, LARGEST_PRIME) == _rank_over_rationals(a)


def _two_term(dim_hi, dim_lo, entries):
    return free_complex({0: dim_lo, 1: dim_hi}, {1: entries})


def test_homology_identity_complex():
    c = _two_term(1, 1, [(0, 0, 1)])
    assert c.homology_at((0,)) == {0: 0, 1: 0}


def test_homology_zero_differentials():
    c = free_complex({0: 2, 1: 3, 2: 1}, {})
    assert c.homology_at((0,)) == {0: 2, 1: 3, 2: 1}


def test_homology_koszul_xy_fiber():
    # Koszul complex on x, y evaluated at degree (1,1): all summands alive,
    # d2 = (y, -x) pattern and d1 = (x y); brute-force ranks give H = 0
    f = GF()
    c = free_complex(
        {0: 1, 1: 2, 2: 1},
        {1: [(0, 0, 1), (0, 1, 1)], 2: [(0, 0, 1), (1, 0, -1)]},
    )
    assert c.homology_at((0,), f) == {0: 0, 1: 0, 2: 0}


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 4)),
        max_size=10,
    )
)
def test_euler_characteristic(entries):
    """Alternating sums of term and homology dimensions agree."""
    merged = {}
    for r, c, v in entries:
        merged[(r, c)] = v
    c = free_complex({0: 4, 1: 4}, {1: [(r, c, v) for (r, c), v in merged.items()]})
    h = c.homology_at((0,), GF(5))
    assert len(c.summands(0)) - len(c.summands(1)) == h[0] - h[1]


def test_homology_invariant_under_permutation():
    f = GF()
    base = free_complex(
        {0: 2, 1: 2},
        {1: [(0, 0, 1), (0, 1, 2), (1, 1, 1)]},
    )
    # permute both bases by the swap (0 1)
    permuted = free_complex(
        {0: 2, 1: 2},
        {1: [(1, 1, 1), (1, 0, 2), (0, 0, 1)]},
    )
    assert base.homology_at((0,), f) == permuted.homology_at((0,), f)
