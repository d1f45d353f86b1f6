"""Exact linear algebra over a prime field GF(p).

Everything downstream reduces to one elimination over GF(p), ``pivot_pairs``:
its pair count is the rank of a block for homology tables, its pairs the
persistence pairs of spectral sequence pages.  A block is handed over as
sparse rows, (key, {col: value}) pairs, and eliminated with a deterministic
pivot rule in Python integers, so no product overflows for any supported p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

DEFAULT_CHARACTERISTIC = 32003

#: Characteristics must lie below this bound; it also caps the cost of the
#: trial-division primality test.
MAX_CHARACTERISTIC = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for a prime p; all arithmetic is exact modulo p."""

    characteristic: int = DEFAULT_CHARACTERISTIC

    def __post_init__(self):
        p = self.characteristic
        if not isinstance(p, int) or p >= MAX_CHARACTERISTIC or not _is_prime(p):
            raise ValidationError(
                f"characteristic {p!r} is not a prime below 2^31"
            )

    @property
    def p(self) -> int:
        return self.characteristic


GF = PrimeField  # short alias used throughout the package


def pivot_pairs(rows, p: int) -> list:
    """Row echelon form over GF(p) by one deterministic rule.

    ``rows`` are (key, {col: val}) pairs with values reduced mod p, taken in
    the order given: each row is reduced against the earlier pivot rows,
    keyed by their lowest column, until its own lowest column has no pivot
    row, and then becomes that column's pivot row.  A pivot row is kept as
    it was reduced, with the inverse of its lowest entry, so a later row
    with value v at that column is reduced by the factor v * inverse; no
    scaled copy is made.  Returns the (key, col) pair of every row that
    became a pivot row; there are rank many.  The row dicts are consumed.
    """
    pivots = {}
    pairs = []
    for key, row in rows:
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = (row, pow(row[col], p - 2, p))
                pairs.append((key, col))
                break
            pivot, inv = pivot
            factor = row[col] * inv % p
            for c, v in pivot.items():
                nv = (row.get(c, 0) - factor * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return pairs
