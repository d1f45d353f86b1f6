"""Exact linear algebra over a prime field GF(p).

Everything downstream reduces to one elimination of small sparse matrices
over GF(p): its rank for homology tables, its pivot pairs for spectral
sequence pages.  Matrices are kept sparse as (row, col, value) triples and
eliminated with a deterministic pivot rule in Python integers, so no
product overflows for any supported p.
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


class ScalarMatrix:
    """A sparse matrix with integer entries, reduced mod p on demand.

    Invariants: no duplicate (row, col) pairs, no stored zeros.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=()):
        self.rows = rows
        self.cols = cols
        merged: dict = {}
        for r, c, v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValidationError(f"entry ({r},{c}) outside {rows}x{cols}")
            if v:
                key = (r, c)
                if key in merged:
                    raise ValidationError(f"duplicate entry at {key}")
                merged[key] = v
        self.entries = merged

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def density(self) -> float:
        if self.rows == 0 or self.cols == 0:
            return 0.0
        return self.nnz / (self.rows * self.cols)

    def __repr__(self):
        return f"ScalarMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def pivot_pairs(rows, p: int) -> list:
    """Row echelon form over GF(p) by one deterministic rule.

    ``rows`` are (key, {col: val}) pairs with values reduced mod p, taken in
    the order given: each row is reduced against the earlier pivot rows,
    keyed by their lowest column and normalised to 1 there, until its own
    lowest column has no pivot row, and then becomes that column's pivot
    row.  Returns the (key, col) pair of every row that became a pivot row;
    there are rank many.  The row dicts are consumed.
    """
    pivots = {}
    pairs = []
    for key, row in rows:
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], p - 2, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                pairs.append((key, col))
                break
            factor = row[col]
            for c, v in pivot.items():
                nv = (row.get(c, 0) - factor * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return pairs


def _rank_sparse(m: ScalarMatrix, p: int) -> int:
    rows = {}
    for (r, c), v in m.entries.items():
        v %= p
        if v:
            rows.setdefault(r, {})[c] = v
    return len(pivot_pairs(sorted(rows.items()), p))


def rank(m: ScalarMatrix, f: PrimeField = GF()) -> int:
    """Rank of m over GF(p); deterministic pivot order."""
    if m.nnz == 0:
        return 0
    return _rank_sparse(m, f.p)
