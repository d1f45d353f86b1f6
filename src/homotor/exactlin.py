"""Exact linear algebra over a prime field GF(p).

Everything downstream (homology tables, spectral sequence pages) reduces to
ranks of small matrices over GF(p).  Matrices are kept sparse as (row, col,
value) triples and eliminated with a deterministic pivot rule in Python
integers, so no product overflows for any supported p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CompositionNonzero, ValidationError

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

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(a, self.p - 2, self.p)


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
                raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")
            if v:
                key = (r, c)
                if key in merged:
                    raise ValueError(f"duplicate entry at {key}")
                merged[key] = v
        self.entries = merged

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def density(self) -> float:
        if self.rows == 0 or self.cols == 0:
            return 0.0
        return self.nnz / (self.rows * self.cols)

    def transpose(self) -> "ScalarMatrix":
        return ScalarMatrix(
            self.cols, self.rows, [(c, r, v) for (r, c), v in self.entries.items()]
        )

    def compose(self, other: "ScalarMatrix") -> "ScalarMatrix":
        """self @ other, over the integers (sparse)."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch in composition")
        by_row: dict = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc: dict = {}
        for (r, mid), v in self.entries.items():
            for c, w in by_row.get(mid, ()):
                acc[(r, c)] = acc.get((r, c), 0) + v * w
        return ScalarMatrix(
            self.rows, other.cols, [(r, c, v) for (r, c), v in acc.items() if v]
        )

    def __repr__(self):
        return f"ScalarMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def _rank_sparse(m: ScalarMatrix, p: int) -> int:
    # rows as {col: val} dicts, reduced in row order against a table of
    # pivot rows keyed by their lowest column and normalised to 1 there
    rows = {}
    for (r, c), v in m.entries.items():
        v %= p
        if v:
            rows.setdefault(r, {})[c] = v
    pivots = {}
    for r in sorted(rows):
        row = rows[r]
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], p - 2, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivot.items():
                nv = (row.get(c, 0) - factor * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return len(pivots)


def rank(m: ScalarMatrix, f: PrimeField = GF()) -> int:
    """Rank of m over GF(p); deterministic pivot order."""
    if m.nnz == 0:
        return 0
    return _rank_sparse(m, f.p)


class FiberComplex:
    """A finite complex of GF(p)-vector spaces.

    ``terms[i]`` is the dimension at homological degree i for i in a finite
    integer window; ``diffs[i]`` maps term i to term i-1.  Cochain complexes
    are stored with negated indices by their builders, so a single chain
    convention suffices here.
    """

    def __init__(self, terms: dict, diffs: dict):
        self.terms = {i: d for i, d in terms.items() if d}
        self.diffs = {}
        for i, m in diffs.items():
            src = terms.get(i, 0)
            tgt = terms.get(i - 1, 0)
            if m.cols != src or m.rows != tgt:
                raise ValueError(
                    f"differential at {i} has shape {m.rows}x{m.cols}, "
                    f"expected {tgt}x{src}"
                )
            if m.nnz:
                self.diffs[i] = m

    def window(self):
        if not self.terms:
            return range(0, 0)
        lo = min(self.terms)
        hi = max(self.terms)
        return range(lo, hi + 1)

    def dim(self, i: int) -> int:
        return self.terms.get(i, 0)

    def differential(self, i: int) -> ScalarMatrix:
        m = self.diffs.get(i)
        if m is None:
            return ScalarMatrix(self.dim(i - 1), self.dim(i))
        return m

    def check_composition(self, f: PrimeField = GF()):
        for i in list(self.diffs):
            if i - 1 in self.diffs:
                comp = self.diffs[i - 1].compose(self.diffs[i])
                if any(v % f.p for v in comp.entries.values()):
                    raise CompositionNonzero(f"d∘d != 0 between degrees {i} and {i-2}")

    def euler_characteristic(self) -> int:
        return sum(-d if i % 2 else d for i, d in self.terms.items())


def homology_dims(c: FiberComplex, f: PrimeField = GF()) -> list:
    """[(i, dim H_i)] over the window of c; raises if d∘d != 0."""
    c.check_composition(f)
    ranks = {i: rank(m, f) for i, m in c.diffs.items()}
    out = []
    for i in c.window():
        h = c.dim(i) - ranks.get(i, 0) - ranks.get(i + 1, 0)
        out.append((i, h))
    return out
