"""Multidegrees and monomial ideals under the fine Z^n grading.

A multidegree is the exponent vector of a monomial; a monomial ideal is the
minimal antichain of generator multidegrees.  Minimalization happens eagerly
at every construction since all downstream complexes are sized by generator
counts.
"""

from __future__ import annotations

import itertools
from functools import reduce

from .errors import EmptyInput, LengthMismatch, ParamOutOfRange, UnitIdeal

MAX_VARS_FOR_DIMENSION = 16


class Multidegree(tuple):
    """An exponent vector in N^n.

    Subclasses tuple so it hashes and indexes like one.  Componentwise order
    is exposed through named methods; the inherited comparison operators
    remain lexicographic and are not used for divisibility.
    """

    def __new__(cls, exponents):
        exps = tuple(int(e) for e in exponents)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        return super().__new__(cls, exps)

    @property
    def n(self) -> int:
        return len(self)

    def leq(self, other) -> bool:
        """Componentwise <=, i.e. self divides other as monomials."""
        self._match(other)
        return all(a <= b for a, b in zip(self, other))

    def add(self, other) -> "Multidegree":
        self._match(other)
        return Multidegree(a + b for a, b in zip(self, other))

    def sub(self, other) -> "Multidegree":
        self._match(other)
        diff = [a - b for a, b in zip(self, other)]
        if any(d < 0 for d in diff):
            raise ValueError(f"{self} - {other} leaves N^n")
        return Multidegree(diff)

    def support(self) -> frozenset:
        return frozenset(i for i, e in enumerate(self) if e)

    def total(self) -> int:
        return sum(self)

    def _match(self, other):
        if len(self) != len(other):
            raise LengthMismatch(f"lengths {len(self)} and {len(other)} differ")

    @classmethod
    def zero(cls, n: int) -> "Multidegree":
        return cls((0,) * n)

    @classmethod
    def unit(cls, n: int, i: int) -> "Multidegree":
        return cls(tuple(1 if j == i else 0 for j in range(n)))


def lcm_deg(a: Multidegree, b: Multidegree) -> Multidegree:
    """Componentwise maximum (the lcm of the two monomials)."""
    if len(a) != len(b):
        raise LengthMismatch(f"lengths {len(a)} and {len(b)} differ")
    return Multidegree(max(x, y) for x, y in zip(a, b))


class GradingMap:
    """An integer d x n matrix projecting fine degrees into G = Z^d."""

    def __init__(self, matrix):
        rows = [tuple(int(v) for v in row) for row in matrix]
        if not rows:
            raise EmptyInput("grading matrix needs at least one row")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise LengthMismatch("ragged grading matrix")
        self.matrix = tuple(rows)
        self.d = len(rows)
        self.n = widths.pop()

    def apply(self, gamma) -> tuple:
        if len(gamma) != self.n:
            raise LengthMismatch(f"degree length {len(gamma)} != {self.n}")
        return tuple(sum(r[j] * gamma[j] for j in range(self.n)) for r in self.matrix)


def _minimalize(gens):
    """Drop generators divisible by another; deduplicate; sort for determinism."""
    uniq = sorted(set(gens))
    return tuple(g for g in uniq if not any(h != g and h.leq(g) for h in uniq))


class MonomialIdeal:
    """A monomial ideal, stored as its minimal generator antichain.

    The zero ideal is the empty generator set; the unit ideal is {0}.
    """

    __slots__ = ("n", "gens")

    def __init__(self, n: int, generators=()):
        self.n = int(n)
        gens = []
        for g in generators:
            g = g if isinstance(g, Multidegree) else Multidegree(g)
            if g.n != self.n:
                raise LengthMismatch(
                    f"generator {tuple(g)} has length {g.n}, expected {self.n}"
                )
            gens.append(g)
        self.gens = _minimalize(gens)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return bool(self.gens) and self.gens[0].total() == 0

    def contains(self, gamma) -> bool:
        return membership(gamma, self)

    # -- plumbing ------------------------------------------------------------

    def key(self):
        return (self.n, tuple(tuple(g) for g in self.gens))

    def __eq__(self, other):
        return isinstance(other, MonomialIdeal) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"MonomialIdeal(n={self.n}, gens={[tuple(g) for g in self.gens]})"

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls(n, ())

    @classmethod
    def unit(cls, n: int) -> "MonomialIdeal":
        return cls(n, (Multidegree.zero(n),))

    @classmethod
    def variables(cls, n: int, indices) -> "MonomialIdeal":
        """The ideal generated by the listed variables."""
        return cls(n, (Multidegree.unit(n, i) for i in indices))


def membership(gamma, ideal: MonomialIdeal) -> bool:
    """True iff x^gamma lies in the ideal (some generator divides gamma)."""
    if len(gamma) != ideal.n:
        raise LengthMismatch(f"degree length {len(gamma)} != {ideal.n}")
    return any(g.leq(gamma) for g in ideal.gens)


def _pair_intersection(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    gens = [lcm_deg(g, h) for g in a.gens for h in b.gens]
    return MonomialIdeal(a.n, gens)


def combine(ideals, op: str) -> MonomialIdeal:
    """Minimal generators of the sum, product or intersection of a family."""
    ideals = list(ideals)
    if not ideals:
        raise EmptyInput("combine needs at least one ideal")
    n = ideals[0].n
    if any(i.n != n for i in ideals):
        raise LengthMismatch("ideals live in different variable counts")
    if op == "sum":
        return MonomialIdeal(n, [g for i in ideals for g in i.gens])
    if op == "product":
        gens = [Multidegree.zero(n)]
        for ideal in ideals:
            gens = [g.add(h) for g in gens for h in ideal.gens]
        return MonomialIdeal(n, gens)
    if op == "intersection":
        return reduce(_pair_intersection, ideals)
    raise ValueError(f"unknown combine op {op!r}")


def quotient_dimension(ideal: MonomialIdeal):
    """(Krull dim of R/I, codim of I) via minimum vertex cover of supports.

    A prime (x_i : i in T) contains I iff T covers every generator support,
    so dim R/I = n - (minimum cover size).  Exhaustive search; fine for the
    desk scales this package targets.
    """
    if ideal.is_unit():
        raise UnitIdeal("R/I is zero for the unit ideal")
    n = ideal.n
    if n > MAX_VARS_FOR_DIMENSION:
        raise ParamOutOfRange(
            f"dimension search supports at most {MAX_VARS_FOR_DIMENSION} variables"
        )
    supports = [g.support() for g in ideal.gens]
    for size in range(n + 1):
        for cover in itertools.combinations(range(n), size):
            cset = set(cover)
            if all(s & cset for s in supports):
                return n - size, size
    raise AssertionError("full variable set always covers")  # pragma: no cover


def iter_box(box) -> "itertools.product":
    """All multidegrees gamma with 0 <= gamma <= box, lexicographic order."""
    return (
        Multidegree(t)
        for t in itertools.product(*(range(b + 1) for b in box))
    )
