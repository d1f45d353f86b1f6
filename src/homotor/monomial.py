"""Multidegrees and monomial ideals under the fine Z^n grading.

A multidegree is the exponent vector of a monomial; a monomial ideal is the
minimal antichain of generator multidegrees.  Minimalization happens eagerly
at every construction since all downstream complexes are sized by generator
counts.
"""

from __future__ import annotations

import itertools
import math
import operator

from .errors import (
    BoxTooSmall,
    EmptyInput,
    InvalidKind,
    LengthMismatch,
    ParamOutOfRange,
    UnitIdeal,
    ValidationError,
    as_int,
    as_ints,
)

MAX_VARS_FOR_DIMENSION = 16

#: Most degrees a box may hold: tabulating a box of 10^6 degrees with a
#: nonzero entry at each takes 2.9 s and 318 MB (one core of a 2-vCPU Xeon
#: virtual machine), and every such figure grows with the box.
MAX_BOX_POINTS = 10**6


class Multidegree(tuple):
    """An exponent vector in N^n.

    Subclasses tuple so it hashes and indexes like one.  Componentwise order
    is exposed through named methods; the inherited comparison operators
    remain lexicographic and are not used for divisibility.

    A degree is validated where it is built from outside values: every
    exponent goes through ``errors.as_int``, and one that is not an
    integer, or is negative, raises ``ValidationError``.  A Multidegree is
    immutable and already valid, so ``Multidegree(m)`` returns ``m``
    itself, and sums (``add``), maxima (``lcm_deg``) and differences
    (``sub``, after its one sign test) of Multidegrees are built without a
    second check.  An operand that is not
    a Multidegree still goes through the validating constructor, and every
    operation still checks that the lengths match.
    """

    def __new__(cls, exponents):
        if type(exponents) is Multidegree:
            return exponents
        exps = as_ints(exponents, "exponent")
        if any(e < 0 for e in exps):
            raise ValidationError(f"negative exponent in {exps}")
        return super().__new__(cls, exps)

    @property
    def n(self) -> int:
        return len(self)

    def leq(self, other) -> bool:
        """Componentwise <=, i.e. self divides other as monomials."""
        self._match(other)
        return all(map(operator.le, self, other))

    def add(self, other) -> "Multidegree":
        self._match(other)
        exps = map(operator.add, self, other)
        return _valid(exps) if type(other) is Multidegree else Multidegree(exps)

    def sub(self, other) -> "Multidegree":
        self._match(other)
        diff = tuple(map(operator.sub, self, other))
        if min(diff, default=0) < 0:
            raise ValidationError(f"{self} - {other} leaves N^n")
        return _valid(diff) if type(other) is Multidegree else Multidegree(diff)

    def support(self) -> frozenset:
        return frozenset(i for i, e in enumerate(self) if e)

    def total(self) -> int:
        return sum(self)

    def _match(self, other):
        if len(self) != len(other):
            raise LengthMismatch(f"lengths {len(self)} and {len(other)} differ")

    @classmethod
    def zero(cls, n: int) -> "Multidegree":
        return _valid((0,) * as_int(n, "variable count"))

    @classmethod
    def unit(cls, n: int, i: int) -> "Multidegree":
        i = as_int(i, "variable index")
        if not 0 <= i < n:
            raise ParamOutOfRange(f"variable index {i} outside 0..{n - 1}")
        return _valid(1 if j == i else 0 for j in range(n))


def _valid(exponents) -> Multidegree:
    """A Multidegree of exponents known to be ints >= 0, built unchecked:
    a sum, a maximum or a sign-tested difference of Multidegrees, or the
    values of ranges from 0."""
    return tuple.__new__(Multidegree, exponents)


def lcm_deg(a: Multidegree, b: Multidegree) -> Multidegree:
    """Componentwise maximum (the lcm of the two monomials)."""
    if len(a) != len(b):
        raise LengthMismatch(f"lengths {len(a)} and {len(b)} differ")
    exps = map(max, a, b)
    return _valid(exps) if type(a) is type(b) is Multidegree else Multidegree(exps)


def _minimalize(gens):
    """Drop generators divisible by another; deduplicate; sort for determinism."""
    uniq = sorted(set(gens))
    return tuple(g for g in uniq
                 if not any(h != g and all(map(operator.le, h, g)) for h in uniq))


class MonomialIdeal:
    """A monomial ideal, stored as its minimal generator antichain.

    The zero ideal is the empty generator set; the unit ideal is {0}.
    """

    __slots__ = ("n", "gens")

    def __init__(self, n: int, generators=()):
        self.n = as_int(n, "variable count")
        gens = []
        for g in generators:
            g = Multidegree(g)
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

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal) and self.n == other.n
                and self.gens == other.gens)

    def __hash__(self):
        return hash((self.n, self.gens))

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
    gamma = check_degree(gamma, ideal.n)
    return any(all(map(operator.le, g, gamma)) for g in ideal.gens)


def check_degree(gamma, n: int) -> tuple:
    """gamma, a degree to read a complex or table at, as a tuple of ints by
    ``as_ints``, so a float or a string is refused with ``ValidationError``
    and never read; one of length other than n is refused with
    ``LengthMismatch``, one with a negative exponent with
    ``ValidationError``.  A Multidegree is valid already, so it is returned
    as it is and only its length is checked."""
    if type(gamma) is not Multidegree:
        gamma = as_ints(gamma, "degree")
    if len(gamma) != n:
        raise LengthMismatch(f"degree length {len(gamma)} != {n}")
    if type(gamma) is not Multidegree and min(gamma, default=0) < 0:
        raise ValidationError(f"negative exponent in {gamma}")
    return gamma


def refuse_unit(ideal: MonomialIdeal) -> None:
    """The one check of every module R/I a computation is built from,
    resolved or not: for the unit ideal R/I is zero."""
    if ideal.is_unit():
        raise UnitIdeal("R/I is zero for the unit ideal")


def check_family(ideals, coefficient: MonomialIdeal | None = None):
    """(The family as a list, its stability box: per variable, the sum over
    the ideals and the coefficient of their largest exponent).  Refuses, in
    order, an empty family, a unit ideal, ideals in different variable
    counts, and a unit coefficient or one, zero or not, in another one."""
    ideals = list(ideals)
    if not ideals:
        raise EmptyInput("need at least one ideal")
    for ideal in ideals:
        refuse_unit(ideal)
    n = ideals[0].n
    if any(i.n != n for i in ideals):
        raise LengthMismatch("ideals live in different variable counts")
    modules = ideals
    if coefficient is not None:
        refuse_unit(coefficient)
        if coefficient.n != n:
            raise LengthMismatch(f"coefficient in {coefficient.n} variables, not {n}")
        modules = [*ideals, coefficient]
    lcms = [map(max, zip(*m.gens)) for m in modules if m.gens]
    return ideals, _valid(map(sum, zip((0,) * n, *lcms)))


def subfamilies(members, sizes):
    """(indices, chosen) for every subset of members whose size is in
    sizes, chosen the tuple of the members at the indices: the one order
    in which the checkers visit subfamilies, by size in the order sizes
    gives, then in ``itertools.combinations`` order, which fixes the order
    of their witnesses.  Lazy, so a scan that stops early visits no more."""
    members = tuple(members)
    for size in sizes:
        for indices in itertools.combinations(range(len(members)), size):
            yield indices, tuple(members[i] for i in indices)


def dominating_box(stable: Multidegree, box=None) -> Multidegree:
    """The box a table is read over: the stable box, or a given box that
    dominates it, so that the fibre beyond the box is the fibre at min(gamma, box)."""
    if box is None:
        return stable
    box = Multidegree(box)
    if not stable.leq(box):
        raise BoxTooSmall(f"box {tuple(box)} does not dominate {tuple(stable)}")
    return box


def combine(ideals, op: str) -> MonomialIdeal:
    """Minimal generators of the sum or product of a family."""
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
    raise InvalidKind(f"unknown combine op {op!r}")


def quotient_dimension(ideal: MonomialIdeal):
    """(Krull dim of R/I, codim of I) via minimum vertex cover of supports.

    A prime (x_i : i in T) contains I iff T covers every generator support,
    so dim R/I = n - (minimum cover size).  Exhaustive search; fine for the
    desk scales this package targets.
    """
    refuse_unit(ideal)
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


def check_box_size(box) -> None:
    """Refuse a box of more than MAX_BOX_POINTS degrees with
    ``ParamOutOfRange``, before anything walks it."""
    points = math.prod(b + 1 for b in box)
    if points > MAX_BOX_POINTS:
        raise ParamOutOfRange(
            f"box {tuple(box)} holds {points} degrees, more than {MAX_BOX_POINTS}"
        )


def iter_box(box):
    """All multidegrees gamma with 0 <= gamma <= box, lexicographic order."""
    check_box_size(box)
    return map(_valid, itertools.product(*(range(b + 1) for b in box)))
