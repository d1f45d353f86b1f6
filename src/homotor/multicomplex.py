"""N^n-indexed commuting multicomplexes of cyclic summands.

A multicomplex has one differential per axis, each lowering that coordinate
by one; all axis squares commute and each axis differential squares to zero.
Koszul signs enter only at totalization: axis k carries
(-1)^(q_1+...+q_{k-1}), and position q sits in degree |q| + shift.  A
multicomplex is checked once, as its total: the component of the total's
d∘d from q to q - 2e_k is d_k∘d_k, and the one to q - e_j - e_k is
±(d_j d_k - d_k d_j).  Distinct positions hold distinct summands, so
nothing cancels across them, and the total's d∘d = 0 (checked symbolically
over the integers by ``GradedComplex``) is exactly the axis conditions.
The total is assembled in layout order, so its rows reach ``_rows`` in
normal form and are copied in one scan.  ``koszul_cone`` also takes the
unchecked ``Parts`` of a multicomplex, whose entries its own checks cover,
so the Koszul cone of the hypercube extension is one multicomplex.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .errors import (
    EmptyInput,
    MixedKinds,
    ParamOutOfRange,
    internal,
    as_int,
    as_ints,
)
from .gcomplex import (
    IDEAL,
    GradedComplex,
    _compose,
    _product_summand,
    _rows,
)


#: Most summands a tensor, a Koszul cone or a hypercube extension is built
#: with, counted before any position is built: eight 4-summand
#: resolutions, a 9-ideal ``multi_tor``, reach it, and their tensor takes
#: 3.6 s and 325 MB to build; the ``kcone`` cone of 10 principal ideals in
#: 3 variables (3^10 = 59,049 summands) takes 9 s and 454 MB (one core of
#: a 2-vCPU Xeon virtual machine, Python 3.11).
MAX_TENSOR_SUMMANDS = 2 ** 16


def _check_summands(builder: str, parts: str, size: int):
    """Refuse a multicomplex of more than ``MAX_TENSOR_SUMMANDS`` summands."""
    if size > MAX_TENSOR_SUMMANDS:
        raise ParamOutOfRange(
            f"{builder} supports at most {MAX_TENSOR_SUMMANDS} summands, "
            f"its {parts} make {size}"
        )


#: The arguments of ``Multicomplex.__init__``, unchecked: what
#: ``koszul_cone`` reads of the multicomplex it cones.
Parts = namedtuple("Parts", "n_axes n_vars terms diffs shift")


class Multicomplex:
    """Finite family of cyclic summand terms indexed by N^n with n
    commuting differentials; ``diffs[(q, k)]`` maps term q to term q - e_k,
    in the one form of a map, {source: [(target, coefficient), ...]}.

    ``layout`` is the one order rule of the total: {i: [the position q of
    each summand of term i]}, positions in sorted order, the summands of
    each in their order, in degree |q| + shift.  ``total`` is the total
    complex in that order, built once at construction: its checks
    (homogeneity, d∘d = 0) are the multicomplex's.

    A map whose key has the wrong arity, starts or ends outside N^n or
    names a summand its positions lack is refused; one out of or into an
    empty position is dropped, so a face or an interior keeps its maps."""

    def __init__(self, n_axes: int, n_vars: int, terms: dict, diffs: dict,
                 shift: int = 0):
        self.n_axes = as_int(n_axes, "axis count", built=True)
        self.n_vars = as_int(n_vars, "variable count", built=True)
        self.terms = {}
        for q, summands in terms.items():
            q = as_ints(q, "position coordinate", built=True)
            if len(q) != self.n_axes:
                raise internal.LengthMismatch(f"position {q} has wrong arity")
            if min(q, default=0) < 0:
                raise internal.ValidationError(f"position {q} outside N^n")
            summands = tuple(summands)
            if summands:
                self.terms[q] = summands
        self.diffs = {}
        for (q, k), rows in diffs.items():
            q = as_ints(q, "position coordinate", built=True)
            k = as_int(k, "axis", built=True)
            if len(q) != self.n_axes:
                raise internal.LengthMismatch(f"map key {q} has wrong arity")
            if not 0 <= k < self.n_axes:
                raise internal.ValidationError(f"axis {k} outside 0..{self.n_axes - 1}")
            if min(q) < 0 or q[k] == 0:
                raise internal.ValidationError(f"axis {k} map out of {q} lies outside N^n")
            tgt = self._step(q, k)
            if q not in self.terms or tgt not in self.terms:
                continue
            rows = _rows(rows, len(self.terms[q]), len(self.terms[tgt]),
                         lambda: f"axis {k} map at {q}")
            if rows:
                self.diffs[(q, k)] = rows
        self.shift = as_int(shift, "shift", built=True)
        self.layout = {}
        terms: dict = {}
        start = {}  # q -> the index in its term of its first summand
        positions = sorted(self.terms)
        for q in positions:
            i = sum(q) + self.shift
            start[q] = len(terms.setdefault(i, []))
            terms[i].extend(self.terms[q])
            self.layout.setdefault(i, []).extend([q] * len(self.terms[q]))
        # the total, put together source by source in layout order, each
        # source's axes ascending: the target blocks q - e_0 < q - e_1 < ...
        # then come in layout order too, so every row of d arrives in the
        # normal form that ``_rows`` copies in one scan
        d: dict = {}
        for q in positions:
            axes = [((-1) ** (sum(q[:k]) % 2), start[self._step(q, k)], rows)
                    for k in range(self.n_axes) if (rows := self.diffs.get((q, k)))]
            if not axes:
                continue
            a, total = start[q], d.setdefault(sum(q) + self.shift, {})
            for s in range(len(self.terms[q])):
                row = [(b + t, sign * c) for sign, b, rows in axes for t, c in rows.get(s, ())]
                if row:
                    total[a + s] = row
        self.total = GradedComplex(self.n_vars, terms, d)

    @staticmethod
    def _step(q, k):
        return q[:k] + (q[k] - 1,) + q[k + 1 :]

    def __repr__(self):
        return (
            f"Multicomplex(axes={self.n_axes}, vars={self.n_vars}, "
            f"positions={len(self.terms)})"
        )


def tensor(factors) -> Multicomplex:
    """The tensor product multicomplex of chain complexes of cyclic
    summands in non-negative degrees.

    Axis k applies factor k's differential with no extra sign.  A product
    of summands R/J_k(-a_k) is R/(sum of the J_k)(-(sum of the a_k)).
    Factors whose summand counts multiply past ``MAX_TENSOR_SUMMANDS`` are
    refused before any product summand is built.
    """
    factors = list(factors)
    if not factors:
        raise EmptyInput("tensor needs at least one factor")
    for f in factors:
        if f.kind == IDEAL:
            raise MixedKinds("tensor factors must consist of cyclic summands")
        if min(f.window(), default=0) < 0:
            raise internal.ValidationError("tensor factors must live in non-negative degrees")
    _check_summands("tensor", "factors",
                    math.prod(sum(map(len, f.terms.values())) for f in factors))
    n_vars = factors[0].n
    if any(f.n != n_vars for f in factors):
        raise internal.LengthMismatch("factors live in different variable counts")
    windows = [sorted(f.terms) for f in factors]
    terms = {
        q: tuple(
            _product_summand(combo)
            for combo in itertools.product(*(f.terms[qi] for f, qi in zip(factors, q)))
        )
        for q in itertools.product(*windows)
    }
    # a summand of terms[q] is indexed by the mixed-radix number of its
    # combo, factor 0 the most significant digit: the entry s -> t of
    # factor k maps (h m_k + s) L + l to (h m'_k + t) L + l, for the digits
    # h above k and l below k, with L the number of combos below k
    diffs = {}
    for q in terms:
        sizes = [len(f.terms[qi]) for f, qi in zip(factors, q)]
        for k, f in enumerate(factors):
            rows = f.d.get(q[k])
            if not rows:
                continue
            m_src, m_tgt = sizes[k], len(f.terms[q[k] - 1])
            low = math.prod(sizes[k + 1:])
            diffs[(q, k)] = {
                (h * m_src + s) * low + l: [((h * m_tgt + t) * low + l, c) for t, c in row]
                for h in range(math.prod(sizes[:k]))
                for s, row in rows.items()
                for l in range(low)
            }
    return Multicomplex(len(factors), n_vars, terms, diffs)


def _compose_chain(m: Multicomplex, q, axes_desc) -> dict:
    """The map d_{.,a1} ∘ ... ∘ d_{q,ap} starting at position q, applying
    the axes in the order given (each step lowers that coordinate): the
    identity of m_q when no axis is given."""
    acc = {i: [(i, 1)] for i in range(len(m.terms.get(q, ())))}
    for k in axes_desc:
        acc = _compose(m.diffs.get((q, k), {}), acc)
        q = Multicomplex._step(q, k)
    return acc


def _attach_corner(m: Multicomplex, vertices):
    """The terms and axis maps of the mapping cylinder of m along one
    extra (last) axis, with the corner at the given vertices of {0, 1}^n:
    level 1 carries m, level 0 a copy of the corner term m_0 on each of
    those vertices c, joined by identity maps, and the level map out of c
    is psi(c), the composed axis map m_c -> m_0."""
    n = m.n_axes
    corner = m.terms.get((0,) * n, ())
    terms = {q + (1,): ss for q, ss in m.terms.items()}
    diffs = {(q + (1,), k): rows for (q, k), rows in m.diffs.items()}
    if corner:
        ident = {i: [(i, 1)] for i in range(len(corner))}
        for c in vertices:
            terms[c + (0,)] = corner
            for k in range(n):
                if c[k]:
                    diffs[(c + (0,), k)] = ident
            if c + (1,) in terms:
                diffs[(c + (1,), n)] = _compose_chain(
                    m, c, [i for i in reversed(range(n)) if c[i]])
    return terms, diffs


def hypercube_augment(m: Multicomplex) -> GradedComplex:
    """The total of the top level of ``hypercube_extend(m)``: the interior
    of m, the positions with every coordinate nonzero, with the corner
    module m_0 added in degree n - 1 + shift and attached along psi, the
    composed axis map out of (1, ..., 1), with the level axis's Koszul sign
    (-1)^n.  Only the top vertex gets the corner, so psi is composed once.
    With no axis, the interior is the one position (), and m_() -> m_() is
    the identity."""
    n = m.n_axes
    terms, diffs = _attach_corner(m, [(1,) * n])
    top = {q: ss for q, ss in terms.items() if all(q[:n])}
    return Multicomplex(n + 1, m.n_vars, top, diffs, m.shift - 1).total


def _extension(m: Multicomplex) -> Parts:
    """The parts of ``hypercube_extend(m)``, unchecked: the mapping
    cylinder of ``_attach_corner`` over every vertex of the unit cube, with
    the level differential psi into the corner, at one shift below m's.
    Only the summand bound runs here, before any psi is composed: m's
    summands and 2^n copies of the corner's, at most
    ``MAX_TENSOR_SUMMANDS``."""
    corner = m.terms.get((0,) * m.n_axes, ())
    _check_summands("hypercube_extend", "copies",
                    sum(map(len, m.terms.values())) + 2 ** m.n_axes * len(corner))
    cube = itertools.product((0, 1), repeat=m.n_axes)
    return Parts(m.n_axes + 1, m.n_vars, *_attach_corner(m, cube), m.shift - 1)


def hypercube_extend(m: Multicomplex) -> Multicomplex:
    """The multicomplex of ``_extension(m)``: m at level 1 of a new last
    axis, a copy of its corner on each vertex of {0, 1}^n at level 0, and
    psi between them.  Its shift is one below m's, so m's positions keep
    their degrees in the total.  It is refused past
    ``MAX_TENSOR_SUMMANDS`` before any position is built."""
    return Multicomplex(*_extension(m))


def koszul_cone(m: Multicomplex | Parts, face_axes: int | None = None) -> Multicomplex:
    """The Koszul-cone multicomplex: m with one 0/1 axis n + j per face
    axis j < ``face_axes``.  Position (q, s) holds m_q when no face axis
    has both s_j = 1 and q_j != 0, with m's axis maps, and axis n + j maps
    (q, s) to (q, s - e_j) by the identity; totalization signs it
    (-1)^(|q| + the face axes before j at 1).  It has m's shift, and m_q
    has one copy per s, 2^(the face axes j with q_j = 0) of them, so the
    cone is refused past ``MAX_TENSOR_SUMMANDS`` before any position is
    built.  m is a multicomplex or the unchecked ``Parts`` of one, such as
    ``_extension``'s: the cone reads only those five fields, copies m's
    maps as they are and checks every copy, the one at s = 0 being m as a
    subcomplex of the cone's total (see ``spectral.build_filtration``)."""
    n = m.n_axes
    fa = n if face_axes is None else as_int(face_axes, "face_axes")
    if not 0 <= fa <= n:
        raise ParamOutOfRange(f"face_axes {fa} outside 0..{n}")
    _check_summands("koszul_cone", "copies",
                    sum(len(ss) * 2 ** q[:fa].count(0) for q, ss in m.terms.items()))
    cube = list(itertools.product((0, 1), repeat=fa))
    terms, diffs = {}, {}
    for q, ss in m.terms.items():
        ident = {i: [(i, 1)] for i in range(len(ss))}
        for s in cube:
            if not any(map(min, q, s)):
                terms[q + s] = ss
                diffs.update(((q + s, n + j), ident) for j in range(fa) if s[j])
    for (q, k), rows in m.diffs.items():
        diffs.update(((q + s, k), rows) for s in cube if q + s in terms)
    return Multicomplex(n + fa, m.n_vars, terms, diffs, m.shift)
