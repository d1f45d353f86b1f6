"""Multigraded complexes of twisted cyclic quotient or ideal summands.

A ``GradedComplex`` stores, per homological index, an ordered list of
summands, and per adjacent index pair its differential as a sparse map,
{source: [(target, coefficient), ...]} of scalar coefficients: the one form
of every differential and axis map, normalised by ``_rows``.
A summand is a shift and an ideal; whether it stands for the quotient
R/J(-shift) or the ideal J(-shift) is one ``kind`` per complex, and the
free module R(-shift) is the quotient R/0(-shift), and a cyclic complex
tensored with a quotient R/J is its ``base_change``: each summand's ideal
gains J.  ``unresolved`` picks the one module a Tor table or an augmented
interior leaves unresolved, and ``ideal_augment`` tensors an ideal onto an
augmented interior of free summands.
The monomial factor of every differential entry is implicit: homogeneity
forces it to x^(shift_src - shift_tgt), so fibers are pure scalar matrices.

Complexes are immutable after construction.  Construction validates each
entry's well-definedness and checks d∘d = 0 symbolically over the integers,
which (by the survival monotonicity along valid entries) implies d∘d = 0 on
every multidegree fiber.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from operator import and_, le, or_

from .errors import (
    CompositionNonzero,
    InvalidKind,
    MixedKinds,
    ParamOutOfRange,
    internal,
    as_int,
)
from .exactlin import GF, PrimeField, pivot_pairs
from .monomial import (
    MonomialIdeal,
    Multidegree,
    check_box_size,
    check_degree,
    combine,
    dominating_box,
    lcm_deg,
    refuse_unit,
)

CYCLIC = "cyclic"
IDEAL = "ideal"

#: Most generators a Taylor resolution is built for: it has 2^g summands,
#: and 16 degree-8 generators in 3 variables take 4.5-6 s and 185 MB to
#: build, 7-10 s with ``cancel_units`` (one core of a 2-vCPU Xeon virtual
#: machine, Python 3.11).
MAX_TAYLOR_GENERATORS = 16


@dataclass(frozen=True)
class Summand:
    """One summand R/J(-shift) of a cyclic complex, or J(-shift) of an
    ideal one; R(-shift) is R/0(-shift)."""

    shift: Multidegree
    ideal: MonomialIdeal


def free_summand(shift) -> Summand:
    shift = Multidegree(shift)
    return Summand(shift, MonomialIdeal.zero(shift.n))


def summand(ideal, shift=None) -> Summand:
    shift = Multidegree.zero(ideal.n) if shift is None else Multidegree(shift)
    return Summand(shift, ideal)


def _entry_valid(src: Summand, tgt: Summand) -> bool:
    """Homogeneity / well-definedness of a single differential entry, whose
    two summands the constructor has checked to have length n."""
    if not all(map(le, tgt.shift, src.shift)):
        return False
    # multiplication by x^delta must send the source (quotient or ideal)
    # structure into the target one: x^delta * I_src ⊆ I_tgt, which holds
    # for every delta when the two ideals are equal
    if src.ideal is tgt.ideal or src.ideal == tgt.ideal:
        return True
    delta = src.shift.sub(tgt.shift)
    return all(tgt.ideal.contains(g.add(delta)) for g in src.ideal.gens)


def _rows(rows: dict, n_src: int, n_tgt: int, where) -> dict:
    """A map from n_src to n_tgt summands, {source: [(target, coefficient),
    ...]}, normalised: indices by ``as_int``, int coefficients, every entry
    in range, repeated targets summed, zero sums and empty rows dropped, and
    sources and targets in index order from one sort; ``where()``, called
    only to refuse an entry or a map of another shape, names the map.

    A map already in that form is found by one linear scan and copied as
    it is: int sources ascending and in range, each row a non-empty list of
    (target, coefficient) tuples, int targets strictly ascending and in
    range, nonzero int coefficients.  Anything else, and every refusal,
    goes through the merge and the sort, which give the same map."""
    out: dict = {}
    last = -1
    try:
        for s, row in rows.items():
            if type(s) is not int or not last < s < n_src or type(row) is not list or not row:
                break
            prev = -1
            for entry in row:
                if type(entry) is not tuple:
                    break
                t, c = entry
                if type(t) is not int or not prev < t < n_tgt or type(c) is not int or not c:
                    break
                prev = t
            else:
                out[s] = row[:]
                last = s
                continue
            break
        else:
            return out
    except (AttributeError, TypeError, ValueError):
        pass
    merged: dict = {}
    try:
        for s, row in rows.items():
            s = as_int(s, "summand index", built=True)
            for t, c in row:
                t = as_int(t, "summand index", built=True)
                if not isinstance(c, int):
                    raise internal.ValidationError(f"{where()}: coefficient {c!r} is not an int")
                if not (0 <= s < n_src and 0 <= t < n_tgt):
                    raise internal.ValidationError(f"{where()}: entry {s} -> {t} outside "
                                                   f"its {n_src} -> {n_tgt} summands")
                merged[s, t] = merged.get((s, t), 0) + c
    except (AttributeError, TypeError, ValueError):
        raise internal.ValidationError(f"{where()}: a map must be "
                                       "{source: [(target, coefficient), ...]}") from None
    out = {}
    for (s, t), c in sorted(merged.items()):
        if c:
            out.setdefault(s, []).append((t, c))
    return out


def _compose(second: dict, first: dict) -> dict:
    """second ∘ first of two maps {source: [(target, coefficient), ...]}, in
    that form: its nonzero rows in first's order, targets unsorted."""
    out = {}
    for s, row in first.items():
        acc: dict = {}
        for m, c1 in row:
            for t, c2 in second.get(m, ()):
                acc[t] = acc.get(t, 0) + c1 * c2
        if any(acc.values()):
            out[s] = [(t, c) for t, c in acc.items() if c]
    return out


def _fibre_tables(terms: dict, n: int):
    """The cuts of every coordinate and the packed threshold rows of the
    complex: the fibre state of a degree is one int.

    Summand g, numbered across all terms in ``terms`` order, owns bit g of
    each of 1 + width fields of m bits, m the summand count and width the
    most generators of any summand's ideal (0 when every ideal is zero):
    field 0 is its shift, field 1 + j the corner shift + gens[j] of its
    generator slot j (a summand with fewer generators has no corner in that
    slot, so that bit is never set).  The cuts of coordinate k are 0 and
    every corner coordinate k, so that aliveness is constant between two
    cuts and beyond the last one.  Returns ``(cuts, full, rows, layout,
    low, offsets)``: ``full`` has the bit of every corner, ``rows[k][v]``
    the bits of the corners whose coordinate k is at most cuts[k][v],
    ``layout`` per term (i, index of its first summand, its summand count),
    ``low`` the bits of field 0 and ``offsets`` the first bits of fields
    1..width.
    """
    summands = [s for ss in terms.values() for s in ss]
    m = len(summands)
    width = max((len(s.ideal.gens) for s in summands), default=0)
    at = [{0: 0} for _ in range(n)]  # per coordinate, value -> corner bits
    full = 0
    for g, s in enumerate(summands):
        full |= 1 << g
        for v, bits in zip(s.shift, at):
            bits[v] = bits.get(v, 0) | 1 << g
        for j, gen in enumerate(s.ideal.gens, 1):
            bit = 1 << j * m + g
            full |= bit
            for v, e, bits in zip(s.shift, gen, at):
                bits[v + e] = bits.get(v + e, 0) | bit
    cuts = [sorted(bits) for bits in at]
    rows = [list(itertools.accumulate((bits[v] for v in cut), or_))
            for cut, bits in zip(cuts, at)]
    layout, start = [], 0
    for i, ss in terms.items():
        layout.append((i, start, len(ss)))
        start += len(ss)
    return cuts, full, rows, layout, (1 << m) - 1, [j * m for j in range(1, width + 1)]


def _runs(cut, top: int):
    """(cut position, values) for the values 0..top, grouped by the last cut
    at or below them."""
    bounds = [c for c in cut if c <= top] + [top + 1]
    return [(v, range(lo, hi)) for v, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]


class GradedComplex:
    """A finite complex with terms indexed by integers; d lowers index by 1.

    A cochain complex is stored with negated indices (term S^p sits at
    index -p, so at non-positive indices only), so a single chain
    convention drives all homology computations.

    ``kind`` says what every summand stands for: ``CYCLIC``, the quotient
    R/J(-shift), or ``IDEAL``, the ideal J(-shift).
    """

    def __init__(self, n: int, terms: dict, d: dict, kind: str = CYCLIC):
        self.n = as_int(n, "variable count", built=True)
        if kind not in (CYCLIC, IDEAL):
            raise InvalidKind(f"unknown summand kind {kind!r}")
        self.kind = kind
        self.terms = {
            as_int(i, "term index", built=True): tuple(summands)
            for i, summands in terms.items() if summands
        }
        for ss in self.terms.values():
            for s in ss:
                if not (isinstance(s.shift, Multidegree)
                        and isinstance(s.ideal, MonomialIdeal)):
                    raise internal.ValidationError(
                        f"summand {s!r} needs a Multidegree shift and a MonomialIdeal"
                    )
                if s.shift.n != self.n or s.ideal.n != self.n:
                    raise internal.LengthMismatch("summand length != variable count")
        self.d = {}  # {i: d_i as {source: [(target, coefficient), ...]}}
        for i, rows in d.items():
            i = as_int(i, "term index", built=True)
            src_terms, tgt_terms = self.terms.get(i, ()), self.terms.get(i - 1, ())
            rows = _rows(rows, len(src_terms), len(tgt_terms), lambda: f"d_{i}")
            for s, row in rows.items():
                for t, _ in row:
                    if not _entry_valid(src_terms[s], tgt_terms[t]):
                        raise internal.ValidationError(
                            f"inhomogeneous or ill-defined entry at degree {i}: "
                            f"{src_terms[s]} -> {tgt_terms[t]}"
                        )
            if rows:
                self.d[i] = rows
        self._check_dd_zero()
        self._rank_cache: dict = {}
        self._thresholds = None  # built by the first _tables call

    # -- structure ------------------------------------------------------------

    def window(self):
        if not self.terms:
            return range(0, 0)
        return range(min(self.terms), max(self.terms) + 1)

    def summands(self, i: int):
        return self.terms.get(i, ())

    def _check_dd_zero(self):
        for i, rows in self.d.items():
            below = self.d.get(i - 1)
            if below:
                bad = _compose(below, rows)
                if bad:
                    raise CompositionNonzero(f"d∘d != 0 from degree {i}: {bad}")

    # -- degreewise evaluation --------------------------------------------------

    def _tables(self):
        if self._thresholds is None:
            self._thresholds = _fibre_tables(self.terms, self.n)
        return self._thresholds

    def stable_box(self) -> Multidegree:
        """Componentwise bound D: fibers at gamma depend only on min(gamma, D).
        It is the last cut of each coordinate."""
        return Multidegree(cut[-1] for cut in self._tables()[0])

    def _alive(self, state: int) -> int:
        """The fibre class of a state packed as in ``_fibre_tables``: bit g
        is set iff summand g is alive, at or above its shift (field 0) and
        (ideal) in or (cyclic) out of its shifted ideal, i.e. above the
        corner of some generator slot (the OR of fields 1..width)."""
        low, offsets = self._tables()[4:]
        member = 0
        for at in offsets:
            member |= state >> at
        return state & member & low if self.kind == IDEAL else state & ~member & low

    def _split(self, alive: int) -> dict:
        """{i: alive bitmask of term i} of a fibre class."""
        return {i: alive >> start & (1 << m) - 1 for i, start, m in self._tables()[3]}

    def alive_masks(self, gamma) -> dict:
        """{i: bitmask of the summands of term i alive at gamma}: the split
        of the fibre class of gamma's state."""
        gamma = check_degree(gamma, self.n)
        cuts, state, rows = self._tables()[:3]
        for cut, row, g in zip(cuts, rows, gamma):
            state &= row[bisect_right(cut, g) - 1]
        return self._split(self._alive(state))

    def _block(self, i: int, src_mask: int, tgt_mask: int, p: int) -> dict:
        """{s: {t: d_i(s -> t) mod p}} over the alive sources and targets of
        the masks, read from the rows of the alive sources in index order,
        entries zero mod p dropped; fresh dicts, as ``pivot_pairs`` consumes them."""
        block: dict = {}
        for s, row in self.d.get(i, {}).items():
            if src_mask >> s & 1:
                kept = {}
                for t, c in row:
                    if tgt_mask >> t & 1:
                        c %= p
                        if c:
                            kept[t] = c
                if kept:
                    block[s] = kept
        return block

    def _masked_rank(self, i: int, src_mask: int, tgt_mask: int, field: PrimeField) -> int:
        if not (src_mask and tgt_mask):  # an empty block has rank 0
            return 0
        key = (field.p, i, src_mask, tgt_mask)
        cached = self._rank_cache.get(key)
        if cached is not None:
            return cached
        block = self._block(i, src_mask, tgt_mask, field.p)
        r = self._rank_cache[key] = len(pivot_pairs(list(block.items()), field.p))
        return r

    def _homology(self, masks: dict, field: PrimeField) -> dict:
        """{i: dim H_i} of the fibre whose alive summands are ``masks``.
        Each rank of d_i (from term i to term i - 1) is looked up once; d_i
        is zero at the lowest index, with no term below, and past the top."""
        window = self.window()
        dims = {}
        below = 0  # the rank of d_i
        for i in window:
            mask = masks.get(i, 0)
            above = (self._masked_rank(i + 1, masks.get(i + 1, 0), mask, field)
                     if i + 1 < window.stop else 0)
            dims[i] = mask.bit_count() - below - above
            below = above
        return dims

    def homology_at(self, gamma, field: PrimeField = GF()) -> dict:
        """{i: dim H_i at degree gamma} using the mask/rank cache."""
        return self._homology(self.alive_masks(gamma), field)

    def __repr__(self):
        shape = {i: len(ss) for i, ss in sorted(self.terms.items())}
        return f"GradedComplex(n={self.n}, ranks={shape})"


class TorTable:
    """Homology dimensions indexed by (homological index, multidegree <= box).

    Only nonzero dimensions are stored.  By the stability property the slice
    of index i is identically zero iff the module H_i is zero.  ``entries``
    is kept as given, so its keys must be (int i, plain tuple degree) and
    its values nonzero ints, as every table builder makes them.
    """

    def __init__(self, entries: dict, box):
        self.box = Multidegree(box)
        self.entries = entries

    def clamp(self, gamma) -> tuple:
        """min(gamma, box): the box is a stability box, so a degree beyond
        it has the fibre of its clamp."""
        return tuple(map(min, check_degree(gamma, len(self.box)), self.box))

    def dim(self, i: int, gamma) -> int:
        """dim H_i at gamma, read at its clamp."""
        return self.entries.get((i, self.clamp(gamma)), 0)

    def support(self, j: int | None = None) -> frozenset:
        """The box degrees where H_j, or any H_i when j is None, is nonzero;
        a degree beyond the box is in the support iff its clamp is."""
        return frozenset(g for (i, g) in self.entries if j is None or i == j)

    def slice(self, i: int) -> dict:
        return {g: d for (j, g), d in self.entries.items() if j == i}

    def is_zero(self, i: int) -> bool:
        return all(j != i for j, _ in self.entries)

    def nonzero_indices(self):
        return sorted({i for (i, _) in self.entries})

    def max_nonzero_index(self):
        nz = self.nonzero_indices()
        return nz[-1] if nz else None

    def records(self) -> list:
        """The entries as dicts sorted by key, (i, degree): keys are unique,
        so no dim is compared."""
        return [{"i": i, "degree": list(g), "dim": d}
                for (i, g), d in sorted(self.entries.items())]

    def __eq__(self, other):
        return (
            isinstance(other, TorTable)
            and self.box == other.box
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"TorTable(box={tuple(self.box)}, nonzero={len(self.entries)})"


def module_homology_table(c: GradedComplex, field: PrimeField = GF(),
                          box=None) -> TorTable:
    """Dimensions of H_i(c)_gamma for every i in the window and gamma <= box.

    The box defaults to the stability box; a user box must dominate it so
    that module-level vanishing remains decidable from the table.  One loop
    walks the box: per prefix of values of the leading coordinates, the
    packed fibre state is narrowed by each value's row (one AND each), then
    once per run of the last coordinate, the values sharing one cut, so
    one state.  ``states`` maps each distinct state to its dims, so
    ``_alive`` reads its fibre class once, and ``classes`` each class to
    its dims, so homology is computed once per fibre class, from its split
    into term masks.  Degree tuples are built only in a run with nonzero
    dims.  Entries are listed by degree, lexicographically, then by i.  A
    box of more than ``MAX_BOX_POINTS`` degrees is refused before the walk.
    """
    box = dominating_box(c.stable_box(), box)
    check_box_size(box)
    cuts, full, rows = c._tables()[:3]
    # per value of each leading coordinate its row; per run of the last its
    # row and values as 1-tuples (no coordinate: the one empty degree)
    narrow = [[row[v] for v, values in _runs(cut, top) for _ in values]
              for cut, row, top in zip(cuts[:-1], rows[:-1], box[:-1])]
    last = [(rows[-1][v], [(g,) for g in values])
            for v, values in _runs(cuts[-1], box[-1])] if c.n else [(full, [()])]
    states, classes, entries = {}, {}, {}
    for prefix, prefix_rows in zip(
            itertools.product(*(range(top + 1) for top in box[:-1])),
            itertools.product(*narrow)):
        state = reduce(and_, prefix_rows, full)
        for row, ends in last:
            run = state & row
            dims = states.get(run)
            if dims is None:
                alive = c._alive(run)
                dims = classes.get(alive)
                if dims is None:
                    homology = c._homology(c._split(alive), field)
                    dims = classes[alive] = [(i, h) for i, h in homology.items() if h]
                states[run] = dims
            if dims:
                for end in ends:
                    gamma = prefix + end
                    for i, h in dims:
                        entries[(i, gamma)] = h
    return TorTable(entries, box)


def _unit(coeff: int, src: Summand, tgt: Summand) -> bool:
    """Whether an entry src -> tgt is one ``cancel_units`` cancels: ±1
    between summands of the same shift and ideal."""
    return coeff in (1, -1) and src == tgt


def cancel_units(c: GradedComplex) -> GradedComplex:
    """A smaller complex, chain-homotopy equivalent to ``c`` over Z, or
    ``c`` itself when no entry is a unit to cancel.

    Repeatedly picks an entry s -> t with coefficient ±1 whose summands have
    the same shift and ideal.  Such summands are alive at exactly the
    same degrees, and there the entry is ±1.  So deleting s and t, dropping
    the entries into s and out of t, and correcting the rest of the
    differential by the Schur complement
    d'(a -> b) = d(a -> b) - d(a -> t) d(s -> t) d(s -> b)
    is one step of Gaussian elimination in every fibre at once, with integer
    arithmetic: every fibre keeps its homology over every prime (algebraic
    discrete Morse theory; Jöllenbeck-Welker, Batzies-Welker).  Degrees are
    reduced in increasing order and sources by index, so the result is
    deterministic, and no entry of the result is such a unit.  Each step
    starts at such a unit, so a complex with none is returned as it is,
    neither rebuilt nor checked again.

    Surviving summands keep their order, and the result keeps the kind of
    ``c``.  Applied to a filtered total, a
    cancelled pair could straddle two filtration levels and change its
    spectral sequence, so totals are not reduced; their factors are, through
    ``resolution``.
    """
    if not any(_unit(v, c.terms[i][s], c.terms[i - 1][t])
               for i, rows in c.d.items() for s, row in rows.items() for t, v in row):
        return c
    # out[i][s] = {t: d_i(s -> t)} and into[i][t] = {s: d_i(s -> t)}
    out = {i: {s: dict(row) for s, row in rows.items()} for i, rows in c.d.items()}
    into = {i: {} for i in c.d}
    for i, rows in c.d.items():
        for s, row in rows.items():
            for t, v in row:
                into[i].setdefault(t, {})[s] = v

    def drop(i, rows, cols, k):
        """Delete the entries of d_i in row k of ``rows``."""
        for j in rows.get(i, {}).pop(k, {}):
            del cols[i][j][k]

    gone = {i: set() for i in c.terms}
    for i in sorted(out):
        rows, cols = out[i], into[i]
        src, tgt = c.terms[i], c.terms[i - 1]
        queue = sorted(rows)
        while queue:
            s = heappop(queue)
            row = rows.get(s, {})
            t = next((t for t in sorted(row) if _unit(row[t], src[s], tgt[t])), None)
            if t is None:
                continue
            pivot = row[t]
            for a, w in cols[t].items():
                if a == s:
                    continue
                a_row = rows[a]
                for b, v in row.items():
                    if b == t:
                        continue
                    x = a_row.get(b, 0) - w * pivot * v
                    if x:
                        a_row[b] = cols.setdefault(b, {})[a] = x
                    else:
                        del a_row[b], cols[b][a]
                heappush(queue, a)
            drop(i, out, into, s)
            drop(i, into, out, t)
            drop(i + 1, into, out, s)
            drop(i - 1, out, into, t)
            gone[i].add(s)
            gone[i - 1].add(t)

    kept = {i: [k for k in range(len(ss)) if k not in gone[i]] for i, ss in c.terms.items()}
    position = {i: {k: p for p, k in enumerate(ks)} for i, ks in kept.items()}
    terms = {i: [c.terms[i][k] for k in ks] for i, ks in kept.items()}
    d = {i: {position[i][s]: [(position[i - 1][t], v) for t, v in row.items()]
             for s, row in rows.items()}
         for i, rows in out.items()}
    return GradedComplex(c.n, terms, d, c.kind)


# ---------------------------------------------------------------------------
# Builders


def exterior_complex(m: int, summand, orientation: str = "chain"):
    """Terms and differentials of an exterior-algebra complex on m generators.

    ``summand(S)`` gives the summand on each subset S of range(m), a sorted
    tuple; subsets of one size are listed in ``itertools.combinations``
    order.  The chain differential is d(e_S) = sum_l (-1)^l e_{S - S[l]}, and
    the cochain complex is its transpose with size-p subsets at index -p.
    """
    if orientation not in ("chain", "cochain"):
        raise InvalidKind(f"bad orientation {orientation!r}")
    terms = {}
    index = {}
    for p in range(m + 1):
        subs = list(itertools.combinations(range(m), p))
        terms[p] = tuple(summand(s) for s in subs)
        index.update((s, k) for k, s in enumerate(subs))
    d = {p: {} for p in range(1, m + 1)}  # the cochain rows are keyed by face
    for s, k in index.items():
        for l in range(len(s)):
            face, sign = index[s[:l] + s[l + 1:]], -1 if l % 2 else 1
            src, tgt = (k, face) if orientation == "chain" else (face, k)
            d[len(s)].setdefault(src, []).append((tgt, sign))
    if orientation == "chain":
        return terms, d
    return {-p: ss for p, ss in terms.items()}, {1 - p: rows for p, rows in d.items()}


def taylor_resolution(ideal: MonomialIdeal) -> GradedComplex:
    """The Taylor resolution of R/I: basis = subsets of the generators,
    shift = their lcm.  Non-minimal in general but always a resolution;
    ``resolution`` shrinks it towards the minimal one.  On distinct
    variables lcm is the sum, so this is also the Koszul complex resolving
    R/(x_j : j in J) when I is ``MonomialIdeal.variables(n, J)``."""
    refuse_unit(ideal)
    gens = ideal.gens
    if len(gens) > MAX_TAYLOR_GENERATORS:
        raise ParamOutOfRange(
            f"Taylor resolution supports at most {MAX_TAYLOR_GENERATORS} "
            f"generators, got {len(gens)}"
        )
    # a subset's lcm is its prefix's lcm with its last generator (the
    # prefix, one smaller, is listed first), and every summand is free
    lcms = {(): Multidegree.zero(ideal.n)}
    zero = MonomialIdeal.zero(ideal.n)

    def free(s):
        if s:
            lcms[s] = lcm_deg(lcms[s[:-1]], gens[s[-1]])
        return Summand(lcms[s], zero)

    terms, d = exterior_complex(len(gens), free)
    return GradedComplex(ideal.n, terms, d)


def resolution(ideal: MonomialIdeal) -> GradedComplex:
    """The free resolution of R/I that every Tor table, S/P check and
    multicomplex is built from: the Taylor resolution reduced by
    ``cancel_units``.

    The reduction is a homotopy equivalence that keeps degrees 0 and 1 (a
    degree-1 shift is a generator, never the degree-0 shift 0), so in a
    tensor of such factors every cancelled pair sits at positions whose
    coordinate for that factor is at least 1.  Supports of positions, the
    corner and cone indices are unchanged, and so is the spectral sequence
    of every filtration read from positions.  The stability box is
    unchanged too: no degree-2 shift, an lcm of two minimal generators,
    equals a generator, so the degree-1 summands all survive, and their
    shifts reach the lcm of all generators in every coordinate."""
    return cancel_units(taylor_resolution(ideal))


def resolve(ideal: MonomialIdeal, resolutions: dict) -> GradedComplex:
    """``resolution(ideal)`` from ``resolutions``, the map {ideal: its
    resolution} of one checker call, which it fills on first use: every
    table the call builds reads that one map, so each distinct ideal is
    resolved at most once per call, and the map dies with the call."""
    c = resolutions.get(ideal)
    if c is None:
        c = resolutions[ideal] = resolution(ideal)
    return c


def _product_summand(combo) -> Summand:
    """The one rule for a product of cyclic summands R/J_k(-a_k):
    R/(sum of the J_k)(-(sum of the a_k)), a lone nonzero J_k kept as it is."""
    shift = reduce(Multidegree.add, (s.shift for s in combo))
    ideals = [s.ideal for s in combo if s.ideal.gens] or [combo[0].ideal]
    return Summand(shift, ideals[0] if len(ideals) == 1 else combine(ideals, "sum"))


def base_change(c: GradedComplex, ideal: MonomialIdeal) -> GradedComplex:
    """c ⊗ R/ideal for a cyclic complex c, as a module left unresolved
    enters a Tor table.  The total of ``tensor([c, R/ideal])``, R/ideal one
    summand in degree 0, is c term for term: a constant 0 coordinate keeps
    the order of positions, a one-summand factor adds the mixed-radix digit
    0, and no axis sign changes.  So R/J(-a) becomes the product summand
    R/(J + ideal)(-a), and d is unchanged.  The unit ideal, and a complex
    of ideal summands, as ``tensor`` refuses it, are refused."""
    if c.kind == IDEAL:
        raise MixedKinds("base change needs a complex of cyclic summands")
    refuse_unit(ideal)
    factor = summand(ideal)
    terms = {i: [_product_summand((s, factor)) for s in ss] for i, ss in c.terms.items()}
    return GradedComplex(c.n, terms, c.d)


def unresolved(modules) -> int:
    """The index of the one module a Tor table or an augmented interior
    leaves unresolved: the one with the most minimal generators, the first
    in the given order on a tie.  Tor is balanced (Weibel, An Introduction
    to Homological Algebra, 2.7), so it is the homology of the tensor of
    resolutions of all modules but one with that last module itself; the
    one left out spares the largest resolution, whose Taylor size 2^g
    bounds its reduced size."""
    sizes = [len(module.gens) for module in modules]
    return sizes.index(max(sizes))


def ideal_augment(c: GradedComplex, ideal: MonomialIdeal) -> GradedComplex:
    """The augmented interior c = cone(G -> R) of a tensor G of truncated
    resolutions, with ``ideal`` tensored onto G, one index up: each free
    summand R(-a) above c's lowest term becomes ideal(-a), each of the
    lowest term, the corner R(0), the unit ideal, and d is unchanged.

    For ideals I_k with resolutions F_k, G_k = F_k,>=1 resolves I_k, and
    the augmented interior of the I_k is cone(G_1 ⊗ ... ⊗ G_n -> R).  The
    augmentation eps: G_u -> I_u is a quasi-isomorphism, and so is 1 ⊗
    eps from that tensor to the one with I_u in place of G_u, the other
    factors being free; by the five lemma, fibre by fibre, the two cones
    have the same homology.  The second is this complex when c is the
    augmented interior of the other n - 1 resolutions: I_u sits in degree
    1, as G_u,1 does.  A complex of ideal or non-free summands is
    refused."""
    if c.kind == IDEAL or any(s.ideal.gens for ss in c.terms.values() for s in ss):
        raise MixedKinds("an ideal is tensored onto a complex of free summands only")
    low, unit = min(c.terms, default=0), MonomialIdeal.unit(c.n)
    terms = {i + 1: [Summand(s.shift, unit if i == low else ideal) for s in ss]
             for i, ss in c.terms.items()}
    return GradedComplex(c.n, terms, {i + 1: rows for i, rows in c.d.items()}, IDEAL)
