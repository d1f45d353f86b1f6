"""Spectral sequences of filtered graded complexes over GF(p).

Every filtration here is a coordinate filtration of a filtered total: each
summand of term i has a level in 0..N, N the largest, and F_p is spanned
by the summands of level <= p.  Levels are checked once per total, over Z,
on every entry of its differential.  The fibre at a degree gamma is read
through the alive masks, and all its pages come from one filtered reduction,
the level-ordered persistence pairing (Edelsbrunner-Letscher-Zomorodian,
Topological persistence and simplification, 2002).  For each term i, the
alive block of d_i is column-reduced by ``exactlin.pivot_pairs``, sources
in (level, index) order; each column left nonzero pairs its source d (in
term i) with its pivot b (in term i-1), its alive target of highest
(level, index).  The gap of the pair is level(d) - level(b).  The pages
are read off the pairs (Basu-Parida, Spectral sequences, exact couples and
persistent homology of filtrations, 2017):

    dim E^r_{p,i-p} = the unpaired alive term-i summands at level p
                      + the pairs with gap >= r having an end (b or d)
                        in term i at level p
    rank of d^r out of (p, i-p) = the pairs with gap r whose d is in
                                  term i at level p

and d^r = 0 for r beyond the largest gap.  Every page is checked against
the page-bookkeeping identity, the pairs of each term against the rank of
the unfiltered block of d_i (the same block eliminated in index order), and
the abutment against the total's homology of the fibre; those ranks are
the ones ``homology_at`` caches in the total.

What depends only on the filtration is laid out once, when the filtered
total is built: the summands of each level of a term as one bitmask, and
d_i grouped by source, sources in (level, index) order, each entry with
its target's pivot key.  A reduction then only drops the dead sources and
targets.  Degrees with the same alive masks have the same pages, so a
filtered total keeps a page table, {(p, alive masks): pages}, and computes
each (field, fibre class) once, like the block ranks its total caches;
both live as long as the total.

``build_filtration`` produces the four filtrations attached to an N^n
multicomplex (Koszul cone, its hypercube-augmented variant, the
support-count filtration and its augmented variant); the two
Mayer-Vietoris double complexes are built next to S and P, by
``sumprod.mv_total_complex``.  This module knows nothing of ideals: it
filters multicomplexes by position.  Each builder returns a new filtered
total; a caller reading many degrees builds it once and passes it to
``pages`` at each degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FiltrationViolation, InvalidKind, InvariantBroken
from .exactlin import GF, PrimeField, pivot_pairs
from .gcomplex import GradedComplex
from .multicomplex import Multicomplex, hypercube_extend, koszul_cone


class FilteredTotal:
    """A graded complex with a coordinate filtration F_0 ⊆ ... ⊆ F_N.

    ``levels[i][k]`` is the level (a non-negative int) of summand k of term
    i, and N is the largest level; a term missing from the ``levels``
    argument has every summand at level 0.  The differential must respect
    the filtration: no nonzero integer entry of d_i may map a summand into
    a higher level, whichever degrees the summands are alive at.
    """

    def __init__(self, total: GradedComplex, levels: dict):
        self.total = total
        for i, lv in levels.items():
            if len(lv) != len(total.summands(i)):
                raise FiltrationViolation(
                    f"{len(lv)} levels for the {len(total.summands(i))} summands "
                    f"of term {i}"
                )
            if any(v < 0 for v in lv):
                raise FiltrationViolation(f"a level at term {i} is negative")
        self.levels = {i: levels.get(i, [0] * len(ss)) for i, ss in total.terms.items()}
        self.N = max((v for lv in self.levels.values() for v in lv), default=0)
        # laid out once: the summands of each level of term i, as one mask
        self._level_masks = {i: [0] * (self.N + 1) for i in self.levels}
        for i, lv in self.levels.items():
            for k, v in enumerate(lv):
                self._level_masks[i][v] |= 1 << k
        # d_i by source, sources in (level, index) order; each entry carries
        # its target's pivot key, lowest for the target of highest (level, index)
        self._columns: dict = {}
        for i, es in total.entries.items():
            src, tgt = self.levels[i], self.levels[i - 1]
            n = len(tgt)
            rows: dict = {}
            for s, t, c in es:
                if tgt[t] > src[s]:
                    raise FiltrationViolation(
                        f"d(F_{src[s]}) not inside F_{src[s]} between terms "
                        f"{i} and {i - 1}"
                    )
                rows.setdefault(s, []).append((t, -(tgt[t] * n + t), c))
            self._columns[i] = [(s, rows[s])
                                for s in sorted(rows, key=lambda s: (src[s], s))]
        self._pages: dict = {}  # {(p, alive masks): SpectralPages}, filled by ``pages``


@dataclass(frozen=True)
class SpectralPages:
    """Dimension tables E^r_{p,q} for r = 1..r_stab, the page-differential
    ranks, the stabilized table, and the abutment comparison."""

    pages: list
    ranks: list
    e_infinity: dict
    abutment_check: dict
    converged: bool
    r_stab: int

    @property
    def e1(self) -> dict:
        return self.pages[0]

    def page(self, r: int) -> dict:
        return self.pages[min(r, self.r_stab) - 1]

    def total_dims(self) -> dict:
        return _diagonal_sums(self.e_infinity)


def _diagonal_sums(table: dict) -> dict:
    """{p + q: the sum of the dimensions of table on that diagonal} of a
    (p, q)-keyed page."""
    out: dict = {}
    for (p, q), d in table.items():
        out[p + q] = out.get(p + q, 0) + d
    return out


def persistence_pairs(filtered: FilteredTotal, i: int, alive: dict,
                      fld: PrimeField = GF()) -> list:
    """The pairs (b, d) of the level-ordered reduction of the alive block of
    d_i: d a summand of term i, b its pivot in term i-1."""
    p, n = fld.p, len(filtered.levels[i - 1])
    src_mask, tgt_mask = alive.get(i, 0), alive.get(i - 1, 0)
    columns = []
    for s, row in filtered._columns.get(i, ()):
        if src_mask >> s & 1:
            column = {}
            for t, key, c in row:
                if tgt_mask >> t & 1:
                    c %= p
                    if c:
                        column[key] = c
            if column:
                columns.append((s, column))
    return [(-key % n, s) for s, key in pivot_pairs(columns, p)]


def pages(filtered: FilteredTotal, gamma, fld: PrimeField = GF()) -> SpectralPages:
    """All pages of the filtration spectral sequence of the fibre of filtered
    at gamma, with convergence verified against the homology of that fibre.

    Pages are kept up to r_stab = max(2, largest gap + 2), the least r >= 2
    with d^s = 0 for every s >= r - 1.  Raises InvariantBroken if the pairs
    of a term disagree with the rank of its unfiltered block or a page
    breaks the page bookkeeping.  The pages depend on gamma only through its
    alive masks: each (p, masks) is computed and checked once, kept in the
    filtered total's page table, and the same frozen object is returned for
    every degree of that fibre class.
    """
    total, levels = filtered.total, filtered.levels
    alive = total.alive_masks(gamma)
    key = (fld.p, tuple(alive.values()))  # the masks, in the total's term order
    cached = filtered._pages.get(key)
    if cached is not None:
        return cached
    window = [i for i, mask in sorted(alive.items()) if mask]
    free = {(i, p): (alive[i] & mask).bit_count()  # unpaired summands
            for i in window for p, mask in enumerate(filtered._level_masks[i])}
    moving = []  # (i, level of b, level of d) of each pair of d_i with a positive gap
    for i in window:
        if not alive.get(i - 1):
            continue
        pairs = persistence_pairs(filtered, i, alive, fld)
        # the unfiltered block: the key homology_at caches for this fibre
        rank = total._masked_rank(i, alive[i], alive[i - 1], fld)
        if len(pairs) != rank:
            raise InvariantBroken(
                f"{len(pairs)} persistence pairs for the rank {rank} of d_{i}"
            )
        for b, d in pairs:
            lb, ld = levels[i - 1][b], levels[i][d]
            free[(i - 1, lb)] -= 1
            free[(i, ld)] -= 1
            if ld > lb:
                moving.append((i, lb, ld))
    r_stab = max([2] + [ld - lb + 2 for _, lb, ld in moving])
    page_tables = []
    rank_tables = []
    for r in range(1, r_stab + 1):
        counts = dict(free)
        ranks = {}
        for i, lb, ld in moving:
            if ld - lb >= r:
                counts[(i - 1, lb)] += 1
                counts[(i, ld)] += 1
            if ld - lb == r:
                ranks[(ld, i - ld)] = ranks.get((ld, i - ld), 0) + 1
        dims = {(p, i - p): e for (i, p), e in counts.items() if e}
        _check_page(r, dims, ranks, page_tables, rank_tables)
        page_tables.append(dims)
        rank_tables.append(ranks)
    e_inf = page_tables[-1]
    base_h = {i: h for i, h in total._homology(alive, fld).items() if alive.get(i)}
    totals = _diagonal_sums(e_inf)
    check = {i: (totals.get(i, 0), base_h.get(i, 0)) for i in set(base_h) | set(totals)}
    pg = filtered._pages[key] = SpectralPages(
        pages=page_tables,
        ranks=rank_tables,
        e_infinity=e_inf,
        abutment_check=check,
        converged=all(lhs == rhs for lhs, rhs in check.values()),
        r_stab=r_stab,
    )
    return pg


def _check_page(r, dims, ranks, page_tables, rank_tables):
    """Page r against page r-1: dim E^r = dim E^{r-1} - rank out - rank in,
    and every dimension and d^r rank nonnegative, each rank at most the
    dimensions of its source and target.  Raises InvariantBroken."""
    for (p, q), rk in ranks.items():
        if rk < 0 or rk > min(dims.get((p, q), 0), dims.get((p - r, q + r - 1), 0)):
            raise InvariantBroken(f"rank {rk} of d^{r} out of (p,q)={(p, q)} at r={r}")
    for key, e in dims.items():
        if e < 0:
            raise InvariantBroken(f"negative page dimension at r={r}, (p,q)={key}")
    if not page_tables:
        return
    prev_dims, prev_ranks = page_tables[-1], rank_tables[-1]
    s = r - 1
    for key in set(prev_dims) | set(dims):
        p, q = key
        out_rk = prev_ranks.get(key, 0)
        in_rk = prev_ranks.get((p + s, q - s + 1), 0)
        if dims.get(key, 0) != prev_dims.get(key, 0) - out_rk - in_rk:
            raise InvariantBroken(f"page bookkeeping broken at r={r}, (p,q)={key}")


# ---------------------------------------------------------------------------
# Filtration builders for the four multicomplex spectral sequences


def _by_weight(m: Multicomplex, weight) -> FilteredTotal:
    """``m.total`` filtered by position: each summand sits at level
    weight(q) of the position q that ``m.layout`` lists for it."""
    levels = {i: [weight(q) for q in qs] for i, qs in m.layout.items()}
    return FilteredTotal(m.total, levels)


def build_filtration(m: Multicomplex, *, kind: str) -> FilteredTotal:
    """The filtered total of one of the four filtrations attached to m.

    kcone / kcone_augmented filter the (augmented) Koszul-cone construction
    by the cone index; interior / interior_augmented filter the (augmented)
    multicomplex by the number of nonzero coordinates.  Each filters the
    ``total`` of one multicomplex, built and checked once at the degrees it
    is read: m's for ``interior``, the new one's for the others.  A caller
    evaluating many degrees builds the filtration once and hands it to
    ``pages`` for each, so they share its block ranks.  Degrees beyond the
    stability box have the alive masks of the box.
    """
    n = m.n_axes
    if kind == "kcone":
        return _by_weight(koszul_cone(m), lambda q: q[-1])
    if kind == "kcone_augmented":
        return _by_weight(koszul_cone(hypercube_extend(m), face_axes=n),
                          lambda q: q[-1])
    if kind == "interior":
        return _by_weight(m, lambda q: sum(1 for v in q if v))
    if kind == "interior_augmented":
        return _by_weight(hypercube_extend(m), lambda q: sum(1 for v in q[:n] if v))
    raise InvalidKind(f"unknown filtration kind {kind!r}")
