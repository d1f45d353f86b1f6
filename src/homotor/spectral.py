"""Spectral sequences of filtered graded complexes over GF(p).

Every filtration here is a coordinate filtration of a filtered total: each
summand of term i has a level in 0..N, N the largest, and F_p is spanned by
the summands of level <= p.  Levels are checked once per total, over Z, on
every entry of its differential, read row by row from ``total.d``.  The
fibre at a degree gamma is read through the alive masks, and all its pages
come from one filtered reduction, the level-ordered persistence pairing
(Edelsbrunner-Letscher-Zomorodian, Topological persistence and
simplification, 2002).  For each term i, the alive block of d_i, read by
``GradedComplex._block`` like every block of the total, is column-reduced
by ``exactlin.pivot_pairs``, sources in (level, index) order; each column
left nonzero pairs its source d (in term i) with its pivot b (in term i-1),
its alive target of highest (level, index).  The gap of the pair is
level(d) - level(b).  The pages are read off the pairs (Basu-Parida,
Spectral sequences, exact couples and persistent homology of filtrations,
2017):

    dim E^r_{p,i-p} = the unpaired alive term-i summands at level p
                      + the pairs with gap >= r having an end (b or d)
                        in term i at level p
    rank of d^r out of (p, i-p) = the pairs with gap r whose d is in
                                  term i at level p

and d^r = 0 for r beyond the largest gap.  By these formulas the page
bookkeeping is an identity, so ``pages`` checks only that no (term, level)
has more pair ends than alive summands, and that the pairs of each term
number the rank of the unfiltered block of d_i, so E^infinity sums to the
abutment, the total's homology of the fibre.  Those ranks come from the
total's ``_masked_rank``, which eliminates the same block in index order
and caches each rank: one block reader, two elimination orders.

What depends only on the filtration is laid out once, when the filtered
total is built: the summands of each level of a term as one bitmask, and
each summand's key, which orders the sources of a block and keys its
targets for the pivot rule.  The filtered total keeps no copy of d_i.
Degrees with the same alive masks have the same pages, so a filtered
total keeps a page table, {(p, alive masks): pages}, and computes each
(field, fibre class) once, like the block ranks its total caches; both
live as long as the total.

``build_filtration`` produces the four filtrations attached to an N^n
multicomplex (Koszul cone and its hypercube-augmented variant, by the
number of face coordinates at 1; the support-count filtration and its
augmented variant, by the number of nonzero coordinates); the two
Mayer-Vietoris double complexes are built next to S and P, by
``sumprod.mv_total_complex``, their one builder, whose ``.total`` the
support check reads unfiltered.  This module knows nothing of ideals: it
filters multicomplexes by position.  Each builder returns a new filtered
total; a caller reading many degrees builds it once and passes it to
``pages`` at each degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FiltrationViolation, InvalidKind, InvariantBroken, as_int, as_ints
from .exactlin import GF, PrimeField, pivot_pairs
from .gcomplex import GradedComplex
from .multicomplex import (
    Multicomplex,
    _check_summands,
    _extension,
    hypercube_extend,
    koszul_cone,
)


class FilteredTotal:
    """A graded complex with a coordinate filtration F_0 ⊆ ... ⊆ F_N.

    ``levels[i][k]`` is the level of summand k of term i, a non-negative
    integer (``errors.as_int`` refuses a float or a string), and N is the
    largest level; a term missing from the ``levels`` argument has every
    summand at level 0.  The differential must respect
    the filtration: no nonzero integer entry of d_i may map a summand into
    a higher level, whichever degrees the summands are alive at.  That is
    checked once, here, on the rows of ``total.d``; after that the
    differential is read only through ``total._block``.
    """

    def __init__(self, total: GradedComplex, levels: dict):
        self.total = total
        levels = {as_int(i, "term index", built=True): list(as_ints(lv, "level", built=True))
                  for i, lv in levels.items()}
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
        # laid out once: the summands of each level of term i, as one mask,
        # and the key of each summand, -(level·n + index) with n its term's
        # size: the lowest key is the summand of highest (level, index)
        self._level_masks = {i: [0] * (self.N + 1) for i in self.levels}
        self._keys = {}
        for i, lv in self.levels.items():
            for k, v in enumerate(lv):
                self._level_masks[i][v] |= 1 << k
            self._keys[i] = [-(v * len(lv) + k) for k, v in enumerate(lv)]
        for i, rows in total.d.items():
            src, tgt = self.levels[i], self.levels[i - 1]
            for s, row in rows.items():
                if any(tgt[t] > src[s] for t, _ in row):
                    raise FiltrationViolation(
                        f"d(F_{src[s]}) not inside F_{src[s]} between terms "
                        f"{i} and {i - 1}"
                    )
        self._pages: dict = {}  # {(p, alive masks): SpectralPages}, filled by ``pages``


@dataclass(frozen=True)
class SpectralPages:
    """Dimension tables E^r_{p,q} for r = 1..r_stab, the page-differential
    ranks and the stabilized table, whose diagonal sums are the abutment."""

    pages: list
    ranks: list
    e_infinity: dict
    r_stab: int

    @property
    def e1(self) -> dict:
        return self.pages[0]

    def page(self, r: int) -> dict:
        return self.pages[min(r, self.r_stab) - 1]


def persistence_pairs(filtered: FilteredTotal, i: int, alive: dict,
                      fld: PrimeField = GF()) -> list:
    """The pairs (b, d) of the level-ordered reduction of the alive block of
    d_i: d a summand of term i, b its pivot in term i-1.  The block is the
    one ``GradedComplex._block`` reads for the total's ranks, each row
    re-keyed by its targets' keys and the sources taken in (level, index)
    order; an empty block, as at the lowest term, has no pairs."""
    src_mask, tgt_mask = alive.get(i, 0), alive.get(i - 1, 0)
    if not (src_mask and tgt_mask):
        return []
    block = filtered.total._block(i, src_mask, tgt_mask, fld.p)
    src_keys, tgt_keys = filtered._keys[i], filtered._keys[i - 1]
    columns = [(s, {tgt_keys[t]: c for t, c in block[s].items()})
               for s in sorted(block, key=src_keys.__getitem__, reverse=True)]
    n = len(tgt_keys)
    return [(-key % n, s) for s, key in pivot_pairs(columns, fld.p)]


def pages(filtered: FilteredTotal, gamma, fld: PrimeField = GF()) -> SpectralPages:
    """All pages of the filtration spectral sequence of the fibre of filtered
    at gamma.

    Pages are kept up to r_stab = max(2, largest gap + 2), the least r >= 2
    with d^s = 0 for every s >= r - 1.  dim E^r - dim E^{r+1} at a place
    is the number of gap-r pairs with an end there, and those are exactly
    the ranks of d^r out of it (their d ends) and into it (their b ends):
    the page bookkeeping is an identity, and with no unpaired count below
    0 every rank is at most both of its dimensions.  So InvariantBroken is
    raised by two checks only: a term whose pair count is not the rank of
    its unfiltered block, and a (term, level) with more pair ends than
    alive summands.  The first is the abutment's check too: E^infinity sums
    to alive_i - #pairs(d_i) - #pairs(d_{i+1}) on diagonal i, the total's
    homology is alive_i - rank d_i - rank d_{i+1}, so equal pair counts
    give equal sums, and equal sums at every i give equal counts by
    induction from the lowest term.  The pages depend on gamma only
    through its alive masks: each (p, masks) is computed and checked once,
    kept in the filtered total's page table, and the same frozen object is
    returned for every degree of that fibre class.
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
        pairs = persistence_pairs(filtered, i, alive, fld)
        # the same block eliminated in index order, its rank cached in the total
        rank = total._masked_rank(i, alive[i], alive.get(i - 1, 0), fld)
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
    for (i, p), e in free.items():
        if e < 0:
            raise InvariantBroken(f"term {i}, level {p}: {-e} more pair ends than summands")
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
        page_tables.append({(p, i - p): e for (i, p), e in counts.items() if e})
        rank_tables.append(ranks)
    pg = filtered._pages[key] = SpectralPages(
        pages=page_tables,
        ranks=rank_tables,
        e_infinity=page_tables[-1],
        r_stab=r_stab,
    )
    return pg


# ---------------------------------------------------------------------------
# Filtration builders for the four multicomplex spectral sequences


def _by_weight(m: Multicomplex, weight) -> FilteredTotal:
    """``m.total`` filtered by position: each summand sits at level
    weight(q) of the position q that ``m.layout`` lists for it."""
    levels = {i: [weight(q) for q in qs] for i, qs in m.layout.items()}
    return FilteredTotal(m.total, levels)


def build_filtration(m: Multicomplex, *, kind: str) -> FilteredTotal:
    """The filtered total of one of the four filtrations attached to m.

    kcone / kcone_augmented filter the Koszul cone of m (of its extension)
    by the number of face coordinates at 1; interior / interior_augmented
    filter the (augmented) multicomplex by the number of nonzero coordinates
    (of the first n).  Each filters the
    ``total`` of one multicomplex, built and checked once at the degrees it
    is read: m's for ``interior``, the new one's for the others.  A caller
    evaluating many degrees builds the filtration once and hands it to
    ``pages`` for each, so they share its block ranks.  Degrees beyond the
    stability box have the alive masks of the box.

    kcone_augmented cones the unchecked ``_extension(m)``, not a built
    extension, and loses no check.  The cone's s = 0 copy holds every
    position and map of the extension, and no face-axis map leaves it, so
    it is a subcomplex of the cone's total with the extension's signs: the
    cone's ``_rows``, ``_entry_valid`` and d∘d checks cover every entry the
    extension's would have.  The extension's summand bound still runs in
    ``_extension``, after the cone's, which is counted on m before any psi
    is composed: each m_q once per face vector with no s_j = 1 where
    q_j != 0, 2^(zeros of q) copies, and the corner once per vertex c of
    the cube and face vector below its zeros, 3^n copies in all.
    """
    n = m.n_axes
    if kind == "kcone":
        return _by_weight(koszul_cone(m), lambda q: sum(q[n:]))
    if kind == "kcone_augmented":
        corner = m.terms.get((0,) * n, ())
        _check_summands("koszul_cone", "copies",
                        sum(len(ss) * 2 ** q.count(0) for q, ss in m.terms.items())
                        + len(corner) * 3 ** n)
        return _by_weight(koszul_cone(_extension(m), face_axes=n),
                          lambda q: sum(q[n + 1:]))
    if kind == "interior":
        return _by_weight(m, lambda q: sum(1 for v in q if v))
    if kind == "interior_augmented":
        return _by_weight(hypercube_extend(m), lambda q: sum(1 for v in q[:n] if v))
    raise InvalidKind(f"unknown filtration kind {kind!r}")
