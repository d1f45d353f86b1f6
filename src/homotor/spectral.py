"""Spectral sequences of filtered graded complexes over GF(p).

Every filtration here is a coordinate filtration of a filtered total: each
summand of term i has one level in 0..N, and F_p is spanned by the summands
of level <= p.  The levels are checked once per total, over Z, on every
entry of its differential.  The fibre at a degree gamma is read through the
total's alive masks, and every page is an integer combination of ranks of
masked blocks of d, taken by ``GradedComplex._masked_rank`` and shared
through its cache by every degree evaluated on the same total.
With F_i(p) the number of alive degree-i summands of level <= p, and
R_i(a, b) the rank of the block of d_i whose source summands have level
<= b and whose target summands have level > a, so that
dim(F_b ∩ d^{-1}F_a) = F_i(b) - R_i(a, b):

    num_r(i, p)     = [F_i(p) - R_i(p-r, p)] - [F_i(p-1) - R_i(p-r, p-1)]
    dim E^r_{p,i-p} = num_r(i, p) - [R_{i+1}(p-1, p+r-1) - R_{i+1}(p, p+r-1)]
    rank of d^r out of (p, i) = num_r(i, p) - num_{r+1}(i, p)

num_r is the dimension of (F_p ∩ d^{-1}F_{p-r} + F_{p-1}) / F_{p-1}, the
bracket that of (d(F_{p+r-1}) ∩ F_p + F_{p-1}) / F_{p-1}, and E^r_p is the
first over the second.  Every page is checked against the page-bookkeeping
identity, and the abutment against the homology of the fibre, the same
unfiltered block ranks.  Builders produce the four filtrations attached to
an N^n multicomplex (Koszul cone, its hypercube-augmented variant, the
support-count filtration and its augmented variant) plus the two
Mayer-Vietoris double complexes.  Each builder returns a new filtered
total; a caller reading many degrees builds it once and passes it to
``pages`` at each degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FiltrationViolation, InvalidKind, InvariantBroken, UnitIdeal
from .exactlin import GF, PrimeField
from .gcomplex import GradedComplex, resolution
from .monomial import MonomialIdeal
from .multicomplex import (
    Multicomplex,
    hypercube_extend,
    koszul_cone,
    tensor,
    totalize,
)


class FilteredTotal:
    """A graded complex with a coordinate filtration F_0 ⊆ ... ⊆ F_N.

    ``levels[i][k]`` is the level (0..N) of summand k of term i; a term
    missing from ``levels`` has every summand at level 0.  The differential
    must respect the filtration: no nonzero integer entry of d_i may map a
    summand into a higher level, whichever degrees the summands are alive
    at.  ``below[i][p]`` is the bitmask of the summands of term i at level
    <= p.
    """

    def __init__(self, total: GradedComplex, levels: dict, N: int):
        self.total = total
        self.N = int(N)
        for i, lv in levels.items():
            if len(lv) != len(total.summands(i)):
                raise FiltrationViolation(
                    f"{len(lv)} levels for the {len(total.summands(i))} summands "
                    f"of term {i}"
                )
            if any(not 0 <= v <= self.N for v in lv):
                raise FiltrationViolation(f"a level at term {i} is outside 0..{self.N}")
        levels = {i: levels.get(i, [0] * len(ss)) for i, ss in total.terms.items()}
        for i, es in total.entries.items():
            src, tgt = levels[i], levels[i - 1]
            for s, t, _ in es:
                if tgt[t] > src[s]:
                    raise FiltrationViolation(
                        f"d(F_{src[s]}) not inside F_{src[s]} between terms "
                        f"{i} and {i - 1}"
                    )
        self.below = {
            i: [sum(1 << k for k, v in enumerate(lv) if v <= p)
                for p in range(self.N + 1)]
            for i, lv in levels.items()
        }


@dataclass
class SpectralPages:
    """Dimension tables E^r_{p,q} for r = 1..r_stab, the page-differential
    ranks, the stabilized table, and the abutment comparison."""

    pages: list
    ranks: list
    e_infinity: dict
    abutment_check: dict
    converged: bool
    r_stab: int
    levels: int = 0

    @property
    def e1(self) -> dict:
        return self.pages[0]

    def page(self, r: int) -> dict:
        return self.pages[min(r, self.r_stab) - 1]

    def total_dims(self, table: dict | None = None) -> dict:
        table = self.e_infinity if table is None else table
        out: dict = {}
        for (p, q), d in table.items():
            out[p + q] = out.get(p + q, 0) + d
        return out


def pages(filtered: FilteredTotal, gamma, fld: PrimeField = GF()) -> SpectralPages:
    """All pages of the filtration spectral sequence of the fibre of filtered
    at gamma, with convergence verified against the homology of that fibre.

    d^r = 0 for r > N, so pages are computed for r = 1..N+2 and kept up to
    r_stab, the least r >= 2 with d^s = 0 for every s >= r - 1.
    """
    total, below, N = filtered.total, filtered.below, filtered.N
    alive = total.alive_masks(gamma)
    window = [i for i, mask in sorted(alive.items()) if mask]

    def level(i, p):
        """The alive summands of term i at level <= p."""
        if p < 0 or i not in below:
            return 0
        return alive[i] & below[i][min(p, N)]

    def F(i, p):
        return level(i, p).bit_count()

    def R(i, a, b):
        src, tgt = level(i, b), alive.get(i - 1, 0) & ~level(i - 1, a)
        return total._masked_rank(i, src, tgt, fld) if src and tgt else 0

    def num(i, p, r):
        return (F(i, p) - R(i, p - r, p)) - (F(i, p - 1) - R(i, p - r, p - 1))

    page_tables = []
    rank_tables = []
    for r in range(1, N + 3):
        dims = {}
        ranks = {}
        for i in window:
            for p in range(N + 1):
                n_r = num(i, p, r)
                e = n_r - (R(i + 1, p - 1, p + r - 1) - R(i + 1, p, p + r - 1))
                rk = n_r - num(i, p, r + 1)
                if e:
                    dims[(p, i - p)] = e
                if rk:
                    ranks[(p, i - p)] = rk
        _check_page(r, dims, ranks, page_tables, rank_tables)
        page_tables.append(dims)
        rank_tables.append(ranks)
    last_moving = max((s for s, rk in enumerate(rank_tables, 1) if rk), default=0)
    r_stab = max(2, last_moving + 2)
    del page_tables[r_stab:], rank_tables[r_stab:]
    e_inf = page_tables[-1]
    # the unfiltered blocks: the keys homology_at caches for this fibre
    base_h = {i: F(i, N) - R(i, -1, N) - R(i + 1, -1, N) for i in window}
    check = {}
    totals = {}
    for (p, q), d in e_inf.items():
        totals[p + q] = totals.get(p + q, 0) + d
    converged = True
    for i in set(base_h) | set(totals):
        lhs = totals.get(i, 0)
        rhs = base_h.get(i, 0)
        check[i] = (lhs, rhs)
        if lhs != rhs:
            converged = False
    return SpectralPages(
        pages=page_tables,
        ranks=rank_tables,
        e_infinity=e_inf,
        abutment_check=check,
        converged=converged,
        r_stab=r_stab,
        levels=N,
    )


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


def _by_weight(total: GradedComplex, weight, N: int) -> FilteredTotal:
    """The filtration of total that puts each summand at the level
    weight(label) of its (q, label) tag."""
    return FilteredTotal(
        total, {i: [weight(s.label) for s in ss] for i, ss in total.terms.items()}, N
    )


def build_filtration(m: Multicomplex, *, kind: str) -> FilteredTotal:
    """The filtered total of one of the four filtrations attached to m.

    kcone / kcone_augmented filter the (augmented) Koszul-cone construction
    by the cone index; interior / interior_augmented filter the (augmented)
    multicomplex by the number of nonzero coordinates.  Each call builds and
    checks a new total; a caller evaluating many degrees builds it once and
    hands it to ``pages`` for each, so they share its block ranks.  Degrees
    beyond the stability box have the alive masks of the box.
    """
    n = m.n_axes
    if kind == "kcone":
        total = totalize(koszul_cone(m))

        def weight(label):
            return label[0][-1]

    elif kind == "kcone_augmented":
        total = totalize(koszul_cone(hypercube_extend(m), face_axes=n), shift=-1)

        def weight(label):
            return label[0][-1]

    elif kind == "interior":
        total = totalize(m)

        def weight(label):
            return sum(1 for v in label[0] if v)

    elif kind == "interior_augmented":
        total = totalize(hypercube_extend(m), shift=-1)

        def weight(label):
            return sum(1 for v in label[0][:n] if v)

    else:
        raise InvalidKind(f"unknown filtration kind {kind!r}")
    return _by_weight(total, weight, n)


# ---------------------------------------------------------------------------
# Mayer-Vietoris double complexes


def mv_total_complex(kind: str, ideals, coefficient: MonomialIdeal | None = None
                     ) -> FilteredTotal:
    """The filtered total of the S_-/P double complex, the tensor of a
    complex X with the free resolution F of M, filtered by the X position.

    sum_to_product: X is S^1 -> ... -> S^n moved to chain positions n - p,
    so a summand S^p ⊗ F_q sits in degree n - p + q with filtration weight
    n - p; its first page has E^1_{n-p,q} = ⊕ Tor_q(M, R/(sum of a
    p-subset)).  product_to_sum: X = P, P_p ⊗ F_q in degree p + q, weight p;
    E^1_{p,q} = ⊕ Tor_q(M, R/(product of a p-subset)).
    """
    from . import sumprod  # deferred: sumprod imports this module

    ideals = list(ideals)
    n = len(ideals)
    for ideal in ideals:
        if ideal.is_unit():
            raise UnitIdeal("mv_total_complex needs proper ideals")
    n_vars = ideals[0].n
    if coefficient is None:
        coefficient = MonomialIdeal.zero(n_vars)
    if kind == "sum_to_product":
        x = sumprod.truncated(sumprod.build_s_complex(ideals)).shifted(n)
    elif kind == "product_to_sum":
        x = sumprod.build_p_complex(ideals)
    else:
        raise InvalidKind(f"unknown mv kind {kind!r}")
    total = totalize(tensor([x, resolution(coefficient)]))
    return _by_weight(total, lambda label: label[0][0], n)
