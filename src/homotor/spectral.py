"""Spectral sequences of filtered complexes of GF(p) vector spaces.

Every filtration here is a coordinate filtration: each basis vector of
degree i has one level in 0..N, and F_p is spanned by the vectors of level
<= p.  Every page is then an integer combination of ranks of blocks of d.
With F_i(p) the number of degree-i vectors of level <= p, and R_i(a, b) the
rank of the block of d_i whose source vectors have level <= b and whose
target vectors have level > a, so that dim(F_b ∩ d^{-1}F_a) = F_i(b) - R_i(a, b):

    num_r(i, p)     = [F_i(p) - R_i(p-r, p)] - [F_i(p-1) - R_i(p-r, p-1)]
    dim E^r_{p,i-p} = num_r(i, p) - [R_{i+1}(p-1, p+r-1) - R_{i+1}(p, p+r-1)]
    rank of d^r out of (p, i) = num_r(i, p) - num_{r+1}(i, p)

num_r is the dimension of (F_p ∩ d^{-1}F_{p-r} + F_{p-1}) / F_{p-1}, the
bracket that of (d(F_{p+r-1}) ∩ F_p + F_{p-1}) / F_{p-1}, and E^r_p is the
first over the second.  Every page is checked against the page-bookkeeping
identity, and the abutment against the homology of the underlying total
complex.  Builders produce the four filtrations attached to an N^n
multicomplex (Koszul cone, its hypercube-augmented variant, the
support-count filtration and its augmented variant) plus the two
Mayer-Vietoris double complexes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FiltrationViolation, InvalidKind, InvariantBroken, UnitIdeal
from .exactlin import GF, FiberComplex, PrimeField, ScalarMatrix, homology_dims, rank
from .gcomplex import taylor_resolution, tensor_complexes
from .monomial import Multidegree, MonomialIdeal
from .multicomplex import (
    Multicomplex,
    hypercube_extend,
    koszul_cone,
    totalize,
)


class FilteredFiberComplex:
    """A fiber complex with a coordinate filtration F_0 ⊆ ... ⊆ F_N.

    ``levels[i][k]`` is the level (0..N) of basis vector k of degree i; a
    degree missing from ``levels`` has every vector at level 0.  The
    differentials must respect the filtration: no nonzero entry of d_i may
    map a vector into a higher level.
    """

    def __init__(self, base: FiberComplex, levels: dict, N: int,
                 field: PrimeField = GF()):
        self.base = base
        self.field = field
        self.N = int(N)
        for i, lv in levels.items():
            if len(lv) != base.dim(i):
                raise FiltrationViolation(
                    f"{len(lv)} levels for the {base.dim(i)} vectors of degree {i}"
                )
            if any(not 0 <= v <= self.N for v in lv):
                raise FiltrationViolation(f"a level at degree {i} is outside 0..{self.N}")
        self.levels = {
            i: list(levels.get(i, [0] * base.dim(i))) for i in base.window()
        }
        for i, d in base.diffs.items():
            src, tgt = self.levels[i], self.levels[i - 1]
            for (r, c), v in d.entries.items():
                if v % field.p and tgt[r] > src[c]:
                    raise FiltrationViolation(
                        f"d(F_{src[c]}) not inside F_{src[c]} between degrees "
                        f"{i} and {i - 1}"
                    )


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


def pages(f: FilteredFiberComplex, fld: PrimeField | None = None) -> SpectralPages:
    """All pages of the filtration spectral sequence of f, with convergence
    verified against the homology of the base complex.

    d^r = 0 for r > N, so pages are computed for r = 1..N+2 and kept up to
    r_stab, the least r >= 2 with d^s = 0 for every s >= r - 1.
    """
    fld = f.field if fld is None else fld
    base = f.base
    window = list(base.window())
    N = f.N
    counts = {
        i: [sum(1 for v in lv if v <= p) for p in range(N + 1)]
        for i, lv in f.levels.items()
    }
    block_ranks = {}

    def F(i, p):
        if p < 0 or i not in counts:
            return 0
        return counts[i][min(p, N)]

    def R(i, a, b):
        key = (i, max(a, -1), min(b, N))
        if key not in block_ranks:
            _, a, b = key
            d = base.diffs.get(i)
            if d is None or b < 0 or a >= N:
                block_ranks[key] = 0
            else:
                cols = _positions(f.levels[i], lambda v: v <= b)
                rows = _positions(f.levels[i - 1], lambda v: v > a)
                block = ScalarMatrix(len(rows), len(cols), [
                    (rows[r], cols[c], v) for (r, c), v in d.entries.items()
                    if r in rows and c in cols
                ])
                block_ranks[key] = rank(block, fld)
        return block_ranks[key]

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
    base_h = dict(homology_dims(base, fld))
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


def _positions(levels, keep) -> dict:
    """{index in levels: index among the kept entries} for entries with keep(level)."""
    return {k: n for n, k in enumerate(k for k, v in enumerate(levels) if keep(v))}


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


def _filtered_from_total(entry, gamma, fld: PrimeField) -> FilteredFiberComplex:
    """Coordinate filtration of the fiber at gamma of a filtered total
    ``entry = (total, weight, N, box)``: gamma is clamped to the stability
    box and each surviving summand gets the level weight(label) of its
    (q, label) tag."""
    total, weight, N, box = entry
    gamma = Multidegree(tuple(min(g, b) for g, b in zip(gamma, box)))
    masks = total.alive_masks(gamma)
    levels = {
        i: [weight(s.label) for k, s in enumerate(total.summands(i))
            if masks.get(i, 0) >> k & 1]
        for i in total.window()
    }
    return FilteredFiberComplex(total.fiber(gamma), levels, N, fld)


def build_filtration(m: Multicomplex, gamma, kind: str,
                     fld: PrimeField = GF()) -> FilteredFiberComplex:
    """The fiber at gamma of one of the four filtrations attached to m.

    kcone / kcone_augmented filter the (augmented) Koszul-cone construction
    by the cone index; interior / interior_augmented filter the (augmented)
    multicomplex by the number of nonzero coordinates.  gamma is clamped to
    the stability box.

    The total complex of each kind, with its weight, level count and the
    stability box of m, is built on the first call for that kind and kept
    on m for as long as m lives, so later degrees reuse it together with
    the fibre threshold tables the total builds on its first fiber.
    """
    entry = m._totals.get(kind)
    if entry is None:
        entry = m._totals[kind] = _filtered_total(m, kind)
    return _filtered_from_total(entry, gamma, fld)


def _filtered_total(m: Multicomplex, kind: str):
    """(total, weight, N, box) of one of the four filtrations of m."""
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
    return total, weight, n, m.stable_box()


# ---------------------------------------------------------------------------
# Mayer-Vietoris double complexes


def mv_total_complex(kind: str, ideals, coefficient: MonomialIdeal | None = None):
    """(total, weight, N, box) of the S_-/P double complex: its total
    complex, filtration weight, level count and stability box.

    sum_to_product: S^1 -> ... -> S^n tensored with a resolution of M,
    re-indexed so a summand S^p ⊗ F_q sits in degree n - p + q with
    filtration weight n - p.  product_to_sum: P_p ⊗ F_q in degree p + q,
    weight p.
    """
    from . import sumprod  # deferred: sumprod imports this module

    ideals = list(ideals)
    n = len(ideals)
    for ideal in ideals:
        if ideal.is_unit():
            raise UnitIdeal("mv_double needs proper ideals")
    n_vars = ideals[0].n
    if coefficient is None:
        coefficient = MonomialIdeal.zero(n_vars)
    resolution = taylor_resolution(coefficient)
    if kind == "sum_to_product":
        s = sumprod.build_s_complex(ideals).truncated()
        total = tensor_complexes(s, resolution).shifted(n)

        def weight(label):
            return n + label[0][0]  # stored S index is -p

    elif kind == "product_to_sum":
        p_complex = sumprod.build_p_complex(ideals).underlying
        total = tensor_complexes(p_complex, resolution)

        def weight(label):
            return label[0][0]

    else:
        raise InvalidKind(f"unknown mv kind {kind!r}")
    return total, weight, n, total.stable_box()


def mv_double(kind: str, ideals, coefficient: MonomialIdeal | None,
              gamma, fld: PrimeField = GF(),
              _cache: dict | None = None) -> SpectralPages:
    """Pages of a Mayer-Vietoris double complex at one multidegree.

    The first page of sum_to_product has E^1_{n-p,q} = ⊕ Tor_q(M, R/(sum of
    a p-subset)); product_to_sum has E^1_{p,q} = ⊕ Tor_q(M, R/(product of a
    p-subset)).

    With a ``_cache`` dict, the total complex, its weight, level count and
    stability box are kept there under (kind, ideals, coefficient), so every
    call given the same dict reuses them; the caller decides how long the
    dict lives.  Without one, the total is built for this call only.
    """
    ideals = list(ideals)
    key = (
        kind,
        tuple(i.key() for i in ideals),
        coefficient.key() if coefficient is not None else None,
    )
    entry = None if _cache is None else _cache.get(key)
    if entry is None:
        entry = mv_total_complex(kind, ideals, coefficient)
        if _cache is not None:
            _cache[key] = entry
    return pages(_filtered_from_total(entry, gamma, fld), fld)
