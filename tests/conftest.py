import functools
import itertools

import pytest
from hypothesis import settings

from homotor import MonomialIdeal, Multidegree
from homotor.cli import random_instance
from homotor.errors import (
    BoxTooSmall,
    InvariantBroken,
    LengthMismatch,
    MixedKinds,
    UnitIdeal,
    ValidationError,
)
from homotor.exactlin import GF, PrimeField, pivot_pairs
from homotor.gcomplex import (
    IDEAL,
    GradedComplex,
    TorTable,
    _compose,
    cancel_units,
    exterior_complex,
    free_summand,
    module_homology_table,
    resolution,
    summand,
    taylor_resolution,
)
from homotor.monomial import check_family, combine, iter_box, lcm_deg, membership
from homotor.multicomplex import (
    Multicomplex,
    _compose_chain,
    hypercube_augment,
    tensor,
)
from homotor.spectral import SpectralPages, _by_weight, build_filtration, pages
from homotor.sumprod import (
    _compare_slices,
    build_p_complex,
    build_s_complex,
    complex_homology_table,
)
from homotor.support import SPECTRAL_DEGREES
from homotor.torlab import (
    CheckReport,
    _table_independent,
    family_box,
    multi_tor,
)

settings.register_profile("det", derandomize=True, max_examples=60)
settings.load_profile("det")


def stream(seed, count, **params):
    """Deterministic family stream used across the suites."""
    return [random_instance(seed + t, **params) for t in range(count)]


def set_partitions(items):
    """Every partition of items into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


def tensor_total(ideals, coefficient=None):
    """Every module resolved: the total of the tensor of the unit-cancelled
    Taylor resolutions, with R/coefficient applied termwise.  Its homology
    is the Tor table that the balanced ``multi_tor`` must reproduce."""
    total = tensor([cancel_units(taylor_resolution(ideal)) for ideal in ideals]).total
    if coefficient is not None and not coefficient.is_zero():
        total = with_coefficient(total, coefficient)
    return total


def tor1_per_degree(ideals, fld=GF(), box=None):
    """The Tor_1 table of the family degree by degree: at each degree of
    the box, the survivors are the ideals that contain it, and Tor_1 is the
    kernel of the sum map on them modulo the span of the pairwise product
    relations that hold there.  The reference for ``tor1_oracle``, which
    computes each distinct membership state once."""
    ideals, stable = check_family(ideals)
    box = Multidegree(stable if box is None else box)
    s = len(ideals)
    pair_products = {
        (i, j): combine([ideals[i], ideals[j]], "product")
        for i, j in itertools.combinations(range(s), 2)
    }
    entries = {}
    for gamma in iter_box(box):
        survivors = [i for i in range(s) if ideals[i].contains(gamma)]
        if not survivors:
            continue
        pos = {i: k for k, i in enumerate(survivors)}
        rows = [((i, j), {pos[i]: 1, pos[j]: fld.p - 1})
                for (i, j), prod in pair_products.items() if prod.contains(gamma)]
        d = len(survivors) - 1 - len(pivot_pairs(rows, fld.p))
        if d:
            entries[(1, tuple(gamma))] = d
    return TorTable(entries, box)


def with_coefficient(c, coefficient):
    """Tensor a cyclic complex with the quotient module R/coefficient
    summand by summand: R/J(-a) becomes R/(J + coefficient)(-a), so free
    R(-a) = R/0(-a) becomes R/coefficient(-a), and the scalar entries are
    unchanged.  The reference for the cyclic factors of ``tensor``."""
    if coefficient.is_unit():
        raise UnitIdeal("coefficient module R/I is zero")
    if c.kind == IDEAL:
        raise MixedKinds("cannot tensor an ideal-summand complex with a quotient")
    terms = {i: tuple(summand(combine([s.ideal, coefficient], "sum"), s.shift)
                      for s in ss)
             for i, ss in c.terms.items()}
    return GradedComplex(c.n, terms, dict(c.d))


def tensor_by_search(factors):
    """The tensor multicomplex of ``factors`` (cyclic, in non-negative
    degrees), its entries found by scanning every combo of summand indices,
    reading the acting factor's row of its summand in that combo, and
    placing each combo by its position in the product order: the reference
    for the mixed-radix indexing of ``tensor``."""
    factors = list(factors)
    n_vars = factors[0].n
    windows = [sorted(f.terms) for f in factors]

    def product_summand(combo):
        shift = functools.reduce(Multidegree.add, (s.shift for s in combo),
                                 Multidegree.zero(n_vars))
        return summand(combine([s.ideal for s in combo], "sum"), shift)

    terms = {
        q: tuple(product_summand(combo) for combo in
                 itertools.product(*(f.terms[qi] for f, qi in zip(factors, q))))
        for q in itertools.product(*windows)
    }

    def pos(q, combo):
        p = 0
        for f, qi, ci in zip(factors, q, combo):
            p = p * len(f.terms[qi]) + ci
        return p

    diffs = {}
    for q in terms:
        for k, f in enumerate(factors):
            tgt_q = q[:k] + (q[k] - 1,) + q[k + 1:]
            if tgt_q not in terms:
                continue
            ranges = [range(len(fac.terms[qi])) for fac, qi in zip(factors, q)]
            rows = {}
            for combo in itertools.product(*ranges):
                for tgt, coeff in f.d.get(q[k], {}).get(combo[k], ()):
                    rows.setdefault(pos(q, combo), []).append(
                        (pos(tgt_q, combo[:k] + (tgt,) + combo[k + 1:]), coeff))
            if rows:
                diffs[(q, k)] = rows
    return Multicomplex(len(factors), n_vars, terms, diffs)


def shifted_oracle(c, k):
    """c moved k degrees up, re-keyed and rebuilt: index i holds what sat
    at index i - k.  The reference for the shift a ``Multicomplex`` and
    the S_- of ``mv_total_complex`` build their complexes at."""
    return GradedComplex(c.n, {i + k: ss for i, ss in c.terms.items()},
                         {i + k: rows for i, rows in c.d.items()}, c.kind)


def truncated_cochain(s):
    """S^1 -> ... -> S^n of a sum complex as a cochain complex, S^p at
    index -p (index 0 dropped): with ``s_minus``, the reference for the
    chain complex S_- that ``mv_total_complex`` builds at once, S^p at
    index n - p."""
    terms = {i: ss for i, ss in s.terms.items() if i != 0}
    d = {i: rows for i, rows in s.d.items() if i != 0}
    return GradedComplex(s.n, terms, d, s.kind)


def s_minus(ideals):
    """S_- = S^1 -> ... -> S^n of the family, S^p at chain index n - p,
    built in three checked steps: S, its cochain truncation, the shift by
    n.  The reference for the one-pass S_- of ``mv_total_complex``."""
    return shifted_oracle(truncated_cochain(build_s_complex(ideals)), len(ideals))


def augment_in_two_steps(m):
    """The hypercube augmentation of m built as a validated total of the
    interior, then a second complex with the corner and the composed map
    psi added: the reference for ``hypercube_augment``, which builds the
    same complex as the total of the top level of ``hypercube_extend(m)``.
    psi is the level axis there, last of n + 1 axes, so the total gives it
    the Koszul sign (-1)^n at (1, ..., 1); scaling the corner by that sign
    is an isomorphism, so the homology is the same either way."""
    n = m.n_axes
    inner = {q: ss for q, ss in m.terms.items() if all(q)}
    total = Multicomplex(n, m.n_vars, inner, m.diffs).total
    psi = _compose_chain(m, (1,) * n, reversed(range(n)))
    sign = (-1) ** n
    return GradedComplex(
        m.n_vars,
        {**total.terms, n - 1: m.terms.get((0,) * n, ())},
        {**total.d, n: {s: [(t, sign * c) for t, c in row] for s, row in psi.items()}},
    )


def packed_koszul_cone(m, face_axes):
    """The Koszul cone with every size-p subset S of the face axes packed
    into one last axis: position (q, p) holds a copy of m_q for each S
    (in ``itertools.combinations`` order) that misses the support of q,
    m's axis maps act copy by copy, and the last axis maps the copy on S
    to the copy on each face of S, signed as ``exterior_complex`` signs
    it.  The reference for ``koszul_cone``, whose total is this one with
    the summands of each term reordered; ``packed_cone_labels`` names each
    summand of either as (q, S, index in m_q)."""
    n = m.n_axes
    subsets, d = exterior_complex(face_axes, tuple)
    faces = {p: {subsets[p][s]: [(subsets[p - 1][t], c) for t, c in row]
                 for s, row in rows.items()}
             for p, rows in d.items()}
    terms = {}
    start = {}  # (q, S) -> the index in term q + (p,) of the copy of m_q on S
    for q, ss in m.terms.items():
        supp = {i for i in range(face_axes) if q[i]}
        for p in range(face_axes + 1):
            compatible = [S for S in subsets[p] if not supp & set(S)]
            for j, S in enumerate(compatible):
                start[(q, S)] = j * len(ss)
            terms[q + (p,)] = ss * len(compatible)
    diffs = {}
    for (q, k), rows in m.diffs.items():
        tgt_q = Multicomplex._step(q, k)
        for p in range(face_axes + 1):
            out = {start[(q, S)] + s: [(start[(tgt_q, S)] + t, c) for t, c in row]
                   for S in subsets[p] if (q, S) in start for s, row in rows.items()}
            if out:
                diffs[(q + (p,), k)] = out
    for q, ss in m.terms.items():
        for p in range(1, face_axes + 1):
            out = {start[(q, S)] + idx: [(start[(q, face)] + idx, c) for face, c in row]
                   for S, row in faces[p].items() if (q, S) in start
                   for idx in range(len(ss))}
            if out:
                diffs[(q + (p,), n)] = out
    return Multicomplex(n + 1, m.n_vars, terms, diffs, m.shift)


def packed_cone_labels(cone, n, face_axes, packed):
    """{i: the label (q, S, index in m_q) of each summand of term i} of
    the total of a Koszul cone over an n-axis multicomplex: for
    ``koszul_cone``'s cube, S is the face axes at 1; for
    ``packed_koszul_cone``'s (``packed`` true), S is the subset whose copy
    holds the summand, the copies in combinations order of the size-p
    subsets that miss the support of q."""
    labels = {}
    for i, positions in cone.layout.items():
        out = labels[i] = []
        for pos in dict.fromkeys(positions):
            q = pos[:n]
            if packed:
                copies = [S for S in itertools.combinations(range(face_axes), pos[n])
                          if not any(q[j] for j in S)]
            else:
                copies = [tuple(j for j in range(face_axes) if pos[n + j])]
            size = len(cone.terms[pos]) // len(copies)
            out.extend((q, S, k) for S in copies for k in range(size))
    return labels


def axes_oracle(m):
    """The first failing square of m, anything with a multicomplex's
    ``n_axes``, ``terms`` and ``diffs``, as (q, j, k): j == k when d_k does
    not square to zero at q, j < k when d_j and d_k do not commute there;
    None when every axis squares to zero and every pair commutes.  The
    reference for the one d∘d = 0 check of the total of a ``Multicomplex``.
    Two composites are compared as {source: {target: coefficient}}, since
    ``_compose`` leaves each row's targets unsorted."""
    def entry_map(q, k):
        return m.diffs.get((q, k), {})

    def composite(second, first):
        return {s: dict(row) for s, row in _compose(second, first).items()}

    step = Multicomplex._step
    for q in m.terms:
        for k in range(m.n_axes):
            if q[k] >= 2 and _compose(entry_map(step(q, k), k), entry_map(q, k)):
                return q, k, k
        for j, k in itertools.combinations(range(m.n_axes), 2):
            if q[j] and q[k] and (
                    composite(entry_map(step(q, j), k), entry_map(q, j))
                    != composite(entry_map(step(q, k), j), entry_map(q, k))):
                return q, j, k
    return None


def pair_intersection(a, b):
    """The intersection of two monomial ideals, generated by the lcms of a
    generator of each: the reference for the intersections the tests use."""
    return MonomialIdeal(a.n, [lcm_deg(g, h) for g in a.gens for h in b.gens])


def _match_by_len(a, b):
    if len(a) != len(b):
        raise LengthMismatch(f"lengths {len(a)} and {len(b)} differ")


def leq_by_zip(a, b) -> bool:
    """a <= b componentwise, one generator over zip: the reference for
    ``Multidegree.leq``."""
    _match_by_len(a, b)
    return all(x <= y for x, y in zip(a, b))


def add_by_zip(a, b) -> Multidegree:
    """a + b through the validating constructor: the reference for
    ``Multidegree.add``."""
    _match_by_len(a, b)
    return Multidegree(x + y for x, y in zip(a, b))


def sub_by_zip(a, b) -> Multidegree:
    """a - b, refused outside N^n, through the validating constructor: the
    reference for ``Multidegree.sub``."""
    _match_by_len(a, b)
    diff = [x - y for x, y in zip(a, b)]
    if any(d < 0 for d in diff):
        raise ValidationError(f"{a} - {b} leaves N^n")
    return Multidegree(diff)


def lcm_by_zip(a, b) -> Multidegree:
    """The componentwise maximum through the validating constructor: the
    reference for ``lcm_deg``."""
    _match_by_len(a, b)
    return Multidegree(max(x, y) for x, y in zip(a, b))


def membership_by_leq(gamma, ideal) -> bool:
    """Some generator divides gamma, each tested by ``leq_by_zip``: the
    reference for ``membership``.  A degree of another length, or with a
    negative exponent, is refused."""
    if len(gamma) != ideal.n:
        raise LengthMismatch(f"degree length {len(gamma)} != {ideal.n}")
    if any(g < 0 for g in gamma):
        raise ValidationError(f"negative exponent in {tuple(gamma)}")
    return any(leq_by_zip(g, gamma) for g in ideal.gens)


def s_closed_form(ideals, gamma) -> dict:
    """{i: dim H^i(S)_gamma} of the quotient variant of S, nonzero only, by
    its closed form: H^0(S)_gamma = k iff gamma lies in every ideal and not
    in their product, and every other entry is 0, so H(S) = (∩ I_i)/(∏ I_i).
    It reads membership only, the product's as a choice of one generator
    per ideal whose sum divides gamma: no complex and no rank.

    Proof: let A = {i : gamma not in I_i}.  A summand T of S^p, p >= 1, is
    alive at gamma iff T ⊆ A, and S^0 iff gamma is not in the product.  If
    A is nonempty, gamma is not in the product, and the fibre is the
    augmented cochain complex of the full simplex on A, which is exact; if
    A is empty, only S^0 can be alive."""
    if not all(membership_by_leq(gamma, ideal) for ideal in ideals):
        return {}
    in_product = any(all(sum(column) <= g for column, g in zip(zip(*choice), gamma))
                     for choice in itertools.product(*(ideal.gens for ideal in ideals)))
    return {} if in_product else {0: 1}


def p_simplicial(ideals, gamma, p) -> dict:
    """{i: dim H_i(P)_gamma} of the quotient variant of P over GF(p),
    nonzero only, by its simplicial form H_i(P)_gamma = H~_{i-2}(Δ(gamma)),
    Δ(gamma) = {T ⊆ [n] : gamma in the product of the I_t, t in T}.  The
    empty face is in Δ(gamma) (its product is R), and H~_{-1}({∅}) = k.
    It reads membership of gamma in the products of ``combine`` and takes
    ``reduced_homology`` of Δ(gamma), over at most 2^n faces: no complex
    and no homotor rank.

    Proof: the summand T of P_|T| is alive at gamma iff T is nonempty and
    not in Δ(gamma), so the fibre is the relative chain complex of the full
    simplex on [n] modulo Δ(gamma), P_i on the faces of i vertices; the
    simplex is acyclic, so H_i(P) = H_{i-1}(simplex, Δ) = H~_{i-2}(Δ)."""
    n = len(ideals)
    faces = [[t for t in itertools.combinations(range(n), k)
              if not t or membership_by_leq(gamma, combine([ideals[j] for j in t], "product"))]
             for k in range(n + 1)]
    return {k + 1: d for k, d in reduced_homology(faces, p).items()}


def summand_alive(s, gamma, kind) -> bool:
    """Whether the summand s of a complex of the given kind contributes one
    basis vector at degree gamma, read off its shift and ideal: the
    reference for ``alive_masks``."""
    if not s.shift.leq(gamma):
        return False
    member = s.ideal.contains(Multidegree(g - t for g, t in zip(gamma, s.shift)))
    return member if kind == IDEAL else not member


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


def total_dims(pg) -> dict:
    """{p + q: the dimensions of pg's E^infinity on that diagonal, summed}."""
    out: dict = {}
    for (p, q), d in pg.e_infinity.items():
        out[p + q] = out.get(p + q, 0) + d
    return out


def block_rank_pages(filtered, gamma, fld=GF()):
    """The pages of filtered at gamma from masked block ranks of d.

    With F_i(p) the number of alive degree-i summands of level <= p, and
    R_i(a, b) the rank of the block of d_i whose source summands have level
    <= b and whose target summands have level > a, so that
    dim(F_b ∩ d^{-1}F_a) = F_i(b) - R_i(a, b):

        num_r(i, p)     = [F_i(p) - R_i(p-r, p)] - [F_i(p-1) - R_i(p-r, p-1)]
        dim E^r_{p,i-p} = num_r(i, p) - [R_{i+1}(p-1, p+r-1) - R_{i+1}(p, p+r-1)]
        rank of d^r out of (p, i) = num_r(i, p) - num_{r+1}(i, p)

    num_r is the dimension of (F_p ∩ d^{-1}F_{p-r} + F_{p-1}) / F_{p-1},
    the bracket that of (d(F_{p+r-1}) ∩ F_p + F_{p-1}) / F_{p-1}, and E^r_p
    is the first over the second.  Pages are computed for r = 1..N+2 and
    kept up to r_stab, the least r >= 2 with d^s = 0 for every s >= r - 1.
    Raises InvariantBroken unless the diagonal sums of E^infinity are the
    homology of the fibre, from the unfiltered block ranks: here the pages
    and the abutment are two computations.  The reference for the
    persistence pairing of ``spectral.pages``.
    """
    total, N = filtered.total, filtered.N
    below = {
        i: [sum(1 << k for k, v in enumerate(lv) if v <= p) for p in range(N + 1)]
        for i, lv in filtered.levels.items()
    }
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
    base_h = {i: F(i, N) - R(i, -1, N) - R(i + 1, -1, N) for i in window}
    totals = {}
    for (p, q), d in e_inf.items():
        totals[p + q] = totals.get(p + q, 0) + d
    if totals != {i: h for i, h in base_h.items() if h}:
        raise InvariantBroken(f"E^infinity sums {totals} for the homology {base_h}")
    return SpectralPages(
        pages=page_tables,
        ranks=rank_tables,
        e_infinity=e_inf,
        r_stab=r_stab,
    )


def abuts_to_the_total(pg, filtered, gamma, fld=GF()) -> bool:
    """Whether the diagonal sums of pg's E^infinity are the nonzero
    homology of filtered's total at gamma: the abutment, compared here
    rather than by ``spectral.pages``, whose pair-count check implies it."""
    h = filtered.total.homology_at(gamma, fld)
    return total_dims(pg) == {i: d for i, d in h.items() if d}


def persistence_pairs_oracle(filtered, i, alive, fld=GF()):
    """The pairs (b, d) of the level-ordered reduction of the alive block of
    d_i, from the block the total reads for its own ranks: its rows re-keyed
    by target (level, index) and its sources sorted by (level, index) on
    every call.  The reference for ``spectral.persistence_pairs``."""
    src_lv, tgt_lv = filtered.levels[i], filtered.levels[i - 1]
    n = len(tgt_lv)
    block = filtered.total._block(i, alive.get(i, 0), alive.get(i - 1, 0), fld.p)
    # the lowest key is the target of highest (level, index)
    columns = [(s, {-(tgt_lv[t] * n + t): c for t, c in row.items()})
               for s, row in block.items()]
    columns.sort(key=lambda sc: (src_lv[sc[0]], sc[0]))
    return [(-key % n, s) for s, key in pivot_pairs(columns, fld.p)]


def pivot_pairs_scaled(rows, p):
    """``exactlin.pivot_pairs`` with each pivot row stored as a copy scaled
    to 1 at its lowest column, a later row reduced by its own value there:
    the kernel's earlier form, the reference for the unscaled one."""
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


def _rank_mod(rows, p):
    """The rank over GF(p) of a list of integer rows of one length, by dense
    Gaussian elimination: a reference that shares no code with exactlin."""
    rows = [[v % p for v in row] for row in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        for k in range(r + 1, len(rows)):
            f = rows[k][col] * inv % p
            rows[k] = [(a - f * b) % p for a, b in zip(rows[k], rows[r])]
        r += 1
    return r


def _sparse_rank(rows, p):
    """The rank over GF(p) of sparse integer rows ({column: value}), each
    reduced against the pivot rows kept so far by its lowest column: a
    reference that shares no code with exactlin."""
    pivots = {}
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], p - 2, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivots[c].items():
                value = (row.get(k, 0) - f * v) % p
                if value:
                    row[k] = value
                else:
                    row.pop(k, None)
    return len(pivots)


def diagonal_tor(ideals, coefficient, gamma, p):
    """{i: dim Tor_i(R/I_1, ..., R/I_k; R/J)_gamma} over GF(p), nonzero only,
    by Serre's reduction to the diagonal (Serre, Local Algebra, Ch. V): H_i
    of the Koszul complex on the differences x_j^(s) - x_j^(s+1) over
    A = R/I_1 (x) ... (x) R/I_k (x) R/J, tensored over k, in total degree
    gamma.  A coefficient of None or the zero ideal means R/J = R, a
    factor that changes nothing, so it is left out.  In degree gamma, K_i
    has the basis (S, (b_1, ..., b_m)): S an i-subset of the differences,
    sum b_s = gamma - deg S, and no b_s in its ideal; x_j^(s) raises b_s by
    e_j, to zero when it lands in the ideal.  It reads only generators:
    no resolution, tensor or box sweep, and its own elimination."""
    modules = list(ideals)
    if coefficient is not None and not coefficient.is_zero():
        modules.append(coefficient)
    n, m = len(gamma), len(modules)

    def inside(b, ideal):
        return any(all(x >= g for x, g in zip(b, gen)) for gen in ideal.gens)

    def below_outside(c, ideal):
        """Every degree b <= c outside ideal, built coordinate by coordinate:
        a coordinate stops growing once b, its later coordinates at 0, lands
        in the ideal, since every b above that one is in it too."""
        out = [()]
        for k, x in enumerate(c):
            zeros = (0,) * (len(c) - k - 1)
            grown = []
            for b in out:
                for v in range(x + 1):
                    if inside(b + (v,) + zeros, ideal):
                        break
                    grown.append(b + (v,))
            out = grown
        return out

    @functools.cache
    def splits(c, k):
        """Every tuple of degrees, one outside each ideal of modules[k:],
        summing to c: each part is pruned as soon as it lands in its ideal,
        and each (c, k) is split once."""
        if k == m - 1:
            return [] if inside(c, modules[k]) else [(c,)]
        return [(b,) + t for b in below_outside(c, modules[k])
                for t in splits(tuple(x - y for x, y in zip(c, b)), k + 1)]

    diffs = [(j, s) for s in range(m - 1) for j in range(n)]
    bases = []
    for i in range(len(diffs) + 1):
        basis = []
        for S in itertools.combinations(range(len(diffs)), i):
            c = list(gamma)
            for t in S:
                c[diffs[t][0]] -= 1
            if min(c) >= 0:
                basis.extend((S, bs) for bs in splits(tuple(c), 0))
        bases.append(basis)
    ranks = [0] * (len(bases) + 1)  # ranks[i]: the rank of d_i: K_i -> K_{i-1}
    for i in range(1, len(bases)):
        index = {key: k for k, key in enumerate(bases[i - 1])}
        rows = []
        for S, bs in bases[i]:
            row = {}
            for pos, t in enumerate(S):
                j, s = diffs[t]
                face = S[:pos] + S[pos + 1:]
                for r, sign in ((s, (-1) ** pos), (s + 1, -(-1) ** pos)):
                    b = list(bs)
                    b[r] = tuple(x + (k == j) for k, x in enumerate(bs[r]))
                    if not inside(b[r], modules[r]):
                        col = index[(face, tuple(b))]
                        row[col] = row.get(col, 0) + sign
            rows.append(row)
        # the last basis element first: the same rank with far less fill-in
        ranks[i] = _sparse_rank(rows[::-1], p)
    dims = {i: len(basis) - ranks[i] - ranks[i + 1] for i, basis in enumerate(bases)}
    return {i: d for i, d in dims.items() if d}


def koszul_betti(ideal, p):
    """{(i, b): beta_{i,b}(R/I)} over GF(p), nonzero entries only, from the
    upper Koszul simplicial complexes K^b(I) = {squarefree tau in supp b :
    x^(b - tau) in I}: beta_{i,b}(I) = dim H~_{i-1}(K^b(I)) (Miller-Sturmfels,
    Combinatorial Commutative Algebra, Thm 1.34), so beta_{i,b}(R/I) is
    dim H~_{i-2}(K^b(I)) for i >= 1, and beta_{0,0}(R/I) = 1.  Only the b of
    the lcm lattice of the generators can carry an entry.  It reads only the
    generators: no resolution, no tensor, no box and no homotor rank."""
    gens = [tuple(g) for g in ideal.gens]
    lattice = set()
    for g in gens:
        lattice |= {g} | {tuple(map(max, g, b)) for b in lattice}
    out = {(0, (0,) * ideal.n): 1}
    for b in lattice:
        support = [j for j, e in enumerate(b) if e]
        faces = [
            [tau for tau in itertools.combinations(support, k)
             if any(all(g[j] <= b[j] - (j in tau) for j in range(ideal.n)) for g in gens)]
            for k in range(len(support) + 1)
        ]
        out.update({(k + 1, b): h for k, h in reduced_homology(faces, p).items()})
    return out


def reduced_homology(faces, p) -> dict:
    """{k: dim H~_{k-1}(Δ)} over GF(p), nonzero only, of the simplicial
    complex Δ whose faces of k vertices, as increasing tuples, are
    faces[k], the empty face at k = 0: each boundary map ranked by
    ``_rank_mod``."""
    index = {tau: k for fs in faces for k, tau in enumerate(fs)}
    ranks = [0] * (len(faces) + 1)  # ranks[k]: boundary of the faces of k vertices
    for k in range(1, len(faces)):
        rows = [[0] * len(faces[k - 1]) for _ in faces[k]]
        for row, tau in zip(rows, faces[k]):
            for l in range(k):
                row[index[tau[:l] + tau[l + 1:]]] = (-1) ** l
        ranks[k] = _rank_mod(rows, p)
    dims = {k: len(fs) - ranks[k] - ranks[k + 1] for k, fs in enumerate(faces)}
    return {k: d for k, d in dims.items() if d}


def unit_koszul(n, orientation="chain"):
    """K(1,...,1;R) on n exterior generators (or its cochain dual, at
    non-positive indices); exact."""
    zero = Multidegree.zero(n)
    terms, d = exterior_complex(n, lambda s: free_summand(zero), orientation)
    return GradedComplex(n, terms, d)


def region(m, keep):
    """The multicomplex on the positions q of m with keep(q): a face is a
    subcomplex, an interior a quotient, and either keeps the entries of m
    between its positions."""
    return Multicomplex(m.n_axes, m.n_vars,
                        {q: ss for q, ss in m.terms.items() if keep(q)}, m.diffs)


def direct_e1(factors, gamma, kind):
    """First page at gamma of one of the four filtrations of
    tensor(factors), computed directly: at (p, .) the homology of the faces
    with p axes set to zero (kcone kinds; kcone_augmented leaves out the
    origin, where all n are), of the interiors of the p-axis faces
    (interior), or of the augmented interiors of the p-factor subfamilies
    (interior_augmented)."""
    m = tensor(factors)
    n = m.n_axes
    out = {}

    def add(p, c, offset):
        for i, d in c.homology_at(gamma).items():
            if d:
                out[(p, i - offset)] = out.get((p, i - offset), 0) + d

    for p in range(n + 1):
        for S in itertools.combinations(range(n), p):
            if kind in ("kcone", "kcone_augmented"):
                if kind == "kcone_augmented" and p == n:
                    continue
                add(p, region(m, lambda q: not any(q[i] for i in S)).total, 0)
            elif kind == "interior":
                support = set(S)
                add(p, region(m, lambda q: {i for i, v in enumerate(q) if v}
                              == support).total, p)
            elif p:
                add(p, hypercube_augment(tensor([factors[i] for i in S])), p)
    return out


def free_complex(dims, diffs=None):
    """The free complex in one variable with dims[i] zero-shift summands in
    term i and d_i = diffs[i], a list of (row, col, value) triples of its
    matrix, rows in term i - 1 and columns in term i, so column c is the
    row of source c in d_i's form: its fibre at (0,) is the matrix complex
    itself."""
    terms = {i: [free_summand((0,))] * d for i, d in dims.items()}
    d = {}
    for i, matrix in (diffs or {}).items():
        for r, c, v in matrix:
            d.setdefault(i, {}).setdefault(c, []).append((r, v))
    return GradedComplex(1, terms, d)


def masked_rank_oracle(c, i, src_mask, tgt_mask, p):
    """The rank over GF(p) of the block of d_i between the alive sources
    and targets of the masks, read off ``c.d`` as dense rows and ranked by
    ``_rank_mod``: the reference for ``_masked_rank``."""
    sources = [s for s in range(len(c.summands(i))) if src_mask >> s & 1]
    targets = [t for t in range(len(c.summands(i - 1))) if tgt_mask >> t & 1]
    rows = {s: dict(row) for s, row in c.d.get(i, {}).items()}
    return _rank_mod([[rows.get(s, {}).get(t, 0) for t in targets] for s in sources], p)


def mv_tensor_total(kind, ideals, coefficient=None):
    """The Mayer-Vietoris total built as a tensor for every M: X (S_- for
    sum_to_product, P for product_to_sum) tensored with the resolution of
    M, of the zero ideal when M = R, and filtered by X's position.  The
    oracle of ``mv_total_complex``, which takes X itself when M = R."""
    if kind == "sum_to_product":
        x = s_minus(ideals)
    else:
        x = build_p_complex(ideals)
    m = MonomialIdeal.zero(x.n) if coefficient is None else coefficient
    return _by_weight(tensor([x, resolution(m)]), lambda q: q[0])


def support_check_at(partitions, coefficient, p, fld=GF()):
    """The support union-equality report of one p, every subset of size at
    most p built from scratch: a Tor table per product and per sum, the
    box as the lcm of their boxes, a Mayer-Vietoris total per kind and
    subset and its pages at every tested degree.  The reference for the
    one-pass ``supportoftors_check``."""
    n = coefficient.n
    sets = [tuple(sorted(set(int(i) for i in J))) for J in partitions]
    ideals = [MonomialIdeal.variables(n, J) for J in sets]
    coeff = None if coefficient.is_zero() else coefficient
    combos = [
        T for size in range(1, p + 1)
        for T in itertools.combinations(range(len(sets)), size)
    ]
    prods = {T: combine([ideals[i] for i in T], "product") for T in combos}
    sums = {T: combine([ideals[i] for i in T], "sum") for T in combos}
    box = Multidegree.zero(n)
    for ideal in list(prods.values()) + list(sums.values()):
        box = lcm_deg(box, family_box([ideal], coefficient=coeff))

    report = CheckReport()
    report.context["box"] = list(box)
    prod_tables = {
        T: multi_tor([prods[T]], coefficient=coeff, fld=fld, box=box) for T in combos
    }
    sum_tables = {
        T: multi_tor([sums[T]], coefficient=coeff, fld=fld, box=box) for T in combos
    }
    # every table is over the one box, so the unions are plain cell sets
    left = set().union(*(table_cells(prod_tables[T]) for T in combos))
    right = set().union(*(table_cells(sum_tables[T]) for T in combos))
    cmp = region_compare_oracle((box, left), (box, right))
    report.context["union_cells"] = [list(c) for c in sorted(left)]
    report.add(
        "support_union_equality",
        True,
        cmp["equal"],
        [
            {"side": "product_only", "cells": cmp["left_minus_right"]},
            {"side": "sum_only", "cells": cmp["right_minus_left"]},
        ]
        if not cmp["equal"]
        else [],
    )
    tested = sorted(left | right)[:SPECTRAL_DEGREES]
    if not tested:
        tested = [tuple(Multidegree.zero(n))]
    witnesses = {"sum_to_product": [], "product_to_sum": []}
    for T in combos:
        family = [ideals[i] for i in T]
        for kind, offset, table in (("sum_to_product", len(T) - 1, prod_tables[T]),
                                    ("product_to_sum", 1, sum_tables[T])):
            filtered = mv_tensor_total(kind, family, coeff)
            for g in tested:
                pg = pages(filtered, g, fld)
                where = {"kind": kind, "subset": list(T), "degree": list(g)}
                totals = total_dims(pg)
                expected = {j + offset: d for (j, gm), d in table.entries.items() if gm == g}
                witnesses[kind].extend(
                    {**where, "i": i, "actual": totals.get(i, 0),
                     "expected": expected.get(i, 0)}
                    for i in sorted(set(totals) | set(expected))
                    if totals.get(i, 0) != expected.get(i, 0)
                )
    for kind, found in witnesses.items():
        report.add(f"{kind}_containment", True, not found, found)
    return report


def table_cells(table) -> frozenset:
    """The degrees of a table's nonzero entries, of any index."""
    return frozenset(g for (_, g) in table.entries)


def region_rebase(box, cells, new_box) -> frozenset:
    """The cells over ``new_box``, which must dominate ``box``, of the region
    whose cells over ``box`` are ``cells``: a degree is in it iff its
    pullback min(gamma, box) is one of them.  The walk that
    ``region_compare`` replaces by ``TorTable.clamp``."""
    if not Multidegree(box).leq(Multidegree(new_box)):
        raise BoxTooSmall("rebase target must dominate the region box")
    return frozenset(tuple(g) for g in iter_box(new_box)
                     if tuple(min(x, b) for x, b in zip(g, box)) in cells)


def region_compare_oracle(a, b) -> dict:
    """``region_compare`` of two (box, cells) regions: both rebased to the
    lcm of their boxes, then compared cell by cell."""
    box = lcm_deg(a[0], b[0])
    ra, rb = region_rebase(*a, box), region_rebase(*b, box)
    left, right = sorted(ra - rb), sorted(rb - ra)
    return {
        "equal": not left and not right,
        "box": list(box),
        "left_minus_right": [list(c) for c in left],
        "right_minus_left": [list(c) for c in right],
    }


def singleton_box_fold(ideals, coefficient=None):
    """The lcm of the family boxes of each single ideal with the
    coefficient: the box of every subset's product and sum of a
    ``variable_blocks`` family, the reference for the box
    ``supportoftors_check`` takes from ``check_family``."""
    return functools.reduce(lcm_deg, (family_box([ideal], coefficient) for ideal in ideals))


def full_augmented_interior(ideals):
    """The augmented interior of the ideals built from the tensor of all
    their resolutions: the construction ``augmented_interior_H`` replaced,
    where no ideal is left unresolved, and its reference."""
    return hypercube_augment(tensor([resolution(i) for i in ideals]))


def verify_identities_oracle(ideals, fld: PrimeField = GF()) -> CheckReport:
    """The sum/product identification report with the strict subfamilies'
    Tor tables tested twice inline, and the augmented interior of the whole
    family built by ``full_augmented_interior`` and tabulated here at its
    unshifted indices: the reference for ``verify_identities``."""
    ideals, n_vars = check_family(ideals)
    n = len(ideals)
    report = CheckReport()

    sub_tables = {}
    for size in range(2, n):
        for sub in itertools.combinations(range(n), size):
            sub_tables[sub] = multi_tor([ideals[i] for i in sub], fld=fld)
    strict_ok = all(
        all(i <= 0 for i in t.nonzero_indices()) for t in sub_tables.values()
    )
    report.context["strict_subfamilies_independent"] = strict_ok

    s_complex = build_s_complex(ideals)
    aug = full_augmented_interior(ideals)
    box = family_box(ideals)
    report.context["box"] = list(box)

    tor = multi_tor(ideals, fld=fld, box=box)
    s_tab = complex_homology_table(s_complex, fld, box)
    p_tab = complex_homology_table(build_p_complex(ideals), fld, box)
    h1 = complex_homology_table(truncated_cochain(s_complex), fld, box).slice(1)
    aug_tab = module_homology_table(aug, fld, box)
    top = sum(len(i.gens) for i in ideals)
    prod_ideal = combine(ideals, "product")

    cells = [tuple(g) for g in iter_box(box)]
    s0 = {g: 0 if membership(g, prod_ideal) else 1 for g in cells}

    def four_term(name, table, j):
        """S^0 - H^1(S_-) against table_j - table_{j-1} at every cell, with
        table_j alone at n = 2."""
        if not (strict_ok and n >= 2):
            report.add(name, False, None)
            return
        wit = []
        ok = True
        for g in cells:
            lhs = s0[g] - h1.get(g, 0)
            rhs = table.dim(j, g) - (table.dim(j - 1, g) if n >= 3 else 0)
            if lhs != rhs:
                ok = False
                if len(wit) < 4:
                    wit.append({"degree": list(g), "actual": lhs, "expected": rhs})
        report.add(name, True, ok, wit)

    # sum-side identification H^i(S) = Tor_{n-i-1}; it carries content for
    # 2 <= i <= n-2 (positive Tor index).  At i = n-1 the stated range
    # overshoots: S is exact there whenever the family is strongly
    # independent while Tor_0 = R/(sum) never vanishes.
    _compare_slices(report, "sum_homology_vs_tor", strict_ok,
                    ((i, s_tab.slice(i), tor.slice(n - i - 1)) for i in range(2, n - 1)))

    # structural boundary facts: H^n(S) = 0 always (n >= 2), and H^{n-1}(S)
    # = 0 for n >= 3 (the abutment vanishes below the corner degree)
    if n >= 2:
        wit = []
        ok = not s_tab.slice(n)
        if n >= 3:
            ok = ok and not s_tab.slice(n - 1)
        if not ok:
            for i in (n, n - 1):
                for g, d in sorted(s_tab.slice(i).items()):
                    wit.append({"i": i, "degree": list(g), "actual": d,
                                "expected": 0})
        report.add("sum_top_vanishing", True, ok, wit[:4])
    else:
        report.add("sum_top_vanishing", False, None)

    # four-term bookkeeping for S^0 and H^1(S_-); at n = 2 the closing map to Tor_0 is
    # carried by S^1 on the first page, so the count closes with Tor_1 alone
    four_term("four_term_bookkeeping", tor, n - 1)

    # top range: Tor_{n+i} = H_{n+i}(augmented interior)
    _compare_slices(report, "top_tor_vs_augmented", strict_ok,
                    ((i, tor.slice(n + i), aug_tab.slice(n + i))
                     for i in range(0, max(top - n, 0) + 1)))

    # product-side identification: H_i(P) = Tor_{i-1} for i <= n
    _compare_slices(report, "product_homology_vs_tor", strict_ok,
                    ((i, p_tab.slice(i), tor.slice(i - 1)) for i in range(1, n + 1)))

    # partial range: with p* = largest p < n such that every subfamily of size
    # <= p is independent, Tor_i = H_{i+1}(P) for 1 <= i <= p*
    p_star = 1
    for size in range(2, n):
        if all(
            all(i <= 0 for i in sub_tables[sub].nonzero_indices())
            for sub in itertools.combinations(range(n), size)
        ):
            p_star = size
        else:
            break
    report.context["partial_independence_bound"] = p_star
    _compare_slices(report, "partial_product_range", n >= 2,
                    ((i, tor.slice(i), p_tab.slice(i + 1)) for i in range(1, p_star + 1)))

    # product-vs-sum comparison H_i(P) = H^{n-i}(S); valid at i = 0 and 2 <= i <= n-2.
    # At i = 1 the stated range overshoots: H_1(P) = R/(sum) never vanishes
    # while H^{n-1}(S) always does for n >= 3.
    _compare_slices(report, "product_vs_sum_homology", strict_ok,
                    ((i, p_tab.slice(i), s_tab.slice(n - i)) for i in [0, *range(2, n - 1)]))

    # the product-side four-term bookkeeping
    four_term("four_term_product", p_tab, n)

    # under V_{s+1} there is a surjection Tor_{n+s} -> H_{n,s}, an
    # isomorphism under V_{s+2}; dimensionwise: >= resp. ==
    s_max = max(top - n, 0)

    def V(t):
        if n <= 2:
            return True
        for p in range(2, n):
            for sub in itertools.combinations(range(n), p):
                for q in range(1, p + t):
                    if not sub_tables[sub].is_zero(q):
                        return False
        return True

    wit = []
    ok = True
    any_checked = False
    for s in range(0, s_max + 1):
        if not V(s + 1):
            continue
        any_checked = True
        iso = V(s + 2)
        lhs = tor.slice(n + s)
        rhs = aug_tab.slice(n + s)
        for g in sorted(set(lhs) | set(rhs)):
            a, b = lhs.get(g, 0), rhs.get(g, 0)
            bad = (a != b) if iso else (a < b)
            if bad:
                ok = False
                if len(wit) < 4:
                    wit.append({"s": s, "degree": list(g), "tor": a, "aug": b,
                                "iso_expected": iso})
    report.add("surjection_injection_bounds", any_checked, ok, wit)
    return report


def exactness_equivalences_oracle(ideals, fld: PrimeField = GF()) -> CheckReport:
    """The exactness-equivalence report with strong independence (recursion
    tables included), the H tables read off ``full_augmented_interior``, the
    surviving degrees clamped to each subfamily's box, and P and S built for
    every subfamily, single ideals too: the reference for
    ``exactness_equivalences``."""
    ideals, n_vars = check_family(ideals)
    n = len(ideals)
    report = CheckReport()

    cond1 = independence_oracle(ideals, fld=fld, strong=True).context["independent"]

    h_tables = {}
    for size in range(2, n + 1):
        for sub in itertools.combinations(range(n), size):
            family = [ideals[i] for i in sub]
            table = module_homology_table(full_augmented_interior(family), fld,
                                          family_box(family))
            h_tables[sub] = TorTable({(i - size, g): d for (i, g), d in table.entries.items()},
                                     table.box)

    def rows_vanish(sub):
        """All H_{p,q} entries with q >= 0 vanish over the subfamilies of sub."""
        bad = []
        for p in range(2, len(sub) + 1):
            for t in itertools.combinations(sub, p):
                tab = h_tables[t]
                for q in tab.nonzero_indices():
                    if q >= 0:
                        bad.append((t, q))
        return bad

    cond2 = True
    cond2_witness = []
    for size in range(2, n + 1):
        for sub in itertools.combinations(range(n), size):
            bad = rows_vanish(sub)
            if not bad:
                continue
            # rows with nonzero entries: settle exactness with the engine at
            # the degrees where something survives
            family = [ideals[i] for i in sub]
            m = tensor([resolution(i) for i in family])
            box = family_box(family)
            gammas = set()
            for p in range(2, len(sub) + 1):
                for t in itertools.combinations(sub, p):
                    for (q, g) in h_tables[t].entries:
                        if q >= 0:
                            gammas.add(tuple(min(a, b) for a, b in zip(g, box)))
            filtered = build_filtration(m, kind="interior_augmented")
            exact_here = True
            for g in sorted(gammas):
                pg = pages(filtered, g, fld)
                e2 = pg.page(2)
                for (p, q), d in e2.items():
                    if q >= 0 and p >= 2 and d:
                        exact_here = False
                        cond2_witness.append(
                            {"subfamily": list(sub), "degree": list(g), "p": p, "q": q}
                        )
                        break
                if not exact_here:
                    break
            if not exact_here:
                cond2 = False
    cond3 = True
    cond3_witness = []
    cond4 = True
    cond4_witness = []
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(n), size):
            family = [ideals[i] for i in sub]
            p_tab = complex_homology_table(build_p_complex(family), fld)
            for i in p_tab.nonzero_indices():
                if i >= 2:
                    cond3 = False
                    cond3_witness.append({"subfamily": list(sub), "i": i})
                    break
            s_tab = complex_homology_table(build_s_complex(family), fld)
            if s_tab.nonzero_indices():
                cond4 = False
                cond4_witness.append(
                    {"subfamily": list(sub), "i": s_tab.nonzero_indices()[0]}
                )
    report.context.update(
        {
            "strongly_independent": cond1,
            "rows_exact": cond2,
            "product_rows_exact": cond3,
            "sum_rows_exact": cond4,
        }
    )
    report.add(
        "equivalence_1_vs_2_and_3",
        True,
        cond1 == (cond2 and cond3),
        cond2_witness + cond3_witness,
    )
    report.add(
        "equivalence_1_vs_2_and_4",
        True,
        cond1 == (cond2 and cond4),
        cond2_witness + cond4_witness,
    )
    return report


def independence_oracle(ideals, fld: PrimeField = GF(), strong: bool = False
                        ) -> CheckReport:
    """Tor-independence of the family, in strong mode with one loop over the
    subsets for their tables and a second for the recursion criterion: the
    reference for ``independence``."""
    ideals, n = check_family(ideals)
    report = CheckReport()
    if not strong:
        ok = _table_independent(multi_tor(ideals, fld=fld))
        report.context.update(independent=ok, strong=False, subsets={},
                              recursion={}, agreement=True)
        return report
    s = len(ideals)
    subset_results = {}
    for size in range(2, s + 1):
        for sub in itertools.combinations(range(s), size):
            table = multi_tor([ideals[i] for i in sub], fld=fld)
            subset_results[sub] = _table_independent(table)
    by_subsets = all(subset_results.values())
    recursion_results = {}
    for size in range(2, s + 1):
        for sub in itertools.combinations(range(s), size):
            j1 = max(sub)
            rest = [ideals[i] for i in sub if i != j1]
            pair = [ideals[j1], combine(rest, "sum")]
            recursion_results[sub] = _table_independent(
                multi_tor(pair, fld=fld)
            )
    by_recursion = all(recursion_results.values())
    report.context.update(
        independent=by_subsets,
        strong=True,
        subsets={str(list(k)): v for k, v in sorted(subset_results.items())},
        recursion={str(list(k)): v for k, v in sorted(recursion_results.items())},
        agreement=by_subsets == by_recursion,
    )
    report.add("criteria_agree", True, by_subsets == by_recursion)
    return report


@pytest.fixture
def kxy():
    """Common ideals in k[x, y]."""
    return {
        "x": MonomialIdeal(2, [(1, 0)]),
        "y": MonomialIdeal(2, [(0, 1)]),
        "m": MonomialIdeal(2, [(1, 0), (0, 1)]),
        "xy": MonomialIdeal(2, [(1, 1)]),
        "x2xy": MonomialIdeal(2, [(2, 0), (1, 1)]),
    }


@pytest.fixture
def kxyz():
    return {
        "x": MonomialIdeal(3, [(1, 0, 0)]),
        "y": MonomialIdeal(3, [(0, 1, 0)]),
        "z": MonomialIdeal(3, [(0, 0, 1)]),
        "xy": MonomialIdeal(3, [(1, 1, 0)]),
    }
