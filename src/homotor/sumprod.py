"""The sum complex S (quotients by sums, cochain) and product complex P
(quotients by products, chain) of a family of ideals, their tilde variants
inside the unit Koszul complex, the two Mayer-Vietoris double complexes
built from S and P (``mv_total_complex``, their one builder: the support
check reads only the homology of its ``.total``, the abutment), the
augmented interior tables, and the degreewise verification suite for the
identities relating their homology to multiple Tor.

All isomorphism claims are certified as equalities of fiber dimensions over
a common stability box: over a field these determine the graded isomorphism
class degree by degree.
"""

from __future__ import annotations

from .errors import InvalidKind, ParamOutOfRange
from .exactlin import GF, PrimeField
from .gcomplex import (
    CYCLIC,
    IDEAL,
    GradedComplex,
    TorTable,
    exterior_complex,
    free_summand,
    ideal_augment,
    module_homology_table,
    resolve,
    summand,
    unresolved,
)
from .monomial import MonomialIdeal, check_family, combine, subfamilies
from .multicomplex import Multicomplex, hypercube_augment, tensor
from .spectral import FilteredTotal, _by_weight, build_filtration, pages
from .torlab import CheckReport, _table_independent, multi_tor


#: Most ideals S, S_- and P are built on, counted before any summand is laid
#: out: each has one summand per subset, 2^n in all.  P's table on the
#: 2-generator ideals in 3 variables of the scale families takes 2.9 s on
#: 10 ideals, 12 s on 11 and 50 s on 12, and ``verify_identities`` on 10
#: takes 14 s and 82 MB (one core of a 2-vCPU Xeon virtual machine,
#: Python 3.11).
MAX_SP_IDEALS = 10


def _check_sp_size(family):
    """Refuse S, S_- or P of more than ``MAX_SP_IDEALS`` ideals with
    ``ParamOutOfRange``, before ``exterior_complex`` runs, and a checker
    that builds them before it visits any subfamily."""
    if len(family) > MAX_SP_IDEALS:
        raise ParamOutOfRange(f"S and P support at most {MAX_SP_IDEALS} ideals, "
                              f"the family has {len(family)}")


def _variant_kind(variant: str) -> str:
    """The summand kind of a variant of S and P: the quotients R/J, or the
    ideals J themselves inside the unit Koszul complex."""
    kinds = {"quotient": CYCLIC, "tilde": IDEAL}
    if variant not in kinds:
        raise InvalidKind(f"unknown variant {variant!r}")
    return kinds[variant]


def build_s_complex(ideals, variant: str = "quotient") -> GradedComplex:
    """S^0 = R/(product), S^p = sum of R/(I_{i_1}+...+I_{i_p}) over
    p-subsets: a cochain complex with unit Koszul differentials, S^p stored
    at index -p.  The tilde variant keeps the ideals themselves inside
    K^(1,...,1;R), so its bottom term is the product of the ideals."""
    ideals, box = check_family(ideals)
    return GradedComplex(box.n, *_s_terms(ideals), _variant_kind(variant))


def _s_terms(family):
    """The terms and differentials of S, S^p at index -p, of a family its
    caller checked: the summand rule of S and S_-."""
    _check_sp_size(family)
    return exterior_complex(
        len(family),
        lambda s: summand(combine([family[i] for i in s], "sum") if s
                          else combine(family, "product")),
        "cochain",
    )


def build_p_complex(ideals, variant: str = "quotient") -> GradedComplex:
    """P_p = sum of R/(I_{i_1}...I_{i_p}) over p-subsets, a chain complex
    with unit Koszul differentials.  The tilde variant keeps the ideals, and
    its bottom term is R, so the quotient variant has P_0 = R/R = 0."""
    ideals, box = check_family(ideals)
    _check_sp_size(ideals)
    kind = _variant_kind(variant)
    bottom = MonomialIdeal.unit(box.n)
    terms, d = exterior_complex(
        len(ideals),
        lambda s: summand(combine([ideals[i] for i in s], "product") if s else bottom),
    )
    if kind == CYCLIC:
        del terms[0], d[1]  # P_0 = R/R is zero
    return GradedComplex(box.n, terms, d, kind)


def mv_total_complex(kind: str, ideals, coefficient: MonomialIdeal | None = None,
                     *, resolutions=None) -> FilteredTotal:
    """The filtered total of the S_-/P double complex, the tensor of a
    complex X with the free resolution F of M, filtered by the X position.

    sum_to_product: X is S_- = S^1 -> ... -> S^n, built at once from the
    terms of S with S^p at chain index n - p, so a summand S^p ⊗ F_q sits
    in degree n - p + q with filtration weight n - p; its first page has
    E^1_{n-p,q} = ⊕ Tor_q(M, R/(sum of a p-subset)).  product_to_sum:
    X = P, P_p ⊗ F_q in degree p + q, weight p; E^1_{p,q} = ⊕ Tor_q(M,
    R/(product of a p-subset)).

    A coefficient of None or the zero ideal means M = R, and then the total
    is X itself, filtered by its own index, with no tensor built: F is
    ``resolution`` of the zero ideal, R(0) at index 0, so every position is
    (q_0, 0); ``_product_summand`` keeps X's summand; axis 0 carries the
    sign +1; and a summand's total index is q_0, which is also its weight.
    This is the rule by which ``multi_tor`` leaves a zero coefficient out.
    Otherwise the coefficient's resolution is taken from ``resolutions``,
    by default a fresh map, as in ``multi_tor``.
    """
    resolutions = {} if resolutions is None else resolutions
    ideals, box = check_family(ideals, coefficient)
    if kind == "sum_to_product":
        n = len(ideals)
        terms, d = _s_terms(ideals)  # S^0 at index 0 and d^0 out of it are dropped
        x = GradedComplex(box.n, {i + n: ss for i, ss in terms.items() if i},
                          {i + n: rows for i, rows in d.items() if i}, CYCLIC)
    elif kind == "product_to_sum":
        x = build_p_complex(ideals)
    else:
        raise InvalidKind(f"unknown mv kind {kind!r}")
    if coefficient is None or coefficient.is_zero():
        return FilteredTotal(x, {i: [i] * len(ss) for i, ss in x.terms.items()})
    return _by_weight(tensor([x, resolve(coefficient, resolutions)]), lambda q: q[0])


def complex_homology_table(c: GradedComplex, fld: PrimeField = GF(),
                           box=None) -> TorTable:
    """(Co)homology table of a sum/product complex.  A cochain complex (S,
    the one stored at non-positive indices only) is reported with positive
    upper indices."""
    table = module_homology_table(c, fld, box)
    if max(c.terms, default=0) <= 0:
        entries = {(-i, gam): d for (i, gam), d in table.entries.items()}
        return TorTable(entries, table.box)
    return table


def augmented_interior_H(ideals, fld: PrimeField = GF(), *,
                         resolutions=None) -> TorTable:
    """The table H_{p,q} = H_{p+q}(augmented interior complex) of the
    family, keyed by q (so q = -1 row reproduces the P_p dimensions), over
    the stability box of the ideals.  The ideal I_u
    that ``unresolved`` picks is left unresolved, and the augmented interior
    of the other n - 1 resolutions (no axis at n = 1, so I_u -> R), taken
    from ``resolutions`` as in ``multi_tor``, is augmented to it by
    ``ideal_augment``.  One with more generators than a Taylor resolution
    takes does not make the table, or ``verify_identities``, refuse the
    family."""
    resolutions = {} if resolutions is None else resolutions
    ideals, stable = check_family(ideals)
    n = len(ideals)
    u = unresolved(ideals)
    others = [resolve(ideal, resolutions) for k, ideal in enumerate(ideals) if k != u]
    m = tensor(others) if others else Multicomplex(
        0, stable.n, {(): [free_summand((0,) * stable.n)]}, {})
    aug = ideal_augment(hypercube_augment(m), ideals[u])
    table = module_homology_table(aug, fld, stable)
    entries = {(i - n, gam): d for (i, gam), d in table.entries.items()}
    return TorTable(entries, table.box)


# ---------------------------------------------------------------------------
# Verification suite


def diff_tables(lhs, rhs, limit=4):
    """Witnesses where two gamma -> dim maps differ."""
    witnesses = []
    keys = set(lhs) | set(rhs)
    for gamma in sorted(keys):
        if lhs.get(gamma, 0) != rhs.get(gamma, 0):
            witnesses.append(
                {
                    "degree": list(gamma),
                    "expected": rhs.get(gamma, 0),
                    "actual": lhs.get(gamma, 0),
                }
            )
            if len(witnesses) >= limit:
                break
    return witnesses


def _compare_slices(report, name, checked, pairs):
    """Add the assertion that the two slices of each (i, lhs, rhs) in pairs
    agree, with the witnesses of every i in order.  pairs is read only when
    the assertion is checked."""
    if not checked:
        report.add(name, False, None)
        return
    wit = [{"i": i, **w} for i, lhs, rhs in pairs for w in diff_tables(lhs, rhs)]
    report.add(name, True, not wit, wit)


def verify_identities(ideals, fld: PrimeField = GF()) -> CheckReport:
    """Degreewise verification of the sum/product homology identifications.

    Determines which hypotheses hold (strict-subfamily Tor-independence and
    the partial bound p*) and checks every conclusion whose hypothesis is
    satisfied, exactly, over the common stability box.

    The four-term bookkeeping S^0 - H^1(S_-) = T_j - T_{j-1} (T_j = Tor_{n-1}
    or H_n(P)) is checked as H^0(S) = T_j, since dim ker d^1 = H^1(S) + S^0
    - H^0(S) in each fibre and H^1(S) = T_{j-1} = 0 wherever it runs: by
    Mayer-Vietoris at n = 2 (no T_{j-1} is read), and at n >= 3 because
    pairwise Tor-independent monomial ideals lie in disjoint variables, where
    S is fibrewise exact and T_{j-1} = 0 by Künneth.

    The surjection Tor_{n+s} -> H_{n,s} under V_{s+1}, an isomorphism under
    V_{s+2}, reuses the top_tor_vs_augmented witnesses: V_t (t >= 1, Tor_q = 0
    for 1 <= q < p + t on every strict subfamily of size p >= 2) is strict-
    subfamily independence.  Both are vacuous at n <= 2; at n >= 3 V_t makes
    every pair Tor_1-independent, so the supports are pairwise disjoint
    (test_monomial_tor1_criterion) and every strict subfamily is independent
    by Künneth, as the rigidity of multiple Tor gives for any ideals.

    Its Tor tables and its augmented interior share one map of
    resolutions (see ``multi_tor``); S and P need none.
    """
    ideals, box = check_family(ideals)
    _check_sp_size(ideals)
    n = len(ideals)
    report = CheckReport()
    resolutions: dict = {}

    # p* = the largest p < n such that every subfamily of size <= p is
    # independent: one less than the size of the first dependent strict
    # subfamily, smallest first
    p_star = next((len(sub) - 1 for sub, family in subfamilies(ideals, range(2, n))
                   if not _table_independent(multi_tor(family, fld=fld,
                                                       resolutions=resolutions))),
                  max(n - 1, 1))
    strict_ok = p_star >= n - 1
    report.context["strict_subfamilies_independent"] = strict_ok

    report.context["box"] = list(box)

    tor = multi_tor(ideals, fld=fld, box=box, resolutions=resolutions)
    s_tab = complex_homology_table(build_s_complex(ideals), fld, box)
    p_tab = complex_homology_table(build_p_complex(ideals), fld, box)
    # H_{n,q} = H_{n+q}(augmented interior) of the whole family, keyed by q
    aug_tab = augmented_interior_H(ideals, fld=fld, resolutions=resolutions)
    s_max = max(sum(len(i.gens) for i in ideals) - n, 0)

    def four_term(name, table, j):
        """H^0(S) against table_j."""
        if not (strict_ok and n >= 2):
            report.add(name, False, None)
            return
        wit = diff_tables(s_tab.slice(0), table.slice(j))
        report.add(name, True, not wit, wit)

    # sum-side identification H^i(S) = Tor_{n-i-1}; it carries content for
    # 2 <= i <= n-2 (positive Tor index).  At i = n-1 the stated range
    # overshoots: S is exact there whenever the family is strongly
    # independent while Tor_0 = R/(sum) never vanishes.
    _compare_slices(report, "sum_homology_vs_tor", strict_ok,
                    ((i, s_tab.slice(i), tor.slice(n - i - 1)) for i in range(2, n - 1)))

    # structural boundary facts: H^n(S) = 0 always (n >= 2), and H^{n-1}(S)
    # = 0 for n >= 3 (the abutment vanishes below the corner degree)
    _compare_slices(report, "sum_top_vanishing", n >= 2,
                    ((i, s_tab.slice(i), {}) for i in ([n, n - 1] if n >= 3 else [n])))

    # four-term bookkeeping for S^0 and H^1(S_-); at n = 2 the closing map to Tor_0 is
    # carried by S^1 on the first page, so the count closes with Tor_1
    four_term("four_term_bookkeeping", tor, n - 1)

    # top range: Tor_{n+i} = H_{n+i}(augmented interior)
    _compare_slices(report, "top_tor_vs_augmented", strict_ok,
                    ((i, tor.slice(n + i), aug_tab.slice(i)) for i in range(s_max + 1)))
    top = report.assertions[-1]["witnesses"][:4]

    # product-side identification: H_i(P) = Tor_{i-1} for i <= n
    _compare_slices(report, "product_homology_vs_tor", strict_ok,
                    ((i, p_tab.slice(i), tor.slice(i - 1)) for i in range(1, n + 1)))

    # partial range: Tor_i = H_{i+1}(P) for 1 <= i <= p*
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

    # Tor_{n+s} -> H_{n,s} for 0 <= s <= s_max: the top range again (see above)
    wit = [{"s": w["i"], "degree": w["degree"], "tor": w["actual"], "aug": w["expected"],
            "iso_expected": True} for w in top]
    report.add("surjection_injection_bounds", strict_ok, not wit, wit)
    return report


def exactness_equivalences(ideals, fld: PrimeField = GF()) -> CheckReport:
    """Exactness equivalences: strong Tor-independence against (2) the
    exactness of the q >= 0 rows of the augmented-interior spectral sequence
    of every subfamily, (3) vanishing of H_i(P) for i >= 2 for every
    subfamily, (4) exactness of every subfamily's sum complex.

    Every condition runs over the subfamilies of size >= 2: a single ideal
    is Tor-independent, its P is the one term R/I at index 1 and its S the
    identity R/I -> R/I, so it can give no witness.  Pages are read wherever
    a q >= 0 row of a subfamily of size >= 2 survives, pairs included: E^1
    column p is the sum, over the p-subsets S, of the augmented interior of S.
    A subfamily's H table leaves one ideal unresolved (``augmented_interior_H``),
    and the tensor of all its resolutions is built only for its pages.
    Every table reads one map of resolutions (see ``multi_tor``), so each
    ideal is resolved at most once, and only if some table reads it."""
    ideals, _ = check_family(ideals)
    _check_sp_size(ideals)
    n = len(ideals)
    report = CheckReport()

    # each ideal is resolved at most once and each subfamily visited once,
    # smallest first; surviving[sub] is the set of degrees of the q >= 0
    # entries of the H tables of the subfamilies of sub of size >= 2: its
    # own, united with the sets of sub minus one index, already in place
    resolutions: dict = {}
    cond1 = True
    surviving = {}
    cond2_witness, cond3_witness, cond4_witness = [], [], []
    for sub, family in subfamilies(ideals, range(2, n + 1)):
        cond1 = cond1 and _table_independent(
            multi_tor(family, fld=fld, resolutions=resolutions))
        h_tab = augmented_interior_H(family, fld=fld, resolutions=resolutions)
        surviving[sub] = {g for (q, g) in h_tab.entries if q >= 0}.union(
            *(surviving.get(sub[:k] + sub[k + 1:], ()) for k in range(len(sub))))
        if surviving[sub]:
            factors = [resolve(ideal, resolutions) for ideal in family]
            filtered = build_filtration(tensor(factors), kind="interior_augmented")
            witness = next(({"subfamily": list(sub), "degree": list(g), "p": p, "q": q}
                            for g in sorted(surviving[sub])
                            for (p, q), d in pages(filtered, g, fld).page(2).items()
                            if q >= 0 and p >= 2 and d), None)
            if witness:
                cond2_witness.append(witness)
        p_tab = complex_homology_table(build_p_complex(family), fld)
        i = next((i for i in p_tab.nonzero_indices() if i >= 2), None)
        if i is not None:
            cond3_witness.append({"subfamily": list(sub), "i": i})
        s_nonzero = complex_homology_table(build_s_complex(family), fld).nonzero_indices()
        if s_nonzero:
            cond4_witness.append({"subfamily": list(sub), "i": s_nonzero[0]})
    cond2, cond3, cond4 = not cond2_witness, not cond3_witness, not cond4_witness
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
