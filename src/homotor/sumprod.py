"""The sum complex S (quotients by sums, cochain) and product complex P
(quotients by products, chain) of a family of ideals, their tilde variants
inside the unit Koszul complex, the two Mayer-Vietoris double complexes
built from S and P (``mv_total_complex``), and the degreewise
verification suite for the identities relating their homology to
multiple Tor.

All isomorphism claims are certified as equalities of fiber dimensions over
a common stability box: over a field these determine the graded isomorphism
class degree by degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import EmptySelection, InvalidKind, ValidationError
from .exactlin import GF, PrimeField
from .gcomplex import (
    CYCLIC,
    IDEAL,
    GradedComplex,
    TorTable,
    exterior_complex,
    module_homology_table,
    quotient_complex,
    resolution,
    summand,
)
from .monomial import MonomialIdeal, check_family, combine
from .multicomplex import hypercube_augment, tensor
from .spectral import FilteredTotal, _by_weight, build_filtration, pages
from .torlab import _table_independent, multi_tor


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
    return _s_complex(ideals, box.n, _variant_kind(variant))


def _s_complex(ideals, n_vars: int, kind: str) -> GradedComplex:
    """``build_s_complex`` of a family its caller checked, in n_vars variables."""
    bottom = combine(ideals, "product")
    terms, entries = exterior_complex(
        len(ideals),
        lambda s: summand(combine([ideals[i] for i in s], "sum") if s else bottom),
        "cochain",
    )
    return GradedComplex(n_vars, terms, entries, kind)


def truncated(s: GradedComplex) -> GradedComplex:
    """S_- = S^1 -> ... -> S^n, the degree-1 truncation of a sum complex
    S^0 -> ... -> S^n, as a chain complex: S^p at index n - p, of the
    kind of s, for the sum_to_product Mayer-Vietoris total only."""
    n = -min(s.terms)
    terms = {i + n: ss for i, ss in s.terms.items() if i != 0}
    entries = {i + n: es for i, es in s.entries.items() if i != 0}
    return GradedComplex(s.n, terms, entries, s.kind)


def build_p_complex(ideals, variant: str = "quotient") -> GradedComplex:
    """P_p = sum of R/(I_{i_1}...I_{i_p}) over p-subsets, a chain complex
    with unit Koszul differentials.  The tilde variant keeps the ideals, and
    its bottom term is R, so the quotient variant has P_0 = R/R = 0."""
    ideals, box = check_family(ideals)
    return _p_complex(ideals, box.n, _variant_kind(variant))


def _p_complex(ideals, n_vars: int, kind: str) -> GradedComplex:
    """``build_p_complex`` of a family its caller checked, in n_vars variables."""
    bottom = MonomialIdeal.unit(n_vars)
    terms, entries = exterior_complex(
        len(ideals),
        lambda s: summand(combine([ideals[i] for i in s], "product") if s else bottom),
    )
    if kind == CYCLIC:
        del terms[0], entries[1]  # P_0 = R/R is zero
    return GradedComplex(n_vars, terms, entries, kind)


def mv_total_complex(kind: str, ideals, coefficient: MonomialIdeal | None = None
                     ) -> FilteredTotal:
    """The filtered total of the S_-/P double complex, the tensor of a
    complex X with the free resolution F of M, filtered by the X position.

    sum_to_product: X is S_- = S^1 -> ... -> S^n, built by ``truncated``
    with S^p at chain index n - p, so a summand S^p ⊗ F_q sits in degree
    n - p + q with filtration weight n - p; its first page has
    E^1_{n-p,q} = ⊕ Tor_q(M, R/(sum of a p-subset)).  product_to_sum:
    X = P, P_p ⊗ F_q in degree p + q, weight p; E^1_{p,q} = ⊕ Tor_q(M,
    R/(product of a p-subset)).
    """
    ideals, box = check_family(ideals, coefficient)
    if coefficient is None:
        coefficient = MonomialIdeal.zero(box.n)
    if kind == "sum_to_product":
        x = truncated(_s_complex(ideals, box.n, CYCLIC))
    elif kind == "product_to_sum":
        x = _p_complex(ideals, box.n, CYCLIC)
    else:
        raise InvalidKind(f"unknown mv kind {kind!r}")
    return _by_weight(tensor([x, resolution(coefficient)]), lambda q: q[0])


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


def augmented_interior_H(ideals, subset, coefficient: MonomialIdeal | None = None,
                         fld: PrimeField = GF(), box=None) -> TorTable:
    """The table H_{p,q} = H_{p+q}(augmented interior complex ⊗ M) for the
    chosen subset of the family, keyed by q (so q = -1 row reproduces the
    M ⊗ P_p dimensions).  M = R/coefficient is tensored on as its
    ``quotient_complex``, and the box defaults to the stability box of the
    chosen ideals and the coefficient, both as in ``multi_tor``."""
    ideals, _ = check_family(ideals, coefficient)
    subset = sorted(set(subset))
    if not subset:
        raise EmptySelection("augmented_interior_H needs a nonempty subset")
    if subset[0] < 0 or subset[-1] >= len(ideals):
        raise ValidationError(
            f"subset {subset} names an ideal outside 0..{len(ideals) - 1}"
        )
    chosen = [ideals[i] for i in subset]
    if box is None:
        box = check_family(chosen, coefficient)[1]
    m = tensor([resolution(i) for i in chosen])
    return _interior_table(m, coefficient, fld, box)


def _interior_table(m, coefficient, fld, box) -> TorTable:
    """The table of ``augmented_interior_H`` from m, the tensor of the
    chosen ideals' resolutions, over the box."""
    aug = hypercube_augment(m)
    if coefficient is not None and not coefficient.is_zero():
        aug = tensor([aug, quotient_complex(coefficient)]).total
    table = module_homology_table(aug, fld, box)
    entries = {(i - m.n_axes, gam): d for (i, gam), d in table.entries.items()}
    return TorTable(entries, table.box)


# ---------------------------------------------------------------------------
# Verification suite


@dataclass
class CheckReport:
    assertions: list = field(default_factory=list)
    context: dict = field(default_factory=dict)

    def add(self, name, checked, passed, witnesses=None):
        self.assertions.append(
            {
                "name": name,
                "checked": bool(checked),
                "passed": bool(passed) if checked else None,
                "witnesses": witnesses or [],
                "note": None,
            }
        )

    @property
    def passed(self) -> bool:
        return all(a["passed"] for a in self.assertions if a["checked"])

    def to_json(self):
        return {"context": self.context, "assertions": self.assertions,
                "passed": self.passed}


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

    Determines which hypotheses hold (strict-subfamily Tor-independence, the
    partial vanishing conditions V_t) and checks every conclusion whose
    hypothesis is satisfied, exactly, over the common stability box.  The
    four-term side S^0 - H^1(S_-) is read off S's table as H^0(S) - H^1(S):
    in each fibre dim ker d^1 = H^1(S) + rank d^0 = H^1(S) + S^0 - H^0(S).
    """
    ideals, box = check_family(ideals)
    n = len(ideals)
    report = CheckReport()

    # the Tor tables of the strict subfamilies of size >= 2, smallest first
    sub_tables = {
        sub: multi_tor([ideals[i] for i in sub], fld=fld)
        for size in range(2, n)
        for sub in itertools.combinations(range(n), size)
    }
    # p* = the largest p < n such that every subfamily of size <= p is
    # independent: one less than the size of the first dependent one
    p_star = next((len(sub) - 1 for sub, t in sub_tables.items()
                   if not _table_independent(t)), max(n - 1, 1))
    strict_ok = p_star >= n - 1
    report.context["strict_subfamilies_independent"] = strict_ok

    s_complex = _s_complex(ideals, box.n, CYCLIC)
    report.context["box"] = list(box)

    tor = multi_tor(ideals, fld=fld, box=box)
    s_tab = complex_homology_table(s_complex, fld, box)
    p_tab = complex_homology_table(_p_complex(ideals, box.n, CYCLIC), fld, box)
    # H_{n,q} = H_{n+q}(augmented interior) of the whole family, keyed by q
    aug_tab = augmented_interior_H(ideals, range(n), None, fld, box)
    s_max = max(sum(len(i.gens) for i in ideals) - n, 0)
    h0, h1 = s_tab.slice(0), s_tab.slice(1)
    s_side = {g: h0.get(g, 0) - h1.get(g, 0) for g in h0.keys() | h1.keys()}

    def four_term(name, table, j):
        """H^0(S) - H^1(S) against table_j - table_{j-1}; table_j at n = 2."""
        if not (strict_ok and n >= 2):
            report.add(name, False, None)
            return
        upper, lower = table.slice(j), (table.slice(j - 1) if n >= 3 else {})
        wit = diff_tables(s_side, {g: upper.get(g, 0) - lower.get(g, 0)
                                   for g in upper.keys() | lower.keys()})
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
    # carried by S^1 on the first page, so the count closes with Tor_1 alone
    four_term("four_term_bookkeeping", tor, n - 1)

    # top range: Tor_{n+i} = H_{n+i}(augmented interior)
    _compare_slices(report, "top_tor_vs_augmented", strict_ok,
                    ((i, tor.slice(n + i), aug_tab.slice(i)) for i in range(s_max + 1)))

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

    # under V_{s+1} there is a surjection Tor_{n+s} -> H_{n,s}, an
    # isomorphism under V_{s+2}; dimensionwise: >= resp. ==
    def V(t):
        """Tor_q of every strict subfamily of size p >= 2 vanishes for
        1 <= q < p + t."""
        return all(table.is_zero(q) for sub, table in sub_tables.items()
                   for q in range(1, len(sub) + t))

    wit = []
    ok = True
    any_checked = False
    for s in range(0, s_max + 1):
        if not V(s + 1):
            continue
        any_checked = True
        iso = V(s + 2)
        lhs = tor.slice(n + s)
        rhs = aug_tab.slice(s)
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


def exactness_equivalences(ideals, fld: PrimeField = GF()) -> CheckReport:
    """Exactness equivalences: strong Tor-independence against (2) the
    exactness of the q >= 0 rows of the augmented-interior spectral sequence
    of every subfamily, (3) vanishing of H_i(P) for i >= 2 for every
    subfamily, (4) exactness of every subfamily's sum complex.

    Every condition runs over the subfamilies of size >= 2: a single ideal
    is Tor-independent, its P is the one term R/I at index 1 and its S the
    identity R/I -> R/I, so it can give no witness."""
    ideals, box = check_family(ideals)
    n = len(ideals)
    report = CheckReport()
    subs = [sub for size in range(2, n + 1)
            for sub in itertools.combinations(range(n), size)]
    families = {sub: [ideals[i] for i in sub] for sub in subs}

    cond1 = all(_table_independent(multi_tor(families[sub], fld=fld)) for sub in subs)

    # each ideal is resolved once, and each subfamily's tensor is built
    # once for its H table and its page engine; subfamilies come in order
    # of size, so the tables of every subfamily of sub are in place
    resolved = [resolution(ideal) for ideal in ideals]
    h_tables = {}
    cond2_witness = []
    for sub in subs:
        m = tensor([resolved[i] for i in sub])
        h_tables[sub] = _interior_table(m, None, fld, check_family(families[sub])[1])
        # the degrees where a q >= 0 row of a subfamily of sub survives;
        # exactness there is settled with the page engine
        gammas = sorted({g for size in range(2, len(sub) + 1)
                         for t in itertools.combinations(sub, size)
                         for (q, g) in h_tables[t].entries if q >= 0})
        if not gammas:
            continue
        filtered = build_filtration(m, kind="interior_augmented")
        witness = next(({"subfamily": list(sub), "degree": list(g), "p": p, "q": q}
                        for g in gammas
                        for (p, q), d in pages(filtered, g, fld).page(2).items()
                        if q >= 0 and p >= 2 and d), None)
        if witness:
            cond2_witness.append(witness)

    cond3_witness = []
    cond4_witness = []
    for sub in subs:
        p_tab = complex_homology_table(_p_complex(families[sub], box.n, CYCLIC), fld)
        i = next((i for i in p_tab.nonzero_indices() if i >= 2), None)
        if i is not None:
            cond3_witness.append({"subfamily": list(sub), "i": i})
        s_nonzero = complex_homology_table(_s_complex(families[sub], box.n, CYCLIC), fld
                                           ).nonzero_indices()
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
