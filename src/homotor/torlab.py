"""Multiple Tor tables of monomial quotients and the theorem checkers
built on them (rigidity, prefix vanishing, the proper-intersection
equivalence) plus Betti / projective-dimension / depth invariants.

Module-level vanishing always means: every entry of the table over the
stability box is zero.  The checkers run over the graded polynomial ring;
for monomial ideals graded vanishing coincides with local vanishing at the
irrelevant maximal ideal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce
from operator import and_, or_

from .exactlin import GF, PrimeField, pivot_pairs
from .gcomplex import (
    TorTable,
    base_change,
    module_homology_table,
    resolve,
    unresolved,
)
from .monomial import (
    MonomialIdeal,
    Multidegree,
    check_box_size,
    check_family,
    combine,
    dominating_box,
    quotient_dimension,
    subfamilies,
)
from .multicomplex import tensor


def family_box(ideals, coefficient: MonomialIdeal | None = None) -> Multidegree:
    """Stability box of the tensor of resolutions (+ coefficient): the box
    ``check_family`` returns with the family."""
    return check_family(ideals, coefficient)[1]


def multi_tor(ideals, coefficient: MonomialIdeal | None = None,
              fld: PrimeField = GF(), box=None, *, resolutions=None) -> TorTable:
    """Tor_i of the family of quotients R/I (optionally against R/coefficient),
    as a table of fiber dimensions over the box, ``family_box`` by default.

    Tor is balanced, so one module is left unresolved: ``unresolved``
    picks it among the ideals and, last, R/coefficient unless the
    coefficient is zero.  The others' resolutions are tensored (a lone one
    is its own total, and none is R(0), the zero ideal's), then
    ``base_change`` takes the total to the unresolved module.  Family and
    coefficient pass ``check_family`` first, box given or not.

    Each resolution is taken from ``resolutions``, a map {ideal: its
    resolution} filled on first use (``gcomplex.resolve``), by default a
    fresh one, so a module that is both a family member and the
    coefficient is resolved once.  A checker builds many tables: it makes
    one map per call and hands it to every table it builds, so each
    distinct ideal is resolved at most once per checker call.  The map is
    an argument, never stored: it dies with the call."""
    resolutions = {} if resolutions is None else resolutions
    ideals, stable = check_family(ideals, coefficient)
    modules = list(ideals)
    if coefficient is not None and not coefficient.is_zero():
        modules.append(coefficient)
    u = unresolved(modules)
    resolved = [resolve(ideal, resolutions) for k, ideal in enumerate(modules) if k != u] \
        or [resolve(MonomialIdeal.zero(stable.n), resolutions)]
    total = resolved[0] if len(resolved) == 1 else tensor(resolved).total
    return module_homology_table(base_change(total, modules[u]), fld,
                                 stable if box is None else box)


def tor1_oracle(ideals, fld: PrimeField = GF(), box=None) -> TorTable:
    """Tor_1 of the family computed combinatorially, independent of any
    resolution: per degree, the kernel of the sum map on the surviving
    coordinates (the ideals containing it) modulo the span of the pairwise
    product relations.  A given box must dominate ``family_box``, so that,
    as in every table, the fibre beyond the box is the fibre at
    min(gamma, box).  Each generator of the ideals and pair products owns a
    bit, and a degree's state, the bits of those dividing it, takes one AND
    per degree in a lexicographic walk; survivors and the elimination are
    computed once per distinct state."""
    ideals, stable = check_family(ideals)
    box = dominating_box(stable, box)
    check_box_size(box)
    s, p = len(ideals), fld.p
    pairs = dict(subfamilies(ideals, [2]))  # {(i, j): (I_i, I_j)}
    members = ideals + [combine(pair, "product") for pair in pairs.values()]
    masks = []  # per member, the bits of its generators
    at = [{} for _ in box]  # per coordinate, value -> the generators there
    bit = 0
    for member in members:
        masks.append(0)
        for g in member.gens:
            masks[-1] |= 1 << bit
            for v, bits in zip(g, at):
                bits[v] = bits.get(v, 0) | 1 << bit
            bit += 1
    rows = [list(itertools.accumulate((bits.get(v, 0) for v in range(top + 1)), or_))
            for bits, top in zip(at, box)]
    full = (1 << bit) - 1
    last = list(zip([(g,) for g in range(box[-1] + 1)], rows[-1])) if box.n \
        else [((), full)]
    dims = {}
    entries = {}
    for prefix, prefix_rows in zip(
            itertools.product(*(range(top + 1) for top in box[:-1])),
            itertools.product(*rows[:-1])):
        state = reduce(and_, prefix_rows, full)
        for end, row in last:
            inside = state & row
            d = dims.get(inside)
            if d is None:
                pos = {i: k for k, i in enumerate(i for i in range(s) if inside & masks[i])}
                relations = [((i, j), {pos[i]: 1, pos[j]: p - 1})
                             for (i, j), mask in zip(pairs, masks[s:]) if inside & mask]
                d = dims[inside] = len(pos) - 1 - len(pivot_pairs(relations, p)) if pos else 0
            if d:
                entries[(1, prefix + end)] = d
    return TorTable(entries, box)


@dataclass
class CheckReport:
    """The report of a checker: named assertions, each with its witnesses,
    and the context the checker computed on the way."""
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


def _table_independent(table: TorTable) -> bool:
    return all(i <= 0 for i in table.nonzero_indices())


def independence(ideals, fld: PrimeField = GF(), strong: bool = False
                 ) -> CheckReport:
    """Tor-independence of the family; in strong mode every subset is tested
    and the answer is cross-validated against the pairwise recursion
    criterion (largest index against the sum of the others), the one
    assertion ``criteria_agree``.

    Strong mode makes one map of resolutions for the call and hands it to
    every subset and recursion table (see ``multi_tor``).  A 2-subset
    takes its recursion verdict from its subset table: its recursion pair
    is the same two modules in the other order, and Tor is symmetric and
    balanced, so the two tables are equal."""
    ideals, _ = check_family(ideals)
    report = CheckReport()
    if not strong:
        ok = _table_independent(multi_tor(ideals, fld=fld))
        report.context.update(independent=ok, strong=False, subsets={},
                              recursion={}, agreement=True)
        return report
    s = len(ideals)
    resolutions: dict = {}
    subset_results = {}
    recursion_results = {}
    for sub, family in subfamilies(ideals, range(2, s + 1)):
        subset_results[sub] = _table_independent(
            multi_tor(family, fld=fld, resolutions=resolutions))
        if len(sub) == 2:  # the recursion pair is this pair: see above
            recursion_results[sub] = subset_results[sub]
            continue
        pair = [family[-1], combine(family[:-1], "sum")]
        recursion_results[sub] = _table_independent(
            multi_tor(pair, fld=fld, resolutions=resolutions))
    by_subsets = all(subset_results.values())
    agreement = by_subsets == all(recursion_results.values())
    report.context.update(
        independent=by_subsets,
        strong=True,
        subsets={str(list(k)): v for k, v in sorted(subset_results.items())},
        recursion={str(list(k)): v for k, v in sorted(recursion_results.items())},
        agreement=agreement,
    )
    report.add("criteria_agree", True, agreement)
    return report


@dataclass
class BettiReport:
    betti: TorTable
    pd: int
    depth: int
    dim: int
    codim: int
    is_cm: bool

    def to_json(self):
        return {
            "betti": self.betti.records(),
            "pd": self.pd,
            "depth": self.depth,
            "dim": self.dim,
            "codim": self.codim,
            "is_cm": self.is_cm,
        }


def betti_table(ideal: MonomialIdeal, fld: PrimeField = GF(), *,
                resolutions=None) -> BettiReport:
    """Graded Betti numbers beta_{i,gamma} = dim Tor_i(R/I, k)_gamma together
    with pd, depth (Auslander-Buchsbaum), Krull dimension and the CM flag.

    The residue field is k = R/(x_1, ..., x_n), so the table is ``multi_tor``
    of R/I against that coefficient, the balanced tensor of the two, which
    reads and fills ``resolutions`` as ``multi_tor`` does.  When I has at
    least n minimal generators, R/I stays unresolved and the table is the
    Koszul homology H(K(x) ⊗ R/I), K(x) resolving k; otherwise it is the
    reduced resolution of R/I with every summand R(-a) turned into k(-a),
    which lives only at degree a.  Only one of the two is resolved.  Its
    box is lcm(gens) + (1, ..., 1)."""
    n = ideal.n
    dim, codim = quotient_dimension(ideal)  # first: it refuses (1) and bounds n
    table = multi_tor([ideal], MonomialIdeal.variables(n, range(n)), fld,
                      resolutions=resolutions)
    pd = table.max_nonzero_index() or 0
    depth = n - pd
    return BettiReport(table, pd, depth, dim, codim, is_cm=depth == dim)


def rigidity_check(ideals, fld: PrimeField = GF()) -> CheckReport:
    """Empirical falsification of the rigidity statements: once some Tor_i
    vanishes all higher ones must; vanishing passes to prefix subfamilies;
    and 0 <= eps := dim R + j - sum pd, with eps = 0 forced when the top Tor
    is artinian.  Every violation is a witness of the one assertion
    ``no_rigidity_violations``.  Its Tor and Betti tables share one map
    of resolutions (see ``multi_tor``)."""
    ideals, box = check_family(ideals)
    resolutions: dict = {}
    table = multi_tor(ideals, fld=fld, resolutions=resolutions)
    max_index = sum(len(i.gens) for i in ideals)
    nonzero = set(table.nonzero_indices())
    vanishing = {i: i not in nonzero for i in range(max_index + 1)}
    violations = []
    seen_zero = None
    for i in range(1, max_index + 1):
        if vanishing[i] and seen_zero is None:
            seen_zero = i
        if seen_zero is not None and not vanishing[i]:
            gamma = sorted(table.slice(i))[0]
            violations.append(
                {
                    "rule": "rigidity",
                    "zero_at": seen_zero,
                    "nonzero_at": i,
                    "witness": {"degree": list(gamma), "dim": table.dim(i, gamma)},
                }
            )
    # a prefix of one ideal has Tor_i = 0 for every i >= 1: start at two
    for t in range(2, len(ideals)):
        sub_table = multi_tor(ideals[:t], fld=fld, resolutions=resolutions)
        for i in range(1, max_index + 1):
            if vanishing[i] and not sub_table.is_zero(i):
                gamma = sorted(sub_table.slice(i))[0]
                violations.append(
                    {
                        "rule": "prefix_vanishing",
                        "index": i,
                        "subfamily": list(range(t)),
                        "witness": {"degree": list(gamma)},
                    }
                )
    j = table.max_nonzero_index() or 0
    sum_pd = sum(betti_table(i, fld, resolutions=resolutions).pd for i in ideals)
    epsilon = box.n + j - sum_pd
    if epsilon < 0:
        violations.append({"rule": "epsilon_nonnegative", "epsilon": epsilon})
    top_cells = table.slice(j)
    artinian = bool(top_cells) and all(
        all(g < b for g, b in zip(gamma, table.box)) for gamma in top_cells
    )
    if artinian and epsilon != 0:
        violations.append(
            {"rule": "epsilon_upper_bound", "epsilon": epsilon, "dim_top": 0}
        )
    report = CheckReport(context={
        "vanishing": {str(i): v for i, v in sorted(vanishing.items())},
        "top_index": j,
        "epsilon": epsilon,
        "sum_pd": sum_pd,
        "artinian_top": artinian,
        "violations": violations,
    })
    report.add("no_rigidity_violations", True, not violations, violations)
    return report


#: The three conditions of ``serre_a8_check``, as its report names them.
A8_CONDITIONS = ("tor1_vanishes_and_tensor_cm", "codim_equals_sum_pd",
                 "proper_intersection_all_cm")


def serre_a8_check(ideals, fld: PrimeField = GF()) -> CheckReport:
    """Three-way equivalence for the quotients R/I_i: (1) Tor_1 of the family
    vanishes and the tensor product is CM; (2) its codimension equals the sum
    of the projective dimensions; (3) the intersection is proper and every
    quotient is CM.  The three truth values must coincide: the assertion
    ``three_way_equivalence``, whose witness is the triple when they do not.
    Its Tor and Betti tables share one map of resolutions (see
    ``multi_tor``)."""
    ideals, _ = check_family(ideals)
    resolutions: dict = {}
    table = multi_tor(ideals, fld=fld, resolutions=resolutions)
    tensor_report = betti_table(combine(ideals, "sum"), fld, resolutions=resolutions)
    parts = [betti_table(i, fld, resolutions=resolutions) for i in ideals]
    sum_pd = sum(p.pd for p in parts)
    sum_codim = sum(p.codim for p in parts)
    cond1 = table.is_zero(1) and tensor_report.is_cm
    cond2 = tensor_report.codim == sum_pd
    cond3 = sum_codim == tensor_report.codim and all(p.is_cm for p in parts)
    details = {
        "tor1_zero": table.is_zero(1),
        "tensor_cm": tensor_report.is_cm,
        "tensor_codim": tensor_report.codim,
        "sum_pd": sum_pd,
        "sum_codim": sum_codim,
        "parts_cm": [p.is_cm for p in parts],
    }
    triple = [cond1, cond2, cond3]
    equivalent = len(set(triple)) == 1
    report = CheckReport(context={**dict(zip(A8_CONDITIONS, triple)),
                                  "equivalent": equivalent, "details": details})
    report.add("three_way_equivalence", True, equivalent,
               [] if equivalent else [{"triple": triple}])
    return report
