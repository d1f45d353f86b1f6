"""Multigraded support regions of Tor tables.

A region is stored as the set of its nonzero cells inside a box, with the
upward-closure rule: a cell touching a box face represents every degree
beyond it in that direction, so membership of any degree is decided by the
min(gamma, box) pullback.  The union-equality checker for disjoint
variable-generated ideals compares supports of Tor against products with
Tor against sums and cross-checks both containments through the two
Mayer-Vietoris spectral sequences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

from .errors import (
    BoxTooSmall,
    EmptyInput,
    LengthMismatch,
    OverlappingPartitions,
    ParamOutOfRange,
    ValidationError,
)
from .exactlin import GF, PrimeField
from .gcomplex import TorTable
from .monomial import MonomialIdeal, Multidegree, combine, iter_box, lcm_deg
from .spectral import mv_total_complex, pages
from .sumprod import CheckReport
from .torlab import family_box, multi_tor

SPECTRAL_DEGREES = 8  # support cells cross-checked through both MV sequences


@dataclass(frozen=True)
class SupportRegion:
    box: Multidegree
    cells: frozenset

    def member(self, gamma) -> bool:
        if len(gamma) != len(self.box):
            raise LengthMismatch(f"degree length {len(gamma)} != {len(self.box)}")
        clamped = tuple(min(g, b) for g, b in zip(gamma, self.box))
        return clamped in self.cells

    def rebase(self, new_box) -> "SupportRegion":
        new_box = Multidegree(new_box)
        if new_box == self.box:
            return self
        if not self.box.leq(new_box):
            raise BoxTooSmall("rebase target must dominate the region box")
        cells = frozenset(
            tuple(g) for g in iter_box(new_box) if self.member(g)
        )
        return SupportRegion(new_box, cells)

    def union(self, other: "SupportRegion") -> "SupportRegion":
        box = lcm_deg(self.box, other.box)
        a, b = self.rebase(box), other.rebase(box)
        return SupportRegion(box, a.cells | b.cells)

    def is_empty(self) -> bool:
        return not self.cells

    def sorted_cells(self):
        return sorted(self.cells)


def support_region(table: TorTable, j: int | None = None) -> SupportRegion:
    """Cells where the j-th (or the union over all j) table entry is nonzero."""
    if j is None:
        cells = {g for (_, g) in table.entries}
    else:
        cells = {g for (i, g) in table.entries if i == j}
    return SupportRegion(table.box, frozenset(cells))


def region_compare(a: SupportRegion, b: SupportRegion) -> dict:
    """Exact set comparison over the common box, with witness cells."""
    box = lcm_deg(a.box, b.box)
    ra, rb = a.rebase(box), b.rebase(box)
    left = sorted(ra.cells - rb.cells)
    right = sorted(rb.cells - ra.cells)
    return {
        "equal": not left and not right,
        "box": list(box),
        "left_minus_right": [list(c) for c in left],
        "right_minus_left": [list(c) for c in right],
    }


def supportoftors_check(partitions, coefficient: MonomialIdeal, ps,
                        fld: PrimeField = GF()) -> dict:
    """Union-equality of Tor supports over products versus sums of the
    variable-generated ideals of a disjoint partition family, for all
    p-subsets, plus the spectral-sequence containment cross-checks:
    ``{p: CheckReport}`` for each p in ``ps``, from one pass that computes
    each Tor table, Mayer-Vietoris total and page once for every p."""
    n = coefficient.n
    sets = [tuple(sorted(set(int(i) for i in J))) for J in partitions]
    if () in sets:
        raise EmptyInput(f"variable block {sets.index(())} of the partition is empty")
    seen: set = set()
    for J in sets:
        if seen & set(J):
            raise OverlappingPartitions(f"overlapping variable sets at {J}")
        if any(i < 0 or i >= n for i in J):
            raise ValidationError(f"variable index out of range in {J}")
        seen |= set(J)
    s = len(sets)
    ps = list(ps)
    for p in ps:
        if not 1 <= p <= s:
            raise ParamOutOfRange(f"p={p} outside 1..{s}")
    ideals = [MonomialIdeal.variables(n, J) for J in sets]
    coeff = None if coefficient.is_zero() else coefficient

    # the spectral containments bound each subset's support by supports over
    # its own sub-subsets, so the union equality is cumulative over subset
    # sizes up to p (with a fixed size it already fails for M = R, two
    # singleton blocks and p = 2)
    combos = [
        T for size in range(1, max(ps, default=0) + 1)
        for T in itertools.combinations(range(s), size)
    ]
    # a product or sum over T has exponent 1 on exactly the variables of
    # T's blocks, so the singletons' boxes already reach every subset's box:
    # one box for all p
    box = reduce(lcm_deg, (family_box([ideal], coeff) for ideal in ideals),
                 Multidegree.zero(n))
    by_ideal: dict = {}  # a singleton's product and sum are one ideal
    tor = {}  # {T: (Tor against the product, Tor against the sum)}
    for T in combos:
        family = [ideals[i] for i in T]
        pair = (combine(family, "product"), combine(family, "sum"))
        for ideal in pair:
            if ideal not in by_ideal:
                by_ideal[ideal] = multi_tor([ideal], coefficient=coeff, fld=fld, box=box)
        tor[T] = tuple(by_ideal[ideal] for ideal in pair)
    totals: dict = {}
    spectra: dict = {}

    def spectrum(kind, T, g):
        """The pages of the (kind, T) Mayer-Vietoris total at g: each total
        and each of its pages is built once, for every p that asks."""
        if (kind, T) not in totals:
            totals[(kind, T)] = mv_total_complex(kind, [ideals[i] for i in T], coeff)
        if (kind, T, g) not in spectra:
            spectra[(kind, T, g)] = pages(totals[(kind, T)], g, fld)
        return spectra[(kind, T, g)]

    return {p: _support_report([T for T in combos if len(T) <= p], box, tor, spectrum)
            for p in ps}


def _support_report(combos, box, tor, spectrum) -> CheckReport:
    """The report of one p, whose subsets of size at most p are ``combos``."""
    report = CheckReport()
    report.context["box"] = list(box)
    left = SupportRegion(box, frozenset())
    right = SupportRegion(box, frozenset())
    for T in combos:
        left = left.union(support_region(tor[T][0]))
        right = right.union(support_region(tor[T][1]))
    cmp = region_compare(left, right)
    report.context["union_cells"] = [list(c) for c in left.sorted_cells()]
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

    # spectral cross-checks: the sum-to-product sequence abuts (here, under
    # the strong independence of disjoint variable ideals) to Tor against
    # the product, moved up by u - 1 for a u-subset, the product-to-sum one
    # to Tor against the sum, moved up by 1
    tested = sorted(left.cells | right.cells)[:SPECTRAL_DEGREES]
    if not tested:
        tested = [tuple(Multidegree.zero(box.n))]
    witnesses = {"sum_to_product": [], "product_to_sum": []}
    for T in combos:
        for kind, offset, table in (("sum_to_product", len(T) - 1, tor[T][0]),
                                    ("product_to_sum", 1, tor[T][1])):
            for g in tested:
                pg = spectrum(kind, T, g)
                where = {"kind": kind, "subset": list(T), "degree": list(g)}
                if not pg.converged:
                    witnesses[kind].append({**where, "reason": "not convergent"})
                    continue
                totals = pg.total_dims()
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
