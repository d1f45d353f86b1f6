"""Multigraded support regions of Tor tables.

A region is a table's ``support()``: its nonzero cells inside the table's
box, a stability box, so a cell touching a box face represents every degree
beyond it in that direction and any degree is read at its clamp
min(gamma, box).  ``region_compare`` compares two tables' regions over the
lcm of their boxes.  The union-equality checker compares supports of Tor
against products with Tor against sums and cross-checks both containments
against the abutment, the total's homology, of the two Mayer-Vietoris
spectral sequences, read off the ``.total`` of ``sumprod.mv_total_complex``,
their one builder: the filtration it leaves unread costs about what
building S_- in one pass saves.  It takes the families that
``variable_blocks`` accepts, nonzero ideals generated by single variables
in pairwise disjoint blocks; the CLI asks the same function whether a
family gets the union check or per-ideal regions.
"""

from __future__ import annotations

from functools import cache

from .errors import ParamOutOfRange, ValidationError, as_int
from .exactlin import GF, PrimeField
from .gcomplex import TorTable
from .monomial import (
    MonomialIdeal,
    Multidegree,
    check_family,
    combine,
    iter_box,
    lcm_deg,
    subfamilies,
)
from .sumprod import mv_total_complex
from .torlab import CheckReport, multi_tor

SPECTRAL_DEGREES = 8  # support cells cross-checked against both MV abutments


def region_compare(a: TorTable, b: TorTable) -> dict:
    """Exact comparison of the supports of two tables over the lcm of their
    boxes, with witness cells."""
    box = lcm_deg(a.box, b.box)
    ra, rb = _support_over(a, box), _support_over(b, box)
    left = sorted(ra - rb)
    right = sorted(rb - ra)
    return {
        "equal": not left and not right,
        "box": list(box),
        "left_minus_right": [list(c) for c in left],
        "right_minus_left": [list(c) for c in right],
    }


def _support_over(table: TorTable, box) -> frozenset:
    """The table's support over a box that dominates its own, where each
    degree is read at its clamp; over the table's own box, it is not walked."""
    cells = table.support()
    if table.box == box:
        return cells
    return frozenset(g for g in map(tuple, iter_box(box)) if table.clamp(g) in cells)


def variable_blocks(ideals) -> bool:
    """True iff the ideals are nonzero, each generated by single variables,
    with pairwise disjoint variable blocks: the families
    ``supportoftors_check`` takes.  A zero or unit ideal has no block."""
    seen: set = set()
    for ideal in ideals:
        if not ideal.gens or any(g.total() != 1 for g in ideal.gens):
            return False
        block = {i for g in ideal.gens for i in g.support()}
        if seen & block:
            return False
        seen |= block
    return True


def supportoftors_check(ideals, coefficient: MonomialIdeal | None, ps,
                        fld: PrimeField = GF()) -> dict:
    """Union-equality of Tor supports over products versus sums of the
    ideals of a ``variable_blocks`` family, for all p-subsets, plus the
    spectral-sequence containment cross-checks: ``{p: CheckReport}`` for
    each p in ``ps``, from one pass that computes each Tor table and
    Mayer-Vietoris total once and checks each (kind, subset, degree)
    containment once, for every p that lists it; which degrees are tested
    depends on p, but one check's witnesses do not.  A coefficient of None
    or the zero ideal means M = R, as in ``multi_tor``; both pass
    ``check_family`` before ``variable_blocks`` is asked, and every table
    is over the box it returns, which reaches every subset's product and
    sum.  The Tor tables and the totals share one map of resolutions (see
    ``torlab.multi_tor``), so the coefficient is resolved at most once."""
    ideals, box = check_family(ideals, coefficient)
    if not variable_blocks(ideals):
        raise ValidationError("supportoftors_check needs nonzero ideals generated "
                              "by single variables, in pairwise disjoint blocks")
    s = len(ideals)
    ps = [as_int(p, "p") for p in ps]
    for p in ps:
        if not 1 <= p <= s:
            raise ParamOutOfRange(f"p={p} outside 1..{s}")

    # the spectral containments bound each subset's support by supports over
    # its own sub-subsets, so the union equality is cumulative over subset
    # sizes up to p (with a fixed size it already fails for M = R, two
    # singleton blocks and p = 2)
    combos = dict(subfamilies(ideals, range(1, max(ps, default=0) + 1)))  # {T: its ideals}
    resolutions: dict = {}

    @cache
    def tor_of(ideal):
        """The Tor table of one ideal: a singleton's product and sum are one
        ideal, tabulated once."""
        return multi_tor([ideal], coefficient, fld, box, resolutions=resolutions)

    @cache
    def total(kind, T):
        """The Mayer-Vietoris total of (kind, T), built once."""
        return mv_total_complex(kind, combos[T], coefficient, resolutions=resolutions).total

    @cache
    def witnesses(kind, T, g):
        """The witnesses of the (kind, T) containment at g, checked once for
        every p that tests g."""
        return _containment(kind, T, g, tor[T], total(kind, T).homology_at(g, fld))

    # {T: (Tor against the product, Tor against the sum)}
    tor = {T: (tor_of(combine(family, "product")), tor_of(combine(family, "sum")))
           for T, family in combos.items()}

    return {p: _support_report([T for T in combos if len(T) <= p], box, tor, witnesses)
            for p in ps}


def _containment(kind, T, g, tables, homology) -> list:
    """The witnesses of one spectral containment, read off {i: dim H_i} of
    the Mayer-Vietoris total at g, its sequence's abutment: the
    sum-to-product sequence abuts (here, under the strong independence of
    disjoint variable ideals) to Tor against the product, moved up by u - 1
    for a u-subset, the product-to-sum one to Tor against the sum, by 1."""
    offset, table = (len(T) - 1, tables[0]) if kind == "sum_to_product" else (1, tables[1])
    where = {"kind": kind, "subset": list(T), "degree": list(g)}
    expected = {j + offset: table.dim(j, g) for j in table.nonzero_indices()}
    return [{**where, "i": i, "actual": homology.get(i, 0),
             "expected": expected.get(i, 0)}
            for i in sorted(set(homology) | set(expected))
            if homology.get(i, 0) != expected.get(i, 0)]


def _support_report(combos, box, tor, witnesses) -> CheckReport:
    """The report of one p, whose subsets of size at most p are ``combos``;
    ``witnesses(kind, T, g)`` gives those of one containment check."""
    report = CheckReport()
    report.context["box"] = list(box)
    # every table is over the one box, so the unions are plain cell sets
    left = set().union(*(tor[T][0].support() for T in combos))
    right = set().union(*(tor[T][1].support() for T in combos))
    report.context["union_cells"] = [list(c) for c in sorted(left)]
    report.add("support_union_equality", True, left == right, [] if left == right else [
        {"side": "product_only", "cells": [list(c) for c in sorted(left - right)]},
        {"side": "sum_only", "cells": [list(c) for c in sorted(right - left)]}])

    # spectral cross-checks at the first few cells of the union
    tested = sorted(left | right)[:SPECTRAL_DEGREES]
    if not tested:
        tested = [tuple(Multidegree.zero(box.n))]
    found = {"sum_to_product": [], "product_to_sum": []}
    for T in combos:
        for kind in found:
            for g in tested:
                found[kind].extend(witnesses(kind, T, g))
    for kind, cells in found.items():
        report.add(f"{kind}_containment", True, not cells, cells)
    return report
