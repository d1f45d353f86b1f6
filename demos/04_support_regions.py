"""
Support regions, rigidity and proper intersections
==================================================

The support of a graded module is the set of degrees where it is nonzero.
Tor tables determine these regions inside their stability box, with cells on
a box face standing for everything beyond it.  For ideals generated by
disjoint blocks of variables, supports of Tor against products match
supports of Tor against sums; rigidity-style vanishing patterns and the
three-way proper-intersection equivalence are checked on any family.
"""

from homotor import (
    MonomialIdeal,
    multi_tor,
    rigidity_check,
    serre_a8_check,
    supportoftors_check,
)
from homotor.torlab import A8_CONDITIONS

x = MonomialIdeal(2, [(1, 0)])
y = MonomialIdeal(2, [(0, 1)])

# (x)/(x^2) is free in the y-direction: its single support cell sits on the
# box face, so the table reads a degree beyond the box at its clamp.
table = multi_tor([x, x])
print("Tor_1((x),(x)) support cells:", sorted(table.support(1)),
      "inside box", tuple(table.box))
print("dim Tor_1 at degree (1, 9):", table.dim(1, (1, 9)))

# Union equality for disjoint variable blocks, cross-checked through both
# Mayer-Vietoris spectral sequences: one call checks every listed p, over
# the subsets of at most p blocks, and builds each subset's tables once.
reports = supportoftors_check([x, y], MonomialIdeal(2, [(1, 1)]), [1, 2])
for p, report in reports.items():
    print(f"\nsupport union equality for blocks {{x}}, {{y}} against R/(xy), "
          f"p = {p}:", report.passed)
    print("union cells:", report.context["union_cells"])

# Rigidity: once a Tor module vanishes, all higher ones must, vanishing
# passes to prefixes, and dim R + top index - sum of projective dimensions
# stays non-negative.  Like every checker, rigidity_check returns a
# CheckReport: what it computed in its context, and named assertions whose
# witnesses are the violations.
m = MonomialIdeal(2, [(1, 0), (0, 1)])
rep = rigidity_check([m, m])
print("\nrigidity on (m, m): top index =", rep.context["top_index"],
      " epsilon =", rep.context["epsilon"],
      " violations =", rep.context["violations"])
print("assertions:", [(a["name"], a["passed"]) for a in rep.assertions])

# The proper-intersection equivalence: all three conditions flip together.
for fam, label in (([x, y], "(x),(y)"), ([x, x], "(x),(x)")):
    rep = serre_a8_check(fam)
    triple = tuple(rep.context[c] for c in A8_CONDITIONS)
    print(f"three-way equivalence for {label}: triple = {triple}, "
          f"consistent = {rep.passed}")
