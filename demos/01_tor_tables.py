"""
Multigraded Tor tables of monomial ideals
=========================================

Everything in this library is graded by exponent vectors in N^n.  A monomial
ideal is a minimal antichain of such vectors, a quotient R/I contributes a
one-dimensional piece at every degree outside I, and Tor modules of several
quotients are computed fiberwise over a finite "stability box" beyond which
nothing changes.
"""

from homotor import (
    MonomialIdeal,
    betti_table,
    cancel_units,
    family_box,
    iter_box,
    multi_tor,
    taylor_resolution,
    tor1_oracle,
)

# Two ideals in k[x, y]: the maximal ideal and (x^2, xy).
m = MonomialIdeal(2, [(1, 0), (0, 1)])
i = MonomialIdeal(2, [(2, 0), (1, 1)])
print("m  =", m)
print("i  =", i)

# The Taylor resolution of R/i: basis = subsets of the generators, twisted
# by their least common multiples.  Cancelling its entries of coefficient
# ±1 between summands with the same shift gives a smaller resolution with
# the same Tor; Tor and Betti tables are computed from these.  For (x^2, xy)
# the Taylor resolution is already minimal; for (x^2, xy, y^2) the top
# summand cancels against the face {x^2, y^2}, which has the same lcm.
j = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
for ideal, name in ((i, "R/i"), (j, "R/(x^2,xy,y^2)")):
    t = taylor_resolution(ideal)
    for label, c in (("Taylor", t), ("reduced", cancel_units(t))):
        print(f"\n{label} resolution of {name}:", c)
        for deg, summands in sorted(c.terms.items()):
            print(f"  degree {deg}: shifts {[tuple(s.shift) for s in summands]}")

# Tor of the pair (R/m, R/i): a table of dimensions indexed by homological
# degree and multidegree.  The box is where all the action happens.
table = multi_tor([m, i])
print("\nTor(R/m, R/i) over box", tuple(table.box))
for rec in table.records():
    print("  Tor_%d at %s has dimension %d" % (rec["i"], rec["degree"], rec["dim"]))

# Tor_1 has a resolution-free description: tuples in the direct sum of the
# ideals summing to zero, modulo the pairwise product relations.  The two
# computations agree degree by degree.
oracle = tor1_oracle([m, i])
box = family_box([m, i])
agree = all(table.dim(1, g) == oracle.dim(1, g) for g in iter_box(box))
print("\nTor_1 oracle agrees with the resolution computation:", agree)

# Betti numbers, projective dimension, depth and the Cohen-Macaulay test.
# beta_{i,a} = dim Tor_i(R/I, k)_a with k = R/(x, y), so a Betti table is
# multi_tor of R/I against the coefficient (x, y).  Tor is balanced, so
# multi_tor leaves the module with the most minimal generators unresolved
# and resolves only the other.  Here both ideals have 2 generators, as many
# as (x, y), and R/I wins the tie (the coefficient comes last): each table
# is the Koszul homology H(K(x, y) ⊗ R/I), K(x, y) resolving k.
for ideal, name in ((m, "R/m"), (i, "R/(x^2,xy)")):
    b = betti_table(ideal)
    print(f"\n{name}: pd = {b.pd}, depth = {b.depth}, dim = {b.dim}, "
          f"Cohen-Macaulay = {b.is_cm}")
    for rec in b.betti.records():
        print(f"  beta_{rec['i']} at {rec['degree']} = {rec['dim']}")
