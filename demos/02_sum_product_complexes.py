"""
The sum and product complexes of an ideal family
================================================

A family I_1, ..., I_n has two natural complexes indexed by wedge products
of subset labels: the cochain complex S of quotients by sums and the chain
complex P of quotients by products.  Their homology measures the failure of
Tor-independence, and under independence hypotheses both compute multiple
Tor modules on the nose.
"""

from homotor import (
    MonomialIdeal,
    build_p_complex,
    build_s_complex,
    complex_homology_table,
    exactness_equivalences,
    independence,
    multi_tor,
    verify_identities,
)

x = MonomialIdeal(2, [(1, 0)])
y = MonomialIdeal(2, [(0, 1)])
m = MonomialIdeal(2, [(1, 0), (0, 1)])

# For the pair (x), (y) the sum complex is the Mayer-Vietoris sequence
#   0 -> R/xy -> R/x + R/y -> R/(x,y) -> 0
# and it is exact because the two ideals are Tor-independent.
s = build_s_complex([x, y])
print("S complex ranks:", {-i: len(ss) for i, ss in sorted(s.terms.items())})
print("S homology records:", complex_homology_table(s).records() or "exact")

# The product complex of a dependent pair is not exact: its H_2 is Tor_1.
p = build_p_complex([m, m])
table = complex_homology_table(p)
print("\nP complex of (m, m): H_2 slice:", table.slice(2))
print("Tor_1(R/m, R/m) slice:   ", multi_tor([m, m]).slice(1))

# The tilde variants live inside the unit Koszul complex and shift homology
# by one; build_s_complex exposes both.
st = build_s_complex([m, m], variant="tilde")
print("\ntilde-S bottom term ideal:", st.summands(0)[0].ideal)

# verify_identities figures out which hypotheses a family satisfies and
# checks every identification whose hypothesis holds, degree by degree.
# Every checker returns a CheckReport of named assertions, so strong
# independence (its one assertion: the subset and recursion criteria
# agree) reads the same way.
for name, rep in (("verify_identities on (m, m)", verify_identities([m, m])),
                  ("independence of (x), (y)", independence([x, y], strong=True))):
    print(f"\n{name}:")
    for a in rep.assertions:
        status = "skipped" if not a["checked"] else ("ok" if a["passed"] else "FAIL")
        print(f"  {a['name']}: {status}")

# Strong Tor-independence is equivalent to exactness of the spectral rows
# plus either side's complex being exact; the checker confirms the
# bi-implications in both directions.
for fam, label in (([x, y], "(x),(y)"), ([x, x], "(x),(x)")):
    rep = exactness_equivalences(fam)
    print(f"\nexactness equivalences for {label}: "
          f"independent={rep.context['strongly_independent']}, "
          f"bi-implications hold={rep.passed}")
