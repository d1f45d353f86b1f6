"""
Spectral sequences of multicomplexes
====================================

Tensoring the resolutions of an ideal family (Taylor resolutions with
their unit entries cancelled, ``resolution``) gives an N^n-indexed
multicomplex with commuting differentials.  Four filtrations of natural
constructions on it (the Koszul cone, its hypercube-augmented version, the
support-count filtration and its augmentation) produce convergent spectral
sequences; two more arise from the Mayer-Vietoris double complexes built
from the sum and product complexes.  All pages are computed fiberwise over
GF(p); their abutment, E_inf summed by total degree, is the homology of the
total complex.
"""

from homotor import (
    MonomialIdeal,
    Multidegree,
    build_filtration,
    mv_total_complex,
    pages,
    resolution,
    tensor,
)



def by_total_degree(pg):
    """{p + q: the dimensions of E_inf on that diagonal, summed}."""
    out = {}
    for (p, q), d in pg.e_infinity.items():
        out[p + q] = out.get(p + q, 0) + d
    return out


m = MonomialIdeal(2, [(1, 0), (0, 1)])
family = [m, m]
multi = tensor([resolution(i) for i in family])
gamma = Multidegree((1, 1))

for kind in ("kcone", "kcone_augmented", "interior", "interior_augmented"):
    filtered = build_filtration(multi, kind=kind)
    pg = pages(filtered, gamma)
    print(f"{kind:20s} E1 = {pg.e1}")
    print(f"{'':20s} E_inf = {pg.e_infinity}, stabilized at page {pg.r_stab}")
    print(f"{'':20s} E_inf by total degree = {by_total_degree(pg)}, "
          f"H(total) = {filtered.total.homology_at(gamma)}")

# The Mayer-Vietoris double complexes relate Tor against sums of subfamilies
# to Tor against products.  First pages list those Tor dimensions; the
# abutment is the homology of the total complex.
origin = Multidegree((0, 0))
print("\nsum-to-product double complex at", tuple(origin))
pg = pages(mv_total_complex("sum_to_product", family), origin)
print("  E1:", pg.e1)
print("  E_inf by total degree:", by_total_degree(pg))

print("\nproduct-to-sum double complex at", tuple(origin))
pg = pages(mv_total_complex("product_to_sum", family), origin)
print("  E1:", pg.e1)
print("  E_inf by total degree:", by_total_degree(pg))

# The classical pair bookkeeping: the abutment of the sum-to-product
# sequence carries R/(I cap J), so Tor_1 = R/IJ minus that, degree by
# degree.  For (x),(x) in one variable at degree (1,): dim R/x^2 = 1 and
# dim R/x = 0, leaving one class of Tor_1.
from homotor import combine, multi_tor

x = MonomialIdeal(1, [(1,)])
pair = [x, x]
prod = combine(pair, "product")
stp = mv_total_complex("sum_to_product", pair)  # one total for every degree
tor = multi_tor(pair)
for g in ((0,), (1,)):
    pg = pages(stp, Multidegree(g))
    h1 = by_total_degree(pg).get(1, 0)
    dim_rij = 0 if prod.contains(g) else 1
    dim_rint = 0 if x.contains(g) else 1  # (x) cap (x) = (x)
    print(f"degree {g}: H_1(total) = {h1} = dim R/(x cap x) = {dim_rint}, "
          f"Tor_1 = {dim_rij - h1} = "
          f"{tor.dim(1, tuple(min(a, b) for a, b in zip(g, tor.box)))}")
