"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (integer dimension equality over the stated boxes);
random families are drawn from the seeded deterministic generator.
"""

from conftest import (
    abuts_to_the_total,
    direct_e1,
    mv_tensor_total,
    pair_intersection,
    set_partitions,
    stream,
)
from homotor.cli import random_instance
from homotor.gcomplex import module_homology_table, taylor_resolution
from homotor.monomial import MonomialIdeal, Multidegree, combine, iter_box
from homotor.multicomplex import tensor
from homotor.spectral import build_filtration, pages
from homotor.sumprod import (
    build_p_complex,
    build_s_complex,
    complex_homology_table,
    exactness_equivalences,
    verify_identities,
)
from homotor.support import supportoftors_check
from homotor.torlab import (
    A8_CONDITIONS,
    family_box,
    independence,
    multi_tor,
    rigidity_check,
    serre_a8_check,
    tor1_oracle,
)


def report(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {num}: {desc}")
    assert not failures, (num, failures[:5])


def mixed_stream(seed, count):
    """Families within the criterion bounds: <= 3 vars, <= 3 ideals, exp <= 2."""
    out = []
    combos = [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (2, 1), (3, 1)]
    for t in range(count):
        n_vars, n_ideals = combos[t % len(combos)]
        out.append(
            random_instance(seed + t, n_vars=n_vars, n_ideals=n_ideals,
                            max_gens=2, max_exp=2)
        )
    return out


def test_criterion_1_tor1_oracle_equivalence():
    failures = []
    for fam in mixed_stream(101000, 210):
        box = family_box(fam)
        table = multi_tor(fam, box=box)
        oracle = tor1_oracle(fam, box=box)
        for g in iter_box(box):
            if table.dim(1, g) != oracle.dim(1, g):
                failures.append(([i.gens for i in fam], tuple(g)))
    report(1, "Tor_1 oracle equivalence on 210 seeded families", failures)


def test_criterion_2_pair_mayer_vietoris():
    failures = []
    for t in range(210):
        n_vars = 1 + t % 3
        fam = random_instance(102000 + t, n_vars=n_vars, n_ideals=2,
                              max_gens=2, max_exp=2)
        i1, i2 = fam
        box = family_box(fam)
        tor = multi_tor(fam, box=box)
        prod = combine(fam, "product")
        inter = pair_intersection(*fam)
        total = combine(fam, "sum")
        for g in iter_box(box):
            t1 = tor.dim(1, g)
            a = 0 if prod.contains(g) else 1
            b = (0 if i1.contains(g) else 1) + (0 if i2.contains(g) else 1)
            c = 0 if total.contains(g) else 1
            if t1 - a + b - c != 0:
                failures.append(("bookkeeping", [i.gens for i in fam], tuple(g)))
            comb = 1 if (inter.contains(g) and not prod.contains(g)) else 0
            if t1 != comb:
                failures.append(("tor1_vs_combinatorial", [i.gens for i in fam],
                                 tuple(g)))
    report(2, "n=2 Mayer-Vietoris bookkeeping and (I cap J)/IJ on 210 pairs",
           failures)


def _test_degrees(box, count=3):
    cells = [Multidegree((0,) * len(box)), Multidegree(box),
             Multidegree(tuple(min(1, b) for b in box))]
    return list(dict.fromkeys(tuple(c) for c in cells))[:count]


def test_criterion_3_spectral_convergence():
    failures = []
    checked = 0
    for fam in mixed_stream(103000, 18):
        m = tensor([taylor_resolution(i) for i in fam])
        coeff = None
        for kind in ("kcone", "kcone_augmented", "interior",
                     "interior_augmented"):
            filtered = build_filtration(m, kind=kind)
            for g in _test_degrees(family_box(fam)):
                pg = pages(filtered, Multidegree(g))
                checked += 1
                if not abuts_to_the_total(pg, filtered, g):
                    failures.append((kind, [i.gens for i in fam], g))
        for kind in ("sum_to_product", "product_to_sum"):
            filtered = mv_tensor_total(kind, fam, coeff)
            for g in _test_degrees(family_box(fam)):
                pg = pages(filtered, Multidegree(g))
                checked += 1
                if not abuts_to_the_total(pg, filtered, g):
                    failures.append((kind, [i.gens for i in fam], g))
    assert checked >= 200
    report(3, f"spectral convergence, {checked} page computations across six kinds",
           failures)


def test_criterion_4_theorem_e1_identification():
    failures = []
    count = 0
    for fam in mixed_stream(104000, 52):
        factors = [taylor_resolution(i) for i in fam]
        m = tensor(factors)
        degs = _test_degrees(family_box(fam), count=2)
        for kind in ("kcone", "kcone_augmented", "interior",
                     "interior_augmented"):
            filtered = build_filtration(m, kind=kind)
            for g in degs:
                pg = pages(filtered, Multidegree(g))
                if pg.e1 != direct_e1(factors, Multidegree(g), kind):
                    failures.append((kind, [i.gens for i in fam], g))
        count += 1
    assert count >= 50
    report(4, f"first-page identification for all four filtrations on {count} instances",
           failures)


def test_criterion_5_homology_identifications():
    failures = []
    curated = [
        [MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(0, 1)])],
        [MonomialIdeal(2, [(1, 0), (0, 1)])] * 2,
        [MonomialIdeal(1, [(1,)])] * 2,
        [MonomialIdeal(3, [(1, 0, 0)]), MonomialIdeal(3, [(0, 1, 0)]),
         MonomialIdeal(3, [(0, 0, 1)])],
        [MonomialIdeal(4, [tuple(1 if j == i else 0 for j in range(4))])
         for i in range(4)],
    ]
    families = curated + mixed_stream(105000, 60)
    used = 0
    for fam in families:
        rep = verify_identities(fam)
        if not rep.context["strict_subfamilies_independent"]:
            continue
        used += 1
        n = len(fam)
        by_name = {a["name"]: a for a in rep.assertions}
        for name in ("sum_homology_vs_tor", "sum_top_vanishing",
                     "product_homology_vs_tor", "product_vs_sum_homology",
                     "four_term_bookkeeping", "four_term_product",
                     "top_tor_vs_augmented"):
            a = by_name[name]
            if a["checked"] and not a["passed"]:
                failures.append((name, [i.gens for i in fam], a["witnesses"][:2]))
    assert used >= 20
    # the intro indexing (Tor_{n-i}) must fail somewhere, witness required
    fam = curated[0]
    s_tab = complex_homology_table(build_s_complex(fam))
    tor = multi_tor(fam, box=s_tab.box)
    witness = [
        (i, tuple(g))
        for i in (2,)
        for g in iter_box(s_tab.box)
        if s_tab.dim(i, g) != tor.dim(2 - i, g)
    ]
    if not witness:
        failures.append(("intro_convention_unexpectedly_holds", fam))
    report(5, f"sum/product homology identifications on {used} admissible "
              f"families (intro-convention counterexample at {witness[:1]})",
           failures)


def test_criterion_6_variable_partitions_independent():
    failures = []
    count = 0
    for n in (1, 2, 3, 4):
        for part in set_partitions(range(n)):
            fam = [MonomialIdeal.variables(n, block) for block in part]
            count += 1
            rep = independence(fam, strong=True)
            if not (rep.context["independent"] and rep.passed):
                failures.append(("independence", n, part))
            s_tab = complex_homology_table(build_s_complex(fam))
            if s_tab.nonzero_indices():
                failures.append(("sum_complex_not_exact", n, part))
            p_tab = complex_homology_table(build_p_complex(fam))
            if any(i >= 2 for i in p_tab.nonzero_indices()):
                failures.append(("product_complex_not_exact", n, part))
            total = combine(fam, "sum")
            for g in iter_box(p_tab.box):
                if p_tab.dim(1, g) != (0 if total.contains(g) else 1):
                    failures.append(("product_augmentation", n, part, tuple(g)))
    assert count == 1 + 2 + 5 + 15  # Bell numbers for 1..4 variables
    report(6, f"strong independence and S/P exactness on {count} variable "
              f"partitions", failures)


def test_criterion_7_exactness_equivalences():
    failures = []
    fams = mixed_stream(107000, 160) + [
        [MonomialIdeal(1, [(1,)])] * 2,
        [MonomialIdeal(2, [(1, 0)]), MonomialIdeal(2, [(1, 0)])],
        [MonomialIdeal(3, [(1, 0, 0)]), MonomialIdeal(3, [(0, 1, 0)]),
         MonomialIdeal(3, [(1, 1, 0)])],
    ]
    for fam in fams:
        rep = exactness_equivalences(fam)
        if not rep.passed:
            failures.append(([i.gens for i in fam], rep.context))
    report(7, f"exactness bi-implications on {len(fams)} families", failures)


def test_criterion_8_rigidity_falsification():
    failures = []
    count = 0
    for fam in mixed_stream(108000, 510):
        rep = rigidity_check(fam)
        count += 1
        if not rep.passed:
            failures.append(([i.gens for i in fam], rep.context["violations"][:2]))
    assert count >= 500
    report(8, f"rigidity and epsilon bounds on {count} seeded instances",
           failures)


def test_criterion_9_serre_equivalence():
    def triple(rep):
        return [rep.context[c] for c in A8_CONDITIONS]

    failures = []
    count = 0
    for t in range(205):
        n_vars = 1 + t % 3
        fam = random_instance(109000 + t, n_vars=n_vars, n_ideals=2 + t % 2,
                              max_gens=2, max_exp=2)
        rep = serre_a8_check(fam)
        count += 1
        if not rep.passed:
            failures.append(([i.gens for i in fam], triple(rep)))
    x = MonomialIdeal(2, [(1, 0)])
    y = MonomialIdeal(2, [(0, 1)])
    if triple(serre_a8_check([x, y])) != [True, True, True]:
        failures.append("curated positive case broke")
    if triple(serre_a8_check([x, x])) != [False, False, False]:
        failures.append("curated negative case broke")
    assert count >= 200
    report(9, f"three-way proper-intersection equivalence on {count} instances",
           failures)


def test_criterion_10_support_unions():
    failures = []
    count = 0
    quotient_seeds = iter(range(110000, 110200))
    used_quotients = 0
    for n in (2, 3, 4):
        for part in set_partitions(range(n)):
            s = len(part)
            if s > 3:
                continue
            ideals = [MonomialIdeal.variables(n, J) for J in part]
            reps = supportoftors_check(ideals, None, range(1, s + 1))
            count += len(reps)
            failures.extend(("module R", n, part, p)
                            for p, rep in reps.items() if not rep.passed)
            if used_quotients < 20:
                seed = next(quotient_seeds)
                coeff = random_instance(seed, n_vars=n, n_ideals=1,
                                        max_gens=2, max_exp=2)[0]
                rep = supportoftors_check(ideals, coeff, [s])[s]
                count += 1
                used_quotients += 1
                if not rep.passed:
                    failures.append(("module R/I", n, part, s, coeff.gens))
    assert used_quotients >= 15
    report(10, f"support union equality on {count} partition/module cases",
           failures)


def test_criterion_11_stability_validation():
    failures = []
    complexes = []
    for fam in mixed_stream(111000, 60):
        complexes.append(tensor([taylor_resolution(i) for i in fam]).total)
    for fam in mixed_stream(111500, 20):
        complexes.append(build_s_complex(fam))
    for fam in mixed_stream(111700, 20):
        complexes.append(build_p_complex(fam))
    assert len(complexes) >= 100
    for c in complexes:
        box = c.stable_box()
        big = Multidegree(tuple(b + 2 for b in box))
        table = module_homology_table(c, box=big)
        for g in iter_box(big):
            clamped = tuple(min(a, b) for a, b in zip(g, box))
            for i in c.window():
                if table.dim(i, g) != table.dim(i, clamped):
                    failures.append((repr(c), tuple(g), i))
    report(11, f"stability pullback on {len(complexes)} complexes", failures)
