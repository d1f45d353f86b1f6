"""The benchmark's tables and the CLI goldens certified by oracles, not
only by their digests.

``test_golden.py`` pins every report of the benchmark's job lists to a
recorded digest, and ``test_cli_golden.py`` every report of its corpus,
which shows that reports stay the same, not that they are right.  Here the
`tor`, `betti`, `tor1-oracle` and `support` jobs of a seed's lists
(``bench/gen.py``, imported read-only as ``test_golden.py`` imports it)
run through ``cli.run``, and each report's records are compared with an
oracle's:

- `betti` (every `tor_table` job) with ``conftest.koszul_betti``, and
  `tor` (the two-ideal `tor_table` jobs, at every cell of the report's
  box) with ``conftest.diagonal_tor``.  Both read only the generators and
  share no code with homotor, so they certify the tables end to end.
- `tor1-oracle` (every `checker_stream` job): its ``tor1`` records with
  ``conftest.tor1_per_degree``, which shares ``pivot_pairs`` and the
  kernel formula with ``tor1_oracle``.  So it certifies the packed walk
  over membership states, not the formula.  The formula is certified by
  the H_2 slice of P's table over the report's box, a construction that
  shares neither the walk nor the formula.
- `support` (every `checker_stream` job): each per-p report with
  ``conftest.support_check_at``, which rebuilds every Tor table and
  Mayer-Vietoris total for each p from ``multi_tor`` and the page engine.
  So it certifies the one-pass bookkeeping of ``supportoftors_check``,
  not ``multi_tor``.

Seed 0 runs in tier-1, its two-ideal `tor` jobs only in the first two
cycles.  Every two-ideal `tor` job, seed 1 and the `tor --module` jobs are
marked ``slow``; the module jobs, whose oracle tensors three quotients,
are read at a seeded sample of cells that holds every nonzero one.

Every exit-0 case of ``tests/golden/cli.json`` runs through ``cli.main``,
and its printed report is compared with an oracle's:

- `tor-box` and `tor-module-box` with ``diagonal_tor``, which shares no
  code with homotor.  `tor-box` is read at its nonzero cells and a seeded
  sample of zero cells in tier-1, and at every cell under ``slow`` (its
  150 cells take the oracle about 4 s on one core of a 2-vCPU Xeon virtual
  machine, the nonzero ones 0.25 s); `tor-module-box`,
  four quotients, only under ``slow``, at its nonzero cells and a seeded
  sample of the others.
- `scomplex-*` and `pcomplex-*`: every cell of the box with a fibrewise
  dense oracle on the complex the command built (caught on its way into
  ``complex_homology_table``): each summand alive by
  ``conftest.summand_alive`` and each block ranked by ``_rank_mod``.  It
  shares the complex's terms and maps, so it certifies the fibre tables
  and the elimination, not the construction; the term ranks are checked
  against the subset counts.  `scomplex-quotient` is also checked against
  ``conftest.s_closed_form``, which reads membership only and so certifies
  the construction too.
- `spectral-mv-module`: every sampled page with ``block_rank_pages`` on
  the filtered total the command built (the pairing, as in
  ``test_certified_pages.py``), and E¹ with ``block_rank_pages`` on
  ``mv_tensor_total``, the total built in checked steps (S_- through
  ``s_minus``), which certifies the one-pass construction of S_-.
- `support-regions`: each ideal's region with ``diagonal_tor`` of R/I
  alone over its generators' lcm, and the comparison of the first two
  with ``region_compare_oracle``, which shares no code with the program's
  ``region_compare``; `support-module`: each per-p report with
  ``support_check_at``, as for the benchmark's `support` jobs, here with a
  module.
- `selftest`: both Tor₁ tables each trial compared, ``multi_tor``'s and
  ``tor1_oracle``'s, with ``tor1_per_degree`` (which shares
  ``pivot_pairs``), so the verdict of no Tor₁ mismatch is right; each
  trial's rigidity and A8 verdicts are recomputed from Tor by
  ``diagonal_tor``, projective dimensions by ``koszul_betti`` and Krull
  dimensions by a search over variable subsets, the oracles of
  ``test_certified_checkers.py``.
"""

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

import pytest

import test_cli_golden as golden_cli
from conftest import (
    block_rank_pages,
    diagonal_tor,
    koszul_betti,
    masked_rank_oracle,
    mv_tensor_total,
    region_compare_oracle,
    s_closed_form,
    summand_alive,
    support_check_at,
    tor1_per_degree,
)
from homotor import cli
from homotor.exactlin import GF
from homotor.monomial import MonomialIdeal, combine, iter_box
from homotor.sumprod import build_p_complex, complex_homology_table
from homotor.torlab import family_box
from test_certified_checkers import _dim, _is_cm, _pd

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import worker  # noqa: E402

#: Cells of a `tor --module` box read besides the nonzero ones.
MODULE_SAMPLE = 12


def _cells(records) -> dict:
    """{(i, degree): dim} of a report's table records."""
    return {(r["i"], tuple(r["degree"])): r["dim"] for r in records}


def _jobs(workload, seed, tmp_path, commands):
    """(index, job, parsed problem) of every job of the seed's list whose
    command is one of ``commands``."""
    jobs = gen.jobs(workload, seed, len(worker.load_golden(workload, seed)))
    paths = worker.write_problems(jobs, str(tmp_path))
    return [(k, job, cli.parse_problem(path))
            for k, (job, path) in enumerate(zip(jobs, paths)) if job.command in commands]


def _tor_cells(problem, gammas, p) -> dict:
    """{(i, gamma): dim} of the problem's Tor at each of gammas, by
    ``diagonal_tor``."""
    coefficient = cli._flag_coefficient(problem, {})
    return {(i, tuple(g)): d for g in gammas
            for i, d in diagonal_tor(problem.family(), coefficient, tuple(g), p).items()}


def _uncertified_tables(seed, tmp_path, tor_jobs):
    """(job index, what, report's, oracle's) of every `betti` table of the
    seed's `tor_table` list, and of every `tor` table that ``tor_jobs``
    picks by (job index, kind), that its oracle does not confirm, and the
    number of jobs compared per kind."""
    wrong, compared = [], {"betti": 0, "tor": 0, "tor --module": 0}
    for k, job, problem in _jobs("tor_table", seed, tmp_path, ("tor", "betti")):
        p = problem.characteristic
        if job.command == "betti":
            compared["betti"] += 1
            report = cli.run("betti", problem, job.flags)
            for name, ideal in problem.ideals.items():
                got = _cells(report["results"][name]["betti"])
                if got != koszul_betti(ideal, p):
                    wrong.append((k, f"betti {name}", got, koszul_betti(ideal, p)))
            continue
        kind = "tor --module" if problem.module else "tor"
        if not tor_jobs(k, kind):
            continue
        compared[kind] += 1
        report = cli.run("tor", problem, job.flags)
        got = _cells(report["results"]["tor"])
        box = list(map(tuple, iter_box(report["box"])))
        if kind == "tor --module":
            nonzero = sorted({g for _, g in got})
            rest = sorted(set(box) - set(nonzero))
            box = nonzero + random.Random(k).sample(rest, min(MODULE_SAMPLE, len(rest)))
            got = {key: d for key, d in got.items() if key[1] in box}
        expected = _tor_cells(problem, box, p)
        if got != expected:
            wrong.append((k, kind, got, expected))
    return wrong, compared


def _uncertified_checks(seed, tmp_path):
    """(job index, command, report's, oracle's) of every `tor1-oracle` and
    `support` report of the seed's `checker_stream` list that its oracle
    does not confirm, and the number of jobs compared and of Tor_1 cells
    and per-p support reports compared."""
    wrong = []
    compared = {"tor1-oracle": 0, "support": 0, "tor1 cells": 0, "support reports": 0}
    for k, job, problem in _jobs("checker_stream", seed, tmp_path, ("tor1-oracle", "support")):
        compared[job.command] += 1
        report = cli.run(job.command, problem, job.flags)
        family, fld = problem.family(), GF(problem.characteristic)
        if job.command == "tor1-oracle":  # every cell of the box, zero or not
            got = report["box"], _cells(report["results"]["tor1"])
            oracle = tor1_per_degree(family, fld)
            expected = list(oracle.box), oracle.entries
            compared["tor1 cells"] += math.prod(b + 1 for b in oracle.box)
        else:  # a family of variable blocks, with no module
            partitions = [[g.index(1) for g in ideal.gens] for ideal in family]
            zero = MonomialIdeal.zero(family[0].n)
            got = report["results"]
            expected = {f"p={p}": support_check_at(partitions, zero, p, fld).to_json()
                        for p in range(1, len(family) + 1)}
            compared["support reports"] += len(got)
        if got != expected:
            wrong.append((k, job.command, got, expected))
    return wrong, compared


def test_seed_0_betti_and_tor_tables_match_the_oracles(tmp_path):
    wrong, compared = _uncertified_tables(
        0, tmp_path, lambda k, kind: kind == "tor" and k < 2 * gen.WORKLOADS["tor_table"][1])
    assert compared == {"betti": 12, "tor": 4, "tor --module": 0}
    assert not wrong, wrong[:3]


def test_seed_0_tor1_and_support_reports_match_the_oracles(tmp_path):
    wrong, compared = _uncertified_checks(0, tmp_path)
    assert compared == {"tor1-oracle": 32, "support": 32,
                        "tor1 cells": 3253, "support reports": 80}
    assert not wrong, [w[:2] for w in wrong[:3]]


def test_seed_0_tor1_oracle_reports_are_h2_of_p(tmp_path):
    """Each `tor1-oracle` report of the seed-0 `checker_stream` list equals
    the H_2 slice of the family's P over the report's box: H_2(P)_gamma is
    the reduced H_0 of the graph of the ideals holding gamma joined where
    their product does, the oracle's count per degree."""
    wrong, compared, cells = [], 0, 0
    for k, job, problem in _jobs("checker_stream", 0, tmp_path, ("tor1-oracle",)):
        report = cli.run(job.command, problem, job.flags)
        family, fld = problem.family(), GF(problem.characteristic)
        p_tab = complex_homology_table(build_p_complex(family), fld, report["box"])
        expected = {(1, g): d for g, d in p_tab.slice(2).items()}
        if _cells(report["results"]["tor1"]) != expected:
            wrong.append(k)
        compared, cells = compared + 1, cells + len(expected)
    assert (compared, cells) == (32, 547)
    assert not wrong, wrong


@pytest.mark.slow
def test_seed_0_every_tor_table_matches_the_oracle(tmp_path):
    wrong, compared = _uncertified_tables(0, tmp_path, lambda k, kind: True)
    assert compared == {"betti": 12, "tor": 24, "tor --module": 12}
    assert not wrong, wrong[:3]


@pytest.mark.slow
def test_seed_1_tables_match_the_oracles(tmp_path):
    wrong, compared = _uncertified_tables(1, tmp_path, lambda k, kind: True)
    assert compared == {"betti": 12, "tor": 24, "tor --module": 12}
    assert not wrong, wrong[:3]
    wrong, compared = _uncertified_checks(1, tmp_path)
    assert (compared["tor1-oracle"], compared["support"]) == (32, 32)
    assert not wrong, [w[:2] for w in wrong[:3]]


# -- the exit-0 cases of tests/golden/cli.json ------------------------------

#: Zero cells of the `tor-box` report read in tier-1 besides its nonzero ones.
TOR_BOX_SAMPLE = 4


def _golden_case(case_id, tmp_path, monkeypatch, *spans):
    """(report, family, coefficient, field, {name: [(args, kwargs, result)
    of each call]}) of the golden case run through ``cli.main``, recording
    the calls of the ``cli`` functions named in ``spans`` on the way."""
    case_id, name, argv = next(c for c in golden_cli.CASES if c[0] == case_id)
    calls = {span: [] for span in spans}
    for span in spans:
        real = getattr(cli, span)

        def recording(*args, _real=real, _calls=calls[span], **kwargs):
            _calls.append((args, kwargs, _real(*args, **kwargs)))
            return _calls[-1][2]
        monkeypatch.setattr(cli, span, recording)
    args, family, coefficient = list(argv), [], None
    fld = GF()
    if name is not None:
        problem = golden_cli.PROBLEMS[name]
        n = len(problem["variables"])
        ideals = {k: MonomialIdeal(n, [tuple(g) for g in gens])
                  for k, gens in problem["ideals"].items()}
        family, fld = list(ideals.values()), GF(problem.get("characteristic", fld.p))
        if "--module" in argv:
            coefficient = ideals[argv[argv.index("--module") + 1]]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(problem))
        args.insert(1, str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(args) == 0
    return json.loads(out.getvalue()), family, coefficient, fld, calls


def _tor_box_mismatches(case_id, tmp_path, monkeypatch, zero_sample):
    """The cells of the case's `tor` report where ``diagonal_tor`` differs,
    read at every nonzero cell and at ``zero_sample`` seeded zero cells
    (None: every cell), and the number of cells read."""
    report, family, coefficient, fld, _ = _golden_case(case_id, tmp_path, monkeypatch)
    got = _cells(report["results"]["tor"])
    box = list(map(tuple, iter_box(report["box"])))
    nonzero = sorted({g for _, g in got})
    if zero_sample is not None:
        rest = sorted(set(box) - set(nonzero))
        box = nonzero + random.Random(0).sample(rest, min(zero_sample, len(rest)))
    expected = {(i, tuple(g)): d for g in box
                for i, d in diagonal_tor(family, coefficient, g, fld.p).items()}
    return sorted(set(got.items()) ^ set(expected.items())), len(box)


def test_golden_tor_box_matches_diagonal_tor(tmp_path, monkeypatch):
    mismatches, read = _tor_box_mismatches("tor-box", tmp_path, monkeypatch, TOR_BOX_SAMPLE)
    assert read == 17 + TOR_BOX_SAMPLE
    assert not mismatches, mismatches[:4]


@pytest.mark.slow
def test_golden_tor_box_matches_diagonal_tor_at_every_cell(tmp_path, monkeypatch):
    mismatches, read = _tor_box_mismatches("tor-box", tmp_path, monkeypatch, None)
    assert read == 5 * 6 * 5
    assert not mismatches, mismatches[:4]


@pytest.mark.slow
def test_golden_tor_module_box_matches_diagonal_tor(tmp_path, monkeypatch):
    mismatches, read = _tor_box_mismatches("tor-module-box", tmp_path, monkeypatch,
                                           MODULE_SAMPLE)
    assert read == 40 + MODULE_SAMPLE
    assert not mismatches, mismatches[:4]


def _dense_homology(c, gamma, p) -> dict:
    """{i: dim H_i} of the fibre of c at gamma, nonzero only: each summand
    is alive by ``summand_alive``, and each d_i block between the alive
    summands is ranked dense by ``masked_rank_oracle`` (``_rank_mod``)."""
    alive = {i: sum(1 << k for k, s in enumerate(ss) if summand_alive(s, gamma, c.kind))
             for i, ss in c.terms.items()}

    def rank(i):
        src, tgt = alive.get(i, 0), alive.get(i - 1, 0)
        return masked_rank_oracle(c, i, src, tgt, p) if src and tgt else 0

    dims = {i: mask.bit_count() - rank(i) - rank(i + 1) for i, mask in alive.items()}
    return {i: d for i, d in dims.items() if d}


def test_golden_scomplex_quotient_has_the_closed_form(tmp_path, monkeypatch):
    """Every cell of the `scomplex-quotient` report against
    ``s_closed_form``: H(S) = (∩ I_i)/(∏ I_i), in degree 0."""
    report, family, _, _, _ = _golden_case("scomplex-quotient", tmp_path, monkeypatch)
    expected = {(i, tuple(g)): d for g in iter_box(report["box"])
                for i, d in s_closed_form(family, g).items()}
    assert expected and _cells(report["results"]["homology"]) == expected


@pytest.mark.parametrize("case_id", ["scomplex-quotient", "scomplex-tilde",
                                     "pcomplex-quotient", "pcomplex-tilde"])
def test_golden_s_and_p_complexes_match_a_fibrewise_dense_oracle(case_id, tmp_path,
                                                                 monkeypatch):
    """Every cell of the report's box, and each term's rank: S^p and P_p
    have one summand per p-subset of the three ideals, and S^0 and the
    tilde P_0 one more, at index 0; the quotient P_0 = R/R is dropped."""
    report, family, _, fld, calls = _golden_case(case_id, tmp_path, monkeypatch,
                                                 "complex_homology_table")
    ((c, *_), _, _), = calls["complex_homology_table"]
    cochain = case_id.startswith("s")  # S^p at index -p, reported at p
    expected = {(-i if cochain else i, tuple(g)): d for g in iter_box(report["box"])
                for i, d in _dense_homology(c, g, fld.p).items()}
    assert _cells(report["results"]["homology"]) == expected
    sizes = {(-p if cochain else p): math.comb(len(family), p)
             for p in range(0 if case_id != "pcomplex-quotient" else 1, len(family) + 1)}
    assert report["results"]["ranks"] == {str(i): k for i, k in sorted(sizes.items())}


def test_golden_spectral_mv_module_matches_the_page_oracles(tmp_path, monkeypatch):
    """Every sampled page against ``block_rank_pages`` on the filtered total
    the command built, and E^1 against the same oracle on
    ``mv_tensor_total``, the total built in checked steps as a tensor."""
    report, family, coefficient, fld, calls = _golden_case(
        "spectral-mv-module", tmp_path, monkeypatch, "pages")
    filtered = calls["pages"][0][0][0]
    assert all(args[0] is filtered for args, _, _ in calls["pages"])  # one total
    stepwise = mv_tensor_total("sum_to_product", family, coefficient)
    pages = report["results"]["pages"]
    assert len(pages) == 12
    for key, page in pages.items():
        gamma = tuple(map(int, key.split(",")))
        oracle = block_rank_pages(filtered, gamma, fld)
        assert page == {"e1": cli._page_records(oracle.e1),
                        "e_infinity": cli._page_records(oracle.e_infinity),
                        "r_stab": oracle.r_stab, "converged": True}, key
        assert page["e1"] == cli._page_records(block_rank_pages(stepwise, gamma, fld).e1), key


def test_golden_support_regions_match_diagonal_tor_and_region_compare(tmp_path, monkeypatch):
    """Per-ideal regions of a family that is not made of variable blocks:
    each ideal's region is the cells of its box, its generators' lcm,
    where ``diagonal_tor`` of R/I alone is nonzero, and the first two
    regions are compared by ``region_compare_oracle``."""
    report, family, _, fld, _ = _golden_case("support-regions", tmp_path, monkeypatch)
    regions = []
    for name, ideal in zip(golden_cli.PROBLEMS["family"]["ideals"], family):
        box = tuple(map(max, zip(*ideal.gens)))
        cells = frozenset(tuple(g) for g in iter_box(box)
                          if diagonal_tor([ideal], None, tuple(g), fld.p))
        assert report["results"][name] == [list(g) for g in sorted(cells)], name
        regions.append((box, cells))
    assert report["results"]["compare_first_two"] == region_compare_oracle(*regions[:2])


def test_golden_support_module_matches_support_check_at(tmp_path, monkeypatch):
    """The union check of a variable-block family with a module: each
    per-p report against ``support_check_at``, built from scratch for
    that p."""
    report, family, coefficient, fld, _ = _golden_case("support-module", tmp_path,
                                                       monkeypatch)
    partitions = [[g.index(1) for g in ideal.gens] for ideal in family]
    expected = {f"p={p}": support_check_at(partitions, coefficient, p, fld).to_json()
                for p in range(1, len(family) + 1)}
    assert report["results"] == expected
    assert report["assertions"] == [{"name": "support_union_equality", "passed": True,
                                     "witnesses": []}]


def test_golden_selftest_tor1_matches_tor1_per_degree(tmp_path, monkeypatch):
    """Each trial's Tor_1 check compared ``multi_tor``'s Tor_1 with
    ``tor1_oracle`` on the family the report lists: both tables it
    compared equal ``tor1_per_degree`` of that family, so its verdict
    of no Tor_1 mismatch is right."""
    report, _, _, _, calls = _golden_case("selftest", tmp_path, monkeypatch,
                                          "multi_tor", "tor1_oracle")
    families = report["results"]["summary"]["families"]
    assert len(families) == len(calls["multi_tor"]) == len(calls["tor1_oracle"]) == 3
    for gens, (tor_args, tor_kw, table), (oracle_args, _, oracle) in zip(
            families, calls["multi_tor"], calls["tor1_oracle"]):
        family = [MonomialIdeal(len(g[0]), [tuple(x) for x in g]) for g in gens]
        assert tor_args[0] == oracle_args[0] == family
        want = tor1_per_degree(family, tor_kw["fld"])
        assert {k: d for k, d in table.entries.items() if k[0] == 1} == want.entries
        assert (oracle.entries, oracle.box) == (want.entries, want.box)
    assert report["assertions"] == [{"name": "selftest", "passed": True, "witnesses": []}]


def _tor_indices(family, box, p) -> dict:
    """{i: the degrees of the box where Tor_i of the family is nonzero}, by
    ``diagonal_tor``."""
    found: dict = {}
    for g in iter_box(box):
        for i in diagonal_tor(family, None, tuple(g), p):
            found.setdefault(i, []).append(tuple(g))
    return found


def _rigidity_holds(family, box, p) -> bool:
    """The rigidity verdict from oracles: the nonzero Tor_i, i >= 1, are
    those of 1..j for the top index j; no prefix of 2..n-1 ideals has a
    nonzero Tor_i, i >= 1, where the family's is zero; and epsilon = n + j
    - (sum of the pds) is at least 0, and 0 when every top cell lies
    inside the box, away from its faces."""
    tor = _tor_indices(family, box, p)
    j = max(tor)
    prefixes_ok = all(i in tor for t in range(2, len(family))
                      for i in _tor_indices(family[:t], box, p) if i >= 1)
    epsilon = len(box) + j - sum(_pd(ideal, p) for ideal in family)
    artinian = all(all(map(int.__lt__, g, box)) for g in tor[j])
    return (set(tor) - {0} == set(range(1, j + 1)) and prefixes_ok and epsilon >= 0
            and not (artinian and epsilon != 0))


def _a8_holds(family, box, p) -> bool:
    """The A8 verdict from oracles: Tor_1 = 0 with R/(sum) CM, codim of the
    sum = the sum of the pds, and the codims adding up with every R/I_i CM
    hold or fail together; each codim is n - the Krull dimension."""
    total = combine(family, "sum")
    codim = total.n - _dim(total)
    triple = [1 not in _tor_indices(family, box, p) and _is_cm(total, p),
              codim == sum(_pd(ideal, p) for ideal in family),
              sum(ideal.n - _dim(ideal) for ideal in family) == codim
              and all(_is_cm(ideal, p) for ideal in family)]
    return len(set(triple)) == 1


def test_golden_selftest_rigidity_and_a8_verdicts_match_the_oracles(tmp_path, monkeypatch):
    """Each trial's rigidity and A8 reports pass, and so do the verdicts
    recomputed from ``diagonal_tor``, ``koszul_betti`` and the Krull
    dimension search on the family the report lists."""
    report, _, _, fld, calls = _golden_case("selftest", tmp_path, monkeypatch,
                                            "rigidity_check", "serre_a8_check")
    families = report["results"]["summary"]["families"]
    assert len(families) == len(calls["rigidity_check"]) == len(calls["serre_a8_check"]) == 3
    for gens, (_, _, rigidity), (_, _, a8) in zip(
            families, calls["rigidity_check"], calls["serre_a8_check"]):
        family = [MonomialIdeal(len(g[0]), [tuple(x) for x in g]) for g in gens]
        box = tuple(family_box(family))
        assert rigidity.passed and _rigidity_holds(family, box, fld.p)
        assert a8.passed and _a8_holds(family, box, fld.p)


def test_every_exit_0_golden_case_is_certified():
    """A new exit-0 case of tests/golden/cli.json needs an oracle here."""
    golden = json.loads(golden_cli.GOLDEN.read_text())
    certified = {"tor-box", "tor-module-box", "scomplex-quotient", "scomplex-tilde",
                 "pcomplex-quotient", "pcomplex-tilde", "spectral-mv-module",
                 "support-regions", "support-module", "selftest"}
    assert {k for k, entry in golden.items() if entry["exit"] == 0} == certified
