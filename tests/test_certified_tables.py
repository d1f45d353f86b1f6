"""The benchmark's tables certified by oracles, not only by their digests.

``test_golden.py`` pins every report of the benchmark's job lists to a
recorded digest, which shows that reports stay the same, not that they are
right.  Here the `tor`, `betti`, `tor1-oracle` and `support` jobs of a
seed's lists (``bench/gen.py``, imported read-only as ``test_golden.py``
imports it) run through ``cli.run``, and each report's records are
compared with an oracle's:

- `betti` (every `tor_table` job) with ``conftest.koszul_betti``, and
  `tor` (the two-ideal `tor_table` jobs, at every cell of the report's
  box) with ``conftest.diagonal_tor``.  Both read only the generators and
  share no code with homotor, so they certify the tables end to end.
- `tor1-oracle` (every `checker_stream` job): its ``tor1`` records with
  ``conftest.tor1_per_degree``, which shares ``pivot_pairs`` and the
  kernel formula with ``tor1_oracle``.  So it certifies the packed walk
  over membership states, not the formula.
- `support` (every `checker_stream` job): each per-p report with
  ``conftest.support_check_at``, which rebuilds every Tor table and
  Mayer-Vietoris total for each p from ``multi_tor`` and the page engine.
  So it certifies the one-pass bookkeeping of ``supportoftors_check``,
  not ``multi_tor``.

Seed 0 runs in tier-1, its two-ideal `tor` jobs only in the first two
cycles.  Every two-ideal `tor` job, seed 1 and the `tor --module` jobs are
marked ``slow``; the module jobs, whose oracle tensors three quotients,
are read at a seeded sample of cells that holds every nonzero one.
"""

import math
import random
import sys
from pathlib import Path

import pytest

from conftest import diagonal_tor, koszul_betti, support_check_at, tor1_per_degree
from homotor import cli
from homotor.exactlin import GF
from homotor.monomial import MonomialIdeal, iter_box

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
