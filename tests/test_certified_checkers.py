"""The benchmark's checker reports certified by oracles, not only by their
digests.

``test_golden.py`` pins every report of the benchmark's job lists to a
recorded digest, which shows that reports stay the same, not that they are
right.  Here every `verify`, `equiv-exactness` and `indep --strong` job of
a seed's `checker_stream` list (``bench/gen.py``, imported read-only as
``test_golden.py`` imports it) runs through ``cli.run``, and its context
and assertions are compared with those its oracle gives through the same
report step, ``cli._checks``:

- `verify` with ``conftest.verify_identities_oracle``, `equiv-exactness`
  with ``conftest.exactness_equivalences_oracle`` and `indep --strong`
  with ``conftest.independence_oracle``.  The three oracles tabulate Tor
  with ``multi_tor``, a fresh map of resolutions per table, and build the
  augmented interior, S and P their own way.  So they certify the
  checkers' logic: which tables are compared, over which subfamilies and
  ranges, and the tables a checker builds from its one shared map of
  resolutions.  They do not certify ``multi_tor`` itself.
- `rigidity` and `a8`: ``sum_pd``, ``tensor_cm`` and ``parts_cm`` against
  projective dimensions from ``conftest.koszul_betti``, which reads only
  the generators and shares no code with homotor, and Krull dimensions
  from a search over variable subsets here.

Seed 0 runs in tier-1; seed 1 is marked ``slow``.
"""

import itertools
import sys
from functools import partial
from pathlib import Path

import pytest

from conftest import (
    exactness_equivalences_oracle,
    independence_oracle,
    koszul_betti,
    verify_identities_oracle,
)
from homotor import cli
from homotor.exactlin import GF
from homotor.monomial import combine

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import worker  # noqa: E402

#: command -> (its results key, its oracle)
ORACLES = {
    "verify": ("context", verify_identities_oracle),
    "equiv-exactness": ("context", exactness_equivalences_oracle),
    "indep": ("independence", partial(independence_oracle, strong=True)),
}


def _pd(ideal, p) -> int:
    """The projective dimension of R/I over GF(p): its top Betti index."""
    return max(i for i, _ in koszul_betti(ideal, p))


def _dim(ideal) -> int:
    """The Krull dimension of R/I: the most variables a set can hold with
    no generator supported inside it."""
    supports = [{j for j, e in enumerate(g) if e} for g in ideal.gens]
    return max(len(s) for k in range(ideal.n + 1)
               for s in map(set, itertools.combinations(range(ideal.n), k))
               if not any(g <= s for g in supports))


def _is_cm(ideal, p) -> bool:
    """R/I is Cohen-Macaulay: depth n - pd (Auslander-Buchsbaum) equals
    dim R/I."""
    return ideal.n - _pd(ideal, p) == _dim(ideal)


def _uncertified(seed, tmp_path):
    """(job index, command, what, report's, oracle's) of every checker
    report of the seed's `checker_stream` list that an oracle does not
    confirm, and the number of jobs compared per command."""
    jobs = gen.jobs("checker_stream", seed, len(worker.load_golden("checker_stream", seed)))
    paths = worker.write_problems(jobs, str(tmp_path))
    wrong, compared = [], dict.fromkeys([*ORACLES, "rigidity", "a8"], 0)
    for k, (job, path) in enumerate(zip(jobs, paths)):
        if job.command not in compared:
            continue
        problem = cli.parse_problem(path)
        report = cli.run(job.command, problem, job.flags)
        compared[job.command] += 1
        family, p = problem.family(), problem.characteristic
        if job.command in ORACLES:
            key, oracle = ORACLES[job.command]
            expected = {"results": {}, "assertions": []}
            cli._checks(oracle, key, problem, job.flags, GF(p), None, expected)
            got = {"results": report["results"], "assertions": report["assertions"]}
            if got != expected:
                wrong.append((k, job.command, "report", got, expected))
            continue
        if job.command == "rigidity":
            got = report["results"]["rigidity"]["sum_pd"]
            expected = sum(_pd(ideal, p) for ideal in family)
        else:
            details = report["results"]["a8"]["details"]
            got = [details[name] for name in ("sum_pd", "tensor_cm", "parts_cm")]
            expected = [sum(_pd(ideal, p) for ideal in family),
                        _is_cm(combine(family, "sum"), p),
                        [_is_cm(ideal, p) for ideal in family]]
        if got != expected:
            wrong.append((k, job.command, "pd", got, expected))
    return wrong, compared


def test_seed_0_checker_reports_match_the_oracles(tmp_path):
    wrong, compared = _uncertified(0, tmp_path)
    assert compared == {"verify": 32, "equiv-exactness": 32, "indep": 32,
                        "rigidity": 32, "a8": 32}
    assert not wrong, wrong[:3]


@pytest.mark.slow
def test_seed_1_checker_reports_match_the_oracles(tmp_path):
    wrong, compared = _uncertified(1, tmp_path)
    assert all(count == 32 for count in compared.values()), compared
    assert not wrong, wrong[:3]
