"""The benchmark's `spectral` reports certified by oracles, not only by
their digests.

``test_golden.py`` pins every report of the benchmark's job lists to a
recorded digest, which shows that reports stay the same, not that they are
right.  Here every `spectral_pages` job of a seed (``bench/gen.py``,
imported read-only as ``test_golden.py`` imports it) runs through
``cli.run``, and each sampled degree's ``e1``, ``e_infinity`` and
``r_stab`` in its report is compared with an oracle:

- ``conftest.block_rank_pages`` on the filtered total the command built
  (caught on its way into ``pages``), at the same degree and field.  It
  reads the same filtered total and the same ``_masked_rank`` as the
  program, and builds the pages from ranks of level-cut blocks instead of
  from the persistence pairing, checking every page with the full
  four-rule ``_check_page``.  So it certifies the pairing and the page
  formulas, not the construction of the total.
- For the four multicomplex kinds, ``conftest.direct_e1``: E¹ at level p
  as the homology of the regions of ``tensor`` of the family's resolutions
  that the filtration's level p stands for (faces, interiors or augmented
  subfamilies).  It shares ``resolution``, ``tensor`` and ``homology_at``
  with the program, but neither the filtered total nor its levels, so it
  certifies the filtration's levels and E¹.

Seed 0 runs in tier-1; seed 1 is marked ``slow``.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import block_rank_pages, direct_e1
from homotor import cli
from homotor.gcomplex import resolution

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import worker  # noqa: E402


def _uncertified_pages(seed, tmp_path, monkeypatch):
    """(job index, kind, degree, oracle, report, oracle's) of every sampled
    page of the seed's `spectral_pages` jobs that an oracle does not
    confirm, and the number of pages each oracle was compared on."""
    built = []
    real_pages = cli.pages

    def recording_pages(filtered, gamma, fld):
        built.append((filtered, fld))
        return real_pages(filtered, gamma, fld)
    monkeypatch.setattr(cli, "pages", recording_pages)
    jobs = gen.jobs("spectral_pages", seed, len(worker.load_golden("spectral_pages", seed)))
    paths = worker.write_problems(jobs, str(tmp_path))
    wrong, compared = [], Counter()
    for k, (job, path) in enumerate(zip(jobs, paths)):
        built.clear()
        problem = cli.parse_problem(path)
        report = cli.run(job.command, problem, job.flags)
        kind = job.flags["kind"]
        filtered, fld = built[0]
        assert all(f is filtered for f, _ in built)  # one total per command
        factors = [resolution(i) for i in problem.family()]
        for key, page in report["results"]["pages"].items():
            gamma = tuple(map(int, key.split(",")))
            oracle = block_rank_pages(filtered, gamma, fld)
            expected = {"e1": cli._page_records(oracle.e1),
                        "e_infinity": cli._page_records(oracle.e_infinity),
                        "r_stab": oracle.r_stab}
            got = {name: page[name] for name in expected}
            if got != expected:
                wrong.append((k, kind, gamma, "block_rank_pages", got, expected))
            compared["block_rank_pages"] += 1
            if kind in cli.SPECTRAL_KINDS:
                e1 = cli._page_records(direct_e1(factors, gamma, kind))
                if page["e1"] != e1:
                    wrong.append((k, kind, gamma, "direct_e1", page["e1"], e1))
                compared["direct_e1"] += 1
    return wrong, compared


def test_seed_0_spectral_pages_match_the_oracles(tmp_path, monkeypatch):
    wrong, compared = _uncertified_pages(0, tmp_path, monkeypatch)
    assert compared["block_rank_pages"] == 1150 and compared["direct_e1"] > 500
    assert not wrong, wrong[:3]


@pytest.mark.slow
def test_seed_1_spectral_pages_match_the_oracles(tmp_path, monkeypatch):
    wrong, compared = _uncertified_pages(1, tmp_path, monkeypatch)
    assert compared["block_rank_pages"] > 1000 and compared["direct_e1"] > 500
    assert not wrong, wrong[:3]
