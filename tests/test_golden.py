"""Byte gate: every benchmark job of the two recorded seeds, 0 and 1, run
in-process as the benchmark worker runs it, gives a report whose sha256 is
the recorded golden digest.

The benchmark's job generator and report serializer are imported read-only
from ``bench/``; the digests are ``bench/golden/<workload>.json``.  A change
that alters any byte of a ``tor``, ``betti``, ``spectral``, checker or
``support`` report on these jobs fails here.
"""

import hashlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import worker  # noqa: E402
from homotor import cli  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", ["tor_table", "spectral_pages", "checker_stream"])
def test_reports_match_the_golden_digests(workload, seed, tmp_path):
    golden = worker.load_golden(workload, seed)
    assert golden, f"no seed-{seed} digests recorded for {workload}"
    jobs = gen.jobs(workload, seed, len(golden))
    paths = worker.write_problems(jobs, str(tmp_path))
    mismatched = []
    for k, (job, path, expected) in enumerate(zip(jobs, paths, golden)):
        report = cli.run(job.command, cli.parse_problem(path), job.flags)
        if hashlib.sha256(worker.report_bytes(report)).hexdigest() != expected:
            mismatched.append((k, job.command))
    assert not mismatched, f"{len(mismatched)} of {len(jobs)} reports changed: {mismatched[:5]}"
