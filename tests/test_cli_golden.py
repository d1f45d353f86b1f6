"""Byte gate for the CLI paths that no benchmark workload runs: each
invocation of a small fixed corpus prints the recorded bytes and exits with
the recorded code.

The corpus covers ``scomplex`` and ``pcomplex`` with each ``--kind``,
``selftest``, ``tor`` over a user box larger than the stable one (with and
without ``--module``), ``support`` on a family that is not made of variable
blocks (per-ideal regions) and, with ``--module``, on one that is (the
union check, whose Mayer-Vietoris totals then tensor X with the resolution
of M), ``spectral --kind sum_to_product --module``, and one exit-2 report
for each typed input error the CLI reports, and for each bound on a family's
size (a Taylor resolution's generators, a tensor's summands, a Koszul
cone's summands, the ideals of S and P).  The digests, sha256 of stdout,
live in ``tests/golden/cli.json``.  Record them again only from code whose reports
are the reference:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from homotor.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

PROBLEMS = {
    "family": {
        "characteristic": 32003,
        "variables": ["x", "y", "z"],
        "ideals": {"I1": [[2, 0, 0], [1, 1, 0]], "I2": [[0, 1, 1], [0, 0, 2]],
                   "I3": [[1, 0, 1], [0, 2, 0]]},
    },
    "blocks": {
        "variables": ["x", "y", "z", "w"],
        "ideals": {"I1": [[1, 0, 0, 0]], "I2": [[0, 1, 0, 0], [0, 0, 1, 0]],
                   "I3": [[0, 0, 0, 1]]},
    },
    "pair": {
        "variables": ["x", "y"],
        "ideals": {"I1": [[1, 0]], "I2": [[0, 1]]},
    },
    "negative": {
        "variables": ["x", "y"],
        "ideals": {"I1": [[-1, 0]], "I2": [[0, 1]]},
    },
    "short": {
        "variables": ["x", "y"],
        "ideals": {"I1": [[1]], "I2": [[0, 1]]},
    },
    "unit": {
        "variables": ["x", "y"],
        "ideals": {"I1": [[0, 0]], "I2": [[0, 1]]},
    },
    "ten": {
        "variables": ["x", "y", "z"],
        "ideals": {f"I{k}": [[k + 1, 0, 0], [0, 1, k + 1]] for k in range(10)},
    },
    "eleven": {
        "variables": ["x", "y", "z"],
        "ideals": {f"I{k}": [[k + 1, 0, 1]] for k in range(11)},
    },
    "seventeen": {
        "variables": ["x", "y"],
        "ideals": {"I1": [[i, 16 - i] for i in range(17)],
                   "I2": [[i, 16 - i] for i in range(17)]},
    },
}

#: (case id, problem name or None, argv; the path of the problem file goes
#: in after the command)
CASES = [
    ("scomplex-quotient", "family", ["scomplex", "--kind", "quotient"]),
    ("scomplex-tilde", "family", ["scomplex", "--kind", "tilde"]),
    ("pcomplex-quotient", "family", ["pcomplex", "--kind", "quotient"]),
    ("pcomplex-tilde", "family", ["pcomplex", "--kind", "tilde"]),
    ("selftest", None, ["selftest", "--seed", "0", "--trials", "3"]),
    ("tor-box", "family", ["tor", "--box", "4,5,4"]),
    ("tor-module-box", "family", ["tor", "--module", "I3", "--box", "5,7,5"]),
    ("negative-exponent", "negative", ["tor"]),
    ("degree-length", "short", ["tor"]),
    ("box-length", "pair", ["tor", "--box", "1"]),
    ("unit-ideal", "unit", ["tor"]),
    ("huge-box", "pair", ["tor", "--box", "1000,1000"]),
    ("taylor-17", "seventeen", ["tor"]),
    ("tensor-bound", "ten", ["tor"]),
    ("cone-bound", "eleven", ["spectral", "--kind", "kcone"]),
    ("sp-bound", "eleven", ["pcomplex"]),
    ("unread-flag", "pair", ["verify", "--box", "1,1"]),
    ("support-regions", "family", ["support"]),
    ("support-module", "blocks", ["support", "--module", "I3"]),
    ("spectral-mv-module", "family", ["spectral", "--kind", "sum_to_product",
                                      "--module", "I3"]),
    ("spectral-small-box", "family", ["spectral", "--kind", "interior", "--box", "0,0,0"]),
]


def run_case(problem, argv, workdir):
    """(exit code, sha256 of stdout) of ``homotor`` on the case."""
    args = list(argv)
    if problem is not None:
        path = Path(workdir) / f"{problem}.json"
        path.write_text(json.dumps(PROBLEMS[problem]))
        args.insert(1, str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case_id, problem, argv", CASES, ids=[c[0] for c in CASES])
def test_cli_reports_match_the_golden_digests(case_id, problem, argv, tmp_path):
    expected = json.loads(GOLDEN.read_text())[case_id]
    code, digest = run_case(problem, argv, tmp_path)
    assert code == expected["exit"]
    assert digest == expected["sha256"]


def _assert_hash_seed_free(case_ids, hash_seed, tmp_path):
    """Each named case prints its recorded bytes, and exits 0, through
    ``python -m homotor`` in a process with ``PYTHONHASHSEED`` hash_seed."""
    golden = json.loads(GOLDEN.read_text())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
    for case_id, problem, argv in CASES:
        if case_id not in case_ids:
            continue
        args = list(argv)
        if problem is not None:
            path = tmp_path / f"{problem}.json"
            path.write_text(json.dumps(PROBLEMS[problem]))
            args.insert(1, str(path))
        done = subprocess.run([sys.executable, "-m", "homotor", *args],
                              capture_output=True, env=env)
        assert done.returncode == golden[case_id]["exit"] == 0, case_id
        assert hashlib.sha256(done.stdout).hexdigest() == golden[case_id]["sha256"], case_id


@pytest.mark.parametrize("hash_seed", ["7", "99"])
def test_reports_do_not_depend_on_the_hash_seed(hash_seed, tmp_path):
    """Two exit-0 cases whose reports walk sets and dicts of hashed keys,
    the union check's cells and totals and a Mayer-Vietoris filtration's
    pages, print their recorded bytes under ``PYTHONHASHSEED`` 7 or 99."""
    _assert_hash_seed_free({"support-module", "spectral-mv-module"}, hash_seed, tmp_path)


@pytest.mark.slow
@pytest.mark.parametrize("hash_seed", ["7", "99"])
def test_every_exit_0_report_is_independent_of_the_hash_seed(hash_seed, tmp_path):
    """Every exit-0 case of the corpus prints its recorded bytes under
    ``PYTHONHASHSEED`` 7 or 99."""
    golden = json.loads(GOLDEN.read_text())
    exit_0 = {case_id for case_id, entry in golden.items() if entry["exit"] == 0}
    assert len(exit_0) == 10
    _assert_hash_seed_free(exit_0, hash_seed, tmp_path)


def test_the_corpus_has_one_exit_2_case_per_error_and_no_stale_digest():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(c[0] for c in CASES)
    assert sum(entry["exit"] == 2 for entry in golden.values()) == 11


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        record = {}
        for case_id, problem, argv in CASES:
            code, digest = run_case(problem, argv, workdir)
            record[case_id] = {"exit": code, "sha256": digest}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"recorded {len(record)} digests in {GOLDEN}\n")
