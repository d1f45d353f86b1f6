"""Record the golden report digests that later runs are checked against.

    python3 bench/record_golden.py SEED [SEED ...]

Runs every workload's job list (at run.py's default length) for each seed
in a worker process, as a timed run does, and writes the sha256 digest of
each job's report bytes to bench/golden/<workload>.json.  Record them only
from code whose reports are the reference: a run of any other code fails a
job whose bytes differ.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import gen
import run


def main(seeds):
    out_dir = run.BENCH / "golden"
    out_dir.mkdir(exist_ok=True)
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    for workload in gen.WORKLOADS:
        record = {}
        for seed in seeds:
            workdir = tempfile.mkdtemp(dir=run.ROOT / ".bench_work")
            try:
                proc, _ = run.start_worker("time", workload, seed, run.DEFAULT_SECONDS,
                                           workdir)
                raw = json.loads(run.finish(proc).splitlines()[-1])
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if None in raw["digests"]:
                raise RuntimeError(f"{workload} seed {seed}: a job raised; nothing recorded")
            record[str(seed)] = raw["digests"]
        with open(out_dir / f"{workload}.json", "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    try:
        (run.ROOT / ".bench_work").rmdir()
    except OSError:  # another run is still using it
        pass


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
