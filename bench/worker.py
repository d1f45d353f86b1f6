"""One workload process: set up, then run the job list as a closed loop.

Usage (run.py starts it with a fixed environment):

    python3 bench/worker.py {probe,time,trace} WORKLOAD SEED SECONDS WORKDIR

Set-up imports homotor, writes the workload's problem files into WORKDIR
and loads the golden digests; then the worker prints ``ready``.  ``probe``
stops there.  ``time`` runs every job once, one after another on one
thread, with a calibration sample before the first job and after each, and
prints one JSON line of raw results.  ``trace`` runs the list untraced and
then traced, and prints the per-layer metrics.

A job is what the homotor CLI does for one command line: parse the problem
file, run the command, serialize the report as ``_emit`` does (with
``--timing`` off), and check the digest of those bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import calib
import gen
from homotor import cli

GOLDEN = Path(__file__).resolve().parent / "golden"


def load_golden(workload, seed):
    """Digests of the reference reports for this seed, or [] if none were recorded."""
    path = GOLDEN / f"{workload}.json"
    if not path.is_file():
        return []
    with open(path) as fh:
        return json.load(fh).get(str(seed), [])


def write_problems(jobs, workdir):
    paths = []
    for k, job in enumerate(jobs):
        path = os.path.join(workdir, f"job-{k:04d}.json")
        with open(path, "w") as fh:
            json.dump(job.problem, fh)
        paths.append(path)
    return paths


def report_bytes(report) -> bytes:
    report["timing"] = {"wall_ms": None}
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def run_job(job, path, expected=None, spans=None):
    """(seconds, ok, digest, report size) of one job.

    The job fails if it raises, if a report assertion is false, or if the
    report's digest differs from the expected one.  spans, if given, gets
    the serialization time under "serialize".
    """
    start = time.perf_counter()
    try:
        report = cli.run(job.command, cli.parse_problem(path), job.flags)
        serialize_start = time.perf_counter()
        text = report_bytes(report)
        if spans is not None:
            spans["serialize"] += time.perf_counter() - serialize_start
        digest = hashlib.sha256(text).hexdigest()
        ok = all(a["passed"] for a in report["assertions"]) and \
            expected in (None, digest)
    except Exception:  # a job that raises is a failed job, not a failed run
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, False, None, 0
    return time.perf_counter() - start, ok, digest, len(text)


def run_jobs(jobs, paths, golden, calibrate=True):
    """Run the list once, with a calibration sample before the first job and after each."""
    times, failed, digests = [], [], []
    calib_samples = [calib.sample()] if calibrate else []
    for k, (job, path) in enumerate(zip(jobs, paths)):
        expected = golden[k] if k < len(golden) else None
        seconds, ok, digest, _ = run_job(job, path, expected)
        times.append(seconds)
        digests.append(digest)
        if not ok:
            failed.append(k)
        if calibrate:
            calib_samples.append(calib.sample())
    return {"job_s": times, "failed": failed, "digests": digests,
            "calib_s": calib_samples}


def trace_jobs(jobs, paths, golden):
    """Per-layer metrics of one traced pass, and the overhead against an untraced one."""
    from layers import LayerTrace

    untraced = run_jobs(jobs, paths, golden, calibrate=False)
    trace = LayerTrace()
    spans = {"serialize": 0.0}
    traced_s, size, failed = 0.0, 0, []
    trace.install()
    try:
        for k, (job, path) in enumerate(zip(jobs, paths)):
            trace.begin_job()
            expected = golden[k] if k < len(golden) else None
            seconds, ok, _, job_bytes = run_job(job, path, expected, spans)
            traced_s += seconds
            size += job_bytes
            if not ok:
                failed.append(k)
    finally:
        trace.remove()
    metrics = trace.metrics(traced_s, sum(untraced["job_s"]), spans["serialize"],
                            size, len(jobs))
    return {"metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            "failed": sorted(set(failed) | set(untraced["failed"])),
            "untraced_s": sum(untraced["job_s"])}


def main(argv):
    mode, workload, seed, seconds, workdir = argv
    seed, seconds = int(seed), int(seconds)
    jobs = gen.jobs(workload, seed, gen.job_count(workload, seconds))
    paths = write_problems(jobs, workdir)
    golden = load_golden(workload, seed)
    print("ready", flush=True)
    if mode == "probe":
        return 0
    if mode == "time":
        out = run_jobs(jobs, paths, golden)
    else:
        out = trace_jobs(jobs, paths, golden)
    import numpy

    out.update(jobs=len(jobs), golden=len(golden),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               python=sys.version.split()[0], numpy=numpy.__version__)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
