"""Fixed-seed benchmark of the homotor CLI pipeline.

    python3 bench/run.py --workload {tor_table,spectral_pages,checker_stream,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in its own worker
process (bench/worker.py) with a fixed hash seed and one BLAS thread.  The
last line of output is one JSON object: correct, attempted, failed, and the
metrics; the line before it holds the raw, uncalibrated figures and the
host record, which no bound applies to.  --trace 0 prints the end-to-end
metrics, --trace 1 the per-layer ones (see bench/README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 9  # set-up runs besides the timed worker's; setup_s is their median
TIMEOUT_S = 170
DEFAULT_SECONDS = 20
END_TO_END = (("setup_s", "s"), ("time_s", "s"), ("job_p50_ms", "ms"),
              ("job_tail_ms", "ms"), ("peak_rss_mb", "MB"))


def worker_env():
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(SRC))
    return env


def start_worker(mode, workload, seed, seconds, workdir):
    """Start a worker and return (process, seconds from start to the end of its set-up)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), mode, workload, str(seed),
         str(seconds), workdir],
        stdout=subprocess.PIPE, env=worker_env(), text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc)
        raise RuntimeError(f"{mode} worker for {workload} failed during set-up")
    return proc, setup


def finish(proc):
    """Wait for a worker and return its stdout; kill it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def steal_s():
    """Host steal time so far, summed over CPUs, from /proc/stat (None if unreadable)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def fail_share(failed, attempted):
    return len(failed) / attempted


def tail(values):
    """(percentile, value): the highest percentile with at least 10 values beyond it.

    That is the point between the 12th and the 11th largest values; it is
    taken as their mean, which halves the weight of any one job's noise.
    """
    ordered = sorted(values)
    k = max(1, len(ordered) - 11)
    return 100.0 * (k + 0.5) / len(ordered), (ordered[k - 1] + ordered[k]) / 2


def run_workload(workload, seed, seconds, trace, workdir):
    steal_start, wall_start = steal_s(), time.perf_counter()
    proc, setup = start_worker("trace" if trace else "time", workload, seed, seconds,
                               tempfile.mkdtemp(dir=workdir))
    raw = json.loads(finish(proc).splitlines()[-1])
    setups = [setup]
    for _ in range(0 if trace else SETUP_PROBES):
        probe, setup = start_worker("probe", workload, seed, seconds,
                                    tempfile.mkdtemp(dir=workdir))
        finish(probe)
        setups.append(setup)
    steal_end = steal_s()
    jobs, failed = raw["jobs"], raw["failed"]
    info = {
        "workload": workload, "seed": seed, "jobs": jobs, "failed_jobs": failed,
        "fail_share": fail_share(failed, jobs), "golden_jobs": raw["golden"],
        "host.nproc": os.cpu_count(), "host.python": raw["python"],
        "host.numpy": raw["numpy"],
        "host.steal_s": None if steal_start is None or steal_end is None
        else steal_end - steal_start,
        "raw.wall_s": time.perf_counter() - wall_start,
        "raw.setup_s": statistics.median(setups),
    }
    if trace:
        info["raw.untraced_s"] = raw["untraced_s"]
        return info, raw["metrics"], jobs, len(failed)
    job_s, samples = raw["job_s"], raw["calib_s"]
    scaled = calib.scale_jobs(job_s, samples)
    percentile, slowest = tail(scaled)
    scale = calib.scale(samples)
    info.update({
        "raw.time_s": sum(job_s), "raw.job_p50_ms": 1000 * statistics.median(job_s),
        "raw.job_tail_ms": 1000 * tail(job_s)[1], "job_tail_percentile": percentile,
        "host.calib_s": statistics.median(samples), "host.calib_scale": scale,
    })
    if raw["golden"] < jobs:
        info["digests"] = raw["digests"]
    values = {
        "setup_s": scale * statistics.median(setups),
        "time_s": sum(scaled),
        "job_p50_ms": 1000 * statistics.median(scaled),
        "job_tail_ms": 1000 * slowest,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return info, metrics, jobs, len(failed)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "homotor" / "__init__.py").is_file():
        print(f"bench: no homotor sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_work")
    try:
        for name in names:
            info, metrics, attempted, failed = run_workload(
                name, args.seed, args.seconds, args.trace, workdir)
            print(json.dumps(info))
            print(json.dumps({"correct": failed == 0, "attempted": attempted,
                              "failed": failed, "metrics": metrics}), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:  # another run is still using it
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
