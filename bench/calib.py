"""Host-speed calibration with a fixed pure-Python elimination kernel.

On a shared virtual machine the same job list can take 15-30% longer in a
slow phase of the host, and CPU time rises with wall time, so the program
is not at fault.  The kernel below does the kind of work homotor does
(dict-row Gaussian elimination over GF(p) in the interpreter) and imports
nothing from homotor, so no change to the program can change it.  A run
samples it before the first job and after each, and scales a time by

    REFERENCE_S * samples / (sum of the sampled kernel times)

which reads it in seconds of the reference host.  The host's speed changes
within half a second by up to 25%, so a job's time is scaled by the samples
of the WINDOW jobs on either side of it, and set-up time by all of them.
"""

from __future__ import annotations

import time

P = 32003
SIZE = 40
RANK = 40  # the rank of MATRIX; checked on every sample
# median kernel time on the reference host (2 vCPUs of an Intel Xeon, shared;
# Python 3.11.7); it sets the unit of the scaled times, not their spread
REFERENCE_S = 0.0040
WINDOW = 2


def _matrix():
    """A fixed SIZE x SIZE matrix with about a third of its entries nonzero."""
    state = 12345
    rows = []
    for r in range(SIZE):
        row = {}
        for c in range(SIZE):
            state = (state * 1103515245 + 12345) % 2**31
            if state % 3 == 0 or c == r:
                row[c] = state % (P - 1) + 1
        rows.append(row)
    return rows


MATRIX = _matrix()


def kernel() -> int:
    """Rank of MATRIX over GF(P) by elimination on dict rows."""
    work = [dict(row) for row in MATRIX]
    rank = 0
    while work:
        col = min(min(row) for row in work)
        idx = next(i for i, row in enumerate(work) if col in row)
        pivot = work.pop(idx)
        inv = pow(pivot[col], P - 2, P)
        rank += 1
        rest = []
        for row in work:
            coeff = row.get(col)
            if coeff is not None:
                factor = coeff * inv % P
                for c, v in pivot.items():
                    nv = (row.get(c, 0) - factor * v) % P
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
            if row:
                rest.append(row)
        work = rest
    return rank


def sample() -> float:
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    rank = kernel()
    elapsed = time.perf_counter() - start
    if rank != RANK:
        raise RuntimeError(f"calibration kernel returned rank {rank}, not {RANK}")
    return elapsed


def scale(samples) -> float:
    """Factor that turns times measured beside these samples into reference seconds."""
    return REFERENCE_S * len(samples) / sum(samples)


def scale_jobs(job_s, samples):
    """Job times in reference seconds; samples[k] ran before job k, samples[k + 1] after."""
    return [t * scale(samples[max(0, k - WINDOW): k + WINDOW + 2])
            for k, t in enumerate(job_s)]
