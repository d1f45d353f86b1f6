"""Fixed-seed job lists for the three benchmark workloads.

A job is one homotor CLI command on one problem file.  Job k of a workload
depends only on (workload, seed, k), so a longer run extends a shorter one
and a golden digest recorded for job k holds whatever the run length.  The
command and shape of job k cycle with k, so every run of whole cycles has
the same mix of commands and shapes.

The work of a job grows with its generator counts, and in tor_table with
its stability box (each variable's largest exponent, summed over ideals).
Left to chance, these made a job's time vary by a factor of 2-3 within one
shape, and the median and tail job times of two seeds differed by 20%.  So
tor_table and spectral_pages fix them per shape: an ideal has exactly the
generator count the shape gives, and in tor_table a draw is kept only if
each ideal's largest exponents per variable are a permutation of the
shape's target.  checker_stream keeps ``random_instance``'s range of
generator counts but runs through the count patterns in a fixed order.  The
seed still picks the monomials.

Nothing here imports homotor: a change to the program cannot change its
inputs.  ``random_ideal`` draws exponents like ``homotor.cli.random_instance``
(uniform in 0..2, never all zero), keeping only minimal generators, instead
of calling it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

CHARACTERISTIC = 32003
VARIABLES = ("x", "y", "z", "w")
DEGREE3 = [list(m) for m in itertools.product(range(4), repeat=3) if sum(m) == 3]
SPECTRAL_KINDS = ("kcone", "kcone_augmented", "interior", "interior_augmented",
                  "sum_to_product", "product_to_sum")
CHECKERS = (("verify", {}), ("rigidity", {}), ("a8", {}), ("tor1-oracle", {}),
            ("equiv-exactness", {}), ("indep", {"strong": True}))


@dataclass(frozen=True)
class Job:
    command: str
    problem: dict  # the problem file's JSON object
    flags: dict  # the flags dict homotor.cli.main passes to run()


def cli_flags(strong=False, kind=None):
    """The flags of a command line that sets at most --strong and --kind.

    Reports echo their flags, so this mirrors the defaults of
    ``homotor.cli.main`` key for key to give the bytes the CLI prints.
    """
    return {"field": None, "strong": strong, "module": None, "kind": kind,
            "seed": 0, "trials": 10, "json": None, "timing": False}


def problem(ideals, module=None):
    n = len(next(iter(ideals.values()))[0])
    return {"characteristic": CHARACTERISTIC, "variables": list(VARIABLES[:n]),
            "ideals": ideals, "module": module}


def named(family):
    return {f"I{k + 1}": gens for k, gens in enumerate(family)}


def largest_exponents(gens):
    return sorted(max(g[i] for g in gens) for i in range(len(gens[0])))


def degree3(rng, k, target):
    """k distinct degree-3 monomials in 3 variables (so k minimal generators)
    whose largest exponents per variable are a permutation of target."""
    while True:
        gens = [list(m) for m in rng.sample(DEGREE3, k)]
        if largest_exponents(gens) == target:
            return gens


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def random_ideal(rng, n_vars, n_gens, max_exp=2):
    """n_gens minimal generators with exponents in 0..max_exp."""
    while True:
        gens = []
        for _ in range(n_gens):
            g = [0] * n_vars
            while not any(g):
                g = [rng.randint(0, max_exp) for _ in range(n_vars)]
            gens.append(g)
        if not any(divides(a, b) for a, b in itertools.permutations(gens, 2)):
            return gens


def partition_family(rng, n_vars, n_blocks):
    """Ideals generated by the variables of disjoint blocks covering all of them."""
    order = list(range(n_vars))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n_vars), n_blocks - 1))
    blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [n_vars])]
    return [[[int(j == v) for j in range(n_vars)] for v in sorted(block)]
            for block in blocks]


def tor_table_job(rng, k):
    """A cycle of one short job (0.2 s), two middle ones (0.4 s) and one long
    one (0.7 s), so the median job time falls mid-cluster, not on an edge."""
    shape = k % 4
    if shape < 2:
        ideals = {"I": degree3(rng, 4, [2, 2, 3]), "J": degree3(rng, 4 + shape, [2, 2, 3])}
        return Job("tor", problem(ideals), cli_flags())
    if shape == 2:
        ideals = {"I": degree3(rng, 5, [2, 2, 3]), "M": degree3(rng, 3, [1, 2, 2])}
        return Job("tor", problem(ideals, module="M"), cli_flags())
    return Job("betti", problem({"I": degree3(rng, 7, [2, 3, 3])}), cli_flags())


def spectral_pages_job(rng, k):
    """Four generators in all, so every tensor of Taylor resolutions has 16
    summands: two ideals of 2, or three ideals of 2, 1 and 1 in drawn order.

    kcone runs on two ideals only: on three, homotor's page engine can stop
    a page early and fail its convergence check (see README.md, Correctness)."""
    kind = SPECTRAL_KINDS[k % 6]
    n_vars = 2 + k // 6 % 2
    three = k // 12 % 2 == 1 and kind != "kcone"
    counts = rng.sample([2, 1, 1], 3) if three else [2, 2]
    family = [random_ideal(rng, n_vars, n) for n in counts]
    return Job("spectral", problem(named(family)), cli_flags(kind=kind))


def count_patterns(n_ideals, max_gens):
    """Every generator-count pattern, in an order fixed for all seeds."""
    patterns = list(itertools.product(range(1, max_gens + 1), repeat=n_ideals))
    random.Random(f"patterns:{n_ideals}:{max_gens}").shuffle(patterns)
    return patterns


def checker_stream_job(rng, k):
    """Generator counts run through every pattern random_instance can draw
    (1..max_gens per ideal), one per cycle, so all seeds share the mix."""
    shape = k % 28
    if shape >= 24:
        family = partition_family(rng, 3 + shape % 2, 2 + (shape - 24) // 2)
        return Job("support", problem(named(family)), cli_flags())
    command, extra = CHECKERS[shape % 6]
    patterns = count_patterns(2 + shape // 6 % 2, 2 + shape // 12)
    counts = patterns[k // 28 % len(patterns)]
    family = [random_ideal(rng, 3, n) for n in counts]
    return Job(command, problem(named(family)), cli_flags(**extra))


# name -> (job maker, jobs per cycle, nominal seconds per cycle of homotor
# as it was when the benchmark was added, on the reference host); a run of
# --seconds S makes round(S / seconds) whole cycles
WORKLOADS = {
    "tor_table": (tor_table_job, 4, 1.7),
    "spectral_pages": (spectral_pages_job, 24, 5.0),
    "checker_stream": (checker_stream_job, 28, 2.5),
}


def job_count(workload, seconds):
    _, per_cycle, cycle_s = WORKLOADS[workload]
    return per_cycle * max(1, round(seconds / cycle_s))


def jobs(workload, seed, count):
    make = WORKLOADS[workload][0]
    return [make(random.Random(f"{workload}:{seed}:{k}"), k) for k in range(count)]
