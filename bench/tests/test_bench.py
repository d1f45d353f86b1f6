"""Tests of the benchmark's own code: tracer arithmetic and patching,
generator determinism, digest checking and the metric list contract.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import sys

import pytest

import gen
import run
import worker
from layers import PER_LAYER, LayerTrace
from tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer("homotor", clock=clock)

    def inner_fn():
        clock.now += 3.0

    def outer_fn():
        clock.now += 1.0
        inner()
        clock.now += 2.0
        inner()

    def slow_hook(args, kwargs, result):
        clock.now += 5.0  # hook time belongs to no span

    inner = tracer.span("inner", inner_fn, after=slow_hook)
    outer = tracer.span("outer", outer_fn)
    outer()
    assert tracer.stats["inner"].calls == 2
    assert tracer.stats["inner"].total_s == pytest.approx(6.0)
    assert tracer.stats["inner"].self_s == pytest.approx(6.0)
    assert tracer.stats["outer"].total_s == pytest.approx(19.0)
    assert tracer.stats["outer"].self_s == pytest.approx(3.0)
    assert tracer.parent() is None


def test_span_closes_when_the_function_raises():
    tracer = Tracer("homotor")

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.span("boom", boom)()
    assert tracer.stats["boom"].calls == 1
    assert tracer.parent() is None


def _bindings(name):
    """{module name: object} for every homotor module that binds name."""
    return {key: vars(mod)[name] for key, mod in sys.modules.items()
            if (key == "homotor" or key.startswith("homotor.")) and name in vars(mod)}


@pytest.mark.parametrize("name, modules", [
    ("rank", ["homotor.exactlin", "homotor.gcomplex", "homotor.torlab"]),
    ("module_homology_table", ["homotor.gcomplex", "homotor.torlab", "homotor.sumprod"]),
    ("build_filtration", ["homotor.spectral", "homotor.cli", "homotor.sumprod"]),
])
def test_every_binding_is_wrapped_then_restored(name, modules):
    import homotor.cli  # noqa: F401  (loads every module)

    originals = _bindings(name)
    assert set(modules) <= set(originals)
    original = originals[modules[0]]  # the defining module
    trace = LayerTrace()
    trace.install()
    try:
        wrapped = _bindings(name)
        assert all(obj is not original and obj.__wrapped__ is original
                   for obj in wrapped.values())
        assert len({id(obj) for obj in wrapped.values()}) == 1
    finally:
        trace.remove()
    assert all(obj is original for obj in _bindings(name).values())


def test_methods_are_wrapped_on_their_class_and_restored():
    from homotor.gcomplex import GradedComplex
    from homotor.monomial import Multidegree

    before = {attr: GradedComplex.__dict__[attr] for attr in ("homology_at", "__init__")}
    new = Multidegree.__dict__["__new__"]
    trace = LayerTrace()
    trace.install()
    try:
        assert GradedComplex.homology_at.__wrapped__ is before["homology_at"]
        assert Multidegree((1, 2)) == (1, 2)
        assert trace.counts["monomial.Multidegree.calls"] == 1
    finally:
        trace.remove()
    assert all(GradedComplex.__dict__[a] is f for a, f in before.items())
    assert Multidegree.__dict__["__new__"] is new


def test_traced_job_gives_every_per_layer_metric(tmp_path):
    jobs = gen.jobs("checker_stream", 0, 2)
    paths = worker.write_problems(jobs, tmp_path)
    out = worker.trace_jobs(jobs, paths, [])
    assert [name for name in out["metrics"]] == [name for name, _ in PER_LAYER]
    assert out["metrics"]["exactlin.rank.calls"]["value"] > 0
    assert out["failed"] == []


@pytest.mark.parametrize("workload", list(gen.WORKLOADS))
def test_generators_are_deterministic_and_differ_across_seeds(workload):
    count = gen.WORKLOADS[workload][1]
    a = gen.jobs(workload, 5, count)
    assert a == gen.jobs(workload, 5, count)
    assert a[:3] == gen.jobs(workload, 5, 3)  # job k does not depend on the run length
    assert a != gen.jobs(workload, 6, count)
    assert len({json.dumps(j.problem) for j in a}) == count


def test_kcone_jobs_have_two_ideals():
    jobs = gen.jobs("spectral_pages", 0, gen.WORKLOADS["spectral_pages"][1])
    kinds = {job.flags["kind"]: set() for job in jobs}
    for job in jobs:
        kinds[job.flags["kind"]].add(len(job.problem["ideals"]))
    assert kinds.pop("kcone") == {2}
    assert list(kinds.values()) == [{2, 3}] * 5


def test_corrupted_golden_digest_is_a_failed_job(tmp_path):
    jobs = gen.jobs("checker_stream", 0, 3)
    paths = worker.write_problems(jobs, tmp_path)
    clean = worker.run_jobs(jobs, paths, [], calibrate=False)
    assert clean["failed"] == []
    golden = list(clean["digests"])
    golden[1] = "0" * 64
    out = worker.run_jobs(jobs, paths, golden, calibrate=False)
    assert out["failed"] == [1]
    assert run.fail_share(out["failed"], len(jobs)) == pytest.approx(1 / 3)


def test_tail_has_ten_values_beyond_it():
    percentile, value = run.tail(list(range(40)))
    assert value == 28.5 and sum(v > value for v in range(40)) == 11
    assert percentile == pytest.approx(73.75)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
