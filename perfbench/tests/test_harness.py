"""Tests of the benchmark harness itself (run: pytest perfbench/tests)."""

import dataclasses
import importlib
import itertools

import numpy as np
import pytest

import layers
import workloads
from layers import SpanRecorder, instrumented, parse_importtime


def _targets():
    for module, path, _key in layers.SPANS + layers.COUNTS:
        owner = importlib.import_module(module)
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        yield owner, name


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    a, b, other = cls(7, tmp_path), cls(7, tmp_path), cls(8, tmp_path)
    for i in range(3):
        assert a.op_input(i) == b.op_input(i)
    assert [a.op_input(i) for i in range(3)] != \
        [other.op_input(i) for i in range(3)]


def test_wrappers_are_restored(tmp_path):
    originals = [(owner, name, owner.__dict__[name])
                 for owner, name in _targets()]
    rec = SpanRecorder()
    with pytest.raises(RuntimeError):
        with instrumented(rec, transports=[]):
            for owner, name, raw in originals:
                assert owner.__dict__[name] is not raw
            raise RuntimeError("op crashed")
    for owner, name, raw in originals:
        assert owner.__dict__[name] is raw, f"{owner}.{name} not restored"


def test_wrapped_replay_matches_and_is_attributed():
    workload = workloads.Replay(3, None)
    spec = workloads.ReplaySpec("paper_4896", 12, 4, 1)
    _exp, plain = workload.replay(spec)
    rec = SpanRecorder()
    with instrumented(rec, transports=[]):
        _exp, traced = workload.replay(spec)
    assert workload.digest(traced) == workload.digest(plain)
    assert rec.counts["transport.pulls"] == len(plain.results)
    assert rec.calls["staging.ring_build"] == 1
    assert rec.self_s["des.run"] > 0


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    rec = SpanRecorder(clock=lambda: next(ticks))
    rec.enter("outer")      # 0
    rec.enter("child")      # 1
    rec.exit()              # 3 -> child 2
    rec.enter("child")      # 4
    rec.exit()              # 5 -> child 1
    rec.exit()              # 10 -> outer 10 - 3
    assert rec.self_s == {"outer": 7.0, "child": 3.0}
    assert rec.calls == {"outer": 1, "child": 2}


def test_generator_resumptions_are_timed_separately():
    clock = itertools.count()
    rec = SpanRecorder(clock=lambda: float(next(clock)))

    def proc():
        got = yield "a"
        yield got
        return "done"

    timed = layers._timed(proc, rec, "gen")
    gen = timed()
    assert next(gen) == "a"
    assert gen.send("b") == "b"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert rec.calls["gen"] == 3
    assert rec.self_s["gen"] == 3.0


def test_parse_importtime_sums_outermost_scipy_stats():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy.stats._a",
        "import time:        50 |        150 |     scipy.stats.inner",
        "import time:       200 |        200 |     scipy.stats._b",
        "import time:        10 |        400 |   repro.analysis.contingency",
        "import time:        30 |       1000 | repro",
        "import time:        20 |         20 | other",
    ])
    got = parse_importtime(text)
    assert got["repro"] == pytest.approx(1000e-6)
    assert got["scipy.stats"] == pytest.approx(350e-6)


def test_reference_pairs_match_serial_merge_tree():
    from repro.analysis.topology.merge_tree import compute_merge_tree

    field = np.random.default_rng(5).random((6, 5, 4))
    tree, _ = compute_merge_tree(field)
    assert workloads.tree_pairs(tree) == workloads.grid_pairs(field)


def test_corrupted_replay_trips_check():
    workload = workloads.Replay(1, None)
    spec = workloads.ReplaySpec("paper_9440", 10, 4, 2)
    exp, sched = workload.replay(spec)
    assert workloads.check_replay(exp, spec, sched) == []

    dropped = dataclasses.replace(sched, results=sched.results[1:])
    assert workloads.check_replay(exp, spec, dropped)

    first = sched.results[0]
    bad = dataclasses.replace(first, bytes_pulled=first.bytes_pulled + 1)
    resized = dataclasses.replace(sched, results=[bad] + sched.results[1:])
    assert workloads.check_replay(exp, spec, resized)

    late = dataclasses.replace(first, assign_time=first.finish_time + 1)
    reordered = dataclasses.replace(sched, results=[late] + sched.results[1:])
    assert workloads.check_replay(exp, spec, reordered)

    short = dataclasses.replace(sched, makespan=0.0)
    assert workloads.check_replay(exp, spec, short)


def test_corrupted_pipeline_trips_check():
    shape = (12, 10, 8)
    fw = workloads.HybridFramework(
        workloads.LiftedFlameCase(workloads.StructuredGrid3D(shape), seed=3),
        workloads.BlockDecomposition3D(shape, (2, 2, 1)))
    res = fw.run(2)
    assert workloads.check_pipeline(fw, res, 2) == []

    stats = res.statistics[1]["T"]
    res.statistics[1]["T"] = dataclasses.replace(stats, mean=stats.mean * 1.01)
    assert workloads.check_pipeline(fw, res, 2)
    res.statistics[1]["T"] = stats

    tree = res.merge_trees[1]
    leaf = tree.leaves()[0]
    tree.value[leaf] += 1e-3
    assert workloads.check_pipeline(fw, res, 2)


def test_corrupted_service_trips_check(tmp_path):
    import random

    batch = workloads.service_batch(random.Random(4), distinct=4, repeats=3)
    report = workloads.serve(batch, tmp_path)
    failed, problems = workloads.check_service(batch, report)
    assert not failed and not problems

    hit = next(j for j in report.jobs if j.cache_hit)
    hit.result = dataclasses.replace(hit.result,
                                     makespan=hit.result.makespan + 1.0)
    failed, problems = workloads.check_service(batch, report)
    assert hit.spec.name in failed and problems


def test_corrupted_warm_pass_trips_check(tmp_path):
    workload = workloads.ServiceWarm(2, tmp_path)
    workload.passes = 2
    batch = workload.op_input(0)
    workload.prepare(batch)
    reports = workload.run(batch)
    assert workload.check(batch, reports).failed == 0

    job = reports[1].jobs[0]
    job.result = dataclasses.replace(job.result,
                                     results=job.result.results[1:])
    result = workload.check(batch, reports)
    assert result.failed == 1 and result.problems


def test_reported_metrics_must_match_benchmark_json():
    import run

    values = {"setup_s": 1.0, "peak_rss_mb": 2.0, "work_per_s": 3.0}
    assert run.reported("end_to_end", values)["setup_s"] == \
        {"value": 1.0, "unit": "s"}
    with pytest.raises(KeyError):
        run.reported("end_to_end", {**values, "extra": 0.0})
    del values["work_per_s"]
    with pytest.raises(KeyError):
        run.reported("end_to_end", values)
