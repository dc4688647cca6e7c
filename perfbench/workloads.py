"""The benchmark's workloads: seeded inputs, one timed operation, its
output check and its output digest.

Every workload drives a public entry point only
(``HybridFramework.run``, ``ScaledExperiment.run_schedule`` /
``traced_schedule``, ``CampaignService.run_batch``). Inputs come from the
seed alone. Checks recompute the expected figures without the code under
test where they can: statistics with numpy, merge-tree persistence pairs
with the elder-rule sweep below, replay bookkeeping from the workload
model.

A timed *op* is one pipeline run, one replay, one cold service pass or a
fixed number of warm ones. Each op reports how many operations (pipeline
runs, replays, jobs) it attempted and how many failed; a failed check
counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core import ExperimentConfig, HybridFramework, ScaledExperiment
from repro.core.workload import HYBRID_VARIANTS
from repro.obs.perf import RunStore
from repro.service import CampaignService, JobSpec, ScheduleCache, TenantQuota
from repro.sim import LiftedFlameCase, StructuredGrid3D
from repro.vmpi import BlockDecomposition3D

CONFIGS = {"paper_4896": ExperimentConfig.paper_4896,
           "paper_9440": ExperimentConfig.paper_9440}


@dataclass
class OpResult:
    """What one timed op produced, after its check."""

    work: float                 # work units (cell-steps, tasks, jobs)
    attempted: int              # operations: pipeline runs, replays, jobs
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: Any = None


def sha(obj: Any) -> str:
    """Digest of a JSON-able value; floats keep every digit (``repr``)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def task_rows(results: list) -> list[list]:
    return [[r.task_id, r.analysis, r.timestep, r.bucket, r.enqueue_time,
             r.assign_time, r.pull_done_time, r.finish_time, r.bytes_pulled]
            for r in results]


# -- independent merge-tree reference -----------------------------------------


def elder_pairs(order: list[int], neighbours: Any) -> set[tuple[int, Any]]:
    """Persistence pairs ``(maximum, saddle or None)`` by the elder rule.

    ``order`` lists vertices from highest to lowest in the sweep order;
    ``neighbours(v)`` yields v's neighbours. When components meet at a
    vertex, the one with the lower maximum dies there.
    """
    rank = {v: i for i, v in enumerate(order)}
    parent: dict[int, int] = {}
    oldest: dict[int, int] = {}      # root -> its component's maximum

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs: set[tuple[int, Any]] = set()
    for v in order:
        roots = {find(u) for u in neighbours(v) if u in parent}
        parent[v] = v
        if not roots:
            oldest[v] = v
            continue
        keep = min(roots, key=lambda r: rank[oldest[r]])
        for r in roots:
            if r != keep:
                pairs.add((oldest[r], v))
                parent[r] = keep
        parent[v] = keep
    for v, p in parent.items():
        if p == v:
            pairs.add((oldest[v], None))
    return pairs


def grid_pairs(field_values: np.ndarray) -> set[tuple[int, Any]]:
    """Elder-rule pairs of a 3-D grid field, face connectivity, ties
    broken by the C-order vertex id (as the global merge tree does)."""
    values = np.asarray(field_values, dtype=np.float64)
    shape = values.shape
    flat = values.ravel()
    ids = np.arange(flat.size)
    order = np.lexsort((ids, flat))[::-1].tolist()
    sx, sy = shape[1] * shape[2], shape[2]

    def neighbours(v: int):
        i, rest = divmod(v, sx)
        j, k = divmod(rest, sy)
        if i > 0:
            yield v - sx
        if i < shape[0] - 1:
            yield v + sx
        if j > 0:
            yield v - sy
        if j < shape[1] - 1:
            yield v + sy
        if k > 0:
            yield v - 1
        if k < shape[2] - 1:
            yield v + 1

    return elder_pairs(order, neighbours)


def tree_pairs(tree: Any) -> set[tuple[int, Any]]:
    """Elder-rule pairs read off a merge tree's nodes and arcs."""
    adjacent: dict[int, list[int]] = {n: [] for n in tree.value}
    for child, parent in tree.parent.items():
        if parent is not None:
            adjacent[child].append(parent)
            adjacent[parent].append(child)
    order = sorted(tree.value, key=lambda n: (tree.value[n], n), reverse=True)
    return elder_pairs(order, adjacent.__getitem__)


# -- workloads ---------------------------------------------------------------


class Workload:
    name = ""
    #: Ops in a traced run (untraced, then again traced).
    trace_ops: int

    def __init__(self, seed: int, state_dir: Path) -> None:
        self.seed = seed
        self.state_dir = state_dir

    def op_input(self, index: int) -> Any:
        """The seeded input of op ``index`` (same seed, same input)."""
        raise NotImplementedError

    def prepare(self, spec: Any) -> None:
        """Untimed per-op preparation."""

    def run(self, spec: Any) -> Any:
        """The timed operation."""
        raise NotImplementedError

    def check(self, spec: Any, output: Any) -> OpResult:
        raise NotImplementedError

    def _rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{index}")


class Pipeline(Workload):
    """``HybridFramework.run``: 48x32x24 grid on 2x2x2 virtual ranks,
    statistics + topology + visualization on both of 2 steps. Short runs
    give a run of the benchmark enough ops for a steady median."""

    name = "pipeline"
    trace_ops = 4
    shape = (48, 32, 24)
    ranks = (2, 2, 2)
    steps = 2

    def op_input(self, index: int) -> int:
        return self._rng(index).randrange(1, 2**31)

    def run(self, case_seed: int) -> tuple[HybridFramework, Any]:
        fw = HybridFramework(
            LiftedFlameCase(StructuredGrid3D(self.shape), seed=case_seed),
            BlockDecomposition3D(self.shape, self.ranks),
            analyses=("statistics", "topology", "visualization"))
        return fw, fw.run(self.steps)

    def check(self, case_seed: int, output: Any) -> OpResult:
        fw, res = output
        problems = check_pipeline(fw, res, self.steps)
        cells = int(np.prod(fw.decomp.global_shape))
        return OpResult(work=cells * self.steps, attempted=1,
                        failed=int(bool(problems)), problems=problems,
                        digest=pipeline_digest(res))


def check_pipeline(fw: HybridFramework, res: Any, steps: int) -> list[str]:
    problems = []
    last = steps - 1
    if res.analysed_steps != list(range(steps)):
        problems.append(f"analysed steps {res.analysed_steps}")
        return problems
    fields = fw.solver.assemble()
    for var in ("T", "H2", "OH"):
        got = res.statistics[last][var]
        data = fields[var]
        want = {"n": data.size, "mean": data.mean(),
                "variance": data.var(ddof=1), "min": data.min(),
                "max": data.max()}
        have = {"n": got.n, "mean": got.mean, "variance": got.variance,
                "min": got.minimum, "max": got.maximum}
        for key, value in want.items():
            if not np.isclose(have[key], value, rtol=1e-9, atol=1e-12):
                problems.append(f"step {last} {var}.{key}: {have[key]!r} "
                                f"!= numpy {value!r}")
    if tree_pairs(res.merge_trees[last]) != grid_pairs(fields["T"]):
        problems.append(f"step {last}: glued merge tree persistence pairs "
                        "differ from a serial sweep of the gathered T")
    return problems


def pipeline_digest(res: Any) -> dict[str, Any]:
    return {
        "statistics": {step: {var: s.as_dict() for var, s in stats.items()}
                       for step, stats in res.statistics.items()},
        "trees": {step: sha(tree.signature())
                  for step, tree in res.merge_trees.items()},
        "images": {step: hashlib.sha256(img.tobytes()).hexdigest()[:16]
                   for step, img in res.hybrid_images.items()},
        "tasks": sha(task_rows(res.task_results)),
        "bytes_moved": res.bytes_moved,
    }


@dataclass(frozen=True)
class ReplaySpec:
    config: str
    n_steps: int
    n_buckets: int
    interval: int


def replay_round(rng: random.Random, steps: tuple[int, int]
                 ) -> list[ReplaySpec]:
    """One replay per stratum (machine config x provisioned or short of
    buckets), in seeded order, so every round has the same mix."""
    specs = []
    for config in CONFIGS:
        for buckets in ((16, 32), (4, 8)):
            specs.append(ReplaySpec(config, rng.randint(*steps),
                                    rng.randint(*buckets),
                                    rng.choice((1, 2))))
    rng.shuffle(specs)
    return specs


def check_replay(exp: ScaledExperiment, spec: ReplaySpec, sched: Any
                 ) -> list[str]:
    problems = []
    analysed = range(0, spec.n_steps, spec.interval)
    want = Counter((v.value, t) for v in HYBRID_VARIANTS for t in analysed)
    have = Counter((r.analysis, r.timestep) for r in sched.results)
    if have != want:
        problems.append(f"{spec}: results per (analysis, step) differ: "
                        f"{len(have)} keys, {sum(have.values())} results, "
                        f"want {len(want)}")
    for v in HYBRID_VARIANTS:
        pulled = sum(r.bytes_pulled for r in sched.results
                     if r.analysis == v.value)
        expected = exp.workload.movement_bytes_total(v) * len(analysed)
        if pulled != expected:
            problems.append(f"{spec}: {v.value} pulled {pulled} bytes, "
                            f"want {expected}")
    bad = [r.task_id for r in sched.results
           if not r.enqueue_time <= r.assign_time <= r.finish_time]
    if bad:
        problems.append(f"{spec}: {len(bad)} tasks out of order, "
                        f"e.g. {bad[0]}")
    floor = spec.n_steps * exp.simulation_step_time()
    if not sched.makespan >= floor:
        problems.append(f"{spec}: makespan {sched.makespan!r} < "
                        f"n_steps x sim_step_time {floor!r}")
    return problems


class Replay(Workload):
    """Long untraced ``run_schedule`` replays over paper_4896/paper_9440,
    one per op; every four consecutive ops are one round of strata."""

    name = "replay"
    trace_ops = 8
    steps = (1000, 1400)

    def op_input(self, index: int) -> ReplaySpec:
        return replay_round(self._rng(index // 4), self.steps)[index % 4]

    def replay(self, spec: ReplaySpec) -> tuple[ScaledExperiment, Any]:
        exp = ScaledExperiment(CONFIGS[spec.config]())
        return exp, exp.run_schedule(n_steps=spec.n_steps,
                                     n_buckets=spec.n_buckets,
                                     analysis_interval=spec.interval)

    def run(self, spec: ReplaySpec) -> tuple[ScaledExperiment, Any]:
        return self.replay(spec)

    def check(self, spec: ReplaySpec, output: tuple) -> OpResult:
        exp, sched = output
        problems = self.problems(exp, spec, sched)
        return OpResult(work=len(sched.results), attempted=1,
                        failed=int(bool(problems)), problems=problems,
                        digest=self.digest(sched))

    def problems(self, exp: ScaledExperiment, spec: ReplaySpec, sched: Any
                 ) -> list[str]:
        return check_replay(exp, spec, sched)

    def digest(self, sched: Any) -> dict[str, Any]:
        return {"makespan": sched.makespan,
                "tasks": sha(task_rows(sched.results))}


class ReplayObserved(Replay):
    """``traced_schedule`` replays with the program's tracer, capacity
    ledger and probes on (probe interval = sim_step_time / 4)."""

    name = "replay_observed"
    steps = (200, 260)

    def replay(self, spec: ReplaySpec) -> tuple[ScaledExperiment, Any]:
        exp = ScaledExperiment(CONFIGS[spec.config]())
        _tracer, sched, _expected = exp.traced_schedule(
            n_steps=spec.n_steps, n_buckets=spec.n_buckets,
            analysis_interval=spec.interval,
            probe_interval=exp.simulation_step_time() / 4)
        return exp, sched

    def problems(self, exp: ScaledExperiment, spec: ReplaySpec, sched: Any
                 ) -> list[str]:
        problems = check_replay(exp, spec, sched)
        _, plain = Replay.replay(self, spec)
        if (plain.makespan != sched.makespan
                or task_rows(plain.results) != task_rows(sched.results)):
            problems.append(f"{spec}: observed replay differs from the "
                            "same spec replayed untraced")
        if sched.capacity is None or sched.capacity.leaks:
            problems.append(f"{spec}: capacity report missing or leaky")
        return problems

    def digest(self, sched: Any) -> dict[str, Any]:
        return {**super().digest(sched),
                "peak_bytes": sched.capacity.peak_resident_bytes,
                "probe_samples": sched.probes.n_samples,
                "alerts": len(sched.probes.alerts)}


@dataclass(frozen=True)
class Batch:
    jobs: tuple[JobSpec, ...]
    quotas: tuple[TenantQuota, ...]
    #: job name -> id of its distinct spec (equal ids share a cache key).
    spec_ids: dict[str, int]
    #: Jobs repeating an earlier job's spec: cache hits on a cold pass.
    repeats: tuple[str, ...]


QUOTA_TENANT = "quota"
CHAOS_TENANT = "chaos"


def service_batch(rng: random.Random, distinct: int = 16,
                  repeats: int = 6) -> Batch:
    """A multi-tenant batch: short replays (some sharded) spread over five
    tenants, repeats that hit the cache, a chaos tenant with pull faults,
    and a clustered tenant whose one-job quota holds jobs back."""
    params: list[dict[str, Any]] = []
    seen: set[tuple] = set()
    while len(params) < distinct:
        shards = rng.choice((1, 1, 1, 2, 4))
        p = {"config": rng.choice(tuple(CONFIGS)),
             "n_steps": rng.randint(2, 24),
             "n_buckets": rng.randint(max(2, shards), 16),
             "n_shards": shards,
             "analysis_interval": rng.choice((1, 2))}
        key = tuple(sorted(p.items()))
        if key not in seen:
            seen.add(key)
            params.append(p)
    jobs: list[JobSpec] = []
    spec_ids: dict[str, int] = {}
    tenants = [f"t{i}" for i in range(5)]
    picks = list(range(distinct)) + [rng.randrange(distinct)
                                     for _ in range(repeats)]
    for i, pick in enumerate(picks):
        name = f"j{i}"
        jobs.append(JobSpec(tenant=rng.choice(tenants), name=name,
                            submit_at=round(rng.uniform(0.0, 60.0), 3),
                            **params[pick]))
        spec_ids[name] = pick
    # Clustered at t=0, while workers are idle, so the one-job quota is
    # what holds the tenant's later jobs back.
    for i in range(5):
        name = f"q{i}"
        jobs.append(JobSpec(tenant=QUOTA_TENANT, name=name,
                            config=rng.choice(tuple(CONFIGS)),
                            n_steps=4 + 3 * i, n_buckets=rng.randint(2, 8),
                            analyses=("TOPO_HYBRID", "STATS_HYBRID"),
                            submit_at=0.001 * i))
        spec_ids[name] = distinct + i
    for i in range(3):
        name = f"c{i}"
        jobs.append(JobSpec(tenant=CHAOS_TENANT, name=name,
                            n_steps=rng.randint(6, 16),
                            n_buckets=rng.randint(3, 8),
                            fault_seed=rng.randrange(1 << 16),
                            pull_failure_rate=0.05, pull_stall_rate=0.1,
                            pull_stall_seconds=0.2,
                            submit_at=round(rng.uniform(0.0, 60.0), 3)))
        spec_ids[name] = distinct + 5 + i
    rng.shuffle(jobs)
    return Batch(jobs=tuple(jobs),
                 quotas=(TenantQuota(QUOTA_TENANT, max_concurrent=1),),
                 spec_ids=spec_ids,
                 repeats=tuple(f"j{i}" for i in range(distinct, len(picks))))


def serve(batch: Batch, state: Path, job_records: bool = True) -> Any:
    """One ``repro serve --state-dir`` pass over ``batch``; without
    ``job_records`` only the schedule cache is kept in ``state``, as
    ``repro top --state-dir`` keeps it."""
    service = CampaignService(
        workers=4, quotas=list(batch.quotas),
        default_quota=TenantQuota("*", max_concurrent=2),
        cache=ScheduleCache(state / "cache"),
        jobs_store=RunStore(state / "jobs") if job_records else None)
    return service.run_batch(list(batch.jobs))


def job_result(job: Any) -> tuple:
    """A job's end state and simulated result, for exact comparison."""
    if job.result is None:
        return job.state.value, None, None
    return job.state.value, job.result.makespan, task_rows(job.result.results)


def job_rows(report: Any) -> dict[str, dict[str, Any]]:
    return {job.spec.name: {"state": job.state.value,
                            "hit": job.cache_hit,
                            "makespan": (job.result.makespan
                                         if job.result else None),
                            "tasks": (sha(task_rows(job.result.results))
                                      if job.result else None)}
            for job in report.jobs}


def check_service(batch: Batch, report: Any, cold: bool = True
                  ) -> tuple[set[str], list[str]]:
    """``(failed job names, problems)`` of one pass."""
    rows = job_rows(report)
    failed = {name for name, row in rows.items() if row["state"] != "done"}
    problems = [f"job {name} ended {rows[name]['state']}"
                for name in sorted(failed)]
    by_spec: dict[int, list[str]] = {}
    for name, spec_id in batch.spec_ids.items():
        by_spec.setdefault(spec_id, []).append(name)
    for names in by_spec.values():
        fresh = [n for n in names if not rows[n]["hit"]]
        if not fresh:
            continue
        want = (rows[fresh[0]]["makespan"], rows[fresh[0]]["tasks"])
        for n in names:
            if (rows[n]["makespan"], rows[n]["tasks"]) != want:
                failed.add(n)
                problems.append(f"job {n}: result differs from fresh "
                                f"job {fresh[0]} with the same spec")
    quota = report.tenants.get(QUOTA_TENANT)
    # Cache hits take no service time, so only a cold pass must hold.
    if cold and (quota is None or quota.held_events == 0):
        failed.update(n for n in batch.spec_ids if n.startswith("q"))
        problems.append("quota tenant was never held")
    return failed, problems


class Service(Workload):
    """Cold ``CampaignService.run_batch`` passes, each into a fresh state
    dir: cache misses and hits, cache and store writes."""

    name = "service"
    trace_ops = 2

    def op_input(self, index: int) -> Batch:
        return service_batch(self._rng(index))

    def state(self) -> Path:
        return self.state_dir / self.name

    def prepare(self, batch: Batch) -> None:
        shutil.rmtree(self.state(), ignore_errors=True)

    def run(self, batch: Batch) -> Any:
        return serve(batch, self.state())

    def check(self, batch: Batch, report: Any) -> OpResult:
        failed, problems = check_service(batch, report)
        if report.cache_hits == 0:
            failed.update(batch.repeats)
            problems.append("cold pass had no cache hits")
        return OpResult(work=len(batch.jobs), attempted=len(batch.jobs),
                        failed=len(failed), problems=problems,
                        digest={"jobs": job_rows(report),
                                "duration": report.duration,
                                "held": report.held_events})


class ServiceWarm(Service):
    """Warm passes: the same batch again over the cache a cold pass left,
    so every job is a cache hit read back from the store. The passes keep
    no job records: writing them (one ``git`` subprocess per record) is
    timed by ``service``, and would otherwise be most of a warm pass.
    One op is ``passes`` warm passes."""

    name = "service_warm"
    passes = 40

    def __init__(self, seed: int, state_dir: Path) -> None:
        super().__init__(seed, state_dir)
        self.batch = service_batch(self._rng(0))
        self.cold: dict[str, Any] | None = None

    def op_input(self, index: int) -> Batch:
        return self.batch

    def prepare(self, batch: Batch) -> None:
        if self.cold is None:
            super().prepare(batch)
            self.cold = {job.spec.name: job_result(job)
                         for job in serve(batch, self.state()).jobs}

    def run(self, batch: Batch) -> list[Any]:
        return [serve(batch, self.state(), job_records=False)
                for _ in range(self.passes)]

    def check(self, batch: Batch, reports: list[Any]) -> OpResult:
        """Every job of every pass is a hit equal to the cold pass's job;
        the first pass also gets the checks of :func:`check_service`."""
        names, problems = check_service(batch, reports[0], cold=False)
        failed = {(0, name) for name in names}
        for i, report in enumerate(reports):
            for job in report.jobs:
                name = job.spec.name
                if not job.cache_hit or job_result(job) != self.cold[name]:
                    failed.add((i, name))
                    problems.append(f"pass {i} job {name}: missed the cache "
                                    "or differs from the cold pass")
        jobs = len(batch.jobs) * len(reports)
        return OpResult(work=jobs, attempted=jobs, failed=len(failed),
                        problems=problems,
                        digest={"jobs": job_rows(reports[0]),
                                "held": reports[0].held_events,
                                "passes": len(reports)})


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Pipeline, Replay, Service, ServiceWarm,
                        ReplayObserved)}
