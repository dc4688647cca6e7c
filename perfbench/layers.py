"""Per-layer tracing for the benchmark: spans recorded from this directory
only, around calls into each layer's public functions.

Nothing under ``src/`` knows about it. :func:`instrumented` swaps each
function named in :data:`SPANS` / :data:`COUNTS` for a wrapper that
records a span (or bumps a counter) in a :class:`SpanRecorder`, and puts
every original back when the block exits. Generator functions (DES
processes such as ``DartTransport.pull`` and the bucket loop) are timed
per resumption, not per call, because the call only builds the
generator.

A layer's self time is its spans' duration minus the time their child
spans cover, so the self times of all spans plus the unattributed rest
add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: Timed functions: (module, attribute path, span key). A function the
#: caller imported into its own module is wrapped where the caller looks
#: it up (``repro.core.framework`` binds the analysis kernels at import).
SPANS: tuple[tuple[str, str, str], ...] = (
    ("repro.des.engine", "Engine.run", "des.run"),
    ("repro.transport.dart", "DartTransport.pull", "transport.pull"),
    ("repro.staging.buckets", "StagingBucket.run", "staging.bucket"),
    ("repro.staging.dataspaces", "DataSpaces.__init__", "staging.setup"),
    ("repro.staging.dataspaces", "DataSpaces.spawn_buckets", "staging.setup"),
    ("repro.staging.hashing", "ServiceRing.__init__", "staging.ring_build"),
    ("repro.staging.dataspaces", "DataSpaces.submit_insitu_result",
     "staging.submit"),
    ("repro.staging.dataspaces", "DataSpaces.submit_grouped_result",
     "staging.submit"),
    ("repro.staging.scheduler", "TaskScheduler.data_ready", "staging.sched"),
    ("repro.staging.scheduler", "TaskScheduler.bucket_ready", "staging.sched"),
    ("repro.staging.scheduler", "TaskScheduler.task_done", "staging.sched"),
    ("repro.sim.s3d", "DecomposedS3D.step", "sim.step"),
    ("repro.analysis.statistics.moments", "MomentAccumulator.from_data",
     "analysis.stats_insitu"),
    ("repro.analysis.statistics.engine", "StatisticsEngine.pack_partials",
     "analysis.stats_insitu"),
    ("repro.analysis.statistics.engine", "StatisticsEngine.intransit_derive",
     "analysis.stats_intransit"),
    ("repro.core.framework", "compute_boundary_tree", "analysis.topo_insitu"),
    ("repro.core.framework", "glue_boundary_trees", "analysis.topo_intransit"),
    ("repro.core.framework", "downsample_block", "analysis.vis_insitu"),
    ("repro.core.framework", "render_intransit", "analysis.vis_intransit"),
    ("repro.service.api", "JobExecutor.execute", "service.execute"),
    ("repro.service.api", "JobExecutor.demand", "service.admit"),
    ("repro.service.quota", "QuotaManager.check", "service.admit"),
    ("repro.service.cache", "ScheduleCache.__init__", "service.cache_load"),
    ("repro.service.cache", "ScheduleCache.lookup", "service.cache_lookup"),
    ("repro.service.cache", "ScheduleCache.insert", "service.cache_insert"),
    ("repro.obs.perf", "RunStore.append", "obs.store_append"),
    ("repro.obs.perf", "git_sha", "obs.git_sha"),
    *(("repro.obs.tracer", f"Tracer.{name}", "obs.tracer")
      for name in ("begin", "end", "add_span", "flow_begin", "flow_step",
                   "flow_through", "flow_end", "instant", "counter")),
    ("repro.obs.probes", "ProbeSampler.on_advance", "obs.probe"),
    ("repro.obs.probes", "ProbeSampler.finalize", "obs.probe"),
    *(("repro.obs.capacity", f"CapacityLedger.{name}", "obs.capacity")
      for name in ("on_register", "on_release", "on_transfer", "finalize")),
)

#: Counted functions: (module, attribute path, counter key).
COUNTS: tuple[tuple[str, str, str], ...] = (
    *(("repro.des.engine", f"Engine.{name}", "des.events")
      for name in ("timeout", "event", "call_at", "process")),
    ("repro.transport.dart", "DartTransport.pull", "transport.pulls"),
    ("repro.transport.dart", "DartTransport.register", "transport.registers"),
    ("repro.staging.scheduler", "TaskScheduler.task_done", "staging.tasks"),
    ("repro.obs.tracer", "Tracer.begin", "obs.spans"),
    ("repro.obs.tracer", "Tracer.add_span", "obs.spans"),
)


class SpanRecorder:
    """In-memory span stack with per-key self-time totals.

    Spans nest on one stack (one thread). Closing a span adds its
    duration to its parent's child time, so its self time is exact
    without a second pass. The first ``keep`` spans are also kept raw
    for :meth:`write`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep: int = 200_000) -> None:
        self.clock = clock
        self.keep = keep
        self._stack: list[list[Any]] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[str, float, float, float, int]] = []
        self.dropped = 0

    def enter(self, key: str) -> None:
        self._stack.append([key, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        key, start, child = self._stack.pop()
        duration = end - start
        self_time = duration - child
        if self._stack:
            self._stack[-1][2] += duration
        self.self_s[key] = self.self_s.get(key, 0.0) + self_time
        self.calls[key] = self.calls.get(key, 0) + 1
        if len(self.spans) < self.keep:
            self.spans.append((key, start, end, self_time, len(self._stack)))
        else:
            self.dropped += 1

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def active(self, key: str) -> bool:
        return any(frame[0] == key for frame in self._stack)

    def write(self, path: Path) -> None:
        """Write the kept spans as JSON lines (after the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for key, start, end, self_time, depth in self.spans:
                fh.write(json.dumps({"name": key, "start": start,
                                     "end": end, "self": self_time,
                                     "depth": depth}) + "\n")
            fh.write(json.dumps({"dropped": self.dropped}) + "\n")


def _timed(fn: Callable, rec: SpanRecorder, key: str) -> Callable:
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
            return (yield from _timed_resumptions(fn(*args, **kwargs),
                                                  rec, key))
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rec.enter(key)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit()
    return wrapper


def _timed_resumptions(gen: Any, rec: SpanRecorder, key: str) -> Any:
    """``yield from gen`` with one span per resumption."""
    value: Any = None
    error: BaseException | None = None
    while True:
        rec.enter(key)
        try:
            if error is not None:
                pending, error = error, None
                item = gen.throw(pending)
            else:
                item = gen.send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            rec.exit()
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # noqa: BLE001 — forwarded into gen
            error = exc


def _counted(fn: Callable, rec: SpanRecorder, key: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rec.count(key)
        return fn(*args, **kwargs)
    return wrapper


def _replay_counter(fn: Callable, rec: SpanRecorder) -> Callable:
    """Counts ``run_schedule`` calls made by the service's job executor."""
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if rec.active("service.execute"):
            rec.count("service.replays")
        return fn(*args, **kwargs)
    return wrapper


def _lookup_counter(fn: Callable, rec: SpanRecorder) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = fn(*args, **kwargs)
        rec.count("service.cache_lookups")
        if result is not None:
            rec.count("service.cache_hits")
        return result
    return wrapper


def _probe_sample_counter(fn: Callable, rec: SpanRecorder) -> Callable:
    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = fn(self, *args, **kwargs)
        rec.count("obs.probe_samples", self.n_samples)
        return result
    return wrapper


def _transport_collector(fn: Callable, transports: list) -> Callable:
    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> None:
        fn(self, *args, **kwargs)
        transports.append(self)
    return wrapper


class Patcher:
    """Replaces attributes and remembers the originals to restore."""

    def __init__(self) -> None:
        self.saved: list[tuple[Any, str, Any]] = []

    def patch(self, module: str, path: str,
              make: Callable[[Callable], Callable]) -> None:
        owner: Any = importlib.import_module(module)
        *parents, name = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        raw = owner.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            new: Any = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        self.saved.append((owner, name, raw))
        setattr(owner, name, new)

    def restore(self) -> None:
        while self.saved:
            owner, name, raw = self.saved.pop()
            setattr(owner, name, raw)


@contextmanager
def instrumented(rec: SpanRecorder, transports: list) -> Iterator[None]:
    """Wrap every layer function for the block; restore on exit.

    Counters are installed outermost so a counted call that is also
    timed (``Tracer.begin``) is counted once and timed once. Every
    ``DartTransport`` built inside the block is appended to
    ``transports``.
    """
    patcher = Patcher()
    try:
        for module, path, key in SPANS:
            patcher.patch(module, path,
                          lambda fn, key=key: _timed(fn, rec, key))
        for module, path, key in COUNTS:
            patcher.patch(module, path,
                          lambda fn, key=key: _counted(fn, rec, key))
        patcher.patch("repro.core.runner", "ScaledExperiment.run_schedule",
                      lambda fn: _replay_counter(fn, rec))
        patcher.patch("repro.service.cache", "ScheduleCache.lookup",
                      lambda fn: _lookup_counter(fn, rec))
        patcher.patch("repro.obs.probes", "ProbeSampler.finalize",
                      lambda fn: _probe_sample_counter(fn, rec))
        patcher.patch("repro.transport.dart", "DartTransport.__init__",
                      lambda fn: _transport_collector(fn, transports))
        yield
    finally:
        patcher.restore()


def layer_metrics(rec: SpanRecorder, traced_s: float, untraced_s: float,
                  bytes_moved: int, imports: dict[str, float]
                  ) -> dict[str, float]:
    """Every per-layer metric from one traced pass, by name."""
    s = rec.self_s
    n = rec.calls
    c = rec.counts
    events = c.get("des.events", 0)
    lookups = c.get("service.cache_lookups", 0)
    metrics = {
        "import.repro_s": imports["repro"],
        "import.scipy_stats_s": imports["scipy.stats"],
        "des.run_s": s.get("des.run", 0.0),
        "des.events": events,
        "des.host_us_per_event": (s.get("des.run", 0.0) / events * 1e6
                                  if events else 0.0),
        "transport.pulls": c.get("transport.pulls", 0),
        "transport.pull_s": s.get("transport.pull", 0.0),
        "transport.registers": c.get("transport.registers", 0),
        "transport.bytes_moved": bytes_moved,
        "staging.setup_s": s.get("staging.setup", 0.0),
        "staging.ring_builds": n.get("staging.ring_build", 0),
        "staging.ring_build_s": s.get("staging.ring_build", 0.0),
        "staging.submits": n.get("staging.submit", 0),
        "staging.submit_s": s.get("staging.submit", 0.0),
        "staging.tasks": c.get("staging.tasks", 0),
        "staging.bucket_s": s.get("staging.bucket", 0.0),
        "staging.sched_s": s.get("staging.sched", 0.0),
        "sim.steps": n.get("sim.step", 0),
        "sim.step_s": s.get("sim.step", 0.0),
        "service.replays": c.get("service.replays", 0),
        "service.cache_lookups": lookups,
        "service.cache_hit_ratio": (c.get("service.cache_hits", 0) / lookups
                                    if lookups else 0.0),
        "service.cache_lookup_s": s.get("service.cache_lookup", 0.0),
        "service.cache_insert_s": s.get("service.cache_insert", 0.0),
        "service.cache_load_s": s.get("service.cache_load", 0.0),
        "service.admit_s": s.get("service.admit", 0.0),
        "obs.store_appends": n.get("obs.store_append", 0),
        "obs.store_append_s": s.get("obs.store_append", 0.0),
        "obs.git_sha_calls": n.get("obs.git_sha", 0),
        "obs.git_sha_s": s.get("obs.git_sha", 0.0),
        "obs.tracer_s": s.get("obs.tracer", 0.0),
        "obs.probe_s": s.get("obs.probe", 0.0),
        "obs.capacity_s": s.get("obs.capacity", 0.0),
        "obs.spans": c.get("obs.spans", 0),
        "obs.probe_samples": c.get("obs.probe_samples", 0),
        "trace.unattributed_s": traced_s - sum(s.values()),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace_overhead_x": traced_s / untraced_s if untraced_s else 0.0,
    }
    for key in ("stats_insitu", "stats_intransit", "topo_insitu",
                "topo_intransit", "vis_insitu", "vis_intransit"):
        metrics[f"analysis.{key}_s"] = s.get(f"analysis.{key}", 0.0)
    return metrics


def _in_stats(module: str) -> bool:
    return module == "scipy.stats" or module.startswith("scipy.stats.")


_IMPORTTIME = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds of ``repro`` and of the ``scipy.stats`` package
    from ``python -X importtime`` output.

    Lines come children first. ``scipy.stats`` is loaded lazily through
    ``scipy.__getattr__`` and may have no line of its own, so its figure
    is the sum of the outermost ``scipy.stats*`` subtrees.
    """
    rows = []
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    out = {"repro": 0.0, "scipy.stats": 0.0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative_us in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name == "repro" and not ancestors:
            out["repro"] += cumulative_us / 1e6
        if _in_stats(name) and not any(_in_stats(a) for _, a in ancestors):
            out["scipy.stats"] += cumulative_us / 1e6
        ancestors.append((depth, name))
    return out


def measure_imports(src: Path) -> dict[str, float]:
    """Import figures from a fresh ``python -X importtime`` process."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True)
    return parse_importtime(proc.stderr)
