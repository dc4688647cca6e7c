"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one seeded workload (see ``workloads.py``) from the repository's
``src/`` tree, in this one process, on one thread, under the ``numpy``
kernel backend. With ``--trace 0`` it times ops until ``--seconds`` have
passed and reports the end-to-end metrics; with ``--trace 1`` it runs a
fixed number of ops untraced, then the same ops again with the per-layer
wrappers of ``layers.py`` installed, and reports the per-layer metrics.
Every op's output is checked and digested; the digest lines let two
versions of the program show that they computed the same results.

The metric names and units are the ones ``BENCHMARK.json`` lists. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One thread: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Run records ask git for HEAD; keep git's search inside the checkout.
os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_run"
BACKEND = "numpy"
#: Fresh processes timed for ``setup_s`` besides this one; it reports
#: the median.
SETUP_PROBES = 2
#: Fewest timed ops a run reports a median over.
MIN_OPS = 5
#: Iterations of the host-speed calibration loop (about 10 ms).
CALIBRATION_ITERATIONS = 80_000
#: Seconds the calibration loop takes on the reference host (see README).
REFERENCE_CALIBRATION_S = 0.010


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set the workload up, then print 'ready' "
                        "(a parent times this for setup_s)")
    return p.parse_args(argv)


def reported(kind: str, values: dict[str, float]) -> dict[str, dict]:
    """``values`` as result metrics: exactly the ``kind`` metrics that
    ``BENCHMARK.json`` lists, each with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if units.keys() != values.keys():
        raise KeyError(f"{kind} metrics listed but not measured: "
                       f"{sorted(units.keys() - values.keys())}; measured "
                       f"but not listed: {sorted(values.keys() - units)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def setup(name: str, seed: int):
    """Import the program and build the workload's first input."""
    sys.path.insert(0, str(SRC))
    from repro.backend import set_backend

    set_backend(BACKEND)
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, STATE)
    workload.op_input(0)
    return workload


def setup_probe(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    the program and built the workload's first input."""
    start = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.communicate(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed ({proc.returncode})")
    return seconds


def since_process_start() -> float:
    """Seconds since this process was created (Linux ``/proc``), so
    interpreter start-up counts."""
    stat = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    started = int(stat[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed now.

    The loop is the benchmark's own code, so a change to the program does
    not move it; dividing op times by it takes out the host's speed drift.
    """
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i % 7
        table[i & 63] = acc
    return time.perf_counter() - start


class Tally:
    """Operations attempted/failed, problems and digests of one run."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []

    def record(self, index: int, result, label: str = "") -> None:
        from workloads import sha

        self.attempted += result.attempted
        self.failed += result.failed
        digest = sha(result.digest)
        self.digests.append(digest)
        print(f"digest {self.name} seed={self.seed} op={index}{label} "
              f"{digest}")
        for problem in result.problems:
            print(f"problem {self.name} op={index}: {problem}")

    def crashed(self, index: int) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"problem {self.name} op={index}: raised")
        traceback.print_exc(file=sys.stdout)


def run_op(workload, index: int, tally: Tally, label: str = "",
           instrument=None):
    """Prepare, time, check and digest op ``index``; returns its seconds
    and checked result (both None when it raised)."""
    spec = workload.op_input(index)
    try:
        workload.prepare(spec)
        # Garbage the previous op and its check left is not this op's.
        gc.collect()
        if instrument is None:
            t = time.perf_counter()
            output = workload.run(spec)
            seconds = time.perf_counter() - t
        else:
            with instrument():
                t = time.perf_counter()
                output = workload.run(spec)
                seconds = time.perf_counter() - t
        result = workload.check(spec, output)
    except Exception:  # noqa: BLE001 — a crashed op is a failed op
        tally.crashed(index)
        return None, None
    tally.record(index, result, label)
    return seconds, result


def timed_run(workload, args, setup_s: float) -> tuple[Tally, dict]:
    """Ops until ``args.seconds`` have passed, each bracketed by the
    calibration loop, with every time scaled to the reference host speed.

    An op's rate is multiplied by the mean of the two calibrations around
    it over the reference; ``work_per_s`` is the median of these rates.
    ``setup_s`` is scaled the same way by the run's median calibration.
    """
    tally = Tally(args.workload, args.seed)
    wall, scaled = [], []
    calibrations = [calibrate()]
    start = time.perf_counter()
    index = 0
    while index < MIN_OPS or time.perf_counter() - start < args.seconds:
        seconds, result = run_op(workload, index, tally)
        calibrations.append(calibrate())
        before, after = calibrations[-2:]
        if seconds is not None:
            rate = result.work / seconds
            slowdown = (before + after) / 2 / REFERENCE_CALIBRATION_S
            wall.append(rate)
            scaled.append(rate * slowdown)
            print(f"op {index}: {result.work} work in {seconds:.4f} s, "
                  f"calibration {before:.5f}/{after:.5f} s")
        index += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wall:
        print(f"wall-clock work per s over {len(wall)} ops: median "
              f"{statistics.median(wall):.1f}")
    return tally, reported("end_to_end", {
        "setup_s": setup_s * REFERENCE_CALIBRATION_S
        / statistics.median(calibrations),
        "peak_rss_mb": peak_kb / 1024,
        "work_per_s": statistics.median(scaled) if scaled else 0.0,
    })


def traced_run(workload, args) -> tuple[Tally, dict]:
    from layers import (SpanRecorder, instrumented, layer_metrics,
                        measure_imports)

    imports = measure_imports(SRC)
    # An op before both passes, so lazy set-up is charged to neither.
    run_op(workload, 0, Tally(args.workload, args.seed), " warm-up")
    tally = Tally(args.workload, args.seed)
    untraced_s = 0.0
    for index in range(workload.trace_ops):
        seconds, _ = run_op(workload, index, tally, " untraced")
        untraced_s += seconds or 0.0
    plain = list(tally.digests)

    rec = SpanRecorder()
    transports: list = []
    bytes_moved = 0
    traced_s = 0.0
    for index in range(workload.trace_ops):
        seconds, _ = run_op(workload, index, tally, " traced",
                            instrument=lambda: instrumented(rec, transports))
        traced_s += seconds or 0.0
        bytes_moved += sum(t.bytes_moved() for t in transports)
        transports.clear()
    rec.write(STATE / f"spans-{args.workload}.jsonl")
    if tally.digests[len(plain):] != plain:
        tally.failed += 1
        print(f"problem {args.workload}: traced digests differ from "
              "untraced ones")
    return tally, reported("per_layer", layer_metrics(
        rec, traced_s, untraced_s, bytes_moved, imports))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    workload = setup(args.workload, args.seed)
    setup_s = since_process_start()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    try:
        if args.trace:
            tally, metrics = traced_run(workload, args)
        else:
            samples = [setup_s] + [setup_probe(args.workload, args.seed)
                                   for _ in range(SETUP_PROBES)]
            print("setup_s wall-clock samples "
                  + " ".join(f"{s:.4f}" for s in samples))
            tally, metrics = timed_run(workload, args,
                                       statistics.median(samples))
    finally:
        shutil.rmtree(STATE / args.workload, ignore_errors=True)
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
