"""roughvol benchmark: runs one workload for a fixed time and prints its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit-default --seed 1 --seconds 28 --trace 0

The program under test is the package in ``src/`` next to this directory.
The run repeats rounds of the workload's operations until ``--seconds`` is
spent, checks every output, and prints two JSON lines: a detail record
(environment, per-workload rates, failures and problems found) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
figures of a traced round (see README.md in this directory). Exit status is
0 when every check passed, 1 when a check failed and 2 when the benchmark
could not run at all (for example because ``src/roughvol`` is missing).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

CLOCK = time.perf_counter
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
FINGERPRINTS = HERE / "fingerprints.json"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_package():
    """Import roughvol from this checkout's ``src``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import roughvol
    from roughvol import cli, harness, whittle  # noqa: F401

    origin = Path(roughvol.__file__).resolve()
    if src not in origin.parents:
        raise ImportError(f"roughvol was imported from {origin}, not from {src}")
    return roughvol


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy

    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment(nproc: int, workers: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "workers": workers,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "thread_variables": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def clear_caches() -> None:
    """Empty the package's function caches so every round starts as a fresh
    process would."""
    for name, module in list(sys.modules.items()):
        if name == "roughvol" or name.startswith("roughvol."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Checker:
    """Counts operations, the ones that failed, and the checks their outputs
    missed. Only a missed check makes the run incorrect."""

    def __init__(self, workload, recorded: dict | None):
        self.workload = workload
        self.recorded = recorded
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def _note(self, label: str, misses: list[str]) -> bool:
        self.problems.extend(f"{label}: {miss}" for miss in misses[:3])
        return bool(misses)

    def round(self, outputs: list, label: str) -> None:
        wl = self.workload
        prints = [wl.fingerprint(out) for out in outputs]
        if self.first is None:
            self.first = prints
        for i, (out, fp) in enumerate(zip(outputs, prints)):
            misses = wl.problems(out) + workloads.compare(self.first[i], fp, "repeat")
            if self.recorded is not None:
                misses += workloads.compare(self.recorded["ops"][i], fp, "recorded")
                misses += wl.reference_problems(out)
            failure = wl.failure(out)
            if failure:
                self.failures.append(f"{label} op {i}: {failure}")
            self.attempted += 1
            self.failed += bool(self._note(f"{label} op {i}", misses) or failure)

    def fits(self, fits: list) -> None:
        if self.recorded is not None:
            self._note("traced fits", workloads.compare(self.recorded["fits"], fits, "fits"))

    def other(self, miss: str | None) -> None:
        if miss:
            self.problems.append(miss)

    @property
    def correct(self) -> bool:
        return not self.problems


def traced_fits(tracer) -> list:
    return [tracer.notes[i] for i, name in enumerate(tracer.names)
            if name == "whittle.estimate" and i in tracer.notes]


def traced_round(workload, points):
    """One serial round with every wrap point traced."""
    tracer = tracing.Tracer()
    with tracer.installed(points):
        start = CLOCK()
        outputs, _ = workload.run_round(1)
        wall = CLOCK() - start
    return tracer, outputs, wall


def plain_run(workload, seconds: float, workers: int, checker: Checker) -> dict:
    op_times, round_walls = [], []
    started = CLOCK()
    while True:
        clear_caches()
        begin = CLOCK()
        outputs, times = workload.run_round(workers)
        checker.round(outputs, f"round {len(round_walls)}")
        end = CLOCK()
        op_times += times
        round_walls.append(sum(times))
        if (end - started) + (end - begin) > seconds:
            break
    busy = sum(op_times)
    rounds = len(round_walls)
    ordered = sorted(op_times)
    detail = {
        "rounds": rounds,
        "round_walls_s": round_walls,
        "op_times_s": op_times,
        "op_p50_s": statistics.median(op_times),
        "op_tail_s": ordered[-11] if len(ordered) >= 11 else None,
        "paths_per_s": workload.paths_per_round() * rounds / busy,
        "sim_steps_per_s": workload.steps_per_round() * rounds / busy,
    }
    metrics = {"wall_s": statistics.median(round_walls), "peak_rss_mb": peak_rss_mb()}
    return metrics, detail


def traced_run(workload, seconds: float, workers: int, checker: Checker, package) -> tuple:
    points = tracing.wrap_points(package.cli, package.harness, package.whittle)
    pooled = workload.parallel and workers > 1
    parallel_walls, serial_walls, traced_walls, rounds = [], [], [], []
    started = CLOCK()
    while True:
        begin = CLOCK()
        if pooled:
            clear_caches()
            outputs, times = workload.run_round(workers)
            parallel_walls.append(sum(times))
            checker.round(outputs, "untraced parallel")
        clear_caches()
        outputs, times = workload.run_round(1)
        serial_walls.append(sum(times))
        checker.round(outputs, "untraced serial")
        clear_caches()
        tracer, outputs, wall = traced_round(workload, points)
        traced_walls.append(wall)
        checker.round(outputs, "traced")
        checker.fits(traced_fits(tracer))
        rounds.append(tracing.round_metrics(tracer, wall))
        end = CLOCK()
        if (end - started) + (end - begin) > seconds:
            break
    metrics = tracing.combine_rounds(rounds)
    serial = statistics.median(serial_walls)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - serial
    metrics["harness.parallel_efficiency"] = (
        serial / (workers * statistics.median(parallel_walls)) if pooled else 1.0
    )
    checker.other(tracing.check_additivity(metrics))
    detail = {
        "traced_rounds": len(rounds),
        "traced_walls_s": traced_walls,
        "serial_walls_s": serial_walls,
        "parallel_walls_s": parallel_walls,
    }
    return {name: metrics[name] for name, _ in tracing.LAYER_METRICS}, detail


def setup_times(args, probes: int) -> list[float]:
    """Wall time from starting a fresh interpreter until the workload is ready."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--scale", args.scale, "--setup-probe"]
    times = []
    for _ in range(probes):
        start = CLOCK()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = CLOCK() - start
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(ready)
    return times


def units(trace: int) -> dict:
    if trace:
        return dict(tracing.LAYER_METRICS)
    return {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=28.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size for the parallel workloads (default and maximum: nproc)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        package = load_package()
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    workers = nproc if args.workers is None else args.workers
    if not 1 <= workers <= nproc:
        print(f"error: workers must be between 1 and nproc={nproc}, got {workers}",
              file=sys.stderr)
        return 2

    scale = workloads.SCALES[args.scale]
    workload = workloads.WORKLOADS[args.workload](
        args.seed, scale[args.workload], WORKDIR, package
    )
    if args.setup_probe:
        try:
            workload.prepare()
            print("ready", flush=True)
        finally:
            workload.cleanup()
        return 0

    recorded = None
    if args.scale == "full":
        seeds = json.loads(FINGERPRINTS.read_text())["seeds"]
        recorded = seeds.get(str(args.seed), {}).get(args.workload)
    checker = Checker(workload, recorded)
    try:
        workload.prepare()
        if args.trace:
            metrics, detail = traced_run(workload, args.seconds, workers, checker, package)
        else:
            metrics, detail = plain_run(workload, args.seconds, workers, checker)
    finally:
        workload.cleanup()
    if not args.trace:
        samples = setup_times(args, scale["setup_probes"])
        metrics["setup_s"] = statistics.median(samples)
        detail["setup_samples_s"] = samples

    detail.update({
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "fingerprinted": recorded is not None,
        "failed_frac": checker.failed / checker.attempted,
        "failures": checker.failures[:20],
        "problems": checker.problems[:20],
        "environment": environment(nproc, workers),
    })
    unit = units(args.trace)
    result = {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit[name]} for name in unit},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
