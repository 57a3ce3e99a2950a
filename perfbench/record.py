"""Record the fingerprints that the benchmark checks at full scale.

Usage (from the repository root):

    python3 perfbench/record.py [SEED ...]      # default: 1 2

For every workload and seed this runs one traced serial round and writes
each operation's fingerprint, plus the (h_hat, eta_hat, objective) of every
fit the round made, to ``perfbench/fingerprints.json``. Re-recording changes
what counts as correct, so it is a benchmark change of its own: it lands
alone, with the reason, and never together with a change that claims a
speed-up.
"""

from __future__ import annotations

import json
import sys

import run
import tracing
import workloads

DEFAULT_SEEDS = (1, 2)
NOTE = (
    "Fingerprints of the full-scale workloads, checked on every run with one of "
    "these seeds: |dh| <= 1e-6 for hurst fields, relative 1e-6 for the rest. "
    "Seed 1 is the default seed and seed 2 is held out. Re-recording them (for "
    "example after the planned real/imaginary split of the fGn FFT, which "
    "changes every simulated stream) is a benchmark change of its own."
)


def record(seed: int, name: str, package) -> dict:
    workload = workloads.WORKLOADS[name](
        seed, workloads.SCALES["full"][name], run.WORKDIR, package
    )
    points = tracing.wrap_points(package.cli, package.harness, package.whittle)
    workload.prepare()
    try:
        run.clear_caches()
        tracer, outputs, _ = run.traced_round(workload, points)
    finally:
        workload.cleanup()
    misses = [miss for out in outputs
              for miss in workload.problems(out) + workload.reference_problems(out)]
    if misses:
        raise RuntimeError(f"seed {seed} {name}: {misses}")
    return {"ops": [workload.fingerprint(out) for out in outputs],
            "fits": run.traced_fits(tracer)}


def main(argv) -> int:
    seeds = [int(arg) for arg in argv] or list(DEFAULT_SEEDS)
    package = run.load_package()
    data = {"note": NOTE, "seeds": {
        str(seed): {name: record(seed, name, package) for name in workloads.WORKLOADS}
        for seed in seeds
    }}
    run.FINGERPRINTS.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
