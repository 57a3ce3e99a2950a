"""The benchmark workloads.

Each workload makes its inputs from the workload seed, runs one *round*
(a fixed list of operations on those inputs) on request, and turns the
round's outputs into a fingerprint: the numbers that must reproduce. All
workloads are closed-loop batch jobs driven from one process; the parallel
ones use a process pool of ``workers`` inside the package.

Sizes are set per scale. ``full`` is what the benchmark measures; ``smoke``
is a seconds-long version used by the smoke test.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

import numpy as np

CLOCK = time.perf_counter

SCALES = {
    "full": {
        "fit-default": {"series": 3, "n_days": 501, "m": 80, "hurst": 0.1, "eta": 1.0,
                        "starts": None},
        "mc-cell": {"n_paths": 8, "n_days": 2500, "substeps": 4},
        "zscore-grid": {"ms": (80, 400, 1000), "n_days": 2000, "seeds_per_m": 2},
        "illusion": {"frequencies": (80, 400, 2000), "n_days": 500, "experiments": 2},
        "setup_probes": 3,
    },
    "smoke": {
        "fit-default": {"series": 2, "n_days": 131, "m": 80, "hurst": 0.1, "eta": 1.0,
                        "starts": ((0.1, 0.5), (0.3, 0.5))},
        "mc-cell": {"n_paths": 2, "n_days": 200, "substeps": 1},
        "zscore-grid": {"ms": (4, 8), "n_days": 100, "seeds_per_m": 1},
        "illusion": {"frequencies": (8, 16), "n_days": 100, "experiments": 1},
        "setup_probes": 1,
    },
}

DELTA = 1.0 / 250.0
INNER_STEPS = 16  # grid points per day in the fit-default input generator

# Acceptance-suite reference for the mc-cell: ((h mean, h var), (eta mean,
# eta var)) of the (0.1, 1.0, 80) cell, checked at 3.5 standard errors.
MC_REFERENCE = ((0.10527, 0.0003103), (1.0341, 0.0007719))
MC_CELL = (0.1, 1.0, 80)

# Fingerprint tolerance: hurst-like fields by absolute difference, every
# other real field relative to the recorded value.
TOLERANCE = 1e-6


def write_rv_csv(path: Path, seed: int, index: int, n_days: int, m: int, hurst: float,
                 eta: float) -> None:
    """Daily realized variance of series ``index`` of ``seed`` from the
    benchmark's own generator.

    Log variance is c + eta * fBm on a grid of ``INNER_STEPS`` points per day
    (fractional Gaussian noise by circulant embedding, real part of one
    complex FFT); each day's integrated variance is the mean of exp(log
    variance) over its points times delta, and the realized variance carries
    multiplicative proxy noise with log-variance 2/m. Kept apart from
    ``roughvol.fracsim`` so that changes to the package's simulator cannot
    change this input.
    """
    rng = np.random.default_rng([seed, 0xF17, index])
    n = n_days * INNER_STEPS
    lag = np.arange(n + 1, dtype=float)
    two_h = 2.0 * hurst
    gamma = 0.5 * ((lag + 1.0) ** two_h - 2.0 * lag**two_h + np.abs(lag - 1.0) ** two_h)
    eig = np.clip(np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real, 0.0, None)
    noise = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    fgn = np.fft.fft(np.sqrt(eig / (2 * n)) * noise)[:n].real
    step = DELTA / INNER_STEPS
    log_var = -3.2 + eta * step**hurst * np.cumsum(fgn)
    integrated = np.exp(log_var).reshape(n_days, INNER_STEPS).mean(axis=1) * DELTA
    rv = integrated * np.exp(math.sqrt(2.0 / m) * rng.standard_normal(n_days) - 1.0 / m)
    lines = ["date,rv"] + [f"{day},{value:.17g}" for day, value in enumerate(rv, 1)]
    path.write_text("\n".join(lines) + "\n")


class Workload:
    """One named workload at one scale and seed."""

    name = ""
    parallel = False

    def __init__(self, seed: int, sizes: dict, workdir: Path, roughvol):
        """``roughvol`` is the imported package; calls go through its module
        attributes so that the traced run can wrap them."""
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.rv = roughvol

    def prepare(self) -> None:
        """Input generation; counted in set-up time."""

    def cleanup(self) -> None:
        """Remove what ``prepare`` and the rounds wrote."""

    def run_round(self, workers: int) -> tuple[list, list[float]]:
        """Run every operation once; returns (outputs, seconds per operation)."""
        raise NotImplementedError

    def fingerprint(self, output) -> dict:
        """The numbers of one operation's output that must reproduce."""
        return dict(output)

    def failure(self, output) -> str | None:
        """Why the operation failed (exited with an error, or a fit did not
        converge), or None. A failed operation still counts as correct when
        its output passes every check."""
        return None

    def problems(self, output) -> list[str]:
        """Violations of invariants that hold for every seed, for one output."""
        return []

    def reference_problems(self, output) -> list[str]:
        """Extra checks applied where fingerprints are recorded."""
        return []

    def steps_per_round(self) -> int:
        return 0

    def paths_per_round(self) -> int:
        return 0


class FitDefault(Workload):
    """One ``estimate`` per series; a round fits every series once, so the
    work in a round depends less on the seed than a single fit does (the
    optimizer's evaluation count varies by about 8% between series)."""

    name = "fit-default"

    def __init__(self, *args):
        super().__init__(*args)
        tag = f"{self.name}-{os.getpid()}"
        self.csvs = [self.workdir / f"{tag}-{i}.csv" for i in range(self.sizes["series"])]
        self.out = self.workdir / f"{tag}.out.csv"
        self.starts = self.workdir / f"{tag}.starts.csv"

    def prepare(self):
        s = self.sizes
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.argvs = []
        for i, csv in enumerate(self.csvs):
            write_rv_csv(csv, self.seed, i, s["n_days"], s["m"], s["hurst"], s["eta"])
            self.argvs.append(["estimate", "--rv", str(csv), "--m", str(s["m"]),
                               "--out", str(self.out)])
        if s["starts"]:
            rows = "".join(f"{h!r},{nu!r}\n" for h, nu in s["starts"])
            self.starts.write_text("h,nu\n" + rows)
            for argv in self.argvs:
                argv += ["--starts", str(self.starts)]

    def cleanup(self):
        for path in (*self.csvs, self.out, self.starts):
            path.unlink(missing_ok=True)

    def run_round(self, workers):
        outputs, times = [], []
        for argv in self.argvs:
            out, elapsed = self._estimate(argv)
            outputs.append(out)
            times.append(elapsed)
        return outputs, times

    def _estimate(self, argv):
        self.out.unlink(missing_ok=True)
        start = CLOCK()
        code = self.rv.cli.dispatch(argv)
        elapsed = CLOCK() - start
        if code != 0:
            return {"error": f"estimate exited with code {code}"}, elapsed
        header, row = self.out.read_text().splitlines()[:2]
        fields = dict(zip(header.split(","), row.split(",")))
        out = {key: float(fields[key]) for key in ("h_hat", "nu_hat", "eta_hat", "objective")}
        out["converged"] = fields["converged"] == "true"
        return out, elapsed

    def fingerprint(self, out):
        return {key: out.get(key) for key in ("h_hat", "eta_hat", "objective")}

    def failure(self, out):
        if "error" in out:
            return out["error"]
        return None if out["converged"] else "estimate did not converge"

    def problems(self, out):
        if "error" in out:
            return [f"no result to check: {out['error']}"]
        if not (0.0 < out["h_hat"] < 1.0 and math.isfinite(out["objective"])):
            return [f"estimate out of range: {out}"]
        return []


class McCell(Workload):
    name = "mc-cell"
    parallel = True

    def prepare(self):
        s = self.sizes
        h0, eta0, m = MC_CELL
        self.config = self.rv.McConfig(
            h0_list=(h0,), eta0_list=(eta0,), m_list=(m,),
            n_paths=s["n_paths"], n_days=s["n_days"], delta=DELTA,
            substeps=s["substeps"], base_seed=self.seed, start_at_truth=True,
        )

    def run_round(self, workers):
        start = CLOCK()
        report = self.rv.harness.run_mc_table(self.config, workers=workers)
        elapsed = CLOCK() - start
        cell = report.cells[0]
        keys = ("h_mean", "h_var", "eta_mean", "eta_var", "n_converged", "n_failed")
        return [{key: getattr(cell, key) for key in keys}], [elapsed]

    def failure(self, cell):
        if cell["n_converged"] != self.config.n_paths:
            return f"{cell['n_failed']} of {self.config.n_paths} paths failed or did not converge"
        return None

    def reference_problems(self, cell):
        """Cell means against the acceptance reference at 3.5 standard errors."""
        n = self.config.n_paths
        misses = []
        for (mean, var), key in zip(MC_REFERENCE, ("h_mean", "eta_mean")):
            if abs(cell[key] - mean) > 3.5 * math.sqrt(var / n):
                misses.append(f"{key}={cell[key]!r} outside 3.5 SE of {mean}")
        return misses

    def steps_per_round(self):
        c = self.config
        return c.n_paths * c.n_days * c.m_list[0] * c.substeps

    def paths_per_round(self):
        return self.config.n_paths


class ZscoreGrid(Workload):
    name = "zscore-grid"

    def prepare(self):
        s = self.sizes
        self.tasks = [
            (m, int(np.random.SeedSequence([self.seed, m, j]).generate_state(1)[0]))
            for m in s["ms"]
            for j in range(s["seeds_per_m"])
        ]

    def run_round(self, workers):
        outputs, times = [], []
        for m, seed in self.tasks:
            start = CLOCK()
            result = self.rv.harness.run_zscore_experiment(m=m, n_days=self.sizes["n_days"], seed=seed)
            times.append(CLOCK() - start)
            outputs.append({
                "m": m, "seed": seed, "sample_variance": result.sample_variance,
                "lag1_autocorr": result.lag1_autocorr, "skewness": result.skewness,
            })
        return outputs, times

    def problems(self, row):
        if not (row["sample_variance"] > 0.0 and abs(row["lag1_autocorr"]) < 1.0
                and math.isfinite(row["skewness"])):
            return [f"implausible z-score row {row}"]
        return []

    def steps_per_round(self):
        return sum(m * self.sizes["n_days"] for m, _ in self.tasks)


class Illusion(Workload):
    """A round runs one experiment per derived seed; like fit-default's
    series, several experiments make the round's work depend less on the
    seed."""

    name = "illusion"
    parallel = True

    def prepare(self):
        self.seeds = [
            int(np.random.SeedSequence([self.seed, j]).generate_state(1)[0])
            for j in range(self.sizes["experiments"])
        ]

    def run_round(self, workers):
        s = self.sizes
        keys = ("m", "scaling_h", "whittle_h", "whittle_eta")
        outputs, times = [], []
        for seed in self.seeds:
            start = CLOCK()
            rows = self.rv.harness.run_illusion_experiment(
                seed=seed, frequencies=s["frequencies"], n_days=s["n_days"], workers=workers,
            )
            times.append(CLOCK() - start)
            outputs.append({"rows": [{key: getattr(row, key) for key in keys} for row in rows]})
        return outputs, times

    def problems(self, output):
        return [
            f"implausible illusion row {row}" for row in output["rows"]
            if not (0.0 < row["whittle_h"] < 1.0 and math.isfinite(row["scaling_h"]))
        ]

    def steps_per_round(self):
        s = self.sizes
        return s["experiments"] * len(s["frequencies"]) * s["n_days"] * max(s["frequencies"])


WORKLOADS = {cls.name: cls for cls in (FitDefault, McCell, ZscoreGrid, Illusion)}


def _is_hurst(key: str) -> bool:
    return key in ("h_hat", "h_mean", "scaling_h", "whittle_h")


def compare(expected, actual, path: str = "") -> list[str]:
    """Differences between two fingerprints beyond the stated tolerance."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in expected for d in compare(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: {len(actual)} entries, expected {len(expected)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in compare(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or isinstance(actual, bool):
            return [f"{path}: {actual!r} is not a number"]
        key = path.rsplit(".", 1)[-1]
        scale = 1.0 if _is_hurst(key) else max(abs(expected), 1e-6)
        if not abs(actual - expected) <= TOLERANCE * scale:
            return [f"{path}: {actual!r} differs from recorded {expected!r}"]
        return []
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]
