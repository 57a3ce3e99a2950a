"""Batch experiments: Monte Carlo estimator tables, the illusive-roughness
comparison, and proxy-error z-score checks.

Every path seed derives from a stable mix of the base seed, the cell
parameters and the path index, so results are reproducible bit for bit,
adding grid cells never perturbs existing ones, and no number depends on
worker-pool scheduling or the BLAS thread count (the objective calls no BLAS).

Functions here return records, failure reasons included; only ``cli`` prints.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fracsim import FouSpec, SynthesisError, VolatilityOverflowError, simulate_fou_price
from .ingest import DEFAULT_DELTA
from .proxy import RvSeries, error_zscores, integrated_variance, log_rv_increments, realized_variance
from .scaling import fit_scaling
from .whittle import START_ERRORS, AllStartsFailedError, estimate

DEFAULT_ALPHA = 0.001
DEFAULT_C = -3.2

# Dynamics for the illusive-roughness experiment: a genuinely smooth
# (hurst = 1/2) strongly mean-reverting volatility whose 5-minute realized
# volatility nevertheless regresses as rough.
ILLUSION_HURST = 0.5
ILLUSION_ETA = 0.8
ILLUSION_ALPHA = 10.0
ILLUSION_C = -3.2
# Its default design: intraday counts analyzed, and days simulated.
ILLUSION_FREQUENCIES = (80, 400, 2000)
ILLUSION_N_DAYS = 2500

# Dynamics for the z-score check: volatility nearly constant within each
# day, where the 2/m limit of the scaled proxy error is sharp at practical m.
ZSCORE_HURST = 0.5
ZSCORE_ETA = 0.5

# Reduced multi-start grid for experiment fits, covering rough through
# smooth starts and a wide nu range.
_EXPERIMENT_START_H = (0.1, 0.5, 0.9)
_EXPERIMENT_START_NU = (0.05, 0.5, 2.0)


def intraday_counts(values) -> tuple[int, ...]:
    """``values`` as ints: whole numbers from 1 up such as ``80.0`` or ``4e2``
    pass, any other value raises ``ValueError`` naming it."""
    values = tuple(values)
    bad = [str(v) for v in values if not float(v).is_integer() or float(v) < 1]
    if bad:
        raise ValueError(f"intraday counts must be positive whole numbers, got {', '.join(bad)}")
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo grid over (true hurst, true eta, intraday count)."""

    h0_list: tuple = (0.1,)
    eta0_list: tuple = (1.0,)
    m_list: tuple = (80,)
    n_paths: int = 30
    n_days: int = 2500
    delta: float = DEFAULT_DELTA
    alpha: float = DEFAULT_ALPHA
    c: float = DEFAULT_C
    base_seed: int = 0
    substeps: int = 4  # simulation steps per intraday return
    start_at_truth: bool = True

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not self.h0_list or not self.eta0_list or not self.m_list:
            raise ValueError("parameter grids must be nonempty")
        object.__setattr__(self, "h0_list", tuple(float(h) for h in self.h0_list))
        object.__setattr__(self, "eta0_list", tuple(float(e) for e in self.eta0_list))
        object.__setattr__(self, "m_list", intraday_counts(self.m_list))

    def cells(self) -> list[tuple[float, float, int]]:
        return [
            (h0, eta0, m)
            for h0 in self.h0_list
            for eta0 in self.eta0_list
            for m in self.m_list
        ]


@dataclass(frozen=True)
class CellStats:
    """Aggregates over the converged fits of one grid cell."""

    h0: float
    eta0: float
    m: int
    n_paths: int
    n_converged: int
    n_failed: int
    h_mean: float
    h_var: float
    eta_mean: float
    eta_var: float
    failed: bool  # more than 20% of paths unusable
    failures: tuple[str, ...] = ()  # "path <i>: <reason>" per unusable path


@dataclass(frozen=True)
class McReport:
    cells: tuple
    base_seed: int
    wall_time: float  # whole run, seconds; not in file outputs


@dataclass(frozen=True)
class IllusionRow:
    m: int
    scaling_h: float
    whittle_h: float
    whittle_eta: float


@dataclass(frozen=True)
class ZscoreResult:
    m: int
    n_days: int
    sample_variance: float
    lag1_autocorr: float
    skewness: float


def derive_path_seed(base_seed: int, h0: float, eta0: float, m: int, path_index: int) -> int:
    """Stable 64-bit seed for one (cell, path); mixes the float bit patterns
    so nearby parameter values map to unrelated streams."""
    h_bits = int(np.float64(h0).view(np.uint64))
    e_bits = int(np.float64(eta0).view(np.uint64))
    seq = np.random.SeedSequence([int(base_seed), h_bits, e_bits, int(m), int(path_index)])
    return int(seq.generate_state(1, dtype=np.uint64)[0])


# What may fail one Monte Carlo path and leave the cell standing; any other
# exception is a fault and propagates out of run_mc_table.
_PATH_ERRORS = START_ERRORS + (AllStartsFailedError, SynthesisError, VolatilityOverflowError)


def _fit_one_path(config: McConfig, h0: float, eta0: float, m: int, path_index: int):
    seed = derive_path_seed(config.base_seed, h0, eta0, m, path_index)
    spec = FouSpec(
        hurst=h0, eta=eta0, alpha=config.alpha, c=config.c, delta=config.delta,
        m=m, n_days=config.n_days, seed=seed, substeps=config.substeps,
    )
    try:
        _, log_price = simulate_fou_price(spec)
        rv = realized_variance(log_price, m, config.delta)
        y = log_rv_increments(rv)
        if config.start_at_truth:
            starts = [(h0, eta0 * config.delta**h0)]
        else:
            starts = None
        fit = estimate(y, starts=starts)
    except _PATH_ERRORS as exc:  # a failed path must not sink the whole cell
        return (path_index, None, None, f"{type(exc).__name__}: {exc}")
    if not fit.converged:
        return (path_index, fit.h_hat, fit.eta_hat, "not converged")
    return (path_index, fit.h_hat, fit.eta_hat, None)


def _map(fn, tasks, workers: int, chunksize: int = 1) -> list:
    """``[fn(*task) for task in tasks]``, in task order: in this process for
    one worker, else in a pool of ``workers`` processes."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    columns = zip(*tasks)  # one sequence per argument of fn
    if workers == 1:
        return list(map(fn, *columns))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *columns, chunksize=chunksize))


def run_mc_table(config: McConfig, workers: int = 1) -> McReport:
    """Simulate, proxy and estimate every (cell, path); aggregate per cell,
    with the reason each unusable path gave in ``CellStats.failures``.

    The reduction is a deterministic fold over path indices, so serial and
    parallel runs produce identical reports. Raises ``ValueError`` for
    ``workers < 1``, and any exception of a path that is not one of
    ``_PATH_ERRORS``.
    """
    tasks = [
        (config, h0, eta0, m, p)
        for (h0, eta0, m) in config.cells()
        for p in range(config.n_paths)
    ]
    started = time.monotonic()
    results = _map(_fit_one_path, tasks, workers, chunksize=4)
    total_time = time.monotonic() - started
    cells = []
    for index, (h0, eta0, m) in enumerate(config.cells()):
        outcomes = results[index * config.n_paths:(index + 1) * config.n_paths]
        h_vals = np.array([o[1] for o in outcomes if o[3] is None], dtype=float)
        eta_vals = np.array([o[2] for o in outcomes if o[3] is None], dtype=float)
        n_converged = len(h_vals)
        failures = tuple(f"path {o[0]}: {o[3]}" for o in outcomes if o[3] is not None)
        ddof = 1 if n_converged > 1 else 0
        cells.append(
            CellStats(
                h0=h0,
                eta0=eta0,
                m=m,
                n_paths=config.n_paths,
                n_converged=n_converged,
                n_failed=len(failures),
                h_mean=float(h_vals.mean()) if n_converged else float("nan"),
                h_var=float(h_vals.var(ddof=ddof)) if n_converged else float("nan"),
                eta_mean=float(eta_vals.mean()) if n_converged else float("nan"),
                eta_var=float(eta_vals.var(ddof=ddof)) if n_converged else float("nan"),
                failed=len(failures) > 0.2 * config.n_paths,
                failures=failures,
            )
        )
    return McReport(cells=tuple(cells), base_seed=config.base_seed, wall_time=total_time)


def _illusion_one(rv: RvSeries) -> IllusionRow:
    scal = fit_scaling(0.5 * np.log(rv.values))
    starts = [(h, v) for h in _EXPERIMENT_START_H for v in _EXPERIMENT_START_NU]
    fit = estimate(log_rv_increments(rv), starts=starts)
    return IllusionRow(m=rv.m, scaling_h=scal.h_estimate,
                       whittle_h=fit.h_hat, whittle_eta=fit.eta_hat)


def run_illusion_experiment(
    seed: int,
    frequencies=ILLUSION_FREQUENCIES,
    n_days: int = ILLUSION_N_DAYS,
    workers: int = 1,
) -> list[IllusionRow]:
    """One simulated smooth-volatility price path, analyzed at several
    realized-variance frequencies with both methods.

    The path is simulated once from ``seed``, in this process, on the grid
    of the finest frequency; each frequency subsamples it into one daily
    realized-variance series, and only the regression and spectral fits
    of those series run as tasks. The regression exponent collapses as
    sampling coarsens while the spectral estimate stays near 1/2. Raises
    ``ValueError`` for ``workers < 1``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    frequencies = sorted(intraday_counts(frequencies))
    if not frequencies:
        raise ValueError("frequencies must be nonempty")
    m_grid = frequencies[-1]
    for m in frequencies:
        if m_grid % m != 0:
            raise ValueError(
                f"every frequency must divide the finest one; {m} does not divide {m_grid}"
            )
    spec = FouSpec(
        hurst=ILLUSION_HURST, eta=ILLUSION_ETA, alpha=ILLUSION_ALPHA, c=ILLUSION_C,
        delta=DEFAULT_DELTA, m=m_grid, n_days=n_days, seed=seed,
    )
    log_price = simulate_fou_price(spec)[1]
    series = [(realized_variance(log_price, m, DEFAULT_DELTA),) for m in frequencies]
    del log_price  # the pool's workers need only the daily series
    return _map(_illusion_one, series, workers)


def run_zscore_experiment(m: int, n_days: int, seed: int) -> ZscoreResult:
    """Distribution check of the scaled log proxy error.

    Simulates the model, computes sqrt(m) * (log realized variance - log
    integrated variance) per day and reports its sample variance (limit 2),
    lag-1 autocorrelation (limit 0) and skewness (limit 0).

    The dynamics (``ZSCORE_*``) keep volatility nearly constant within each
    day. Rough settings (small hurst with large eta) inflate the variance
    above 2 at any fixed day length because the volatility then moves
    materially inside a day; that finite-resolution effect is real, not an
    artifact.
    """
    spec = FouSpec(
        hurst=ZSCORE_HURST, eta=ZSCORE_ETA, alpha=DEFAULT_ALPHA, c=DEFAULT_C,
        delta=DEFAULT_DELTA, m=m, n_days=n_days, seed=seed,
    )
    log_var, log_price = simulate_fou_price(spec)
    rv = realized_variance(log_price, m, DEFAULT_DELTA)
    iv = integrated_variance(log_var, DEFAULT_DELTA)
    z = error_zscores(rv, iv)
    centered = z - z.mean()
    variance = float(np.var(z, ddof=1))
    lag1 = float((centered[:-1] @ centered[1:]) / (centered @ centered))
    skew = float(np.mean(centered**3) / np.mean(centered**2) ** 1.5)
    return ZscoreResult(
        m=m, n_days=n_days, sample_variance=variance,
        lag1_autocorr=lag1, skewness=skew,
    )
