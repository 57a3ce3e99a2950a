"""Fractional Gaussian noise synthesis and fractional Ornstein-Uhlenbeck
price simulation on a uniform grid.

The noise generator uses circulant embedding of the increment covariance
(Dietrich & Newsam 1997): exact in distribution, one real FFT per draw,
O(N log N); an indefinite embedding (an eigenvalue below a small negative
tolerance) raises SynthesisError.
Log-variance follows a mean-reverting Euler recursion driven by the
fractional noise, and the log-price accumulates conditionally Gaussian
returns driven by an independent Brownian stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import lfilter

# Fixed offsets deriving independent generator streams from one seed, so the
# volatility and price noises are independent by construction.
_FGN_STREAM = 0
_VOL_STREAM = 1
_PRICE_STREAM = 2

# Embedding eigenvalues below this make synthesis fail; tiny negative values
# above it are clipped to zero as floating-point noise.
_EIG_TOLERANCE = -1e-10

# Simulation raises VolatilityOverflowError once |log variance| passes this.
_LOGVAR_BOUND = 50.0

PATH_KINDS = ("log_price", "log_variance", "fgn")


class SynthesisError(RuntimeError):
    """Noise synthesis failed: the circulant embedding is indefinite."""


class VolatilityOverflowError(RuntimeError):
    """|log variance| escaped its safety bound during simulation."""


def intraday_counts(values) -> tuple[int, ...]:
    """``values`` as ints: whole numbers from 1 up such as ``80.0`` or ``4e2``
    pass, any other value raises ``ValueError`` naming it."""
    values = tuple(values)
    bad = [str(v) for v in values if not float(v).is_integer() or float(v) < 1]
    if bad:
        raise ValueError(f"intraday counts must be positive whole numbers, got {', '.join(bad)}")
    return tuple(int(float(v)) for v in values)


@dataclass(frozen=True, eq=False)
class GridPath:
    """Uniformly sampled trajectory with step-size and origin metadata.

    ``kind`` is one of ``log_price``, ``log_variance`` (path levels) or
    ``fgn`` (raw noise increments).
    """

    values: np.ndarray
    dt: float
    t0: float = 0.0
    kind: str = "log_price"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.kind not in PATH_KINDS:
            raise ValueError(f"unknown path kind {self.kind!r}")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        min_len = 1 if self.kind == "fgn" else 2
        if values.ndim != 1 or len(values) < min_len:
            raise ValueError(f"{self.kind} path needs >= {min_len} values")
        if not np.all(np.isfinite(values)):
            raise ValueError("path values must all be finite")

    def __len__(self):
        return len(self.values)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.values))


@dataclass(frozen=True)
class FgnSpec:
    """Fractional Gaussian noise request: ``n_steps`` increments with
    variance ``dt**(2*hurst)`` each."""

    hurst: float
    n_steps: int
    dt: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.hurst <= 1.0:
            raise ValueError(f"hurst must be in (0, 1], got {self.hurst}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class FouSpec:
    """Mean-reverting fractional volatility model on a daily grid.

    Log-variance solves d(log sigma^2) = alpha*(c - log sigma^2) du
    + eta dW^H, discretized with step ``delta / (m * substeps)``; the price
    has zero drift and accumulates sigma dB with B independent of W^H.
    """

    hurst: float
    eta: float
    alpha: float
    c: float
    delta: float
    m: int
    n_days: int
    seed: int
    logvar0: float | None = None  # defaults to the long-run mean c
    s0: float = 100.0
    substeps: int = 1

    def __post_init__(self):
        if not 0.0 < self.hurst <= 1.0:
            raise ValueError(f"hurst must be in (0, 1], got {self.hurst}")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        object.__setattr__(self, "m", intraday_counts((self.m,))[0])
        if self.n_days < 1:
            raise ValueError("n_days must be >= 1")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if self.s0 <= 0.0:
            raise ValueError("s0 must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")

    @property
    def start_logvar(self) -> float:
        return self.c if self.logvar0 is None else self.logvar0


def fgn_autocovariance(hurst, lag):
    """Autocovariance of unit-step, unit-variance fractional Gaussian noise.

    gamma(tau) = ((|tau|+1)^(2H) - 2|tau|^(2H) + ||tau|-1|^(2H)) / 2.
    Accepts a scalar or array lag. From |tau| = 2 on, where those terms
    nearly cancel, it is evaluated as tau^(2H) (expm1(s) (1 + q) + q) with
    x = 1/tau, s = H log1p(-x^2) and q = 2 sinh(H atanh(x))^2, whose parts
    are of order x^2: full relative precision for H away from 1/2.
    """
    if not 0.0 < hurst <= 1.0:
        raise ValueError(f"hurst must be in (0, 1], got {hurst}")
    tau = np.abs(np.asarray(lag, dtype=float))
    h2 = 2.0 * hurst
    gamma = np.empty_like(tau)
    near = tau < 2.0
    t = tau[near]
    gamma[near] = 0.5 * ((t + 1.0) ** h2 - 2.0 * t**h2 + np.abs(t - 1.0) ** h2)
    t = tau[~near]
    x = 1.0 / t
    q = 2.0 * np.sinh(hurst * np.arctanh(x)) ** 2
    gamma[~near] = t**h2 * (np.expm1(hurst * np.log1p(-x * x)) * (1.0 + q) + q)
    return float(gamma) if gamma.ndim == 0 else gamma


@lru_cache(maxsize=8)
def _circulant_eigenvalues(hurst: float, n: int) -> np.ndarray:
    # Eigenvalues 0..n of the 2n circulant with first row gamma(0..n),
    # gamma(n-1..1) embedding the covariance; eigenvalue 2n - k equals k.
    gamma = fgn_autocovariance(hurst, np.arange(n + 1))
    eig = np.fft.hfft(gamma)[: n + 1].copy()  # keep no view of the mirrored half
    eig.flags.writeable = False
    return eig


def _fgn_unit_increments(hurst: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n stationary fGn values with unit variance and exact covariance."""
    eig = _circulant_eigenvalues(hurst, n)
    if eig.min() < _EIG_TOLERANCE:
        raise SynthesisError(
            f"circulant embedding indefinite for hurst={hurst}, n={n}: "
            f"min eigenvalue {eig.min():.3e}"
        )
    # Free coefficients 0..n of a Hermitian 2n-vector of unit variance:
    # real at 0 and n, one (real, imaginary) row of normals in between.
    half = np.empty(n + 1, dtype=complex)
    half[[0, n]] = rng.standard_normal(2)
    half[1:n] = rng.standard_normal((n - 1, 2)).view(complex)[:, 0] / np.sqrt(2.0)
    half *= np.sqrt(np.clip(eig, 0.0, None))
    # Its forward FFT is real: 2n times the inverse real FFT of the conjugate.
    return np.fft.irfft(np.conj(half, out=half), 2 * n)[:n] * np.sqrt(2 * n)


def simulate_fgn(spec: FgnSpec) -> GridPath:
    """Sample fractional Gaussian noise increments on the grid.

    Each increment is N(0, dt^(2H)); the joint law is stationary Gaussian
    with autocovariance dt^(2H) * fgn_autocovariance. Deterministic given
    the seed.
    """
    rng = np.random.default_rng([spec.seed, _FGN_STREAM])
    unit = _fgn_unit_increments(spec.hurst, spec.n_steps, rng)
    return GridPath(spec.dt**spec.hurst * unit, dt=spec.dt, kind="fgn")


def simulate_fou_price(spec: FouSpec) -> tuple[GridPath, GridPath]:
    """Simulate (log-variance, log-price) on a grid of n_days*m*substeps steps.

    The recursion is logvar[k+1] = logvar[k] + alpha*(c - logvar[k])*dt
    + eta*dW[k] with dW fractional noise of step dt = delta/(m*substeps);
    with alpha = 0 this reproduces logvar0 + eta*fBm with no drift error.
    Returns per-step paths of length n_days*m*substeps + 1.
    """
    n_steps = spec.n_days * spec.m * spec.substeps
    dt = spec.delta / (spec.m * spec.substeps)

    rng_vol = np.random.default_rng([spec.seed, _VOL_STREAM])
    rng_price = np.random.default_rng([spec.seed, _PRICE_STREAM])

    dw = dt**spec.hurst * _fgn_unit_increments(spec.hurst, n_steps, rng_vol)
    decay = 1.0 - spec.alpha * dt
    drive = spec.alpha * spec.c * dt + spec.eta * dw

    logvar = np.empty(n_steps + 1)
    logvar[0] = spec.start_logvar
    # One-pole recursion y[k] = drive[k] + decay*y[k-1], run in C.
    logvar[1:] = lfilter([1.0], [1.0, -decay], drive, zi=[decay * logvar[0]])[0]

    worst = np.max(np.abs(logvar))
    if not np.isfinite(worst) or worst > _LOGVAR_BOUND:
        raise VolatilityOverflowError(
            f"|log variance| reached {worst:.3g}, beyond the bound "
            f"{_LOGVAR_BOUND:.3g}; check alpha, eta, dt"
        )

    sigma = np.exp(0.5 * logvar[:-1])
    db = np.sqrt(dt) * rng_price.standard_normal(n_steps)
    logprice = np.empty(n_steps + 1)
    logprice[0] = np.log(spec.s0)
    logprice[1:] = logprice[0] + np.cumsum(sigma * db)

    return (
        GridPath(logvar, dt=dt, kind="log_variance"),
        GridPath(logprice, dt=dt, kind="log_price"),
    )
