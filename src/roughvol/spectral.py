"""Frequency-domain primitives for the log realized-variance increments.

The model spectral density combines the density ``f_h`` of day-averaged
fractional-noise increments (an alias sum truncated with a Paxson-style
tail correction) with a differenced measurement-noise floor ``ell``
weighted by 2/m. The periodogram follows the t = 1..n index convention
and is evaluated at arbitrary frequencies by Horner's rule in e^{i lambda},
or on progressions of step 2 pi k / N (uniform panels) by FFTs of length N.

The production density :func:`f_h_dense` works on a :class:`DenseNodes`,
a node set of frequency arrays holding everything the density needs that
does not depend on hurst; a caller that evaluates many hurst values on one
grid (the objective's quadrature levels) builds it once, and a plain array
of frequencies gets a node set built per call; :func:`f_h_slope` adds the
derivative in hurst from the same pass. :func:`f_h` sums the alias series
directly and is the reference the tests hold it to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.special import digamma, gammaln, zeta

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SpectralConfig:
    """Truncation and quadrature controls for the spectral objective.

    ``paxson_k`` alias-sum terms, ``taylor_j`` cosine-series terms in the
    low-frequency correction, ``psi`` the cut frequency below which the
    analytic corrections replace numerical integration.
    """

    paxson_k: int = 500
    taylor_j: int = 20
    psi: float = 1e-5
    quad_rel_tol: float = 1e-8
    quad_abs_tol: float = 1e-10

    def __post_init__(self):
        if self.paxson_k < 1:
            raise ValueError("paxson_k must be >= 1")
        if self.taylor_j < 1:
            raise ValueError("taylor_j must be >= 1")
        if not 0.0 < self.psi <= math.pi:
            raise ValueError("psi must be in (0, pi]")
        if self.quad_rel_tol <= 0.0 or self.quad_abs_tol <= 0.0:
            raise ValueError("quadrature tolerances must be positive")


def c_h(hurst: float) -> float:
    """Normalizing constant Gamma(2H+1) * sin(pi H) / (2 pi)."""
    if not 0.0 < hurst <= 1.0:
        raise ValueError(f"hurst must be in (0, 1], got {hurst}")
    return math.gamma(2.0 * hurst + 1.0) * math.sin(math.pi * hurst) / TWO_PI


def c_h_log_slope(hurst: float) -> float:
    """d log C_H / dH = 2 digamma(2H + 1) + pi cot(pi H), for hurst in (0, 1)."""
    return 2.0 * digamma(2.0 * hurst + 1.0) + math.pi / math.tan(math.pi * hurst)


def ell(lam):
    """Spectral density of a differenced unit-variance iid sequence,
    (1 - cos(lambda)) / pi, evaluated as 2 sin^2(lambda/2) / pi, which does
    not cancel at low frequency."""
    lam = np.asarray(lam, dtype=float)
    out = 2.0 * np.sin(0.5 * lam) ** 2 / math.pi
    return float(out) if out.ndim == 0 else out


def _alias_direct(lam1: np.ndarray, k_cut: int, exponent: float) -> np.ndarray:
    """sum_{k=1}^{K} (2 pi k + lambda)^(-s) + (2 pi k - lambda)^(-s), term by
    term, plus the trapezoid-style tail: half the sum of the exact integral
    tails started at k_cut and k_cut + 1."""
    k = np.arange(1, k_cut + 1, dtype=float)[:, None]
    alias = ((TWO_PI * k + lam1) ** (-exponent)).sum(axis=0)
    alias += ((TWO_PI * k - lam1) ** (-exponent)).sum(axis=0)
    s2 = exponent - 1.0  # tail integrals have exponent -(2+2H)
    d2_k = (TWO_PI * k_cut + lam1) ** (-s2) + (TWO_PI * k_cut - lam1) ** (-s2)
    d2_k1 = (TWO_PI * (k_cut + 1) + lam1) ** (-s2) + (TWO_PI * (k_cut + 1) - lam1) ** (-s2)
    return alias + 0.5 * (1.0 / (TWO_PI * s2)) * (d2_k + d2_k1)


# Exponents 2i of the 40 even-power terms in the exact binomial rearrangement
# of DenseNodes; enough for machine precision at |lambda|/(2 pi) <= 1/2.
_TWO_I = 2.0 * np.arange(40, dtype=float)


class DenseNodes:
    """A fixed frequency grid holding every part of the density that does
    not depend on hurst: arrays with one entry per node.

    The truncated alias sum and its Paxson tail are rearranged exactly as
    one even power series in u = lambda / (2 pi). Each pair of terms
    expands by the binomial series (2 pi k + lambda)^(-s) + (2 pi k -
    lambda)^(-s) = 2 (2 pi k)^(-s) sum_i binom(s+2i-1, 2i) (u/k)^(2i) for
    |u| < k; over k = 1..K these give partial zeta sums, and the tail
    terms (exponent s - 1 at k = K and K + 1) give two powers each, so the
    40 coefficients depend on (H, K) only. The grid keeps |lambda|, ratio2
    = (2(1 - cos lambda)/lambda^2)^2 = sinc(u)^4, lambda^4 and u^2. One
    density evaluation is then 40 coefficients from ``gammaln`` and
    ``zeta``, Horner's rule in u^2 (39 multiply-adds, no BLAS call) and
    one power |lambda|^(1-2H). Build one per grid and pass it to
    :func:`f_h_dense` in place of the frequencies.
    """

    def __init__(self, lam, paxson_k: int = SpectralConfig.paxson_k):
        if paxson_k < 1:
            raise ValueError("paxson_k must be >= 1")
        lam1 = np.abs(np.asarray(lam, dtype=float)).reshape(-1)
        if np.any(lam1 > math.pi * (1.0 + 1e-12)):
            raise ValueError("lambda must lie in [-pi, pi]")
        self.paxson_k = paxson_k
        self.shape = np.shape(lam)
        self.lam1 = lam1
        self.at_origin = bool(np.any(lam1 == 0.0))
        self.ratio2 = np.sinc(lam1 / TWO_PI) ** 4
        self.lam4 = lam1**4
        self.u2 = (lam1 / TWO_PI) ** 2

    def alias_sum(self, exponent: float, slope: bool = False) -> np.ndarray:
        """The truncated alias sum at ``exponent`` = 3 + 2H plus its
        trapezoid-style tail, as one power series in the stored u^2; with
        ``slope``, a second row of its derivative in the exponent."""
        coef = _alias_coefficients(exponent, self.paxson_k, slope)  # (40,) or (40, 2, 1)
        acc = np.empty(coef.shape[1:-1] + self.u2.shape)
        acc[...] = coef[-1]
        for c in coef[-2::-1]:
            acc *= self.u2
            acc += c
        return acc


def _alias_coefficients(exponent: float, k_cut: int, slope: bool) -> np.ndarray:
    """The 40 coefficients of :meth:`DenseNodes.alias_sum`, or with ``slope``
    each beside its derivative in the exponent, shape (40, 2, 1): the partial
    zeta sums give -sum_{k<=K} log k k^(-s-2i), the binomials ``digamma``."""
    s2 = exponent - 1.0  # tail integrals: exponent -(2+2H)
    powers, tail_powers = exponent + _TWO_I, s2 + _TWO_I
    binom = np.exp(gammaln(powers) - gammaln(_TWO_I + 1.0) - gammaln(exponent))
    tail_binom = np.exp(gammaln(tail_powers) - gammaln(_TWO_I + 1.0) - gammaln(s2))
    zeta_partial = zeta(powers) - zeta(powers, k_cut + 1.0)  # sum_{k<=K} k^(-powers)
    at_k, at_k1 = k_cut ** -tail_powers, (k_cut + 1.0) ** -tail_powers
    tail = (at_k + at_k1) / s2
    scale = TWO_PI ** (-exponent)
    coef = scale * (2.0 * binom * zeta_partial + tail_binom * tail)
    if not slope:
        return coef
    log_k = np.log(np.arange(2.0, k_cut + 1.0))
    zeta_slope = -np.einsum("ik,k->i", np.exp(np.multiply.outer(-powers, log_k)), log_k)
    tail_slope = -(math.log(k_cut) * at_k + math.log(k_cut + 1.0) * at_k1 + tail) / s2
    coef_slope = scale * (
        2.0 * binom * ((digamma(powers) - digamma(exponent)) * zeta_partial + zeta_slope)
        + tail_binom * ((digamma(tail_powers) - digamma(s2)) * tail + tail_slope))
    return np.stack([coef, coef_slope - math.log(TWO_PI) * coef], axis=1)[:, :, None]


def _density(nodes: DenseNodes, hurst: float, alias_sum, slope: bool = False):
    """Validation and assembly shared by :func:`f_h`, :func:`f_h_dense` and
    (``slope``, with the derivative in hurst) :func:`f_h_slope`, which differ
    only in how ``alias_sum(exponent, slope)`` evaluates the alias series."""
    scale = c_h(hurst)  # also validates hurst
    if nodes.at_origin and (slope or hurst > 0.5):
        raise ValueError("f_h diverges at lambda = 0 for hurst > 1/2 and its hurst slope "
                         "is not taken there; exclude the origin")
    rows = alias_sum(3.0 + 2.0 * hurst, slope)
    alias = rows[0] if slope else rows
    # (2(1-cos))^2 * |lam|^(-3-2H) rewritten as ratio2 * |lam|^(1-2H) so the
    # origin is approached without overflow; 0**0 = 1 covers hurst = 1/2.
    power = nodes.lam1 ** (1.0 - 2.0 * hurst)
    out = scale * nodes.ratio2 * (power + nodes.lam4 * alias)
    if slope:  # the exponent 3 + 2H moves twice as fast as hurst
        slope_part = nodes.lam4 * rows[1] - np.log(nodes.lam1) * power
        return out, out * c_h_log_slope(hurst) + 2.0 * scale * nodes.ratio2 * slope_part
    return float(out[0]) if nodes.shape == () else out.reshape(nodes.shape)


def f_h(lam, hurst: float, paxson_k: int = SpectralConfig.paxson_k):
    """Spectral density of day-averaged fractional-noise increments.

    Computes C_H * (2(1-cos lambda))^2 * [ |lambda|^(-3-2H)
    + sum_{k=1}^{K} ((2 pi k + |lambda|)^(-3-2H) + (2 pi k - |lambda|)^(-3-2H))
    + tail correction ], the alias sum truncated at K = ``paxson_k`` with a
    trapezoidal tail estimate. Even in lambda.

    At lambda = 0 the analytic limit is returned for hurst <= 1/2 (zero for
    rough cases, C_H at exactly 1/2); for hurst > 1/2 the density diverges
    there and a ValueError is raised.

    Sums the K x len(lambda) terms directly: the reference that
    :func:`objective_oracle` and the tests hold :func:`f_h_dense` to.
    """
    nodes = DenseNodes(lam, paxson_k)
    return _density(nodes, hurst, lambda s, _: _alias_direct(nodes.lam1, paxson_k, s))


def f_h_dense(lam, hurst: float, paxson_k: int = SpectralConfig.paxson_k):
    """Same value as :func:`f_h`, optimized for large frequency grids.

    The production density. ``lam`` is either the frequencies or a
    :class:`DenseNodes` built from them with the same ``paxson_k``; given
    frequencies, the node set is built here. Callers that evaluate many
    hurst values on one grid build the node set once, so each call does
    only the hurst-dependent work. Agrees with the direct form to roundoff.
    """
    nodes = lam if isinstance(lam, DenseNodes) else DenseNodes(lam, paxson_k)
    if nodes.paxson_k != paxson_k:
        raise ValueError(
            f"node set was built with paxson_k={nodes.paxson_k}, not {paxson_k}"
        )
    return _density(nodes, hurst, nodes.alias_sum)


def f_h_slope(nodes: DenseNodes, hurst: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`f_h_dense` on a node set without the origin and its derivative in
    hurst, flat arrays from one Horner pass over both rows of the alias series."""
    return _density(nodes, hurst, nodes.alias_sum, slope=True)


def validate_nu(nu: float) -> None:
    """The one check of the volatility scale: positive and finite (a nan passes ``nu <= 0``)."""
    if not 0.0 < nu < math.inf:
        raise ValueError(f"nu must be positive and finite, got {nu}")


def g_spectrum(lam, hurst: float, nu: float, m: int,
               paxson_k: int = SpectralConfig.paxson_k):
    """Model spectral density nu^2 * f_h + (2/m) * ell; positive on (0, pi]."""
    validate_nu(nu)
    if m < 1:
        raise ValueError("m must be >= 1")
    return nu**2 * f_h_dense(lam, hurst, paxson_k) + (2.0 / m) * ell(lam)


def periodogram_progressions(y, lam, size: int, stride: int) -> np.ndarray:
    """:func:`periodogram` at a (count, G) array ``lam`` whose columns step by
    about 2 pi stride / size, for size >= len(y). Up to a unit factor, sum_t
    y_t e^{i t lambda} at lam[0, g] + 2 pi stride j / size is entry stride * j
    of the unnormalized inverse DFT of length ``size`` of y_{u+1} e^{i u lam[0, g]};
    a second batched FFT, of u y_{u+1} e^{i u lam[0, g]}, carries each sum the
    distance delta to lam[j, g], to first order in n delta. Only the needed
    entries of each transform are kept."""
    y, lam = np.asarray(y, dtype=float), np.asarray(lam, dtype=float)
    step = stride * 2 * np.longdouble("3.14159265358979323846264338327950288") / size
    delta = (lam - (lam[0] + np.arange(len(lam))[:, None] * step)).astype(float)  # in long double
    if np.max(np.abs(delta), initial=0.0) * len(y) > 1e-6:
        raise ValueError("lam does not lie on progressions of step 2 pi stride / size")
    u = np.arange(len(y))
    modulated = y * np.exp(1j * np.outer(lam[0], u))
    sums, slopes = [scipy.fft.ifft(x, size, norm="forward")[:, :stride * len(lam):stride].T.copy()
                    for x in (modulated, u * modulated)]
    return np.abs(sums + 1j * delta * slopes) ** 2 / (TWO_PI * len(y))


def periodogram(y, lam):
    """|sum_{t=1..n} y_t exp(i t lambda)|^2 / (2 pi n) at arbitrary lambda.

    Evaluated by Horner's rule in z = e^{i lambda} (one pass over y per
    call, vectorized across frequencies), which is stable on |z| = 1, so
    any lambda is admissible, not just Fourier grid points. Nonnegative
    and even in lambda. Its error is absolute, roundoff times the mean of
    I (under 1e-12 of it at n = 20,000), so near a zero of I it is large
    relative to I: about 3e-9 where I is 1e-7 of its mean.
    """
    y = np.asarray(y)
    if y.ndim != 1 or len(y) < 1:
        raise ValueError("y must be a nonempty 1-d sequence")
    scalar = np.isscalar(lam) or np.ndim(lam) == 0
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))

    # acc = sum_t y_t z^(t-1); the dropped factor z has modulus 1.
    z = np.exp(1j * lam_arr)
    acc = np.zeros(lam_arr.shape, dtype=complex)
    for y_t in y[::-1]:
        acc *= z
        acc += y_t
    out = np.abs(acc) ** 2 / (TWO_PI * len(y))
    return float(out[0]) if scalar else out.reshape(np.shape(lam))


def autocovariance_hat(y) -> np.ndarray:
    """Biased sample autocovariance (1/n) sum y_t y_{t+tau}, tau = 0..n-1.

    Computed with a zero-padded FFT; identical to the direct summation up
    to roundoff.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or len(y) < 1:
        raise ValueError("y must be a nonempty 1-d sequence")
    n = len(y)
    size = scipy.fft.next_fast_len(2 * n)
    spec = np.abs(scipy.fft.rfft(y, size)) ** 2
    return scipy.fft.irfft(spec, size)[:n] / n
