"""ReLU^k activation, its Legendre spectrum, and the induced dot-product kernel.

The spectrum coefficients c(m) = <p_m, relu_k>_{w_d} / ||p_m||^2 vanish
exactly outside the support set {0..k} union {m >= k+1 : m-k odd}.  For
m >= k+1 a closed form in Gamma functions is used (one log-Gamma expression,
finite past m ~ 170, that the majorant xi shares); for m <= k the
coefficients come from quadrature of the half-line weighted inner product,
which doubles as the independent oracle for the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import ContractError, DomainError, PrecisionError
from .harmonics import harmonic_dim, legendre_table, sphere_area

__all__ = [
    "sigma_k",
    "sigma_k_prime",
    "ActivationSpectrum",
    "spectrum",
    "sigma_hat_quadrature",
    "xi",
    "xi_forward_difference",
    "kernel",
    "expansion_residual",
]

EXTRA_NODES = 60  # Gauss-Legendre nodes beyond the degree in the t = cos(rho) integrals


def sigma_k(k: int, t, out: np.ndarray | None = None):
    """ReLU^k, i.e. max(0,t)^k.  For k=0 the value at t=0 is fixed to 1.

    One output array is allocated, or none when out is given (out may be t
    itself); the power is taken in place, and skipped for k=1.
    """
    if k < 0:
        raise ContractError("k must be >= 0")
    t = np.asarray(t, dtype=float)
    if k == 0:
        out = np.greater_equal(t, 0.0, out=np.empty_like(t) if out is None else out)
    else:
        out = np.maximum(t, 0.0, out=out)
        if k > 1:
            out **= k
    return float(out) if out.ndim == 0 else out


def sigma_k_prime(k: int, t, out: np.ndarray | None = None):
    """Derivative k * max(0,t)^{k-1}, defined as 0 for t <= 0.

    The k=0 case is distributional and unsupported.  Allocates at most
    one output array, as sigma_k does.
    """
    if k < 1:
        raise ContractError("derivative of ReLU^0 is distributional")
    t = np.asarray(t, dtype=float)
    if k == 1:
        out = np.greater(t, 0.0, out=np.empty_like(t) if out is None else out)
    else:
        out = np.maximum(t, 0.0, out=out)
        if k > 2:
            out **= k - 1
        out *= k
    return float(out) if out.ndim == 0 else out


def in_support(k: int, m) -> bool | np.ndarray:
    """Membership of m (an int or an integer array) in the spectrum support of ReLU^k."""
    return (m <= k) | ((m - k) % 2 == 1)


def _log_abs_sigma_hat(d: int, k: int, m) -> float | np.ndarray:
    """ln |sigma_hat(m)| for real m >= k+1, by Legendre's duplication formula:
    Gamma(m-k) 2^-m / Gamma((m-k+1)/2) = Gamma((m-k)/2) / (2^(k+1) sqrt(pi))."""
    pref = (
        math.log(sphere_area(d - 1))
        - math.log(sphere_area(d))
        + math.lgamma(k + 1)
        + math.lgamma(d / 2.0)
        - (k + 1) * math.log(2.0)
        - 0.5 * math.log(math.pi)
    )
    return pref + gammaln((m - k) / 2.0) - gammaln((m + d + k + 1) / 2.0)


def _sigma_hat_closed(d: int, k: int, m) -> float | np.ndarray:
    # valid for m >= k+1 with m-k odd; m an int or an integer array
    m = np.asarray(m)
    out = np.where((m - k - 1) // 2 % 2, -1.0, 1.0) * np.exp(_log_abs_sigma_hat(d, k, m))
    return float(out) if out.ndim == 0 else out


def _half_line_rule(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t and weights w with sum w f(t) ~ int_0^1 f(t) (1-t^2)^{(d-2)/2} dt.

    Substituting t = cos(rho) turns the integral into a smooth one over
    [0, pi/2] (the endpoint weight is absorbed exactly), where n-point
    Gauss-Legendre converges geometrically and avoids the cancellation
    floor a direct rule on t exhibits.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    rho = (x + 1.0) * (math.pi / 4.0)
    return np.cos(rho), (math.pi / 4.0) * w * np.sin(rho) ** (d - 1)


def sigma_hat_quadrature(d: int, k: int, m) -> float | np.ndarray:
    """Quadrature oracle for the Legendre coefficient of ReLU^k at degree m,
    an int or an integer array.

    Since relu_k vanishes on (-1,0), the inner product reduces to
    int_0^1 t^k p_m(t) (1-t^2)^{(d-2)/2} dt, taken for every m with one
    _half_line_rule of max(m) + k + EXTRA_NODES nodes.
    """
    m = np.asarray(m)
    top = int(np.max(m))
    t, w = _half_line_rule(d, top + k + EXTRA_NODES)
    inner = (t**k * legendre_table(d, top, t)[m]) @ w
    dims = np.vectorize(harmonic_dim, otypes=[float])(d, m)
    out = inner / (sphere_area(d) / sphere_area(d - 1) * dims)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ActivationSpectrum:
    """Legendre coefficients of ReLU^k on S^d up to degree m_max."""

    d: int
    k: int
    coefficients: np.ndarray = field(repr=False)

    @property
    def m_max(self) -> int:
        return len(self.coefficients) - 1

    @property
    def support(self) -> np.ndarray:  # boolean mask over 0..m_max
        return in_support(self.k, np.arange(self.m_max + 1))

    def coefficient(self, m: int) -> float:
        if m > self.m_max:
            raise ContractError(f"degree {m} exceeds m_max={self.m_max}")
        return float(self.coefficients[m])

    def support_degrees(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        hi = self.m_max if hi is None else min(hi, self.m_max)
        ms = np.arange(lo, hi + 1)
        return ms[self.support[lo : hi + 1]]


def spectrum(d: int, k: int, m_max: int) -> ActivationSpectrum:
    """Build the coefficient table for ReLU^k on S^d."""
    if m_max < k + 1:
        raise ContractError("m_max must be at least k+1")
    ms = np.arange(m_max + 1)
    closed = in_support(k, ms) & (ms > k)
    coeffs = np.zeros(m_max + 1)
    coeffs[closed] = _sigma_hat_closed(d, k, ms[closed])
    coeffs[: k + 1] = sigma_hat_quadrature(d, k, ms[: k + 1])
    return ActivationSpectrum(d, k, coeffs)


def xi(d: int, k: int, r: float, m) -> float | np.ndarray:
    """Smooth majorant interpolating sigma_hat(m)^2 m^{2r} on the support.

    Defined for arguments m >= k+1 (real-valued) and r <= (d+2k+1)/2.
    """
    if r > (d + 2 * k + 1) / 2.0 + 1e-12:
        raise DomainError("r must not exceed (d+2k+1)/2")
    m = np.asarray(m, dtype=float)
    if np.any(m < k + 1):
        raise ContractError("xi is defined on [k+1, infinity)")
    out = np.exp(2.0 * (_log_abs_sigma_hat(d, k, m) + r * np.log(m)))
    return float(out) if out.ndim == 0 else out


def xi_forward_difference(d: int, k: int, r: float, m: int, beta: int) -> float:
    """beta-th forward difference of xi at integer m."""
    if beta < 0:
        raise ContractError("beta must be >= 0")
    total = 0.0
    for j in range(beta + 1):
        total += math.comb(beta, j) * (-1.0) ** (beta - j) * xi(d, k, r, m + j)
    return total


def _kernel_tail_estimate(spec: ActivationSpectrum) -> float:
    # terms sigma_hat(m)^2 |p_m| <= sigma_hat(m)^2 N(m) ~ c m^{-2k-2};
    # bound the tail by the last support term times sum_{m>m_max} (m/m_max)^{-2k-2}
    ms = spec.support_degrees(max(spec.k + 1, spec.m_max - 8))
    if len(ms) == 0:
        return math.inf
    m_last = int(ms[-1])
    last = spec.coefficient(m_last) ** 2 * harmonic_dim(spec.d, m_last)
    return last * m_last / (2 * spec.k + 1)


def kernel(
    d: int,
    k: int,
    spec: ActivationSpectrum,
    x: np.ndarray,
    y: np.ndarray,
    tol: float = 1e-4,
) -> float:
    """ReLU^k dot-product kernel int_{S^d} relu_k(theta.x~) relu_k(theta.y~) dtheta.

    The integral uses the unnormalized surface measure; the series below is
    omega_d times the normalized-measure series.  x~ = (x, 1).
    """
    if spec.d != d or spec.k != k:
        raise ContractError("spectrum does not match requested (d, k)")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xt = np.append(x, 1.0)
    yt = np.append(y, 1.0)
    nx, ny = np.linalg.norm(xt), np.linalg.norm(yt)
    u = float(np.dot(xt, yt) / (nx * ny))
    scale = sphere_area(d) * nx**k * ny**k
    tail = scale * _kernel_tail_estimate(spec)
    ms = spec.support_degrees()
    pm = legendre_table(d, spec.m_max, np.array([u]))[:, 0]
    series = float(np.sum(spec.coefficients[ms] ** 2 * pm[ms]))
    value = scale * series
    if tail > tol * max(abs(value), 1e-30):
        raise PrecisionError(
            f"kernel series tail estimate {tail:.3e} exceeds tolerance at m_max={spec.m_max}"
        )
    return value


def expansion_residual(d: int, k: int, spec: ActivationSpectrum) -> float:
    """Weighted-interval L2 residual of the truncated Legendre expansion of ReLU^k.

    The integral is split at t=0 (the activation's kink): _half_line_rule
    at its nodes t gives the half t >= 0 and at -t the half t <= 0, with
    both integrands smooth.
    """
    t, w = _half_line_rule(d, spec.m_max + EXTRA_NODES)
    t = np.concatenate([t, -t])
    diff = sigma_k(k, t) - spec.coefficients @ legendre_table(d, spec.m_max, t)
    return math.sqrt(float(np.dot(np.tile(w, 2), diff**2)))
