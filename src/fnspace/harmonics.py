"""Legendre polynomials and spherical harmonics on S^d.

All integrals on the sphere use the *normalized* surface measure, so the
constant function integrates to 1.  The Legendre polynomials here are the
Gegenbauer family with parameter (d-1)/2 rescaled so that p_m(1) = N(m),
which makes the addition theorem

    sum_l Y_{m,l}(eta) Y_{m,l}(theta) = p_m(eta . theta)

hold with the orthonormal harmonic bases implemented below (trig basis on
the circle, real spherical harmonics on S^2).
On S^2 one assoc_legendre_p_all(D, D, z, norm=True) evaluation gives the
Legendre factors of all degrees m <= D (Condon-Shortley phase; times sqrt2
orthonormal under the normalized measure), each the same for every D >= m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import assoc_legendre_p_all

from .errors import ConfigurationError, ContractError, PrecisionError

__all__ = [
    "sphere_area",
    "harmonic_dim",
    "legendre_table",
    "harmonic_block",
    "harmonic_table",
    "ReferenceGrid",
    "reference_grid",
    "project",
]

PROJECT_MARGIN = 4  # a grid projecting onto degree m must be exact to degree 2m + this


def sphere_area(d: int) -> float:
    """Surface area omega_d of S^d embedded in R^{d+1}."""
    if d < 0:
        raise ContractError("dimension must be >= 0")
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def harmonic_dim(d: int, m: int) -> int:
    """Dimension N(m) of the degree-m spherical harmonic space on S^d."""
    if m < 0 or d < 1:
        raise ContractError("need m >= 0 and d >= 1")
    if m == 0:
        return 1
    num = (2 * m + d - 1) * math.comb(m + d - 2, d - 1)
    assert num % m == 0
    return num // m


def legendre_table(d: int, m_max: int, t: np.ndarray) -> np.ndarray:
    """Evaluate p_0..p_{m_max} at the points t, shape (m_max+1, len(t)).

    Three-term recurrence on q_m = p_m / p_m(1); stable for every d >= 1
    (at d = 1 it degenerates to the Chebyshev recurrence, giving
    p_m(cos r) = 2 cos(m r)).
    """
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + 1e-12):
        raise ContractError("arguments must lie in [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    lam = (d - 1) / 2.0
    q = np.empty((m_max + 1,) + t.shape)
    q[0] = 1.0
    if m_max >= 1:
        q[1] = t
    for m in range(2, m_max + 1):
        q[m] = (2.0 * (m + lam - 1.0) * t * q[m - 1] - (m - 1.0) * q[m - 2]) / (
            m + 2.0 * lam - 1.0
        )
    dims = np.array([harmonic_dim(d, m) for m in range(m_max + 1)], dtype=float)
    return q * dims.reshape((m_max + 1,) + (1,) * t.ndim)


def _harmonic_rows(d: int, degrees, eta: np.ndarray) -> np.ndarray:
    """The blocks harmonic_block(d, m, eta) for m in degrees, stacked in that
    order; each order's trig row is formed once, and on S^2 one Legendre
    evaluation up to max(degrees) serves every degree."""
    if d not in (1, 2):
        raise ConfigurationError(f"harmonic bases implemented for d in {{1,2}}, got d={d}")
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    # (degree, order mu) per row: on S^1 cos (mu = m) before sin (mu = -m), on S^2 mu = -m..m
    orders = {m: range(-m, m + 1) if d == 2 else (m, -m) if m else (0,) for m in degrees}
    degs, mus = np.array([(m, mu) for m in degrees for mu in orders[m]]).T
    ks, at = np.unique(np.abs(mus), return_inverse=True)
    c, c0 = (2.0, math.sqrt(2.0)) if d == 2 else (math.sqrt(2.0), 1.0)
    angle = ks[:, None] * np.arctan2(eta[:, 1], eta[:, 0])
    trig = np.vstack([c * np.sin(angle), c * np.cos(angle)])  # order |mu|: sin rows, then cos rows
    if ks[0] == 0:  # mu = 0
        trig[len(ks)] = c0
    trig = trig[at + len(ks) * (mus >= 0)]
    if d == 1:
        return trig
    z = np.clip(eta[:, 2], -1.0, 1.0)
    p = assoc_legendre_p_all(degs.max(), degs.max(), z, norm=True)[0]  # (D+1, 2D+1, npoints); order mu at index mu >= 0
    # norm=True returns P_m(+-1) unnormalized (seen with SciPy 1.17); the orders mu != 0 vanish there
    pole, m = np.abs(z) == 1.0, np.arange(len(p))[:, None]
    p[:, 0, pole] = np.sqrt(m + 0.5) * z[pole] ** m
    return p[degs, np.abs(mus)] * trig


def harmonic_block(d: int, m: int, eta: np.ndarray) -> np.ndarray:
    """All basis values Y_{m,l}(eta), shape (N(m), npoints).

    eta has shape (npoints, d+1) with unit rows.  Bases: on S^1 the pair
    {sqrt2 cos(m phi), sqrt2 sin(m phi)}; on S^2, rows mu = -m..m, the real
    harmonics sqrt2 P_m^|mu|(z) times sqrt2 sin(|mu| phi), 1, sqrt2 cos(mu phi)
    for mu <, =, > 0; both orthonormal under the normalized measure.
    """
    return _harmonic_rows(d, [m], eta)


def harmonic_table(d: int, D: int, eta: np.ndarray) -> np.ndarray:
    """The blocks harmonic_block(d, m, eta) for m = 0..D stacked, shape
    (sum_{m<=D} N(m), npoints)."""
    return _harmonic_rows(d, range(D + 1), eta)


@dataclass(frozen=True)
class ReferenceGrid:
    """High-accuracy quadrature on S^d: nodes and weights for the normalized measure.

    Integrates spherical polynomials exactly up to `degree`.
    """

    degree: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def d(self) -> int:
        return self.nodes.shape[1] - 1

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


def reference_grid(d: int, degree: int) -> ReferenceGrid:
    if d == 1:
        n = degree + 1
        ang = 2.0 * math.pi * np.arange(n) / n
        nodes = np.column_stack([np.cos(ang), np.sin(ang)])
        w = np.full(n, 1.0 / n)
        return ReferenceGrid(degree, nodes, w)
    if d == 2:
        n_z = degree // 2 + 1
        z, wz = np.polynomial.legendre.leggauss(n_z)
        n_phi = degree + 1
        phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
        zz, pp = np.meshgrid(z, phi, indexing="ij")
        r = np.sqrt(np.clip(1.0 - zz**2, 0.0, None))
        nodes = np.column_stack(
            [(r * np.cos(pp)).ravel(), (r * np.sin(pp)).ravel(), zz.ravel()]
        )
        w = np.repeat(wz / 2.0, n_phi) / n_phi
        return ReferenceGrid(degree, nodes, w)
    raise ConfigurationError(f"reference grids implemented for d in {{1,2}}, got d={d}")


def project(grid: ReferenceGrid, samples: np.ndarray, m: int):
    """Harmonic coefficients of g from its samples on the grid, plus Pi_m g.

    Returns (coeffs, evaluator) where coeffs[l-1] = <g, Y_{m,l}> and the
    evaluator computes Pi_m g at arbitrary sphere points.
    """
    if grid.degree < 2 * m + PROJECT_MARGIN:
        raise PrecisionError(
            f"grid degree {grid.degree} too coarse for projection onto degree {m}"
        )
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.weights.shape:
        raise ContractError("sample count must match grid size")
    coeffs = harmonic_block(grid.d, m, grid.nodes) @ (grid.weights * samples)
    return coeffs, lambda eta: coeffs @ harmonic_block(grid.d, m, eta)
