"""Homogeneity transfer between the upper cap of S^d and the unit ball.

With x~ = (x, 1) and the cap G = {eta : eta_{d+1} >= 1/sqrt(2)}, the
degree-k homogeneous lift and restriction

    (S_k g)(x)   = |x~|^k g(x~ / |x~|)
    (T_k f)(eta) = eta_{d+1}^k f(eta_bar / eta_{d+1})

are mutually inverse bijections between functions on B^d and functions on
G.  parity_extend turns a cap function into a full-sphere function with
the parity g(-eta) = (-1)^{k+1} g(eta) required by ReLU^k ridge fitting,
by reflecting and blending across the equator with a smooth partition of
unity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = ["CapFunction", "lift_S_k", "restrict_T_k", "parity_extend"]

CAP_HEIGHT = 1.0 / math.sqrt(2.0)
DEFAULT_BLEND_WIDTH = math.pi / 16.0


@dataclass(frozen=True)
class CapFunction:
    """Function on the upper cap G, tagged with its homogeneity degree k.

    margin widens the admissible domain below the cap boundary (as a
    colatitude band, in radians) for evaluators that extend smoothly past
    G; parity_extend needs this headroom for its blend region.
    """

    d: int
    k: int
    f: Callable[[np.ndarray], np.ndarray]
    margin: float = 0.0

    def __call__(self, eta: np.ndarray) -> np.ndarray | float:
        eta = np.asarray(eta, dtype=float)
        single = eta.ndim == 1
        eta = np.atleast_2d(eta)
        floor = math.cos(math.pi / 4.0 + self.margin)
        if np.any(eta[:, -1] < floor - 1e-12):
            raise DomainError("evaluation below the cap (and its margin)")
        out = np.asarray(self.f(eta), dtype=float)
        return float(out[0]) if single else out


def lift_S_k(g: CapFunction) -> Callable[[np.ndarray], np.ndarray]:
    """(S_k g)(x) = |x~|^k g(x~/|x~|) on the ball."""

    def lifted(x: np.ndarray) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        xt = np.column_stack([x, np.ones(len(x))])
        r = np.linalg.norm(xt, axis=1)
        vals = r**g.k * g(xt / r[:, None])
        return float(vals[0]) if single else vals

    return lifted


def restrict_T_k(d: int, k: int, f: Callable, margin: float = 0.0) -> CapFunction:
    """(T_k f)(eta) = eta_{d+1}^k f(eta_bar/eta_{d+1}) as a CapFunction.

    f must be defined on the ball scaled by tan(pi/4 + margin), which is
    where the projected points eta_bar/eta_{d+1} land for eta in the
    widened cap.  On the equator eta_{d+1} = 0 (margin >= pi/4) T_k f takes
    its limit 0, which needs f(y)/|y|^k -> 0 as |y| -> infinity.
    """

    def on_cap(eta: np.ndarray) -> np.ndarray:
        z = eta[:, -1]
        out = np.zeros(len(eta))
        off = z != 0.0
        out[off] = z[off] ** k * np.asarray(f(eta[off, :-1] / z[off, None]), dtype=float)
        return out

    return CapFunction(d, k, on_cap, margin)


def _bump(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    pos = s > 0.0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def _blend_profile(z: np.ndarray, half_width: float) -> np.ndarray:
    """Smooth chi with chi=1 for z >= half_width, 0 for z <= -half_width,
    and the exact symmetry chi(z) + chi(-z) = 1."""
    s = np.clip(z / half_width, -1.0, 1.0)
    up = _bump(1.0 + s)
    dn = _bump(1.0 - s)
    return up / (up + dn)


def parity_extend(
    g_cap: CapFunction, blend_width: float = DEFAULT_BLEND_WIDTH
) -> Callable[[np.ndarray], np.ndarray]:
    """Full-sphere extension with g(-eta) = (-1)^{k+1} g(eta) exactly.

    Above the equatorial band the cap formula is used as-is; below, its
    parity reflection; inside the band of colatitude half-width
    blend_width the two are blended with a profile whose symmetry makes
    the parity identity exact everywhere.  The cap function must carry a
    margin >= pi/4 + blend_width/2 so both branches are defined on the
    band.
    """
    need = math.pi / 4.0 + blend_width / 2.0
    if g_cap.margin + 1e-12 < need:
        raise ConfigurationError(
            f"cap margin {g_cap.margin:.4f} too small; blend needs >= {need:.4f}"
        )
    sign = float((-1) ** (g_cap.k + 1))
    half = math.sin(blend_width / 2.0)

    def extended(eta: np.ndarray) -> np.ndarray | float:
        eta = np.asarray(eta, dtype=float)
        single = eta.ndim == 1
        eta = np.atleast_2d(eta)
        z = eta[:, -1]
        chi = _blend_profile(z, half)
        out = np.zeros(len(eta))
        up = chi > 0.0
        dn = chi < 1.0
        if np.any(up):
            out[up] += chi[up] * g_cap(eta[up])
        if np.any(dn):
            out[dn] += (1.0 - chi[dn]) * sign * g_cap(-eta[dn])
        return float(out[0]) if single else out

    return extended
