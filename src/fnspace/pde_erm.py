"""Ritz-energy empirical risk minimization over finite neuron spaces.

The model problem is -Laplace(f) + f = h with zero Neumann data, whose
solution minimizes E(g) = int_Omega (|grad g|^2 + g^2)/2 - h g.  Both
manufactured problems normalize the density so that the Monte Carlo
estimator of E is an unweighted sample mean of |Omega| * Psi(g)(x_i) with
x_i uniform on Omega.  Because E is quadratic, E(g) - E(f) equals half
the squared energy norm of g - f, which pins the excess-risk and H1
computations to each other.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .activation import sigma_k, sigma_k_prime
from .errors import ConfigurationError, ContractError
from .models import FiniteNeuronModel, Grid, TargetFunction, _tile_values, ridge_bisect_cap
from .sphere import PointSet

__all__ = [
    "EXCESS_FLOOR",
    "EllipticProblem",
    "ErmResult",
    "interval_problem",
    "disk_problem",
    "interval_directions",
    "energy",
    "empirical_risk",
    "erm_fit",
]

_log = logging.getLogger("fnspace.pde_erm")


@dataclass(frozen=True)
class EllipticProblem:
    """Manufactured Neumann problem -Lap(f) + f = h on Omega.

    sample(m, seed) draws uniform points on Omega; grid() returns a dense
    quadrature (points, weights), weights summing to |Omega|, as a
    models.Grid (anything else is a ContractError where it is read), built
    on the first call and the same on every call, so its tile boxes and
    tables of h, f and grad f are built once and outlive any
    dataclasses.replace of the problem.  d is the solution's.
    """

    name: str
    volume: float
    source: Callable[[np.ndarray], np.ndarray]
    solution: TargetFunction
    sample: Callable[[int, int], np.ndarray]
    grid: Callable[[], Grid]
    exact_energy: float

    @property
    def d(self) -> int:
        return self.solution.d


INTERVAL_GRID_POINTS = 4096
DISK_GRID_RADII = 256
DISK_GRID_ANGLES = 512


def midpoint_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Midpoints lo + (hi - lo)(i + 1/2)/n of n equal cells of [lo, hi]."""
    return lo + (hi - lo) * ((np.arange(n) + 0.5) / n)


def disk_grid(n_r: int) -> tuple[np.ndarray, np.ndarray]:
    """n_r Gauss radii x DISK_GRID_ANGLES equispaced angles on the unit disk;
    the weights integrate over the area measure divided by 2 pi."""
    r, wr = np.polynomial.legendre.leggauss(n_r)
    r = (r + 1.0) / 2.0
    wr = wr / 2.0
    t = 2.0 * math.pi * (np.arange(DISK_GRID_ANGLES) + 0.5) / DISK_GRID_ANGLES
    R, T = np.meshgrid(r, t, indexing="ij")
    pts = np.column_stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()])
    return pts, np.repeat(wr * r, DISK_GRID_ANGLES) / DISK_GRID_ANGLES


def interval_problem() -> EllipticProblem:
    """Omega = (0,1), f = cos(pi x), h = (pi^2+1) cos(pi x).

    E(f) = -(pi^2+1)/4.
    """

    def f(x):
        return np.cos(math.pi * x[..., 0])

    def fg(x):
        return -math.pi * np.sin(math.pi * x[..., 0])[..., None]

    def h(x):
        return (math.pi**2 + 1.0) * np.cos(math.pi * x[..., 0])

    def sample(m, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        return rng.uniform(0.0, 1.0, (m, 1))

    x = midpoint_grid(0.0, 1.0, INTERVAL_GRID_POINTS)[:, None]
    grid = functools.cache(lambda: Grid(x, np.full(INTERVAL_GRID_POINTS, 1.0 / INTERVAL_GRID_POINTS)))
    sol = TargetFunction("cos_pi_x", 1, f, fg)
    return EllipticProblem("interval", 1.0, h, sol, sample, grid, -(math.pi**2 + 1.0) / 4.0)


def disk_problem() -> EllipticProblem:
    """Omega = unit disk, f = cos(pi r^2).

    Then -Lap(f) + f = 4 pi sin(pi r^2) + (4 pi^2 r^2 + 1) cos(pi r^2),
    and grad f vanishes on r = 1, so the Neumann data is zero.  With u = r^2,
    int |grad f|^2 = 4 pi^3 int_0^1 u sin^2(pi u) du = pi^3 and int f^2 =
    pi int_0^1 cos^2(pi u) du = pi/2, so E(f) = -(pi^3 + pi/2)/2, half
    the squared energy norm of f with its sign changed.
    """

    def f(x):
        return np.cos(math.pi * np.sum(x**2, axis=-1))

    def fg(x):
        r2 = np.sum(x**2, axis=-1)
        return (-2.0 * math.pi * np.sin(math.pi * r2))[..., None] * x

    def h(x):
        r2 = np.sum(x**2, axis=-1)
        return 4.0 * math.pi * np.sin(math.pi * r2) + (
            4.0 * math.pi**2 * r2 + 1.0
        ) * np.cos(math.pi * r2)

    def sample(m, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        out = np.empty((m, 2))
        filled = 0
        while filled < m:
            cand = rng.uniform(-1.0, 1.0, (2 * (m - filled) + 16, 2))
            keep = cand[np.sum(cand**2, axis=1) <= 1.0]
            take = min(len(keep), m - filled)
            out[filled : filled + take] = keep[:take]
            filled += take
        return out

    @functools.cache
    def grid():
        pts, w = disk_grid(DISK_GRID_RADII)
        return Grid(pts, 2.0 * math.pi * w)

    sol = TargetFunction("cos_pi_r2", 2, f, fg)
    return EllipticProblem("disk", math.pi, h, sol, sample, grid, -(math.pi**3 + math.pi / 2.0) / 2.0)


def interval_directions(n: int) -> PointSet:
    """Directions on S^1 adapted to ridge fitting on the interval (0, 1).

    The first two neurons are active on the whole interval (breakpoints
    outside it, one per orientation); the rest place their breakpoints at
    equispaced interior knots with alternating orientation.  This keeps
    the span's expressive power growing with every added direction, which
    generic circle configurations fail to do at very small n.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rows = [(1.0, 1.0), (-1.0, 1.0)][:n]
    nk = n - len(rows)
    for j in range(nk):
        t = (j + 1.0) / (nk + 1.0)
        s = 1.0 if j % 2 == 0 else -1.0
        rows.append((s, -s * t))
    pts = np.asarray(rows, dtype=float)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return PointSet(pts, strategy="interval_knots")


# Excess risk below this means the grid energy is off, not a better minimizer.
EXCESS_FLOOR = -1e-9


@dataclass(frozen=True)
class ErmResult:
    model: FiniteNeuronModel
    empirical_risk: float
    population_energy: float
    excess_risk: float
    h1_error: float
    m: int
    seed: int

    def __post_init__(self):
        if self.excess_risk < EXCESS_FLOOR:
            raise ContractError("excess risk below the numerical tolerance floor")
        if self.h1_error < 0.0:
            raise ContractError("h1_error must be nonnegative")


def _psi(gv: np.ndarray, gr: np.ndarray, hv: np.ndarray) -> np.ndarray:
    """Psi from values g, gradients grad g and source values h at the same points."""
    return 0.5 * np.sum(gr**2, axis=-1) + 0.5 * gv**2 - hv * gv


def _problem_grid(problem: EllipticProblem) -> Grid:
    """problem.grid(), a ContractError unless it is a models.Grid."""
    grid = problem.grid()
    if not isinstance(grid, Grid):
        raise ContractError("grid_points must be a models.Grid")
    return grid


def energy(g, grad_g, problem: EllipticProblem) -> float:
    """Grid-quadrature value of int_Omega Psi(g), with h from the grid's
    table of it (Grid.tabulate), which every fit on the problem reads."""
    pts, w = grid = _problem_grid(problem)
    return float(np.dot(w, _psi(g(pts), grad_g(pts), grid.tabulate(problem.source))))


def empirical_risk(g, grad_g, problem: EllipticProblem, samples: np.ndarray) -> float:
    """Sample mean of |Omega| Psi(g) over the given uniform draws."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) == 0:
        raise ContractError("empirical risk needs at least one sample")
    psi = _psi(g(samples), grad_g(samples), problem.source(samples))
    return problem.volume * float(np.mean(psi))


def _grid_energy(model: FiniteNeuronModel, problem: EllipticProblem) -> tuple[float, float]:
    """(population energy, H1 error) of model on problem's grid, from one
    pass of the tiled evaluator (models._tile_values) over the grid's
    weights and its tables of h, grad f and f (Grid.tabulate): per tile,
    sum w Psi(g) and sum w ((g - f)^2 + |grad g - grad f|^2), with no array
    as long as the grid."""
    grid = _problem_grid(problem)
    w, h = grid[1], grid.tabulate(problem.source)
    fg, f = grid.tabulate(problem.solution.grad), grid.tabulate(problem.solution)
    # per tile, each weighted by w: g_c^2 for each gradient component and the value, h g, and (g - f)_c^2
    c = problem.d + 1
    sums, y_buf = np.zeros(2 * c + 1), np.empty(0)
    for lo, hi, V in _tile_values(model, grid, grad=True):
        if len(sums) * (hi - lo) > len(y_buf):
            y_buf = np.empty(len(sums) * (hi - lo))
        Y = y_buf[: len(sums) * (hi - lo)].reshape(len(sums), hi - lo)
        np.multiply(V, V, out=Y[:c])
        np.multiply(h[lo:hi], V[-1], out=Y[c])
        np.subtract(V[:-1], fg[:, lo:hi], out=Y[c + 1 : -1])
        np.subtract(V[-1], f[lo:hi], out=Y[-1])
        Y[c + 1 :] *= Y[c + 1 :]
        sums += Y @ w[lo:hi]
    return float(0.5 * np.sum(sums[:c]) - sums[c]), math.sqrt(max(float(np.sum(sums[c + 1 :])), 0.0))


@functools.lru_cache(maxsize=1)
def _sample_system(source, volume: float, d: int, k: int, points: bytes, samples: bytes):
    """(A, b, h): erm_fit's sample system and the source values h at the
    samples, from the directions and samples given as the bytes of their
    float rows, d + 1 and d wide.  The last system is kept: a call whose
    source (by hash and ==, so it must be hashable), volume, d, k and bytes
    all match returns the same read-only arrays, so directions or samples
    that differ in any bit, the sign of a zero included, build anew.

    A_ij = |Omega| mean[grad(phi_i).grad(phi_j) + phi_i phi_j] and
    b_i = |Omega| mean[h phi_i] are assembled in one m x n buffer, which
    holds only the Gram's operands and is released on return.  At k = 2 one
    matmul and one max put r = max(z, 0), z = (x, 1) theta^T, there: the
    gradient term reads 4 r^T r, since sigma_2'(z) = 2r, and r is then
    squared in place for phi = sigma_2(z).  Other k write sigma_k'(z) for
    the gradient term, then form z again in the buffer for sigma_k(z).
    Scaling by 4 is exact, so A, b and h are the same at every k, bit for
    bit, as from two passes of sigma_k' and sigma_k over z.
    """
    points = np.frombuffer(points).reshape(-1, d + 1)
    samples = np.frombuffer(samples).reshape(-1, d)
    m, n = len(samples), len(points)
    wdirs = points[:, :d]
    xt = np.column_stack([samples, np.ones(m)])
    buf = np.empty((m, n))

    def preactivation():
        # z = (x, 1) theta^T, the same on every call, in the one buffer
        return np.matmul(xt, points.T, out=buf)

    if k == 2:  # sigma_2' = 2r and sigma_2 = r^2 from one r = max(z, 0)
        r = np.maximum(preactivation(), 0.0, out=buf)
        grad_term = 4.0 * (r.T @ r) / m * (wdirs @ wdirs.T)
        phi = np.multiply(r, r, out=buf)
    else:  # sigma_k' of z, then sigma_k of z formed again
        dphi = sigma_k_prime(k, preactivation(), out=buf)
        grad_term = (dphi.T @ dphi) / m * (wdirs @ wdirs.T)
        phi = sigma_k(k, preactivation(), out=buf)
    A = (phi.T @ phi) / m
    A += grad_term
    A *= volume
    h = source(samples)
    b = volume * (phi.T @ h) / m
    for v in (A, b, h):
        v.flags.writeable = False
    return A, b, h


def erm_fit(
    problem: EllipticProblem,
    ps: PointSet,
    samples: np.ndarray,
    k: int,
    norm_cap: float = 0.0,
    seed: int = 0,
) -> ErmResult:
    """Empirical risk minimizer over the fixed-direction class.

    Assembles A_ij = |Omega| mean[grad(phi_i).grad(phi_j) + phi_i phi_j]
    and b_i = |Omega| mean[h phi_i] in one m x n buffer, released before
    the solve; at k = 2 one preactivation pass gives both sigma_2' and
    sigma_2 (_sample_system).  Each system is assembled once: a fit on
    the same problem source, volume, k, directions and samples as the
    previous assembly (an uncapped fit, then a capped refit) reuses its
    read-only A, b and h, so it gives the same result bit for bit; an
    in-place edit of either array is seen and rebuilds.  Solves the
    quadratic program (ridge_bisect_cap if the cap sqrt(n)||a||_2 <=
    norm_cap is set; a negative or NaN norm_cap is a ConfigurationError).
    The fitted model's blocked evaluation then gives the empirical risk
    |Omega| mean Psi(g) at the samples, equal to
    empirical_risk(model, model.gradient, problem, samples).  The energy,
    excess risk and H1 error against the manufactured solution come from
    one tiled pass over problem.grid() (_grid_energy), within rounding of
    a dense evaluation: the grid's tile boxes and its tables of h, f and
    grad f are built by the first fit and kept on the grid, and a grid()
    that returns anything but a models.Grid is a ContractError.  An uncapped A that is exactly singular (neurons
    0 on every sample give zero rows) is solved as A + 1e-12 I instead.
    Each call sends one JSON debug record to the "fnspace.pde_erm"
    logger, quiet by default: n, m, k, assembly ("built" or "reused"),
    path ("solve", "solve+1e-12I" or "cap"), zero_rows on the shifted
    path, the seconds spent in each stage (assembly_s, solve_s and
    evaluate_s, the last for the risk, energy and H1 error) and the call's
    seconds, which bound each stage's.
    """
    start = time.perf_counter()
    if k < 1:
        raise ConfigurationError("erm_fit needs k >= 1 for gradients")
    if not norm_cap >= 0.0:  # NaN too
        raise ConfigurationError(f"norm_cap must be >= 0, got {norm_cap}")
    samples = np.asarray(samples, dtype=float)
    m = len(samples)
    if m == 0 or samples.shape[-1] != problem.d:
        raise ContractError("samples must be a nonempty array of points in R^d")
    if ps.d != problem.d:  # the cache reads the directions back as rows of problem.d + 1
        raise ContractError(f"directions are for d = {ps.d}, the problem is in d = {problem.d}")
    assembling = time.perf_counter()
    hits = _sample_system.cache_info().hits
    A, b, h = _sample_system(problem.source, problem.volume, problem.d, k, ps.points.tobytes(), samples.tobytes())
    built = _sample_system.cache_info().hits == hits
    solving = time.perf_counter()
    if norm_cap > 0.0:
        a, _ = ridge_bisect_cap(A, b, ps.n, norm_cap)
        path = "cap"
    else:
        try:
            a = np.linalg.solve(A, b)
            path = "solve"
        except np.linalg.LinAlgError:
            a = np.linalg.solve(A + 1e-12 * np.eye(ps.n), b)
            path = "solve+1e-12I"
    evaluating = time.perf_counter()
    model = FiniteNeuronModel(k, ps, a, norm_cap)
    emp = problem.volume * float(np.mean(_psi(*model._evaluate(samples, grad=True), h)))
    pop, h1 = _grid_energy(model, problem)
    excess = pop - problem.exact_energy
    done = time.perf_counter()
    if _log.isEnabledFor(logging.DEBUG):
        record = {"n": ps.n, "m": m, "k": k, "assembly": "built" if built else "reused", "path": path}
        if path == "solve+1e-12I":
            record["zero_rows"] = int(np.count_nonzero(~A.any(axis=1)))
        record |= {"assembly_s": solving - assembling, "solve_s": evaluating - solving,
                   "evaluate_s": done - evaluating, "seconds": time.perf_counter() - start}
        _log.debug("%s", json.dumps(record))
    return ErmResult(model, emp, pop, excess, h1, m, seed)
