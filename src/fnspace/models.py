"""Finite neuron space models: fixed-direction ReLU^k ridge expansions.

A model evaluates f_n(x) = sum_j a_j sigma_k(theta_j . (x, 1)) on a domain
in R^d, or f_n(eta) = sum_j a_j sigma_k(theta_j . eta) when fitted on the
sphere itself.  Two fitting routes are provided: the constructive
coefficient recipe a_j = tau_j sum_m sigma_hat(m)^{-1} (Pi_m g)(theta_j),
which reproduces the harmonic coefficients of g up to the quadrature
degree, and plain (optionally ridge-regularized) least squares on a
sample grid; a norm cap is the smallest ridge meeting it (ridge_bisect_cap).

One rule sizes every blocked pass: a block is _block_rows(width) rows of
width floats, at most BLOCK_FLOATS floats (1 MiB) in all, so no blocked
pass holds more than two blocks of BLOCK_FLOATS floats whatever the grid
size, besides its outputs, evaluation's lifted copy of its input (d + 1
floats a row), a least-squares solve's (cols + 1)-wide arrays (the Gram,
or the triangular factor with the rows waiting under it and the block of
virtual rows, see _solve_reduced) and what a Grid keeps: its rows and
their lifts, those rows weighted for the last k fitted, and its target
tables.

Every pass over rows walks tiles, runs of rows in a box, through one
walker (_tiles), which classifies each neuron on each box as dead,
polynomial or crossing and forms only the crossing ones' activations.
The fits reduce its E = [degree-k monomials | sigma_k | y] on a Grid's
tiles (_design_blocks); evaluation (_tile_values) takes [degree-(k - 1)
monomials | sigma_k' / k] on a Grid's tiles, for error_norms and
pde_erm's energy, or on tiles of consecutive rows of any input, which
FiniteNeuronModel._evaluate answers in the caller's row order.

Fits and error norms take their grid as a Grid: read-only (points,
weights) whose rows a balanced kd-tree put in tile order when it was
built, so every tile is a run of rows, and which keeps what every fit on
it shares, each built on its first use: its largest radius, its tile
boxes, the weights' square roots, its lifted rows weighted for the last k
asked and one table of values for each of the last three functions
asked.  Anything else passed as a grid is a ContractError.
least_squares_fit on a domain drops the neurons that are 0 on the whole
grid and fits the ones that are polynomials there through an orthonormal
basis of their span, which leaves the solution unchanged.  It never holds
the weighted design's rows: on a tile most neurons are again 0 or a
polynomial, (theta . (x, 1))^k.  Each tile gives one block of virtual
rows, a factor F of its small design E = [monomials | crossing neurons |
y] with F^T F = E^T E, lifted to every column (_design_blocks), with the
Gram of the tile's rows of [B | y].  A ridge fit factors each tile's
Gram E^T E, scaled to unit diagonal, by pivoted Cholesky (dpstrf), adds
one dsyrk per block to [B | y]^T [B | y], whose last column is B^T y,
and solves by Cholesky on that triangle, falling back to the QR fold when
a pivot is not positive; a fit without a ridge factors each tile by
Householder QR and folds the blocks into a QR factor of the design, so
its condition number is never squared (see _solve_reduced).  Both end in
the triangular factor [[R, z], [0, rho]] of [B | y], which holds the
fit's weighted residual on its grid: the model returned carries it as
residual, so a caller measuring the L2 error on that same grid need not
evaluate the model.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dgeqrf, dpotrf, dpstrf, dtrtrs
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from .activation import ActivationSpectrum, sigma_k, sigma_k_prime
from .errors import ConfigurationError, ContractError, PrecisionError
from .harmonics import PROJECT_MARGIN, ReferenceGrid, _harmonic_rows, harmonic_dim
from .quadrature import QuadratureRule
from .sphere import PointSet

__all__ = [
    "FiniteNeuronModel",
    "TargetFunction",
    "features",
    "constructive_fit",
    "least_squares_fit",
    "error_norms",
    "coef_stat",
    "Grid",
]

CAP_SLACK = 1e-9
# A ridge fit's residual^2 below this share of its rounding scale is left NaN (_ridge_residual).
RESIDUAL_FLOOR = 1e-8
# Floats per block of rows (1 MiB) in every blocked pass (_block_rows).
BLOCK_FLOATS = 1 << 17
# A computed preactivation on the unit ball is within ~1e-15 of the exact
# one, so classifying neurons with this margin is exact on the features.
CLASS_MARGIN = 1e-12

_log = logging.getLogger("fnspace.models")


def _inputs(x: np.ndarray, d: int, on_sphere: bool) -> np.ndarray:
    """x as rows of d+1 components on the sphere, or of d on a domain."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if on_sphere:
        if x.shape[1] != d + 1:
            raise ContractError("sphere inputs must have d+1 components")
    elif x.shape[1] != d:
        raise ContractError("domain inputs must have d components")
    return x


def _lifted(x: np.ndarray, d: int, on_sphere: bool) -> np.ndarray:
    """Inputs as the rows the neurons see: (x, 1), or eta on the sphere."""
    x = _inputs(x, d, on_sphere)
    return x if on_sphere else np.column_stack([x, np.ones(len(x))])


def features(ps: PointSet, k: int, x: np.ndarray, grad: bool = False):
    """sigma_k(z), or (sigma_k(z), sigma_k'(z)) with grad, for z = lifted(x) theta^T;
    rows of x with d+1 components are used as they are (sphere points, or
    rows already lifted), rows with d are lifted to (x, 1)."""
    z = _lifted(x, ps.d, np.shape(x)[-1] == ps.d + 1) @ ps.points.T
    dz = sigma_k_prime(k, z) if grad else None
    sigma_k(k, z, out=z)
    return (z, dz) if grad else z


@dataclass(frozen=True)
class FiniteNeuronModel:
    """Ridge expansion with fixed directions and linear coefficients.

    on_sphere selects the argument convention: False means inputs are
    x in R^d and each neuron sees theta . (x, 1); True means inputs are
    unit vectors eta in R^{d+1} fed to the neurons directly.  residual is
    the weighted L2 error on the grid a least-squares fit solved on, read
    from the fit's own triangular factor (least_squares_fit); NaN for every
    other model, and for a ridge fit whose residual lost its digits.
    """

    k: int
    ps: PointSet
    a: np.ndarray = field(repr=False)
    norm_cap: float = 0.0
    on_sphere: bool = False
    residual: float = field(default=math.nan, init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.shape != (self.ps.n,):
            raise ContractError("coefficient count must match direction count")
        if not np.all(np.isfinite(a)):
            raise ContractError("coefficients must be finite")
        if not self.norm_cap >= 0.0:  # NaN too
            raise ConfigurationError(f"norm_cap must be >= 0, got {self.norm_cap}")
        if self.norm_cap > 0.0:
            cap_norm = math.sqrt(self.ps.n) * float(np.linalg.norm(a))
            if cap_norm > self.norm_cap * (1.0 + CAP_SLACK) + CAP_SLACK:
                raise ContractError("coefficients violate the norm cap")
        object.__setattr__(self, "a", a)

    @property
    def d(self) -> int:
        return self.ps.d

    @property
    def n(self) -> int:
        return self.ps.n

    def _evaluate(self, x: np.ndarray, grad: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
        """(values, gradients or None) at the rows of x, in their order: x is
        lifted once, as the columns xt of (x, 1) or eta, and the tiled
        evaluator walks its tiles of _block_rows(n) consecutive rows."""
        x = _inputs(x, self.d, self.on_sphere)
        xt = np.ones((self.d + 1, len(x)))
        xt[: x.shape[1]] = x.T
        values = np.empty(len(x))
        grads = np.empty((len(x), self.d)) if grad else None
        bounds = np.append(np.arange(0, len(x), _block_rows(self.n)), len(x))
        for lo, hi, V in _tile_values(self, xt, _tile_boxes(xt, bounds), grad):
            values[lo:hi] = V[-1]
            if grad:
                grads[lo:hi] = V[:-1].T
        return values, grads

    def __call__(self, x: np.ndarray) -> np.ndarray | float:
        single = np.asarray(x).ndim == 1
        out, _ = self._evaluate(x)
        return float(out[0]) if single else out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Analytic gradient in x; requires k >= 1 and on_sphere=False."""
        single = np.asarray(x).ndim == 1
        _, g = self._evaluate(x, grad=True)
        return g[0] if single else g


@dataclass(frozen=True)
class TargetFunction:
    """Named target with evaluator, optional gradient, and metadata.

    on_sphere targets take unit vectors eta in R^{d+1}; for those a parity
    tag records the sign s in g(-eta) = s * g(eta) (constructive fitting
    requires s = (-1)^{k+1}).
    """

    name: str
    d: int
    f: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    on_sphere: bool = False
    parity: int = 0

    def __call__(self, x):
        return self.f(np.asarray(x, dtype=float))


def constructive_fit(
    g: TargetFunction,
    rule: QuadratureRule,
    spec: ActivationSpectrum,
    grid: ReferenceGrid,
) -> FiniteNeuronModel:
    """a_j = tau_j * sum_m sigma_hat(m)^{-1} (Pi_m g)(theta_j) over the support
    degrees m <= J, as one analysis and one synthesis product: with Y the
    harmonic rows of those degrees, c = Y(grid) (w g) / sigma_hat(m) and
    a = tau (c^T Y(theta)).  A grid not exact to degree 2 max(m) +
    PROJECT_MARGIN is a PrecisionError.  The model reproduces the harmonic
    coefficients of g up to degree J within the rule residual and grid tolerance.
    """
    k = spec.k
    if not g.on_sphere:
        raise ContractError("constructive fitting needs a sphere target")
    if not spec.d == grid.d == rule.ps.d:
        raise ContractError(f"spectrum, grid and rule are on S^{spec.d}, S^{grid.d} and S^{rule.ps.d}")
    if g.parity != (-1) ** (k + 1):
        raise ContractError(
            f"target parity {g.parity} incompatible with k={k}; "
            f"need g(-eta) = {(-1) ** (k + 1)} g(eta)"
        )
    J = rule.J
    if J < k + 1:
        raise ContractError(f"quadrature degree J={J} too coarse; need J >= k+1")
    ms = spec.support_degrees(hi=J).tolist()
    if grid.degree < 2 * ms[-1] + PROJECT_MARGIN:
        raise PrecisionError(f"grid degree {grid.degree} too coarse for harmonic degree {ms[-1]}")
    sigma_hat = np.repeat(spec.coefficients[ms], [harmonic_dim(grid.d, m) for m in ms])
    c = _harmonic_rows(grid.d, ms, grid.nodes) @ (grid.weights * g(grid.nodes)) / sigma_hat
    a = rule.weights * (c @ _harmonic_rows(grid.d, ms, rule.ps.points))
    return FiniteNeuronModel(k, rule.ps, a, 0.0, on_sphere=True)


def ridge_bisect_cap(G: np.ndarray, c: np.ndarray, n: int, M: float) -> tuple[np.ndarray, float]:
    """(a, lam): smallest ridge lam >= 0 with sqrt(n)||a||_2 <= M, a = (G + lam I)^+ c.

    G = U diag(s) U^T once, then a(lam) = U (U^T c) / (s + lam) costs O(n).
    At lam = 0 eigenvalues at or below lstsq's cutoff eps n s_max are zeroed,
    and a lam below rounding leaves the others' entries bit for bit.
    ||a(lam)|| falls with lam and is at most ||c|| / lam, so a binding cap has
    its root in (0, sqrt(n)||c|| / M]; searching up to twice that survives
    rounding.  a is finally rescaled onto the cap.  One JSON debug record
    per call (n, lam, cap_bound, extreme eigenvalues) goes to the
    "fnspace.models" logger, quiet by default.
    """
    evals, U = np.linalg.eigh(G)
    s = np.maximum(evals, 0.0)  # a Gram matrix; rounding can leave eigenvalues at -eps
    keep = s > np.finfo(float).eps * len(s) * s[-1]
    p, root_n = U.T @ c, math.sqrt(n)

    def coef(lam: float) -> np.ndarray:
        return np.divide(p, s, out=np.zeros_like(s), where=keep) if lam == 0.0 else p / (s + lam)

    def gap(lam: float) -> float:
        return root_n * float(np.linalg.norm(coef(lam))) - M

    binds = bool(gap(0.0) > 0.0)
    lam = brentq(gap, 0.0, 2.0 * root_n * float(np.linalg.norm(c)) / M, xtol=1e-300) if binds else 0.0
    a = U @ coef(lam)
    nrm = root_n * float(np.linalg.norm(a))
    if nrm > M:
        a *= M / nrm
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("%s", json.dumps({"n": int(n), "lam": float(lam), "cap_bound": binds,
                                     "s_min": float(np.min(s)), "s_max": float(np.max(s))}))
    return a, lam


def _monomials(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Variable indices (C(k+d, d) x k) of the degree-k monomials in d+1
    variables, and their multinomial coefficients in (theta . x)^k."""
    combos = list(itertools.combinations_with_replacement(range(d + 1), k))
    coef = [math.factorial(k) / math.prod(math.factorial(c.count(v)) for v in set(c)) for c in combos]
    return np.array(combos, dtype=np.intp).reshape(len(combos), k), np.array(coef)


def _monomial_lift(P: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(idx, M): the degree-k monomials of d+1 variables as _monomials gives
    their indices, and the coefficients M (monomials x rows of P) of each
    (theta . x)^k, theta a row of P, on them."""
    idx, coef = _monomials(P.shape[1] - 1, k)
    return idx, coef[:, None] * np.prod(P[:, idx], axis=2).T


def _classify(centres: np.ndarray, half: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dead, poly): whether each neuron, a row theta of P, is 0 or
    (theta . x)^k on each box centres +- half (rows of either, or one box),
    from the bound theta . c +- sum_j |theta_j| h_j and CLASS_MARGIN, so a
    neuron in neither set crosses the box."""
    mid, spread = centres @ P.T, half @ np.abs(P).T
    return mid + spread < -CLASS_MARGIN, mid - spread > CLASS_MARGIN


def _polynomial_block(P: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(T, V) with (theta_j . (x, 1))^k over the rows theta_j of P = Q(x) T V^T.

    Q holds the degree-k monomials of (x, 1) and M their coefficients in the
    poly neurons; M = U S V^T truncated at its numerical rank r gives
    T = U_r S_r and V = V_r, whose columns are orthonormal.
    """
    M = _monomial_lift(P, k)[1]
    U, S, Vt = np.linalg.svd(M, full_matrices=False)
    r = int(np.count_nonzero(S > np.finfo(float).eps * max(M.shape) * S.max(initial=0.0)))
    return U[:, :r] * S[:r], Vt[:r].T


def _block_rows(width: int) -> int:
    """Rows per block of every blocked pass: as many rows of width floats as
    BLOCK_FLOATS floats hold, at least one."""
    return max(1, BLOCK_FLOATS // width)


class Grid(tuple):
    """A grid's (points, weights), read-only and in tile order, that keeps
    what every fit and error norm on it shares.

    Building a Grid orders its rows once, as scipy's balanced cKDTree
    leaves the lifted rows (x, 1) (Bentley, CACM 18(9), 1975): each node is
    a run of rows, split at its median along the widest side of its box, so
    level 0 is one tile of every row and level L + 1 cuts each tile of
    level L that holds two rows or more at its middle row (level).  Where
    the tree splits elsewhere (inside a leaf of 16 rows, or on equal rows)
    a tile is still a run of rows, only its box is looser.  Its points,
    weights, xt (the lifted rows as columns) and tables share that order.
    The order depends on the order of the rows given, so Grid(*grid) may
    order them differently: two Grids of one grid hold the same (point,
    weight) pairs, and a second Grid is built from the source arrays.

    A sphere model reads the first d + 1 rows of xt, eta, and of each tile
    box (the kd-tree never splits on the constant column, so the tiles are
    those of the eta rows).  Built on first use and kept: radius, the
    largest |x|, which classifies a domain fit's neurons, each level's
    boxes, sw, the weights' square roots, scaled(k), xt weighted by
    sw^(1/k), for the last k asked, and tabulate(fn), fn's values, for the
    last three functions asked: an ERM fit reads h, f and grad f, and a
    rates sweep alternates a fit of f and error_norms of f and grad f.
    Otherwise it is the tuple (points, weights), so an object that holds
    it, and every copy of that object, shares its caches.  A Grid of no
    points is a ContractError.
    """

    def __new__(cls, points, weights):
        points = np.atleast_2d(np.asarray(points, dtype=float))  # copied in tile order below
        if not len(points):
            raise ContractError("a grid needs at least one point")
        if not np.all(np.isfinite(points)):
            raise ContractError("grid points must be finite")
        weights = _grid_weights(weights, len(points))
        lifted = _lifted(points, points.shape[1], False)
        order = cKDTree(lifted, balanced_tree=True).indices
        grid = super().__new__(cls, (_read_only(points[order]), _read_only(weights[order])))
        grid.xt = _read_only(np.ascontiguousarray(lifted[order].T))
        grid._boxes = {}
        return grid

    @cached_property
    def radius(self) -> float:
        return float(np.max(np.linalg.norm(self[0], axis=1)))

    def level(self, max_rows: int):
        """(bounds, centres, half-widths) of the coarsest level whose tiles
        hold at most max_rows >= 1 rows: tile t is the rows
        bounds[t]:bounds[t + 1], all within centres[t] +- half-widths[t]
        (_tile_boxes).  A max_rows below 1 is a ContractError."""
        if not max_rows >= 1:
            raise ContractError(f"a tile holds at least one row, got max_rows = {max_rows}")
        rows, L = self.xt.shape[1], 0
        while -(-rows >> L) > max_rows:  # ceil(rows / 2^L) rows in level L's largest tile
            L += 1
        if L not in self._boxes:
            bounds = np.array([0, rows])
            for _ in range(L):
                bounds = np.union1d(bounds, bounds[:-1] + np.diff(bounds) // 2)
            self._boxes[L] = tuple(map(_read_only, _tile_boxes(self.xt, bounds)))
        return self._boxes[L]

    @cached_property
    def sw(self) -> np.ndarray:
        return _read_only(np.sqrt(self[1]))

    def scaled(self, k: int) -> np.ndarray:
        """xt with each column scaled by its sw^(1/k), or xt at k = 0."""
        held = self.__dict__.get("_scaled")
        if held is None or held[0] != k:
            held = self.__dict__["_scaled"] = (k, _read_only(self.xt * self.sw ** (1.0 / k)) if k else self.xt)
        return held[1]

    def tabulate(self, fn) -> np.ndarray:
        """fn(points): one row, or one row per component of a vector value.
        The tables of the last three functions asked are kept; asking for
        one makes it the last."""
        tables = self.__dict__.setdefault("_tables", {})
        table = tables.pop(fn, None)
        if table is None:
            table = _read_only(np.ascontiguousarray(fn(self[0]).T))
            if len(tables) == 3:
                del tables[next(iter(tables))]
        tables[fn] = table
        return table


def _tile_boxes(xt: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bounds, centres, half-widths): the level of tiles bounds[t]:bounds[t + 1]
    of the columns of xt, each in the box centres[t] +- half-widths[t]."""
    lo = np.minimum.reduceat(xt, bounds[:-1], axis=1).T
    hi = np.maximum.reduceat(xt, bounds[:-1], axis=1).T
    return bounds, 0.5 * (lo + hi), 0.5 * (hi - lo)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _tiles(P, degree, act, xt, tiles, extra=0):
    """Yield (lo, hi, dead, poly, cross, E) for each tile lo:hi of the level
    tiles (Grid.level, _tile_boxes) of the columns of xt.  The neurons, rows
    theta of P, read the tile's first P.shape[1] rows x: dead and poly mark
    those that are 0 and (theta . x)^k on the tile's box (_classify), cross
    indexes the others, and E = [monomials of x of the given degree |
    act(P[cross] x) | extra rows for the caller] is a view of one buffer,
    grown to the largest tile's and reused, valid until the next tile.
    Each _classify call takes the most tiles whose masks fit in an eighth
    of a block (_block_rows(8 n)): a whole level at n <= 128 on 131072 rows.
    """
    x_rows, (bounds, centres, half) = P.shape[1], tiles
    idx = _monomials(x_rows - 1, degree)[0]
    n_mono = len(idx)
    group = _block_rows(8 * max(len(P), 1))
    classes = itertools.chain.from_iterable(
        zip(*_classify(centres[g : g + group, :x_rows], half[g : g + group, :x_rows], P))
        for g in range(0, len(centres), group))
    buf = np.empty(0)
    for lo, hi, (dead, poly) in zip(bounds.tolist(), bounds[1:].tolist(), classes):
        cross = np.flatnonzero(dead == poly)  # neither: a neuron cannot be both
        x = xt[:x_rows, lo:hi]
        size = (n_mono + len(cross) + extra) * (hi - lo)
        if size > len(buf):
            buf = np.empty(size)
        E = buf[:size].reshape(-1, hi - lo)
        if degree == 1:
            E[:n_mono] = x
        else:
            np.prod(x[idx], axis=1, out=E[:n_mono])
        Z = E[n_mono : n_mono + len(cross)]
        act(np.matmul(P[cross], x, out=Z), out=Z)
        yield lo, hi, dead, poly, cross, E


def _design_blocks(P, k, T, grid, tiles, yw, gram=False):
    """Successive blocks Bt = [B | y]^T of virtual rows of the weighted
    reduced design, one block per tile, neuron-major: each Bt^T Bt is the
    [B | y]^T [B | y] of its tile's grid rows.

    tiles is a level of the Grid grid (Grid.level) and yw the weighted
    targets on its rows; the neurons read the first P.shape[1] lifted rows
    (all of (x, 1), or eta on the sphere).  The tile walker (_tiles) gives
    each tile's E = [Q | sigma_k(C x^T)^T | y], with Q its degree-k
    monomials of the lifted rows and C its crossing neurons, scaled by sw,
    and E is reduced to a factor F with F^T F = E^T E, of at most
    C(k + d, d) + |C| + 1 rows.
    By default F is the triangular factor R of one Householder QR (dgeqrf,
    in place in the walker's buffer), of at most the tile's rows.  With gram,
    for a solver that forms the Gram anyway, F comes from the tile's Gram
    E^T E (dsyrk), scaled to unit diagonal by the column norms N, and its
    pivoted Cholesky factor (dpstrf; Hammarling, Higham and Lucas, PARA
    2006), which takes rank-deficient tiles as well: P^T N^-1 E^T E N^-1 P
    = U^T U gives F = U P^T N, its rows cut where a pivot is not positive
    (tol = 0).  The scaling keeps each entry's error within rounding of the
    product of its two columns' norms: unscaled, the pivots left when y lies
    in the span of the tile's other columns are rounding of theirs, which
    may exceed y's own norm^2.  [B | y] is E times a lift: a polynomial
    neuron, and each column of T, is its monomial coefficients on Q, a dead
    neuron 0, and a crossing neuron and y their own columns of E.  So F
    times that lift, the block, has [B | y]'s Gram on the tile; the blocks
    share one buffer that grows to the largest.  For k >= 1 sigma_k and the
    monomials are positively homogeneous of degree k in the lifted input,
    so the grid's rows scaled by sw^(1/k) (grid.scaled) scale every row of
    E by sw; for k = 0 each E is scaled.
    """
    idx, M = _monomial_lift(P, k)
    n_mono, cols = len(idx), len(P) + T.shape[1]
    # monomial coefficients of each live neuron's (theta . x)^k and of each column of T
    lift = np.hstack([M, T]).T
    sw, b_buf = grid.sw, np.empty(0)
    for lo, hi, dead, _, cross, E in _tiles(P, k, functools.partial(sigma_k, k), grid.scaled(k), tiles, extra=1):
        if not k:
            E[:-1] *= sw[lo:hi]
        E[-1] = yw[lo:hi]
        if gram:
            # the strictly lower triangle stays 0: neither dsyrk nor dpstrf reference it
            G = dsyrk(1.0, E.T, c=np.zeros((len(E), len(E)), order="F"), trans=1, overwrite_c=1)
            # a zero column has a zero row and column in G, which any positive scale leaves so
            norms = np.sqrt(np.maximum(np.diagonal(G), np.finfo(float).tiny))
            G /= norms
            G /= norms[:, None]
            U, piv, rank, _ = dpstrf(G, lower=0, tol=0.0, overwrite_a=1)
            R = np.empty((rank, len(E)))
            R[:, piv - 1] = U[:rank] * norms[piv - 1]
        else:
            # a workspace of 32 floats per column of E^T lets LAPACK run its blocked code (block size 32)
            R = np.triu(dgeqrf(E.T, lwork=32 * len(E), overwrite_a=1)[0][: min(len(E), hi - lo)])
        if (cols + 1) * len(R) > len(b_buf):
            b_buf = np.empty((cols + 1) * len(R))
        Bt = b_buf[: (cols + 1) * len(R)].reshape(cols + 1, len(R))
        np.matmul(lift, R[:, :n_mono].T, out=Bt[:cols])
        Bt[np.flatnonzero(dead)] = 0.0
        Bt[cross] = R[:, n_mono:-1].T
        Bt[cols] = R[:, -1]
        yield Bt


def _tile_values(model: FiniteNeuronModel, xt: np.ndarray, tiles, grad: bool = False):
    """Yield (lo, hi, V) for each tile of the level tiles, of at most
    _block_rows(n) rows, of the lifted rows xt (their first d + 1 rows, eta,
    for a sphere model): V[-1] holds the model's values at the rows lo:hi,
    and, with grad, V[:d] its gradients, one row per component.

    On each tile the walker (_tiles) classifies the neurons: a dead one is
    skipped, a polynomial one folded into the tile's coefficients on the
    monomials (_monomial_lift), and one product of [folded | crossing]
    coefficients with the walker's buffer gives the tile's sum.  For k >= 1 that
    sum is u = sum_j a_j theta_j sigma_k'(z_j), on the monomials of degree
    k - 1: u's first d components are the gradient, and since sigma_k(z) =
    z sigma_k'(z) / k, the value is x . u / k, with x the lifted row, so
    values and gradients come from one pass and values alone are the same
    bits.  For k = 0 the sum is the values, sum_j a_j sigma_0(z_j).  Against
    sigma_k(z) @ a and sigma_k'(z) @ (a W) each row moves by rounding, a
    few eps sum_j |a_j| (sum_i |theta_ji x_i|)^k at most.
    """
    k, d, P = model.k, model.d, model.ps.points
    if grad and k < 1:
        raise ContractError("gradient undefined for k=0")
    if grad and model.on_sphere:
        raise ContractError("gradient is implemented for domain models only")
    # u = sum_j k a_j theta_j s(z_j) with s = sigma_k' / k, that is max(z, 0)^(k - 1)
    # (z > 0 at k = 1, as sigma_1' reads), or the values sum_j a_j sigma_0(z_j) at k = 0
    coef = k * model.a[:, None] * P if k else model.a[:, None]
    degree = max(k - 1, 0)
    act = functools.partial(sigma_k_prime, 1) if k == 1 else functools.partial(sigma_k, degree)
    M = _monomial_lift(P, degree)[1]
    n_mono, width = len(M), coef.shape[1]
    # a polynomial neuron's term on the monomials, one row of width x n_mono per neuron
    fold = (coef[:, :, None] * M.T[:, None, :]).reshape(model.n, width * n_mono)
    c_buf = np.empty((width, n_mono + model.n))  # [folded | crossing] coefficients
    for lo, hi, _, poly, cross, E in _tiles(P, degree, act, xt, tiles):
        C = c_buf[:, : len(E)]
        C[:, :n_mono] = (poly @ fold).reshape(width, n_mono)
        C[:, n_mono:] = coef[cross].T
        u = C @ E
        if k:  # u[:d] is the gradient; its last row, which no output needs, takes the values
            value = np.einsum("ij,ij->j", xt[: P.shape[1], lo:hi], u)
            u = u if grad else u[d:]
            np.divide(value, k, out=u[-1])
        yield lo, hi, u


def _ridge_residual(yy: float, z: np.ndarray, c: np.ndarray, ridge: float, size: float) -> float:
    """||B c - y|| for the ridge solution c = R^-1 z, R^T R = B^T B + ridge I,
    z = R^-T B^T y: the square root of y^T y - ||z||^2 - ridge ||c||^2.

    The Gram's rounding moves that difference by a few eps (y^T y + size),
    size = (sum_j |c_j| ||b_j||)^2: against the evaluated error it moved by
    at most 3.3 eps size over d = 1, 2, k = 1, 2, 3 and n <= 512, but by up
    to 5700 eps y^T y on ill-conditioned designs, so y^T y alone is no
    scale.  Below RESIDUAL_FLOOR (y^T y + size) too few digits are left, so
    the residual is NaN, as it is for a negative or NaN difference: it is
    never clamped.
    """
    res2 = yy - float(z @ z) - ridge * float(c @ c)
    return math.sqrt(res2) if res2 >= RESIDUAL_FLOOR * (yy + size) else math.nan


def _solve_reduced(P, k, T, grid, tiles, yw, ridge) -> tuple[np.ndarray, float, str, int]:
    """(c, residual, solver, solver_rows): coefficients for the weighted
    reduced design B = sw [sigma_k(P x^T) | Q T] on the Grid grid, the grid
    residual ||B c - y||, the solver taken (cholesky, qr or cholesky->qr)
    and the virtual rows it read.

    Both solvers read the blocks of virtual rows of [B | y] that the tiles
    of the level tiles give (_design_blocks), whose Grams sum to
    [B | y]^T [B | y], and end in a triangular factor [[R, z], [0, rho]]
    of [B | y].  A ridge, which squares the condition number anyway, takes
    each tile's block from the pivoted Cholesky factor of the tile's Gram, adds each block's Gram to the upper triangle of one
    (cols + 1)^2 matrix with one dsyrk, whose last column is B^T y and
    corner y^T y, adds the ridge to its diagonal, and factors
    R^T R = B^T B + ridge I with dpotrf on that triangle; two dtrtrs give
    z = R^-T B^T y and c = R^-1 z, and the residual comes from
    _ridge_residual.  A pivot that is not positive (a ridge below rounding
    on a rank-deficient design) falls back to the QR fold, which reads the
    blocks again.  The QR fold takes each tile's block from its Householder
    QR, copies blocks, transposed, under the previous triangular factor
    until at least 4 cols rows wait (each fold re-factors R) and folds them
    into the factor [[R, z], [0, rho]] of a QR decomposition, once more
    after the last block, so the singular values of B = (Q U) diag(s) V^T
    come from R = U diag(s) V^T without squaring its condition number.
    Over the s above lstsq's cutoff eps max(rows, cols) s_max, rows the
    grid's, c = V (U^T z / s) is the minimum-norm least-squares solution,
    and with a ridge c = V (s U^T z / (s^2 + ridge)).  The fold's residual
    is sqrt(rho^2 + ||R c - z||^2), which involves no cancellation.
    """
    rows = len(grid[0])
    cols = len(P) + T.shape[1]
    solver, solver_rows = "qr", 0
    if ridge > 0.0:
        G = np.zeros((cols + 1, cols + 1), order="F")
        for Bt in _design_blocks(P, k, T, grid, tiles, yw, gram=True):
            dsyrk(1.0, Bt.T, beta=1.0, c=G, trans=1, overwrite_c=1)
            solver_rows += Bt.shape[1]
        diag = np.arange(cols)
        col_norms = np.sqrt(G[diag, diag])
        G[diag, diag] += ridge
        R, info = dpotrf(G[:cols, :cols], lower=0)
        if info == 0:
            z = dtrtrs(R, G[:cols, cols], lower=0, trans=1)[0]
            c = dtrtrs(R, z, lower=0)[0]
            size = float(np.abs(c) @ col_norms) ** 2
            return c, _ridge_residual(G[cols, cols], z, c, ridge, size), "cholesky", solver_rows
        solver = "cholesky->qr"
    # [R | z] over the waiting rows, column-major so that each block row copies in contiguously;
    # fewer than 4 cols rows wait before a block of at most len(P) + C(k + d, d) + 1 rows
    width = len(P) + math.comb(k + P.shape[1] - 1, k) + 1
    design = np.empty((cols + 1, cols + 1 + min(rows, 4 * cols + width))).T
    r = held = 0
    for Bt in _design_blocks(P, k, T, grid, tiles, yw):
        design[r + held : r + held + Bt.shape[1]] = Bt.T
        held += Bt.shape[1]
        solver_rows += Bt.shape[1]
        if held >= 4 * cols:
            r, held = _fold(design, r + held), 0
    if held:
        r = _fold(design, r + held)
    R, z = np.zeros((cols, cols)), np.zeros(cols)
    m = min(r, cols)
    R[:m], z[:m] = design[:m, :cols], design[:m, cols]
    rho = float(design[cols, cols]) if r > cols else 0.0
    U, s, Vt = np.linalg.svd(R)
    Uz = U.T @ z
    if ridge > 0.0:
        c = Vt.T @ (s * Uz / (s * s + ridge))
    else:
        keep = s > np.finfo(float).eps * max(rows, cols) * s[0]
        c = Vt.T @ np.divide(Uz, s, out=np.zeros(cols), where=keep)
    return c, math.hypot(rho, float(np.linalg.norm(R @ c - z))), solver, solver_rows


def _fold(design: np.ndarray, rows: int) -> int:
    """Replace the first rows of design by their QR factor R; len(R)."""
    R = np.linalg.qr(design[:rows], mode="r")
    design[: len(R)] = R
    return len(R)


def _grid_weights(grid_weights, rows: int) -> np.ndarray:
    """grid_weights as floats; a ContractError unless rows finite values >= 0."""
    w = np.asarray(grid_weights, dtype=float)
    if w.shape != (rows,) or not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ContractError(f"grid weights must be {rows} finite values >= 0")
    return w


def least_squares_fit(
    f: TargetFunction,
    ps: PointSet,
    grid_points: Grid,
    k: int = 1,
    ridge: float = 0.0,
) -> FiniteNeuronModel:
    """Weighted least squares over grid_points, a Grid of (points, weights)
    on the domain (or the sphere), with an optional ridge.

    A rank-deficient design with ridge=0 yields the minimum-norm solution.
    A norm cap sqrt(n)||a||_2 <= M is the smallest ridge that meets it,
    which ridge_bisect_cap finds on a Gram matrix.  A ridge that is
    negative or NaN is a ConfigurationError, and grid_points that is not a
    Grid, or holds points of the wrong width, a ContractError (a Grid
    refuses points that are not finite and weights other than one finite
    value >= 0 per point).

    Only the neurons the grid can tell apart are fitted.  On a domain of
    largest grid radius r (grid_points.radius), a dead neuron (0 on the
    grid) gets a_j = 0, and the polynomial block Q U_r S_r V_r^T is fitted
    through its r columns Q U_r S_r with coefficients c, lifted back as
    a_P = V_r c.  V_r has orthonormal columns, so ||a|| = ||(a_live, c)||
    and the ridge and minimum-norm problems keep their solutions exactly.
    Sphere targets prune nothing.  The weighted reduced design B and the
    weighted target y are never built as rows: the grid's tiles
    (grid_points.level) that hold at most _block_rows(live + C(k + d, d) +
    1) rows each give a factor of their own small design, in which a
    neuron that does not cross the tile's box is 0 or its monomial sum,
    lifted to the columns of [B | y] (_design_blocks), from the grid's
    weighted rows and its table of f, both kept for the next fit on the
    grid.  With a ridge, each tile's factor comes from the pivoted
    Cholesky factor of its Gram, one dsyrk per tile accumulates
    [B | y]^T [B | y], which holds G = B^T B and B^T y, and
    (G + ridge I) a = B^T y is solved by Cholesky (dpotrf, then two
    dtrtrs); a pivot that is not positive, as a ridge below rounding on a
    rank-deficient design gives, falls back to the QR fold.  A fit without
    a ridge folds the tiles' Householder QR factors into a QR factor, whose
    SVD gives the minimum-norm solution without squaring the condition
    number as G does (see _solve_reduced).

    The model returned carries the fit's grid residual
    sqrt(sum_i w_i (f_n(x_i) - f(x_i))^2) as model.residual, read from the
    triangular factor both solvers end in: sqrt(rho^2 + ||R c - z||^2)
    from the QR fold, and sqrt(y^T y - ||z||^2 - ridge ||c||^2) from the
    Cholesky factor.  The latter cancels; below RESIDUAL_FLOOR times its
    rounding scale it is NaN rather than clamped (_ridge_residual), and
    the caller evaluates the model with error_norms instead.  Every model
    no least-squares fit produced has residual NaN.  One JSON debug record
    per fit (rows, n, the live, polynomial and dead counts, the reduced
    column count, the problem solved: lstsq or solve, the solver
    taken: cholesky, qr or cholesky->qr, the residual, the tiles read, the
    rows of the largest as block_rows, the virtual rows the solver read as
    solver_rows, and the seconds taken) goes to the "fnspace.models"
    logger, quiet by default.
    """
    start = time.perf_counter()
    if not isinstance(grid_points, Grid):
        raise ContractError("grid_points must be a models.Grid")
    if not ridge >= 0.0:  # NaN too
        raise ConfigurationError(f"ridge must be >= 0, got {ridge}")
    if grid_points[0].shape[1] != f.d + f.on_sphere:
        raise ContractError("grid points must have d components (d+1 on the sphere)")
    rows, n = len(grid_points[0]), ps.n
    if rows < n:
        raise ConfigurationError("sample grid must have at least n points")
    if f.on_sphere:  # theta . eta spans [-1, 1] over unit rows
        dead = poly = np.zeros(n, dtype=bool)
    else:  # theta . (x, 1) spans [b - |w| r, b + |w| r] over |x| <= r
        r = grid_points.radius
        w = np.linalg.norm(ps.points[:, : ps.d], axis=1)
        dead = ps.points[:, ps.d] + w * r < -CLASS_MARGIN
        poly = ps.points[:, ps.d] - w * r > CLASS_MARGIN
    live = ~(dead | poly)
    T, V = _polynomial_block(ps.points[poly], k)
    P = ps.points[live]
    n_live = len(P)
    cols = n_live + T.shape[1]
    yw = grid_points.tabulate(f) * grid_points.sw
    if cols:
        tiles = grid_points.level(_block_rows(n_live + math.comb(k + ps.d, k) + 1))
        c, residual, solver, solver_rows = _solve_reduced(P, k, T, grid_points, tiles, yw, ridge)
        sizes = np.diff(tiles[0])
    else:  # every neuron is 0 on the grid
        c, residual, solver, solver_rows = np.zeros(0), float(np.linalg.norm(yw)), None, 0
        sizes = np.zeros(0, dtype=int)
    a = np.zeros(n)
    a[live] = c[:n_live]
    a[poly] = V @ c[n_live:]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("%s", json.dumps({
            "rows": rows, "n": n, "live": n_live, "polynomial": int(np.count_nonzero(poly)),
            "dead": int(np.count_nonzero(dead)), "columns": cols,
            "path": "solve" if ridge > 0.0 else "lstsq",
            "solver": solver, "residual": residual, "tiles": len(sizes),
            "block_rows": int(np.max(sizes, initial=0)), "solver_rows": solver_rows,
            "seconds": time.perf_counter() - start,
        }))
    model = FiniteNeuronModel(k, ps, a, on_sphere=f.on_sphere)
    object.__setattr__(model, "residual", residual)
    return model


def error_norms(
    model: FiniteNeuronModel,
    f: TargetFunction,
    grid_points: Grid,
    s: int = 0,
) -> tuple[float, float]:
    """Discrete (L2 error, H1-seminorm error) on grid_points, a Grid of
    (points, weights); the latter is 0.0 when s=0.

    grid_points that is not a Grid, or holds points of the wrong width for
    the model, is a ContractError.  The model is evaluated tile by tile on
    the grid's tiles, whose boxes a fit on the same Grid may have built
    already, and no values or gradients array as long as the grid is formed
    (_tile_values); the target's values and gradients come from the grid's
    tables of them, kept for the next calls, and are reduced with the
    weights tile by tile.
    """
    if not isinstance(grid_points, Grid):
        raise ContractError("grid_points must be a models.Grid")
    if s not in (0, 1):
        raise ContractError("s must be 0 or 1")
    if s == 1 and f.grad is None:
        raise ContractError("H1 error needs the target gradient")
    if grid_points[0].shape[1] != model.d + model.on_sphere:
        raise ContractError("grid points must have d components (d+1 on the sphere)")
    w, values = grid_points[1], grid_points.tabulate(f)
    grads = grid_points.tabulate(f.grad) if s == 1 else None
    l2 = h1 = 0.0  # the value row is reduced alone, so l2 is the same at either s
    for lo, hi, V in _tile_values(model, grid_points.xt, grid_points.level(_block_rows(model.n)), s == 1):
        V[-1] -= values[lo:hi]  # V holds the gradient's rows, then the values
        if s == 1:
            V[:-1] -= grads[:, lo:hi]
        V *= V
        l2 += float(V[-1] @ w[lo:hi])
        if s == 1:
            h1 += float(np.sum(V[:-1] @ w[lo:hi]))
    return math.sqrt(max(l2, 0.0)), math.sqrt(max(h1, 0.0))


def coef_stat(model: FiniteNeuronModel) -> tuple[float, float, float]:
    """(||a||_2, sqrt(n)||a||_2, ||a||_1)."""
    l2 = float(np.linalg.norm(model.a))
    return l2, math.sqrt(model.n) * l2, float(np.abs(model.a).sum())
