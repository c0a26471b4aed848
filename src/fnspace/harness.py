"""Experiment orchestration: rate sweeps, random-vs-deterministic
comparisons, the PDE ERM sweep, slope fitting, and the one config reader and
result writer.

Configs are flat key=value text files, parsed by parse_config and typed by
read_config against a command's key table, which rejects every key the
command does not read.  run_rates, run_randcmp and run_pde compute and
return their config hash and rows and write nothing; the CLI writes every
result file, through write_result, and every CSV through write_csv (floats
with repr).  A sweep's hash is the hash of all its typed values, with its
sizes (ns, ms) and seeds sorted, so every spelling of one sweep names the
same files and identical sweeps produce byte-identical output.  The CSV's h
is the point set's own, searched on S^2 at sphere's one fixed resolution,
which no config key sets.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass
from pathlib import Path

import numpy as np

from . import quadrature
from .activation import spectrum
from .errors import ConfigurationError, ContractError, DomainError, NumericalError, PrecisionError
from .harmonics import reference_grid
from .models import Grid, TargetFunction, coef_stat, constructive_fit, error_norms, least_squares_fit
from .pde_erm import DISK_GRID_ANGLES, disk_grid, disk_problem, erm_fit, interval_directions, interval_problem
from .pde_erm import midpoint_grid
from .sphere import generate_points

__all__ = [
    "ExperimentConfig", "RateReport", "fit_slope", "parse_config", "read_config", "config_hash", "get_target",
    "domain_grid", "run_rates", "run_randcmp", "run_pde", "write_csv", "write_result",
]

MIN_SLOPE_ROWS = 4

# failures a sweep cell may end in; anything else propagates: a bug, or a
# ConfigurationError, which would be the same in every cell
CELL_ERRORS = (ContractError, DomainError, PrecisionError, NumericalError, np.linalg.LinAlgError)


def fit_slope(log_points) -> tuple[float, float]:
    """OLS slope and standard error for (log n, log err) pairs."""
    pts = np.asarray(log_points, dtype=float)
    if len(pts) < MIN_SLOPE_ROWS:
        raise ContractError(f"need at least {MIN_SLOPE_ROWS} points for a slope")
    if not np.all(np.isfinite(pts)):
        raise DomainError("slope fit requires finite log values")
    x, y = pts[:, 0], pts[:, 1]
    (slope, intercept), cov = np.polyfit(x, y, 1, cov=True)
    return float(slope), float(math.sqrt(max(cov[0, 0], 0.0)))


def loglog_slope(ns, errs) -> tuple[float, float]:
    """fit_slope on raw (n, err) data; errors must be positive."""
    errs = np.asarray(errs, dtype=float)
    if np.any(errs <= 0.0):
        raise DomainError("nonpositive error value in slope data")
    return fit_slope(np.column_stack([np.log(ns), np.log(errs)]))


def parse_config(text: str) -> dict:
    """key=value lines; '#' starts a comment; values keep their raw form.  A
    key set on two lines is a ConfigurationError naming both."""
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigurationError(f"config key {key} set twice, on lines {seen[key]} and {lineno}")
        out[key], seen[key] = val, lineno
    return out


def read_config(cfg: dict, keys: dict) -> dict:
    """The typed values a command reads from cfg.  keys is its table
    {key: (kind, default)}: each value is kind(cfg[key]), or default when the
    key is absent.  A key of cfg outside the table, an absent key whose default
    is MISSING, or a value kind rejects is a ConfigurationError naming the key."""
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ConfigurationError(f"unknown config key: {', '.join(unknown)}")
    values = {}
    for key, (kind, default) in keys.items():
        if key in cfg:
            try:
                values[key] = kind(cfg[key])
            except ValueError as exc:
                raise ConfigurationError(f"bad value for {key}: {cfg[key]!r}") from exc
        elif default is MISSING:
            raise ConfigurationError(f"missing config key: {key}")
        else:
            values[key] = default
    return values


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _size_set(key: str, sizes) -> tuple[int, ...]:
    """A sweep's sizes or seeds as a set: sorted, and a repeat is a ConfigurationError."""
    if len(set(sizes)) != len(sizes):
        raise ConfigurationError(f"{key} repeats a value: {' '.join(map(str, sizes))}")
    return tuple(sorted(sizes))


def write_result(path: Path, text: str) -> None:
    """Write one result file, creating its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def write_csv(path: Path, columns, rows) -> None:
    """One header line, then each row's cells in column order: floats
    (numpy scalars included) written as repr(float(v)), anything else with str."""
    lines = [",".join(columns)]
    for row in rows:
        cells = (row[c] for c in columns)
        lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in cells))
    write_result(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated sweep description shared by rates / randcmp runs; ns and
    seeds are sets, stored sorted, so their order names no file."""

    d: int
    k: int
    target: str
    strategy: str
    ns: tuple[int, ...]
    path: str = "ls"  # "ls" or "constructive"
    seeds: tuple[int, ...] = (0,)
    ridge: float = 0.0
    s: int = 1

    def __post_init__(self):
        if self.path not in ("ls", "constructive"):
            raise ConfigurationError("path must be 'ls' or 'constructive'")
        if self.s not in (0, 1):
            raise ConfigurationError("s must be 0 or 1")
        if len(self.ns) == 0:
            raise ConfigurationError("ns must be nonempty")
        if not self.ridge >= 0.0:  # NaN too
            raise ConfigurationError(f"ridge must be >= 0, got {self.ridge}")
        if self.k < 0:
            raise ConfigurationError(f"k must be >= 0, got {self.k}")
        object.__setattr__(self, "ns", _size_set("ns", self.ns))
        object.__setattr__(self, "seeds", _size_set("seeds", self.seeds))

    @property
    def hash(self) -> str:
        """Hash of every typed field: every spelling of one sweep gets one hash."""
        return config_hash(asdict(self))


@dataclass(frozen=True)
class RateReport:
    """Sweep results and fitted log-log slope (NaN if < 4 clean rows); fields in JSON report order."""

    config_hash: str
    fitted_slope: float
    slope_stderr: float
    theoretical_slope: float
    note: str
    rows: tuple[dict, ...]


def get_target(name: str, d: int) -> TargetFunction:
    """Built-in targets by name."""
    if name == "smooth_even_circle":
        if d != 1:
            raise ConfigurationError("smooth_even_circle requires d=1")

        def g(eta):
            phi = np.arctan2(eta[..., 1], eta[..., 0])
            return np.exp(np.sin(2.0 * phi)) + np.cos(4.0 * phi)

        return TargetFunction(name, 1, g, on_sphere=True, parity=1)
    if name == "gaussian_bump":

        def f(x):
            return np.exp(-2.0 * np.sum(x**2, axis=-1))

        def fg(x):
            return (-4.0 * np.exp(-2.0 * np.sum(x**2, axis=-1)))[..., None] * x

        return TargetFunction(name, d, f, fg)
    raise ConfigurationError(f"unknown target {name!r}")


def _sweep_target(cfg: ExperimentConfig) -> TargetFunction:
    """cfg's target, which its path must be able to fit: the constructive path
    fits a sphere target and the least-squares path a domain target."""
    target = get_target(cfg.target, cfg.d)
    if target.on_sphere != (cfg.path == "constructive"):
        kind = "sphere" if target.on_sphere else "domain"
        raise ConfigurationError(f"the {cfg.path} path cannot fit the {kind} target {cfg.target}")
    return target


def domain_grid(d: int, min_points: int = 4096) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature grid on the domain: uniform on [-1,1] for d=1, Gauss
    radial x equispaced angular on the unit disk for d=2.  Weights are
    normalized to sum to 1 (normalized volume measure)."""
    if d == 1:
        return midpoint_grid(-1.0, 1.0, min_points)[:, None], np.full(min_points, 1.0 / min_points)
    if d == 2:
        pts, w = disk_grid(max(80, int(math.ceil(min_points / DISK_GRID_ANGLES))))
        return pts, w / w.sum()
    raise ConfigurationError("domain grids implemented for d in {1,2}")


def theoretical_slope(d: int, k: int, s: int) -> float:
    """Rate exponent -(r - s)/d at the coefficient-bound regularity
    r = (d + 2k + 1)/2."""
    r = (d + 2 * k + 1) / 2.0
    return -(r - s) / d


RATE_COLUMNS = ("n", "h", "error_l2", "error_h1", "sqrtn_a_norm", "error_code")
PDE_COLUMNS = ("d", "k", "n", "m", "M", "seed", "emp_risk", "energy", "excess", "h1", "sqrtn_a_norm")


def _rate_row(*cells) -> dict:
    return dict(zip(RATE_COLUMNS, cells))


def _rate_row_constructive(cfg: ExperimentConfig, target, n: int) -> dict:
    ps = generate_points(cfg.d, n, cfg.strategy, seed=cfg.seeds[0])
    rule = quadrature.build_rule(ps, n - 1 if cfg.d == 1 else quadrature.default_degree(ps))
    spec = spectrum(cfg.d, cfg.k, rule.J + 4)
    grid = reference_grid(cfg.d, max(2 * rule.J + 8, 1024 if cfg.d == 1 else 64))
    model = constructive_fit(target, rule, spec, grid)
    l2, _ = error_norms(model, target, Grid(grid.nodes, grid.weights), s=0)
    return _rate_row(n, ps.h, l2, float("nan"), coef_stat(model)[1], "")


def _ls_grid(cfg: ExperimentConfig) -> Grid:
    """The least-squares sweeps' grid, one Grid per sweep, so every cell's
    fit and error norms share its tiling, weighted rows and target tables:
    it depends only on d and max(ns)."""
    return Grid(*domain_grid(cfg.d, 4096 if cfg.d == 1 else 64 * max(cfg.ns)))


def _rate_row_ls(cfg: ExperimentConfig, target, n: int, strategy: str, seed: int, grid, s: int) -> dict:
    """One least-squares cell: the point set, its fit on the grid, and the errors
    up to order s.  The fit measures on the grid it solved on, so error_l2 is
    the fit's own residual at every s; error_norms runs only for error_h1 at
    s = 1, or for error_l2 when the residual is NaN.  At s = 0 error_h1 is
    NaN, since it was not computed."""
    ps = generate_points(cfg.d, n, strategy, seed=seed)
    model = least_squares_fit(target, ps, grid, k=cfg.k, ridge=cfg.ridge)
    l2, h1 = model.residual, float("nan")
    if s or math.isnan(l2):
        l2_eval, h1_eval = error_norms(model, target, grid, s=s)
        l2 = l2_eval if math.isnan(l2) else l2
        h1 = h1_eval if s else h1
    return _rate_row(n, ps.h, l2, h1, coef_stat(model)[1], "")


def run_rates(cfg: ExperimentConfig) -> RateReport:
    """One error-vs-n sweep; failed cells become error rows, not aborts.

    An error row names the exception class in error_code and keeps its
    message under error_message, which only the JSON report carries.  The
    sweep reads one seed, and the constructive path no ridge, so more seeds
    or a nonzero ridge there is a ConfigurationError, as is a target the
    path cannot fit.
    """
    if len(cfg.seeds) != 1:
        raise ConfigurationError(f"a rate sweep reads one seed, got {len(cfg.seeds)}")
    if cfg.path == "constructive" and cfg.ridge != 0.0:
        raise ConfigurationError("the constructive path takes no ridge")
    target = _sweep_target(cfg)
    grid = None if cfg.path == "constructive" else _ls_grid(cfg)
    rows = []
    for n in cfg.ns:
        try:
            if cfg.path == "constructive":
                rows.append(_rate_row_constructive(cfg, target, n))
            else:
                rows.append(_rate_row_ls(cfg, target, n, cfg.strategy, cfg.seeds[0], grid, cfg.s))
        except CELL_ERRORS as exc:  # error rows keep the sweep alive
            nan = float("nan")
            rows.append(_rate_row(n, nan, nan, nan, nan, type(exc).__name__) | {"error_message": str(exc)})
    clean = [r for r in rows if r["error_code"] == "" and r["error_l2"] > 0.0]
    note = ""
    if len(clean) >= MIN_SLOPE_ROWS:
        slope, stderr = loglog_slope(
            [r["n"] for r in clean], [r["error_l2"] for r in clean]
        )
    else:
        slope, stderr, note = float("nan"), float("nan"), "insufficient data"
    return RateReport(cfg.hash, slope, stderr, theoretical_slope(cfg.d, cfg.k, 0), note, tuple(rows))


def run_randcmp(cfg: ExperimentConfig) -> dict:
    """Deterministic vs random-direction least squares at each n.

    For every n the deterministic strategy from the config, at the
    smallest seed, is compared with uniform_random draws over all config
    seeds (a set, so no draw is counted twice); the summary records
    the random-error median and quartiles plus random mesh norms.  Each
    cell is a rate-sweep cell with s = 0.  The comparison reads neither
    path nor s, so either one away from its default is a ConfigurationError.
    """
    for key in ("path", "s"):
        if getattr(cfg, key) != getattr(ExperimentConfig, key):
            raise ConfigurationError(f"randcmp reads no {key}, got {key} = {getattr(cfg, key)}")
    if len(cfg.seeds) < 10:
        raise ConfigurationError("randcmp needs at least 10 seeds")
    grid = _ls_grid(cfg)
    target = _sweep_target(cfg)
    rows = []
    for n in cfg.ns:
        det = _rate_row_ls(cfg, target, n, cfg.strategy, cfg.seeds[0], grid, 0)
        rand = [_rate_row_ls(cfg, target, n, "uniform_random", seed, grid, 0) for seed in cfg.seeds]
        q1, q2, q3 = np.percentile([r["error_l2"] for r in rand], [25, 50, 75])
        rows.append(
            {
                "n": n,
                "det_error": det["error_l2"],
                "det_h": det["h"],
                "rand_q1": float(q1),
                "rand_median": float(q2),
                "rand_q3": float(q3),
                "rand_h_median": float(np.median([r["h"] for r in rand])),
            }
        )
    return {"config_hash": cfg.hash, "rows": rows}


PDE_PROBLEMS = {"interval": interval_problem, "disk": disk_problem}


def run_pde(problem: str, k: int, ms, seeds) -> dict:
    """Ritz-energy ERM of a linearized network at each sample count m.

    The inner directions are fixed (interval_directions on the interval,
    Fibonacci on the disk) at n = ceil(m^(d/(2(d+2k-1)))) and only the outer
    coefficients are fitted, once per seed.  ms is a set of sizes (sorted,
    no repeats, at least MIN_SLOPE_ROWS) and seeds a set of seeds (sorted,
    no repeats, at least one); excess_slope and its stderr are the log-log
    slope of the seed-mean excess risk against m.
    """
    if problem not in PDE_PROBLEMS:
        raise ConfigurationError(f"unknown problem {problem!r}")
    if k < 1:
        raise ConfigurationError(f"the ERM fit needs k >= 1 for gradients, got k = {k}")
    if not seeds:
        raise ConfigurationError("seeds must be nonempty")
    ms, seeds = _size_set("ms", ms), _size_set("seeds", seeds)
    if len(ms) < MIN_SLOPE_ROWS:
        raise ConfigurationError(f"need at least {MIN_SLOPE_ROWS} sample sizes for a slope, got {len(ms)}")
    if ms[0] < 1:
        raise ConfigurationError(f"sample sizes must be >= 1, got {ms[0]}")
    prob = PDE_PROBLEMS[problem]()
    rows, means = [], []
    for m in ms:
        n = math.ceil(m ** (prob.d / (2.0 * (prob.d + 2 * k - 1))))
        ps = interval_directions(n) if prob.d == 1 else generate_points(prob.d, n, "fibonacci_s2")
        excesses = []
        for seed in seeds:
            res = erm_fit(prob, ps, prob.sample(m, seed), k, seed=seed)
            excesses.append(res.excess_risk)
            cells = (prob.d, k, n, m, res.model.norm_cap, seed, res.empirical_risk,
                     res.population_energy, res.excess_risk, res.h1_error, coef_stat(res.model)[1])
            rows.append(dict(zip(PDE_COLUMNS, cells)))
        means.append(float(np.mean(excesses)))
    slope, stderr = loglog_slope(ms, means)
    return {"config_hash": config_hash({"problem": problem, "k": k, "ms": ms, "seeds": seeds}),
            "rows": rows, "excess_slope": slope, "stderr": stderr}
