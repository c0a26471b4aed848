"""Experiment orchestration: rate sweeps, random-vs-deterministic
comparisons, slope fitting, and the one config reader and result writer.

Configs are flat key=value text files, parsed by parse_config and typed by
read_config against a command's key table, which rejects every key the
command does not read.  Result files are written through write_result, CSVs
through write_csv (floats with repr).  Rates and randcmp rows carry a short
hash of the sweep's typed values, so every spelling of one sweep names the
same files and identical sweeps produce byte-identical output.
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
from .errors import (
    ConfigurationError,
    ContractError,
    DomainError,
    NumericalError,
    PrecisionError,
)
from .harmonics import reference_grid
from .models import (
    TargetFunction,
    coef_stat,
    constructive_fit,
    error_norms,
    least_squares_fit,
)
from .pde_erm import DISK_GRID_ANGLES, disk_grid, midpoint_grid
from .sphere import generate_points

__all__ = [
    "ExperimentConfig",
    "RateReport",
    "fit_slope",
    "parse_config",
    "read_config",
    "config_hash",
    "get_target",
    "domain_grid",
    "run_rates",
    "run_randcmp",
    "write_csv",
    "write_result",
]

MIN_SLOPE_ROWS = 4

# failures a sweep cell may end in; anything else is a bug and propagates
CELL_ERRORS = (
    ContractError,
    ConfigurationError,
    DomainError,
    PrecisionError,
    NumericalError,
    np.linalg.LinAlgError,
)


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
    """key=value lines; '#' starts a comment; values keep their raw form."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
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
    """Validated sweep description shared by rates / randcmp runs."""

    d: int
    k: int
    target: str
    strategy: str
    ns: tuple[int, ...]
    path: str = "ls"  # "ls" or "constructive"
    seeds: tuple[int, ...] = (0,)
    ridge: float = 0.0
    resolution: float = 0.01
    s: int = 1
    out_dir: str = "."

    def __post_init__(self):
        if self.path not in ("ls", "constructive"):
            raise ConfigurationError("path must be 'ls' or 'constructive'")
        if self.s not in (0, 1):
            raise ConfigurationError("s must be 0 or 1")
        if len(self.ns) == 0:
            raise ConfigurationError("ns must be nonempty")

    @property
    def hash(self) -> str:
        """Hash of the typed fields without out_dir: every spelling of one
        sweep gets one hash, and the output directory names no file."""
        return config_hash({k: v for k, v in asdict(self).items() if k != "out_dir"})


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


def _rate_row(*cells) -> dict:
    return dict(zip(RATE_COLUMNS, cells))


def _rate_row_constructive(cfg: ExperimentConfig, target, n: int) -> dict:
    ps = generate_points(
        cfg.d, n, cfg.strategy, seed=cfg.seeds[0], resolution=cfg.resolution
    )
    rule = quadrature.build_rule(ps, n - 1 if cfg.d == 1 else quadrature.default_degree(ps))
    spec = spectrum(cfg.d, cfg.k, rule.J + 4)
    grid = reference_grid(cfg.d, max(2 * rule.J + 8, 1024 if cfg.d == 1 else 64))
    model = constructive_fit(target, rule, spec, grid)
    l2, _ = error_norms(model, target, grid.nodes, grid.weights, s=0)
    return _rate_row(n, ps.h, l2, float("nan"), coef_stat(model)[1], "")


def _ls_fit(cfg: ExperimentConfig, target, n: int, strategy: str, seed: int, grid):
    """One point set and its least-squares model on the grid."""
    pts, w = grid
    ps = generate_points(cfg.d, n, strategy, seed=seed, resolution=cfg.resolution)
    return ps, least_squares_fit(target, ps, pts, w, k=cfg.k, ridge=cfg.ridge)


def _rate_row_ls(cfg: ExperimentConfig, target, n: int, seed: int, grid) -> dict:
    ps, model = _ls_fit(cfg, target, n, cfg.strategy, seed, grid)
    l2, h1 = error_norms(model, target, *grid, s=cfg.s)
    return _rate_row(n, ps.h, l2, h1, coef_stat(model)[1], "")


def run_rates(cfg: ExperimentConfig, write: bool = True) -> RateReport:
    """One error-vs-n sweep; failed cells become error rows, not aborts.

    An error row names the exception class in error_code and keeps its
    message under error_message, which only the JSON report carries.
    """
    target = get_target(cfg.target, cfg.d)
    grid = None if cfg.path == "constructive" else domain_grid(cfg.d, 4096 if cfg.d == 1 else 64 * max(cfg.ns))
    rows = []
    for n in sorted(cfg.ns):
        try:
            if cfg.path == "constructive":
                rows.append(_rate_row_constructive(cfg, target, n))
            else:
                rows.append(_rate_row_ls(cfg, target, n, cfg.seeds[0], grid))
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
    report = RateReport(cfg.hash, slope, stderr, theoretical_slope(cfg.d, cfg.k, 0), note, tuple(rows))
    if write:
        out = Path(cfg.out_dir)
        hashed = [{"config_hash": cfg.hash} | row for row in rows]
        write_csv(out / f"rates_{cfg.hash}.csv", ("config_hash",) + RATE_COLUMNS, hashed)
        write_result(out / f"rates_{cfg.hash}.json", json.dumps(asdict(report)))
    return report


def run_randcmp(cfg: ExperimentConfig, write: bool = True) -> dict:
    """Deterministic vs random-direction least squares at each n.

    For every n the deterministic strategy from the config is compared
    with uniform_random draws over all config seeds; the summary records
    the random-error median and quartiles plus random mesh norms.
    """
    if len(cfg.seeds) < 10:
        raise ConfigurationError("randcmp needs at least 10 seeds")
    target = get_target(cfg.target, cfg.d)
    grid = domain_grid(cfg.d, 4096 if cfg.d == 1 else 64 * max(cfg.ns))
    rows = []
    for n in sorted(cfg.ns):
        det_ps, det_model = _ls_fit(cfg, target, n, cfg.strategy, cfg.seeds[0], grid)
        det_error, _ = error_norms(det_model, target, *grid, s=0)
        rand_errs, rand_h = [], []
        for seed in cfg.seeds:
            ps, model = _ls_fit(cfg, target, n, "uniform_random", seed, grid)
            l2, _ = error_norms(model, target, *grid, s=0)
            rand_errs.append(l2)
            rand_h.append(ps.h)
        q1, q2, q3 = np.percentile(rand_errs, [25, 50, 75])
        rows.append(
            {
                "n": n,
                "det_error": det_error,
                "det_h": det_ps.h,
                "rand_q1": float(q1),
                "rand_median": float(q2),
                "rand_q3": float(q3),
                "rand_h_median": float(np.median(rand_h)),
            }
        )
    summary = {"config_hash": cfg.hash, "rows": rows}
    if write:
        hashed = [{"config_hash": cfg.hash} | row for row in rows]
        write_csv(Path(cfg.out_dir) / f"randcmp_{cfg.hash}.csv", list(hashed[0]), hashed)
    return summary
