"""Command-line entry point.

Subcommands: points, quad, spectrum, approx, rates, randcmp, pde, kernel.
Every subcommand reads a key=value config file (--config), writes results
under --out, and exits 0 on success, 2 on configuration problems, and 3
on numerical failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import harness, pde_erm, quadrature
from .activation import spectrum as build_spectrum
from .activation import kernel as kernel_series
from .activation import sigma_k
from .errors import ConfigurationError, ContractError, DomainError
from .errors import NumericalError, PrecisionError
from .harmonics import sphere_area
from .harness import ExperimentConfig, config_value, loglog_slope, parse_config, run_randcmp, run_rates
from .quadrature import build_rule, rule_to_json
from .sphere import generate_points, pointset_to_json

CONFIG_ERRORS = (ConfigurationError, ContractError, DomainError, FileNotFoundError)
NUMERIC_ERRORS = (PrecisionError, NumericalError, np.linalg.LinAlgError)
PDE_COLUMNS = ("d", "k", "n", "m", "M", "seed", "emp_risk", "energy", "excess", "h1", "sqrtn_a_norm")


def _load(args) -> dict:
    cfg = parse_config(Path(args.config).read_text()) if args.config else {}
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    cfg.setdefault("out_dir", args.out)
    return cfg


def _result(cfg: dict, name: str) -> Path:
    return Path(config_value(cfg, "out_dir", str)) / name


def _points(cfg: dict, **extra):
    """The point set of the config's d, n, strategy, seed and resolution."""
    d, n, strategy = config_value(cfg, "d"), config_value(cfg, "n"), config_value(cfg, "strategy", str)
    seed, resolution = config_value(cfg, "seed", int, "0"), config_value(cfg, "resolution", float, "0.01")
    return generate_points(d, n, strategy, seed, resolution, **extra)


def _cmd_points(args) -> None:
    cfg = _load(args)
    ps = _points(cfg, k=config_value(cfg, "k", int, "1"), lam=config_value(cfg, "lam", float, "1.0"))
    path = _result(cfg, f"points_{ps.strategy}_{ps.n}.json")
    harness.write_result(path, pointset_to_json(ps))
    print(f"{path} h={ps.h!r} h_sep={ps.h_sep!r}")


def _cmd_quad(args) -> None:
    cfg = _load(args)
    ps = _points(cfg)
    d_target = config_value(cfg, "D_target", int, quadrature.default_degree(ps))
    rule = build_rule(ps, d_target, config_value(cfg, "tol", float, "1e-8"))
    path = _result(cfg, f"rule_{ps.strategy}_{ps.n}.json")
    harness.write_result(path, rule_to_json(rule))
    print(f"{path} D={rule.exact_degree} residual={rule.residual!r}")


def _cmd_spectrum(args) -> None:
    cfg = _load(args)
    spec = build_spectrum(config_value(cfg, "d"), config_value(cfg, "k"), config_value(cfg, "m_max", int, "100"))
    path = _result(cfg, f"spectrum_d{spec.d}_k{spec.k}.csv")
    rows = [{"m": m, "in_support": int(spec.support[m]), "sigma_hat": spec.coefficients[m]}
            for m in range(spec.m_max + 1)]
    harness.write_csv(path, ("m", "in_support", "sigma_hat"), rows)
    print(f"{path} m_max={spec.m_max}")


def _cmd_approx(args) -> None:
    cfg = _load(args)
    exp = ExperimentConfig.from_dict(cfg)
    report = run_rates(exp, write=False)
    row = report.rows[-1]
    if row["error_code"]:
        raise NumericalError(f"fit failed: {row['error_code']}: {row['error_message']}")
    print(
        f"n={row['n']} l2={row['error_l2']!r} h1={row['error_h1']!r} "
        f"sqrtn_a={row['sqrtn_a_norm']!r}"
    )


def _cmd_rates(args) -> None:
    report = run_rates(ExperimentConfig.from_dict(_load(args)))
    print(
        f"slope={report.fitted_slope!r} stderr={report.slope_stderr!r} "
        f"theory={report.theoretical_slope!r} {report.note}"
    )


def _cmd_randcmp(args) -> None:
    summary = run_randcmp(ExperimentConfig.from_dict(_load(args)))
    for row in summary["rows"]:
        print(
            f"n={row['n']} det={row['det_error']!r} "
            f"rand_median={row['rand_median']!r}"
        )


def _cmd_pde(args) -> None:
    cfg = _load(args)
    harness.reject_unread(cfg, ("problem", "k", "ms", "seeds", "out_dir"))
    name = config_value(cfg, "problem", str, "interval")
    if name == "interval":
        prob = pde_erm.interval_problem()
    elif name == "disk":
        prob = pde_erm.disk_problem()
    else:
        raise ConfigurationError(f"unknown problem {name!r}")
    k = config_value(cfg, "k", int, "2")
    ms = config_value(cfg, "ms", harness._parse_int_list, "256 512 1024 2048 4096 8192 16384")
    seeds = config_value(cfg, "seeds", harness._parse_int_list, "0 1 2 3 4 5 6 7")
    if len(ms) < harness.MIN_SLOPE_ROWS:
        raise ConfigurationError(f"need at least {harness.MIN_SLOPE_ROWS} sample sizes for a slope, got {len(ms)}")
    path = _result(cfg, f"pde_{name}_k{k}.csv")
    rows, means = [], []
    for m in ms:
        n = math.ceil(m ** (prob.d / (2.0 * (prob.d + 2 * k - 1))))
        if prob.d == 1:
            ps = pde_erm.interval_directions(n)
        else:
            ps = generate_points(prob.d, n, "fibonacci_s2")
        excesses = []
        for seed in seeds:
            res = pde_erm.erm_fit(prob, ps, prob.sample(m, seed), k, seed=seed)
            excesses.append(res.excess_risk)
            stat = math.sqrt(res.model.n) * float(np.linalg.norm(res.model.a))
            cells = (prob.d, k, n, m, res.model.norm_cap, seed, res.empirical_risk,
                     res.population_energy, res.excess_risk, res.h1_error, stat)
            rows.append(dict(zip(PDE_COLUMNS, cells)))
        means.append(float(np.mean(excesses)))
    harness.write_csv(path, PDE_COLUMNS, rows)
    slope, stderr = loglog_slope(ms, means)
    print(f"{path} excess_slope={slope!r} stderr={stderr!r}")


def _cmd_kernel(args) -> None:
    cfg = _load(args)
    d = config_value(cfg, "d", int, "2")
    k = config_value(cfg, "k", int, "1")
    n_mc = config_value(cfg, "n_mc", int, "1000000")
    n_pairs = config_value(cfg, "pairs", int, "20")
    seed = config_value(cfg, "seed", int, "0")
    spec = build_spectrum(d, k, config_value(cfg, "m_max", int, "600"))
    rng = np.random.Generator(np.random.Philox(seed))
    theta = rng.standard_normal((n_mc, d + 1))
    theta /= np.linalg.norm(theta, axis=1, keepdims=True)
    area = sphere_area(d)
    worst = 0.0
    for _ in range(n_pairs):
        x = rng.uniform(-0.7, 0.7, d)
        y = rng.uniform(-0.7, 0.7, d)
        xt, yt = np.append(x, 1.0), np.append(y, 1.0)
        vals = sigma_k(k, theta @ xt) * sigma_k(k, theta @ yt)
        mc = area * float(np.mean(vals))
        se = area * float(np.std(vals)) / math.sqrt(n_mc)
        series = kernel_series(d, k, spec, x, y)
        worst = max(worst, float(abs(series - mc) / se))
    print(f"max |series-mc|/se = {worst!r} over {n_pairs} pairs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fnspace",
        description="Ridge approximation experiments with fixed sphere directions",
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="point-set seed of points, quad and kernel")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "points": _cmd_points,
        "quad": _cmd_quad,
        "spectrum": _cmd_spectrum,
        "approx": _cmd_approx,
        "rates": _cmd_rates,
        "randcmp": _cmd_randcmp,
        "pde": _cmd_pde,
        "kernel": _cmd_kernel,
    }
    for name in handlers:
        sub.add_parser(name)
    args = parser.parse_args(argv)
    try:
        handlers[args.command](args)
    except CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
