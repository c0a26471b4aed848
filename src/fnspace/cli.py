"""Command-line entry point.

Subcommands: points, quad, spectrum, approx, rates, randcmp, pde, kernel.
COMMANDS gives each its handler and its key table, {key: (kind, default)}
with MISSING marking a required key.  A subcommand reads a key=value config
file (--config) through harness.read_config, which rejects every key outside
its table; --seed sets the key seed, so it is valid exactly where the table
lists seed.  The handlers write every result file, under --out, the only
setting of the output directory; the sweeps in harness (run_rates,
run_randcmp, run_pde) return their config hash and rows and write nothing,
and _write_sweep writes each sweep's CSV as <sweep>_<hash>.csv.  Exit
codes: 0 on success, 2 on configuration problems (nothing is written), 3 on
numerical failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np

from . import harness, quadrature
from .activation import spectrum as build_spectrum
from .activation import kernel as kernel_series
from .activation import sigma_k
from .errors import ConfigurationError, ContractError, DomainError
from .errors import NumericalError, PrecisionError
from .harmonics import sphere_area
from .harness import ExperimentConfig, parse_config, read_config, run_pde, run_randcmp, run_rates
from .quadrature import build_rule, rule_to_json
from .sphere import generate_points, pointset_to_json

CONFIG_ERRORS = (ConfigurationError, ContractError, DomainError, FileNotFoundError)
NUMERIC_ERRORS = (PrecisionError, NumericalError, np.linalg.LinAlgError)


def _point_keys(**extra) -> dict:
    """The keys of generate_points' point set, then extra."""
    return {"d": (int, MISSING), "n": (int, MISSING), "strategy": (str, MISSING), "seed": (int, 0)} | extra


def _sweep_keys(*unread) -> dict:
    """ExperimentConfig's fields but the unread ones, each with the field's default."""
    kinds = {"d": int, "k": int, "target": str, "strategy": str, "ns": harness._parse_int_list, "path": str,
             "seeds": harness._parse_int_list, "ridge": float, "s": int}
    return {f.name: (kinds[f.name], f.default) for f in fields(ExperimentConfig) if f.name not in unread}


def _cmd_points(v: dict, out: Path) -> None:
    ps = generate_points(**v)
    path = out / f"points_{ps.strategy}_{ps.n}.json"
    harness.write_result(path, pointset_to_json(ps))
    print(f"{path} h={ps.h!r} h_sep={ps.h_sep!r}")


def _cmd_quad(v: dict, out: Path) -> None:
    d_target, tol = v.pop("D_target"), v.pop("tol")
    ps = generate_points(**v)
    rule = build_rule(ps, quadrature.default_degree(ps) if d_target is None else d_target, tol)
    path = out / f"rule_{ps.strategy}_{ps.n}.json"
    harness.write_result(path, rule_to_json(rule))
    print(f"{path} D={rule.exact_degree} residual={rule.residual!r}")


def _cmd_spectrum(v: dict, out: Path) -> None:
    spec = build_spectrum(**v)
    path = out / f"spectrum_d{spec.d}_k{spec.k}.csv"
    rows = [{"m": m, "in_support": int(spec.support[m]), "sigma_hat": spec.coefficients[m]}
            for m in range(spec.m_max + 1)]
    harness.write_csv(path, ("m", "in_support", "sigma_hat"), rows)
    print(f"{path} m_max={spec.m_max}")


def _cmd_approx(v: dict, out: Path) -> None:
    """The fit at the largest n alone: the grid depends only on max(ns), and
    a row only on its own n."""
    exp = ExperimentConfig(**v)
    (row,) = run_rates(replace(exp, ns=(max(exp.ns),))).rows
    if row["error_code"]:
        raise NumericalError(f"fit failed: {row['error_code']}: {row['error_message']}")
    print(
        f"n={row['n']} l2={row['error_l2']!r} h1={row['error_h1']!r} "
        f"sqrtn_a={row['sqrtn_a_norm']!r}"
    )


def _write_sweep(out: Path, sweep: str, cfg_hash: str, columns, rows) -> Path:
    """A sweep's CSV, <sweep>_<hash>.csv: the config_hash column, then columns."""
    path = out / f"{sweep}_{cfg_hash}.csv"
    harness.write_csv(path, ("config_hash", *columns), [{"config_hash": cfg_hash} | row for row in rows])
    return path


def _cmd_rates(v: dict, out: Path) -> None:
    report = run_rates(ExperimentConfig(**v))
    path = _write_sweep(out, "rates", report.config_hash, harness.RATE_COLUMNS, report.rows)
    harness.write_result(path.with_suffix(".json"), json.dumps(asdict(report)))
    print(
        f"slope={report.fitted_slope!r} stderr={report.slope_stderr!r} "
        f"theory={report.theoretical_slope!r} {report.note}"
    )


def _cmd_randcmp(v: dict, out: Path) -> None:
    summary = run_randcmp(ExperimentConfig(**v))
    _write_sweep(out, "randcmp", summary["config_hash"], list(summary["rows"][0]), summary["rows"])
    for row in summary["rows"]:
        print(
            f"n={row['n']} det={row['det_error']!r} "
            f"rand_median={row['rand_median']!r}"
        )


def _cmd_pde(v: dict, out: Path) -> None:
    result = run_pde(**v)
    path = _write_sweep(out, "pde", result["config_hash"], harness.PDE_COLUMNS, result["rows"])
    print(f"{path} excess_slope={result['excess_slope']!r} stderr={result['stderr']!r}")


def _cmd_kernel(v: dict, out: Path) -> None:
    d, k, n_mc, n_pairs = v["d"], v["k"], v["n_mc"], v["pairs"]
    if n_mc < 2 or n_pairs < 1:  # one direction has no standard error
        raise ConfigurationError(f"need n_mc >= 2 and pairs >= 1, got {n_mc} and {n_pairs}")
    spec = build_spectrum(d, k, v["m_max"])
    rng = np.random.Generator(np.random.Philox(v["seed"]))
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


COMMANDS = {
    "points": (_cmd_points, _point_keys()),
    "quad": (_cmd_quad, _point_keys(D_target=(int, None), tol=(float, 1e-8))),
    "spectrum": (_cmd_spectrum, {"d": (int, MISSING), "k": (int, MISSING), "m_max": (int, 100)}),
    "approx": (_cmd_approx, _sweep_keys()),
    "rates": (_cmd_rates, _sweep_keys()),
    "randcmp": (_cmd_randcmp, _sweep_keys("path", "s")),
    "pde": (_cmd_pde, {"problem": (str, "interval"), "k": (int, 2),
                       "ms": (harness._parse_int_list, (256, 512, 1024, 2048, 4096, 8192, 16384)),
                       "seeds": (harness._parse_int_list, (0, 1, 2, 3, 4, 5, 6, 7))}),
    "kernel": (_cmd_kernel, {"d": (int, 2), "k": (int, 1), "n_mc": (int, 1000000), "pairs": (int, 20),
                             "seed": (int, 0), "m_max": (int, 600)}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fnspace",
        description="Ridge approximation experiments with fixed sphere directions",
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="point-set seed of points, quad and kernel")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name)
    args = parser.parse_args(argv)
    handler, keys = COMMANDS[args.command]
    try:
        cfg = parse_config(Path(args.config).read_text()) if args.config else {}
        if args.seed is not None:
            cfg["seed"] = str(args.seed)
        handler(read_config(cfg, keys), Path(args.out))
    except CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
