import contextlib
import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnspace import cli, harness
from fnspace.cli import main as cli_main
from fnspace.errors import ConfigurationError, ContractError, DomainError, NumericalError
from fnspace.harness import (
    ExperimentConfig,
    config_hash,
    domain_grid,
    fit_slope,
    get_target,
    loglog_slope,
    parse_config,
    read_config,
    run_pde,
    run_randcmp,
    run_rates,
    theoretical_slope,
)
from fnspace.models import TargetFunction, error_norms, least_squares_fit
from fnspace.sphere import generate_points


def test_fit_slope_exact_power_law():
    ns = np.array([16, 32, 64, 128])
    pts = np.column_stack([np.log(ns), np.log(ns**-2.0)])
    slope, stderr = fit_slope(pts)
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert stderr < 1e-12


def test_fit_slope_constant():
    ns = np.array([16, 32, 64, 128])
    slope, _ = loglog_slope(ns, np.full(4, 0.3))
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_perturbed_band():
    ns = np.array([16, 32, 64, 128, 256, 512])
    wiggle = 1.0 + 0.05 * (-1.0) ** np.arange(6)
    slope, _ = loglog_slope(ns, ns**-1.25 * wiggle)
    assert -1.35 <= slope <= -1.15


def test_fit_slope_guards():
    with pytest.raises(ContractError):
        fit_slope([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(DomainError):
        loglog_slope([10, 20, 40, 80], [1.0, 0.5, -0.1, 0.2])


def test_parse_config():
    text = "# comment\nd = 2\nk=1  # trailing\n\nns = 16 32 64 128\n"
    cfg = parse_config(text)
    assert cfg == {"d": "2", "k": "1", "ns": "16 32 64 128"}
    with pytest.raises(ConfigurationError):
        parse_config("just a line without equals")
    with pytest.raises(ConfigurationError, match="config key k set twice, on lines 2 and 4"):
        parse_config("d = 2\nk = 1\n# k again\nk = 2\n")


def test_config_hash_stability():
    a = config_hash({"d": "2", "k": "1"})
    b = config_hash({"k": "1", "d": "2"})
    assert a == b and len(a) == 12
    assert config_hash({"d": "2", "k": "2"}) != a


SWEEP_KEYS = cli.COMMANDS["rates"][1]


def _sweep(cfg: dict) -> ExperimentConfig:
    """The sweep a rates config file describes, as the CLI reads it."""
    return ExperimentConfig(**read_config(cfg, SWEEP_KEYS))


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError):
        _sweep({"d": "1", "k": "1"})
    with pytest.raises(ConfigurationError):
        _sweep({"d": "1", "k": "1", "target": "x", "strategy": "y", "ns": "8", "path": "bogus"})
    with pytest.raises(ConfigurationError, match="repeats"):
        _sweep({"d": "1", "k": "1", "target": "x", "strategy": "y", "ns": "8 8 16"})


@pytest.mark.parametrize("ridge", [-1e-3, math.nan])
def test_experiment_config_rejects_a_negative_ridge(ridge):
    with pytest.raises(ConfigurationError, match="ridge must be >= 0"):
        ExperimentConfig(d=1, k=1, target="gaussian_bump", strategy="equispaced_circle", ns=(8, 16), ridge=ridge)


def test_experiment_config_rejects_a_negative_k():
    with pytest.raises(ConfigurationError, match="k must be >= 0"):
        ExperimentConfig(d=2, k=-1, target="gaussian_bump", strategy="fibonacci_s2", ns=(8, 16))


def test_run_pde_rejects_a_size_below_one():
    with pytest.raises(ConfigurationError, match="sample sizes must be >= 1"):
        run_pde("interval", 2, (-4, 64, 128, 256), (0,))


FIB_SWEEP = "d = 2\nk = 1\ntarget = gaussian_bump\nstrategy = fibonacci_s2\nns = 16 32\n"
RESOLUTION_CASES = {  # command: a config it runs, which then sets resolution
    "points": "d = 2\nn = 16\nstrategy = fibonacci_s2\n",
    "quad": "d = 2\nn = 16\nstrategy = fibonacci_s2\n",
    "approx": FIB_SWEEP,
    "rates": FIB_SWEEP,
    "randcmp": FIB_SWEEP + "seeds = 0 1 2 3 4 5 6 7 8 9\n",
}


@pytest.mark.parametrize("command", sorted(RESOLUTION_CASES))
def test_cli_resolution_is_an_unknown_key(command, tmp_path, capsys):
    """The S^2 search resolution is fixed, so a config that sets it, even to its value, exits 2."""
    assert _cli(tmp_path, command, RESOLUTION_CASES[command] + "resolution = 0.01\n", tmp_path / "out") == 2
    assert "unknown config key: resolution" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rates_rejects_a_negative_ridge(tmp_path, capsys):
    cfg = "d = 2\nk = 1\ntarget = gaussian_bump\nstrategy = fibonacci_s2\nns = 16 32 64 128\nridge = -1e-3\n"
    assert _cli(tmp_path, "rates", cfg, tmp_path / "out") == 2
    assert "ridge must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_hash_reads_every_field():
    keys = {"d": "1", "k": "1", "target": "gaussian_bump", "strategy": "equispaced_circle", "ns": "16 8"}
    built = ExperimentConfig(d=1, k=1, target="gaussian_bump", strategy="equispaced_circle", ns=(8, 16))
    assert _sweep(keys).ns == built.ns == (8, 16)
    assert _sweep(keys).hash == built.hash == config_hash(dataclasses.asdict(built))
    other = {"d": 2, "k": 2, "target": "smooth_even_circle", "strategy": "uniform_random", "ns": (8, 32),
             "path": "constructive", "seeds": (1,), "ridge": 1e-9, "s": 0}
    for field in dataclasses.fields(ExperimentConfig):
        assert dataclasses.replace(built, **{field.name: other[field.name]}).hash != built.hash


def test_theoretical_slope():
    assert theoretical_slope(1, 1, 0) == -2.0
    assert theoretical_slope(2, 1, 0) == -1.25
    assert theoretical_slope(2, 1, 1) == -0.75


def test_get_target_unknown():
    with pytest.raises(ConfigurationError):
        get_target("not_a_target", 2)


def test_domain_grid_normalization():
    for d in (1, 2):
        pts, w = domain_grid(d, 2048)
        assert w.sum() == pytest.approx(1.0)
        assert len(pts) == len(w)


def test_run_rates_insufficient_rows():
    cfg = ExperimentConfig(
        d=1, k=1, target="smooth_even_circle", strategy="equispaced_circle",
        ns=(16, 32, 64), path="constructive",
    )
    report = run_rates(cfg)
    assert report.note == "insufficient data"
    assert math.isnan(report.fitted_slope)


def test_run_rates_error_rows_do_not_abort():
    # n=4 gives quadrature degree J=1 < k+1, so that cell fails while the
    # rest of the sweep completes
    cfg = ExperimentConfig(
        d=1, k=1, target="smooth_even_circle", strategy="equispaced_circle",
        ns=(4, 16, 32, 64, 128, 256), path="constructive",
    )
    report = run_rates(cfg)
    codes = [r["error_code"] for r in report.rows]
    assert codes[0] == "ContractError"
    assert all(c == "" for c in codes[1:])
    assert report.fitted_slope < -1.7


LS_SWEEP = ExperimentConfig(d=1, k=1, target="gaussian_bump", strategy="equispaced_circle", ns=(8, 16))


def _cli(tmp_path, command: str, cfg_text: str, out) -> int:
    """fnspace <command> on cfg_text, its stdout swallowed."""
    (tmp_path / f"{command}.cfg").write_text(cfg_text)
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(["--config", str(tmp_path / f"{command}.cfg"), "--out", str(out), command])


def test_run_rates_bug_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a programming bug")

    monkeypatch.setattr(harness, "least_squares_fit", broken)
    with pytest.raises(TypeError):
        run_rates(LS_SWEEP)


def test_run_rates_error_row_keeps_message(monkeypatch, tmp_path):
    def failing(*args, **kwargs):
        raise NumericalError("boom")

    monkeypatch.setattr(harness, "least_squares_fit", failing)
    report = run_rates(LS_SWEEP)
    assert [(r["error_code"], r["error_message"]) for r in report.rows] == [
        ("NumericalError", "boom")
    ] * 2
    assert _cli(tmp_path, "rates", RATES_CFG, tmp_path / "out") == 0
    saved = (tmp_path / "out" / f"rates_{LS_SWEEP.hash}.json").read_text()
    assert saved == json.dumps(dataclasses.asdict(report))
    assert json.loads(saved)["rows"][0]["error_message"] == "boom"
    header, *rows = (tmp_path / "out" / f"rates_{LS_SWEEP.hash}.csv").read_text().splitlines()
    assert header == "config_hash,n,h,error_l2,error_h1,sqrtn_a_norm,error_code"
    assert all(row.endswith(",NumericalError") for row in rows)


def test_run_rates_csv_reproducible(tmp_path):
    text = (
        "d = 1\nk = 1\ntarget = smooth_even_circle\nstrategy = equispaced_circle\n"
        "ns = 16 32 64 128\npath = constructive\n"
    )
    csv_path = tmp_path / "out" / f"rates_{_sweep(parse_config(text)).hash}.csv"
    assert _cli(tmp_path, "rates", text, tmp_path / "out") == 0
    first = csv_path.read_bytes()
    assert _cli(tmp_path, "rates", text, tmp_path / "out") == 0
    assert csv_path.read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header.startswith("config_hash,n,h,error_l2")


def test_rates_at_s0_write_nan_for_the_h1_error(tmp_path):
    """error_h1 is not computed at s = 0, so it reads NaN, not an exact 0."""
    rows = run_rates(dataclasses.replace(LS_SWEEP, s=0)).rows
    assert all(math.isnan(r["error_h1"]) for r in rows)
    assert [r["error_l2"] for r in rows] == [r["error_l2"] for r in run_rates(LS_SWEEP).rows]
    assert _cli(tmp_path, "rates", RATES_CFG + "s = 0\n", tmp_path / "out") == 0
    (path,) = (tmp_path / "out").glob("rates_*.csv")
    header, *lines = path.read_text().splitlines()
    column = header.split(",").index("error_h1")
    assert lines and all(line.split(",")[column] == "nan" for line in lines)


def test_sweeps_write_nothing(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    run_rates(LS_SWEEP)
    run_randcmp(dataclasses.replace(LS_SWEEP, seeds=tuple(range(10))))
    run_pde("interval", 2, (64, 128, 256, 512), (0,))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("unread", [{"path": "constructive"}, {"s": 0}])
def test_randcmp_rejects_what_it_does_not_read(unread):
    cfg = dataclasses.replace(LS_SWEEP, seeds=tuple(range(10)), **unread)
    with pytest.raises(ConfigurationError, match=f"randcmp reads no {next(iter(unread))}"):
        run_randcmp(cfg)


def test_randcmp_seed_guard():
    cfg = ExperimentConfig(
        d=2, k=1, target="gaussian_bump", strategy="fibonacci_s2",
        ns=(32, 64), seeds=(0,),
    )
    with pytest.raises(ConfigurationError):
        run_randcmp(cfg)


def test_cli_exit_codes(tmp_path):
    cfg = tmp_path / "points.cfg"
    cfg.write_text("d = 2\nn = 64\nstrategy = fibonacci_s2\n")
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path), "points"]) == 0
    assert (tmp_path / "points_fibonacci_s2_64.json").exists()
    bad = tmp_path / "bad.cfg"
    bad.write_text("d = 2\nn = 64\nstrategy = nonsense\n")
    assert cli_main(["--config", str(bad), "--out", str(tmp_path), "points"]) == 2
    assert cli_main(["--out", str(tmp_path), "spectrum"]) == 2  # missing keys


def test_cli_spectrum_and_quad(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text("d = 1\nk = 1\nm_max = 40\n")
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path), "spectrum"]) == 0
    assert (tmp_path / "spectrum_d1_k1.csv").exists()
    qcfg = tmp_path / "quad.cfg"
    qcfg.write_text("d = 1\nn = 8\nstrategy = equispaced_circle\nD_target = 7\n")
    assert cli_main(["--config", str(qcfg), "--out", str(tmp_path), "quad"]) == 0
    assert (tmp_path / "rule_equispaced_circle_8.json").exists()


def test_cli_rates(tmp_path):
    cfg = tmp_path / "rates.cfg"
    cfg.write_text(
        "d = 1\nk = 1\ntarget = smooth_even_circle\nstrategy = equispaced_circle\n"
        "ns = 16 32 64 128\npath = constructive\n"
    )
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path), "rates"]) == 0
    reports = list(tmp_path.glob("rates_*.json"))
    assert len(reports) == 1


RATES_KEYS = {"d": "1", "k": "1", "target": "gaussian_bump", "strategy": "equispaced_circle", "ns": "8 16"}
RATES_CFG = "".join(f"{key} = {val}\n" for key, val in RATES_KEYS.items())


def test_cli_rates_writes_the_same_files_under_every_out(tmp_path):
    (tmp_path / "rates.cfg").write_text(RATES_CFG)
    written = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert cli_main(["--config", str(tmp_path / "rates.cfg"), "--out", str(out), "rates"]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1] and len(written[0]) == 2


DEFAULT_SPELLINGS = {  # a sweep key's default, spelled as a config line could write it
    "path": ["ls"],
    "seeds": ["0"],
    "ridge": ["0", "0.0", "0e0"],
    "s": ["1"],
}


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([" ", ",", ", ", "  "]),
    st.sampled_from([(8, 16), (16, 8)]),
    st.fixed_dictionaries({}, optional={key: st.sampled_from(vals) for key, vals in DEFAULT_SPELLINGS.items()}),
    st.randoms(use_true_random=False),
)
def test_every_spelling_of_a_sweep_names_the_same_files(sep, ns, defaults, rnd):
    built = ExperimentConfig(d=1, k=1, target="gaussian_bump", strategy="equispaced_circle", ns=(8, 16))
    lines = [f"{key} = {val}" for key, val in RATES_KEYS.items() if key != "ns"]
    lines += [f"ns = {ns[0]}{sep}{ns[1]}"] + [f"{key} = {val}" for key, val in defaults.items()]
    rnd.shuffle(lines)
    text = "\n".join(lines) + "\n"
    assert _sweep(parse_config(text)).hash == built.hash
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "rates.cfg").write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["--config", str(Path(tmp) / "rates.cfg"), "--out", str(Path(tmp) / "out"), "rates"]) == 0
        names = sorted(p.name for p in (Path(tmp) / "out").iterdir())
    assert names == [f"rates_{built.hash}.csv", f"rates_{built.hash}.json"]


@pytest.mark.parametrize("line", ["seed = 7", "raw = 1"])
def test_cli_rates_rejects_a_key_it_does_not_read(line, tmp_path, capsys):
    (tmp_path / "rates.cfg").write_text(RATES_CFG + line + "\n")
    assert cli_main(["--config", str(tmp_path / "rates.cfg"), "--out", str(tmp_path), "rates"]) == 2
    assert f"unknown config key: {line.split()[0]}" in capsys.readouterr().err
    assert not list(tmp_path.glob("rates_*"))


def test_randcmp_deterministic_row_skips_the_h1_pass(monkeypatch):
    """randcmp reads error_l2 from each fit's own residual, so it makes no
    evaluation pass at all, and its deterministic row is the rates row bit for bit."""
    cfg = ExperimentConfig(
        d=1, k=1, target="gaussian_bump", strategy="equispaced_circle",
        ns=(8, 16), seeds=tuple(range(10)),
    )

    def spy(*args, **kwargs):
        raise AssertionError("randcmp evaluated a model")

    monkeypatch.setattr(harness, "error_norms", spy)
    summary = run_randcmp(cfg)
    monkeypatch.undo()
    rates = run_rates(dataclasses.replace(cfg, seeds=cfg.seeds[:1]))
    assert [(r["det_error"], r["det_h"]) for r in summary["rows"]] == [
        (r["error_l2"], r["h"]) for r in rates.rows
    ]


def test_rates_write_the_evaluated_error_where_the_residual_is_nan(monkeypatch):
    """1 + x is in the span at n = 8 and 16 (the constant neuron and
    relu(x) - relu(-x)), so each ridge fit's residual^2 is rounding, below
    the floor, and the model records NaN; run_rates at s = 0 then evaluates
    that cell and writes error_norms' value, bit for bit."""
    cfg = ExperimentConfig(d=1, k=1, target="gaussian_bump", strategy="equispaced_circle",
                           ns=(8, 16), ridge=1e-9, s=0)
    line = TargetFunction("line", 1, lambda x: 1.0 + x[..., 0])
    grid = harness._ls_grid(cfg)
    fits = [least_squares_fit(line, generate_points(1, n, cfg.strategy), grid, k=1, ridge=cfg.ridge) for n in cfg.ns]
    assert all(math.isnan(model.residual) for model in fits)
    monkeypatch.setattr(harness, "get_target", lambda name, d: line)
    rows = run_rates(cfg).rows
    assert [r["error_l2"] for r in rows] == [error_norms(model, line, grid)[0] for model in fits]
    assert all(r["error_code"] == "" and 0.0 <= r["error_l2"] < 1e-6 for r in rows)


def _counting_target(calls):
    """gaussian_bump whose value and gradient calls are logged as (kind, rows)."""
    base = get_target("gaussian_bump", 2)

    def f(x):
        calls.append(("f", len(x)))
        return base.f(x)

    def grad(x):
        calls.append(("grad", len(x)))
        return base.grad(x)

    return dataclasses.replace(base, f=f, grad=grad)


def test_sweeps_evaluate_the_target_once_on_their_grid(monkeypatch):
    """run_rates (s = 1) reads the target and its gradient on the grid once
    each, run_randcmp the target once, and both give the rows of cells fed
    the target itself."""
    cfg = ExperimentConfig(d=2, k=1, target="gaussian_bump", strategy="fibonacci_s2",
                           ns=(8, 16, 24, 32), seeds=tuple(range(10)), ridge=1e-9)
    grid = harness._ls_grid(cfg)
    calls = []
    monkeypatch.setattr(harness, "get_target", lambda name, d: _counting_target(calls))
    rates = run_rates(dataclasses.replace(cfg, seeds=(0,)))
    assert calls == [("f", len(grid[0])), ("grad", len(grid[0]))]
    calls.clear()
    summary = run_randcmp(cfg)
    assert calls == [("f", len(grid[0]))]
    plain = get_target("gaussian_bump", 2)
    assert list(rates.rows) == [harness._rate_row_ls(cfg, plain, n, cfg.strategy, 0, grid, 1) for n in cfg.ns]
    det = [harness._rate_row_ls(cfg, plain, n, cfg.strategy, 0, grid, 0)["error_l2"] for n in cfg.ns]
    assert [r["det_error"] for r in summary["rows"]] == det


def test_sweep_grid_tables_are_read_only_and_kept_per_function():
    """The sweep grid's tables of a target and of its gradient are read-only,
    on the grid's own rows, computed once each and kept side by side;
    another Grid of the same source arrays holds the same rows and computes
    its own."""
    cfg = ExperimentConfig(d=2, k=1, target="gaussian_bump", strategy="fibonacci_s2", ns=(8, 16), ridge=1e-9)
    grid = harness._ls_grid(cfg)
    target = get_target("gaussian_bump", 2)
    values, grads = grid.tabulate(target), grid.tabulate(target.grad)
    assert grid.tabulate(target) is values and grid.tabulate(target.grad) is grads
    assert not values.flags.writeable and not grads.flags.writeable
    assert np.array_equal(values, target(grid[0])) and np.array_equal(grads, target.grad(grid[0]).T)
    other = harness._ls_grid(cfg)
    assert np.array_equal(other[0], grid[0]) and np.array_equal(other[1], grid[1])
    assert other.tabulate(target) is not values and np.array_equal(other.tabulate(target), values)


def test_randcmp_seeds_are_a_set():
    """Seeds 9...0 and 0...9 are one sweep: one hash and the same rows; a repeated seed is rejected."""
    cfg = ExperimentConfig(
        d=1, k=1, target="gaussian_bump", strategy="equispaced_circle",
        ns=(8, 16), seeds=tuple(range(10)),
    )
    reversed_ = dataclasses.replace(cfg, seeds=tuple(range(9, -1, -1)))
    assert reversed_.seeds == cfg.seeds and reversed_.hash == cfg.hash
    assert run_randcmp(reversed_) == run_randcmp(cfg)
    with pytest.raises(ConfigurationError, match="seeds repeats"):
        dataclasses.replace(cfg, seeds=(0,) * 10)


RANDCMP_HEADER = "config_hash,n,det_error,det_h,rand_q1,rand_median,rand_q3,rand_h_median"


def test_randcmp_csv_golden_format(tmp_path):
    """Criterion 08's columns, one row per n, floats written with repr, and
    the same bytes on a second run."""
    text = (
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\n"
        "ns = 16 8\nseeds = 0 1 2 3 4 5 6 7 8 9\nridge = 1e-9\n"
    )
    cfg = ExperimentConfig(**read_config(parse_config(text), cli.COMMANDS["randcmp"][1]))
    summary = run_randcmp(cfg)
    csv_path = tmp_path / "out" / f"randcmp_{cfg.hash}.csv"
    assert _cli(tmp_path, "randcmp", text, tmp_path / "out") == 0
    first = csv_path.read_bytes()
    assert _cli(tmp_path, "randcmp", text, tmp_path / "out") == 0
    assert csv_path.read_bytes() == first
    header, *rows = first.decode().splitlines()
    assert header == RANDCMP_HEADER
    assert [r["n"] for r in summary["rows"]] == [8, 16]
    for line, row in zip(rows, summary["rows"], strict=True):
        floats = [row[c] for c in RANDCMP_HEADER.split(",")[2:]]
        assert all(isinstance(v, float) for v in floats)
        assert line == ",".join([cfg.hash, str(row["n"])] + [repr(v) for v in floats])


PDE_CFG = "problem = interval\nk = 2\nms = 64 128 256 512\nseeds = 0\n"
PDE_HEADER = "config_hash,d,k,n,m,M,seed,emp_risk,energy,excess,h1,sqrtn_a_norm"


def test_pde_csv_golden_format(tmp_path):
    """One row per (m, seed) in PDE_COLUMNS order after the config hash,
    floats written with repr, and the same bytes on a second run."""
    result = run_pde("interval", 2, (64, 128, 256, 512), (0, 1))
    text = PDE_CFG.replace("seeds = 0", "seeds = 0 1")
    csv_path = tmp_path / "out" / f"pde_{result['config_hash']}.csv"
    assert _cli(tmp_path, "pde", text, tmp_path / "out") == 0
    first = csv_path.read_bytes()
    assert _cli(tmp_path, "pde", text, tmp_path / "out") == 0
    assert csv_path.read_bytes() == first
    header, *rows = first.decode().splitlines()
    assert header == PDE_HEADER
    assert [(r["m"], r["seed"]) for r in result["rows"]] == [(m, s) for m in (64, 128, 256, 512) for s in (0, 1)]
    columns = PDE_HEADER.split(",")[1:]
    for line, row in zip(rows, result["rows"], strict=True):
        cells = [row[c] for c in columns]
        assert all(isinstance(v, int if c in ("d", "k", "n", "m", "seed") else float) for c, v in zip(columns, cells))
        assert line == ",".join([result["config_hash"]] + [repr(v) if isinstance(v, float) else str(v) for v in cells])


def test_cli_pde_names_one_file_per_config(tmp_path):
    configs = [PDE_CFG, PDE_CFG.replace("ms = 64", "ms = 32"), PDE_CFG.replace("seeds = 0", "seeds = 1")]
    for text in configs:
        assert _cli(tmp_path, "pde", text, tmp_path / "out") == 0
    assert len(list((tmp_path / "out").glob("pde_*.csv"))) == len(configs)


def test_cli_pde_ms_order_names_the_same_file(tmp_path, capsys):
    written, slopes = [], []
    for name, ms in (("a", "64 128 256 512"), ("b", "512 256 128 64")):
        (tmp_path / "pde.cfg").write_text(PDE_CFG.replace("64 128 256 512", ms))
        assert cli_main(["--config", str(tmp_path / "pde.cfg"), "--out", str(tmp_path / name), "pde"]) == 0
        written.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
        slopes.append(capsys.readouterr().out.split(" ", 1)[1])
    assert written[0] == written[1] and len(written[0]) == 1
    assert slopes[0] == slopes[1]


def test_run_pde_seeds_are_a_set():
    ms = (64, 128, 256, 512)
    assert run_pde("interval", 2, ms, (1, 0)) == run_pde("interval", 2, ms, (0, 1))
    with pytest.raises(ConfigurationError, match="seeds repeats"):
        run_pde("interval", 2, ms, (0, 0))


CLI_CASES = {  # command: (a good config, then bad ones: a broken config, a non-numeric value)
    "points": (
        "d = 1\nn = 8\nstrategy = equispaced_circle\n",
        "d = 1\nn = 8\nstrategy = nonsense\n",
        "d = 1\nn = eight\nstrategy = equispaced_circle\n",
        "d = 1\nn = 8\nstrategy = equispaced_circle\nbogus = 1\n",  # unread key
        "d = 3\nn = 64\nstrategy = uniform_random\n",  # no mesh-norm search beyond S^2
    ),
    "quad": (
        "d = 1\nn = 8\nstrategy = equispaced_circle\n",
        "d = 1\nn = 8\n",
        "d = 1\nn = 8\nstrategy = equispaced_circle\ntol = small\n",
        "d = 1\nn = 8\nstrategy = equispaced_circle\nlam = 2\n",  # unread key
        "d = 1\nn = 8\nstrategy = equispaced_circle\ntol = nan\n",  # tol must be >= 0
        "d = 1\nn = 8\nstrategy = equispaced_circle\ntol = -1e-8\n",
    ),
    "spectrum": (
        "d = 2\nk = 1\nm_max = 20\n",
        "d = 2\nm_max = 20\n",
        "d = 2\nk = 1\nm_max = many\n",
        "d = 2\nk = 1\nm_max = 20\nseed = 7\n",  # unread key
        "d = 2\nk = 1\nm_max = 20\nk = 2\n",  # a key set twice
    ),
    "pde": (
        "problem = interval\nk = 2\nms = 64 128 256 512\nseeds = 0\n",
        "problem = nonsense\n",
        "problem = interval\nk = 2\nms = 64 x\nseeds = 0\n",
        "problem = interval\nk = 2\nms = 256 512\nseeds = 0\n",  # too few sizes for a slope
        "problem = interval\nk = 2\nms = 64 64 128 256 512\nseeds = 0\n",  # a repeated size
        "problem = interval\nk = 0\nms = 64 128 256 512\nseeds = 0\n",  # no gradients at k = 0
        "problem = interval\nk = 2\nms = 64 128 256 512\nseeds =\n",  # no seed
        "problem = interval\nk = 2\nms = 64 128 256 512\nseeds = 0 0\n",  # a repeated seed
        "problem = interval\nk = 2\nms = 64 128 256 512\nseeds = 0\nseed = 7\n",  # unread key
        "problem = interval\nk = 2\nms = -4 64 128 256\nseeds = 0\n",  # a size below 1
    ),
    "kernel": (
        "d = 2\nk = 1\nn_mc = 2000\npairs = 2\nm_max = 40\n",
        "d = 2\nk = 1\nm_max = 1\n",
        "d = two\nk = 1\nn_mc = 2000\npairs = 2\nm_max = 40\n",
        "d = 2\nk = 1\nn_mc = 2000\npairs = 2\nm_max = 40\nseeds = 4\n",  # unread key
        "d = 2\nk = 1\nn_mc = 0\npairs = 2\nm_max = 40\n",  # n_mc must be >= 2
        "d = 2\nk = 1\nn_mc = 1\npairs = 2\nm_max = 40\n",
        "d = 2\nk = 1\nn_mc = -5\npairs = 2\nm_max = 40\n",
        "d = 2\nk = 1\nn_mc = 2000\npairs = -1\nm_max = 40\n",  # pairs must be >= 1
        "d = 2\nk = 1\nn_mc = 2000\npairs = 0\nm_max = 40\n",
    ),
    "approx": (
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8\n",
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\n",
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8 x\n",
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8\nseed = 7\n",  # unread key
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8\nseeds = 0 1\n",  # one seed read
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = no_such\nns = 8\n",  # an unknown strategy
    ),
    "rates": (
        RATES_CFG,
        RATES_CFG + "seeds = 0 1\n",  # one seed read
        RATES_CFG.replace("ns = 8 16", "ns = 8 8 16"),
        "d = 1\nk = 1\ntarget = smooth_even_circle\nstrategy = equispaced_circle\nns = 16 32\n"
        "path = constructive\nridge = 0.5\ns = 0\n",  # no ridge on the constructive path
        RATES_CFG.replace("k = 1", "k = -1"),  # k must be >= 0
        RATES_CFG + "k = 2\n",  # a key set twice
        "d = 1\nk = 1\ntarget = smooth_even_circle\nstrategy = equispaced_circle\nns = 16 32 64 128\n",  # sphere target on ls
        RATES_CFG + "path = constructive\n",  # domain target on the constructive path
        RATES_CFG.replace("equispaced_circle", "fibonacci_s2"),  # a strategy of another dimension
        RATES_CFG.replace("equispaced_circle", "no_such"),  # an unknown strategy
    ),
    "randcmp": (
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8 16\n"
        "seeds = 0 1 2 3 4 5 6 7 8 9\n",
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8 16\nseeds = 0 1\n",
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8 sixteen\n",
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8 16\n"
        "seeds = 0 1 2 3 4 5 6 7 8 9\nseed = 7\n",
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8 16\n"
        "seeds = 0 1 2 3 4 5 6 7 8 9\npath = constructive\n",  # randcmp reads no path
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8 16\n"
        "seeds = 0 1 2 3 4 5 6 7 8 9\ns = 0\n",  # nor s
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8 16\n"
        "seeds = 0 0 0 0 0 0 0 0 0 0\n",  # a repeated seed
        "d = 1\nk = 1\ntarget = smooth_even_circle\nstrategy = equispaced_circle\nns = 8 16\n"
        "seeds = 0 1 2 3 4 5 6 7 8 9\n",  # a sphere target on the least-squares path
    ),
}


@pytest.mark.parametrize("command", sorted(CLI_CASES))
def test_cli_subcommand_exit_codes(command, tmp_path, capsys):
    good, *bads = CLI_CASES[command]
    (tmp_path / "good.cfg").write_text(good)
    out = tmp_path / "out"
    assert cli_main(["--config", str(tmp_path / "good.cfg"), "--out", str(out), command]) == 0
    assert capsys.readouterr().out
    for i, bad in enumerate(bads):
        (tmp_path / "bad.cfg").write_text(bad)
        bad_out = tmp_path / f"bad_out{i}"
        assert cli_main(["--config", str(tmp_path / "bad.cfg"), "--out", str(bad_out), command]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not bad_out.exists() or not any(bad_out.iterdir())


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_cli_out_dir_is_not_a_config_key(command, tmp_path, capsys):
    (tmp_path / "good.cfg").write_text(CLI_CASES[command][0] + f"out_dir = {tmp_path / 'x'}\n")
    out = tmp_path / "out"
    assert cli_main(["--config", str(tmp_path / "good.cfg"), "--out", str(out), command]) == 2
    assert "unknown config key: out_dir" in capsys.readouterr().err
    assert not (tmp_path / "x").exists() and not out.exists()


def test_cli_approx_fits_only_the_largest_n(monkeypatch, tmp_path, capsys):
    (tmp_path / "approx.cfg").write_text(CLI_CASES["approx"][0].replace("ns = 8", "ns = 8 16 32"))
    real = harness._rate_row_ls
    calls = []

    def spy(cfg, target, n, *rest):
        calls.append(n)
        return real(cfg, target, n, *rest)

    monkeypatch.setattr(harness, "_rate_row_ls", spy)
    assert cli_main(["--config", str(tmp_path / "approx.cfg"), "approx"]) == 0
    assert calls == [32]
    monkeypatch.undo()
    full = ExperimentConfig(d=1, k=1, target="gaussian_bump", strategy="equispaced_circle", ns=(8, 16, 32))
    row = run_rates(full).rows[-1]  # the sweep the command ran before printing its last row
    want = f"n={row['n']} l2={row['error_l2']!r} h1={row['error_h1']!r} sqrtn_a={row['sqrtn_a_norm']!r}\n"
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("command", ["approx", "pde", "randcmp", "rates", "spectrum"])  # no seed key
def test_cli_seed_flag_rejected_where_seeds_are_read(command, tmp_path, capsys):
    (tmp_path / "good.cfg").write_text(CLI_CASES[command][0])
    out = tmp_path / "out"
    assert cli_main(["--config", str(tmp_path / "good.cfg"), "--seed", "7", "--out", str(out), command]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_points_seed_flag(tmp_path):
    (tmp_path / "points.cfg").write_text("d = 2\nn = 20\nstrategy = uniform_random\n")
    assert cli_main(["--config", str(tmp_path / "points.cfg"), "--seed", "5", "--out", str(tmp_path), "points"]) == 0
    assert json.loads((tmp_path / "points_uniform_random_20.json").read_text())["seed"] == 5


def test_cli_bug_propagates(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise KeyError("a programming bug")

    monkeypatch.setattr(cli, "run_rates", broken)
    (tmp_path / "rates.cfg").write_text(CLI_CASES["approx"][0])
    with pytest.raises(KeyError):
        cli_main(["--config", str(tmp_path / "rates.cfg"), "--out", str(tmp_path), "rates"])
