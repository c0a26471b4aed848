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
    run_randcmp,
    run_rates,
    theoretical_slope,
)


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


def test_config_hash_leaves_out_out_dir():
    keys = {"d": "1", "k": "1", "target": "gaussian_bump", "strategy": "equispaced_circle", "ns": "8"}
    read = [dataclasses.replace(_sweep(keys), out_dir=out) for out in ("a", "b")]
    built = [
        ExperimentConfig(d=1, k=1, target="gaussian_bump", strategy="equispaced_circle", ns=(8,), out_dir=out)
        for out in ("a", "b")
    ]
    assert read[0].hash == read[1].hash == built[0].hash == built[1].hash == _sweep(keys).hash


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
    report = run_rates(cfg, write=False)
    assert report.note == "insufficient data"
    assert math.isnan(report.fitted_slope)


def test_run_rates_error_rows_do_not_abort():
    # n=4 gives quadrature degree J=1 < k+1, so that cell fails while the
    # rest of the sweep completes
    cfg = ExperimentConfig(
        d=1, k=1, target="smooth_even_circle", strategy="equispaced_circle",
        ns=(4, 16, 32, 64, 128, 256), path="constructive",
    )
    report = run_rates(cfg, write=False)
    codes = [r["error_code"] for r in report.rows]
    assert codes[0] == "ContractError"
    assert all(c == "" for c in codes[1:])
    assert report.fitted_slope < -1.7


def _ls_sweep(tmp_path):
    return ExperimentConfig(
        d=1, k=1, target="gaussian_bump", strategy="equispaced_circle",
        ns=(8, 16), out_dir=str(tmp_path),
    )


def test_run_rates_bug_propagates(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise TypeError("a programming bug")

    monkeypatch.setattr(harness, "least_squares_fit", broken)
    with pytest.raises(TypeError):
        run_rates(_ls_sweep(tmp_path), write=False)


def test_run_rates_error_row_keeps_message(monkeypatch, tmp_path):
    def failing(*args, **kwargs):
        raise NumericalError("boom")

    monkeypatch.setattr(harness, "least_squares_fit", failing)
    cfg = _ls_sweep(tmp_path)
    report = run_rates(cfg)
    assert [(r["error_code"], r["error_message"]) for r in report.rows] == [
        ("NumericalError", "boom")
    ] * 2
    saved = json.loads((tmp_path / f"rates_{cfg.hash}.json").read_text())
    assert saved["rows"][0]["error_message"] == "boom"
    header, *rows = (tmp_path / f"rates_{cfg.hash}.csv").read_text().splitlines()
    assert header == "config_hash,n,h,error_l2,error_h1,sqrtn_a_norm,error_code"
    assert all(row.endswith(",NumericalError") for row in rows)


def test_run_rates_csv_reproducible(tmp_path):
    cfg = ExperimentConfig(
        d=1, k=1, target="smooth_even_circle", strategy="equispaced_circle",
        ns=(16, 32, 64, 128), path="constructive", out_dir=str(tmp_path),
    )
    run_rates(cfg)
    csv_path = tmp_path / f"rates_{cfg.hash}.csv"
    first = csv_path.read_bytes()
    run_rates(cfg)
    assert csv_path.read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header.startswith("config_hash,n,h,error_l2")


def test_randcmp_seed_guard():
    cfg = ExperimentConfig(
        d=2, k=1, target="gaussian_bump", strategy="fibonacci_s2",
        ns=(32, 64), seeds=(0,),
    )
    with pytest.raises(ConfigurationError):
        run_randcmp(cfg, write=False)


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
    "resolution": ["0.01", "1e-2"],
    "s": ["1"],
}


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([" ", ",", ", ", "  "]),
    st.fixed_dictionaries({}, optional={key: st.sampled_from(vals) for key, vals in DEFAULT_SPELLINGS.items()}),
    st.randoms(use_true_random=False),
)
def test_every_spelling_of_a_sweep_names_the_same_files(sep, defaults, rnd):
    built = ExperimentConfig(d=1, k=1, target="gaussian_bump", strategy="equispaced_circle", ns=(8, 16))
    lines = [f"{key} = {val}" for key, val in RATES_KEYS.items() if key != "ns"]
    lines += [f"ns = 8{sep}16"] + [f"{key} = {val}" for key, val in defaults.items()]
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
    cfg = ExperimentConfig(
        d=1, k=1, target="gaussian_bump", strategy="equispaced_circle",
        ns=(8, 16), seeds=tuple(range(10)),
    )
    real = harness.error_norms
    orders = []

    def spy(*args, s=0):
        orders.append(s)
        return real(*args, s=s)

    monkeypatch.setattr(harness, "error_norms", spy)
    summary = run_randcmp(cfg, write=False)
    assert set(orders) == {0}
    monkeypatch.undo()
    rates = run_rates(cfg, write=False)
    assert [(r["det_error"], r["det_h"]) for r in summary["rows"]] == [
        (r["error_l2"], r["h"]) for r in rates.rows
    ]


RANDCMP_HEADER = "config_hash,n,det_error,det_h,rand_q1,rand_median,rand_q3,rand_h_median"


def test_randcmp_csv_golden_format(tmp_path):
    """Criterion 08's columns, one row per n, floats written with repr, and
    the same bytes on a second run."""
    cfg = ExperimentConfig(
        d=1, k=1, target="gaussian_bump", strategy="equispaced_circle",
        ns=(16, 8), seeds=tuple(range(10)), ridge=1e-9, out_dir=str(tmp_path),
    )
    summary = run_randcmp(cfg)
    csv_path = tmp_path / f"randcmp_{cfg.hash}.csv"
    first = csv_path.read_bytes()
    run_randcmp(cfg)
    assert csv_path.read_bytes() == first
    header, *rows = first.decode().splitlines()
    assert header == RANDCMP_HEADER
    assert [r["n"] for r in summary["rows"]] == [8, 16]
    for line, row in zip(rows, summary["rows"], strict=True):
        floats = [row[c] for c in RANDCMP_HEADER.split(",")[2:]]
        assert all(isinstance(v, float) for v in floats)
        assert line == ",".join([cfg.hash, str(row["n"])] + [repr(v) for v in floats])


CLI_CASES = {  # command: (a good config, then bad ones: a broken config, a non-numeric value)
    "points": (
        "d = 1\nn = 8\nstrategy = equispaced_circle\n",
        "d = 1\nn = 8\nstrategy = nonsense\n",
        "d = 1\nn = eight\nstrategy = equispaced_circle\n",
        "d = 1\nn = 8\nstrategy = equispaced_circle\nbogus = 1\n",  # unread key
    ),
    "quad": (
        "d = 1\nn = 8\nstrategy = equispaced_circle\n",
        "d = 1\nn = 8\n",
        "d = 1\nn = 8\nstrategy = equispaced_circle\ntol = small\n",
        "d = 1\nn = 8\nstrategy = equispaced_circle\nlam = 2\n",  # unread key
    ),
    "spectrum": (
        "d = 2\nk = 1\nm_max = 20\n",
        "d = 2\nm_max = 20\n",
        "d = 2\nk = 1\nm_max = many\n",
        "d = 2\nk = 1\nm_max = 20\nseed = 7\n",  # unread key
    ),
    "pde": (
        "problem = interval\nk = 2\nms = 64 128 256 512\nseeds = 0\n",
        "problem = nonsense\n",
        "problem = interval\nk = 2\nms = 64 x\nseeds = 0\n",
        "problem = interval\nk = 2\nms = 256 512\nseeds = 0\n",  # too few sizes for a slope
        "problem = interval\nk = 2\nms = 64 128 256 512\nseeds = 0\nseed = 7\n",  # unread key
    ),
    "kernel": (
        "d = 2\nk = 1\nn_mc = 2000\npairs = 2\nm_max = 40\n",
        "d = 2\nk = 1\nm_max = 1\n",
        "d = two\nk = 1\nn_mc = 2000\npairs = 2\nm_max = 40\n",
        "d = 2\nk = 1\nn_mc = 2000\npairs = 2\nm_max = 40\nseeds = 4\n",  # unread key
    ),
    "approx": (
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8\n",
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\n",
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8 x\n",
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8\nseed = 7\n",  # unread key
    ),
    "randcmp": (
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8 16\n"
        "seeds = 0 1 2 3 4 5 6 7 8 9\n",
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8 16\nseeds = 0 1\n",
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8 sixteen\n",
        "d = 1\nk = 1\ntarget = gaussian_bump\nstrategy = equispaced_circle\nns = 8 16\n"
        "seeds = 0 1 2 3 4 5 6 7 8 9\nseed = 7\n",
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


def _good_config(command: str) -> str:
    return CLI_CASES["approx" if command == "rates" else command][0]  # rates reads approx's keys


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_cli_out_dir_is_not_a_config_key(command, tmp_path, capsys):
    (tmp_path / "good.cfg").write_text(_good_config(command) + f"out_dir = {tmp_path / 'x'}\n")
    out = tmp_path / "out"
    assert cli_main(["--config", str(tmp_path / "good.cfg"), "--out", str(out), command]) == 2
    assert "unknown config key: out_dir" in capsys.readouterr().err
    assert not (tmp_path / "x").exists() and not out.exists()


def test_cli_approx_fits_only_the_largest_n(monkeypatch, tmp_path, capsys):
    (tmp_path / "approx.cfg").write_text(_good_config("approx").replace("ns = 8", "ns = 8 16 32"))
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
    row = run_rates(full, write=False).rows[-1]  # the sweep the command ran before printing its last row
    want = f"n={row['n']} l2={row['error_l2']!r} h1={row['error_h1']!r} sqrtn_a={row['sqrtn_a_norm']!r}\n"
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("command", ["approx", "pde", "randcmp", "rates", "spectrum"])  # no seed key
def test_cli_seed_flag_rejected_where_seeds_are_read(command, tmp_path, capsys):
    (tmp_path / "good.cfg").write_text(_good_config(command))
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
