import math

import numpy as np
import pytest

from fnspace.activation import (
    ActivationSpectrum,
    _sigma_hat_closed,
    expansion_residual,
    in_support,
    kernel,
    sigma_hat_quadrature,
    sigma_k,
    sigma_k_prime,
    spectrum,
    xi,
    xi_forward_difference,
)
from fnspace.cli import main as cli_main
from fnspace.errors import ContractError, DomainError, PrecisionError
from fnspace.harmonics import harmonic_dim, sphere_area


def test_sigma_k_values():
    assert sigma_k(1, 0.5) == 0.5
    assert sigma_k(2, -1.0) == 0.0
    assert sigma_k(3, 2.0) == 8.0
    assert sigma_k(0, 0.0) == 1.0
    assert sigma_k(0, -0.1) == 0.0
    with pytest.raises(ContractError):
        sigma_k(-1, 0.0)


def test_sigma_k_prime():
    assert sigma_k_prime(2, 0.5) == 1.0
    assert sigma_k_prime(1, -0.5) == 0.0
    with pytest.raises(ContractError):
        sigma_k_prime(0, 0.5)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_sigma_k_leaves_input_alone(k):
    t = np.random.Generator(np.random.Philox(k)).standard_normal((7, 5))
    t[0, :2] = 0.0
    before = t.copy()
    got = sigma_k(k, t)
    np.testing.assert_array_equal(t, before)
    want = np.where(t >= 0.0, 1.0, 0.0) if k == 0 else np.maximum(t, 0.0) ** k
    assert np.array_equal(got, want)
    if k >= 1:
        dgot = sigma_k_prime(k, t)
        np.testing.assert_array_equal(t, before)
        if k == 1:
            dwant = np.where(t > 0.0, 1.0, 0.0)
        else:
            dwant = k * np.maximum(t, 0.0) ** (k - 1)
        assert np.array_equal(dgot, dwant)
    # out=t is the one in-place form, with the same values
    assert np.array_equal(sigma_k(k, t, out=t), want) and np.array_equal(t, want)


def test_support_set():
    assert [m for m in range(10) if in_support(2, m)] == [0, 1, 2, 3, 5, 7, 9]
    assert [m for m in range(8) if in_support(0, m)] == [0, 1, 3, 5, 7]


def test_closed_form_matches_quadrature():
    for d in (1, 2, 3):
        for k in (0, 1, 2):
            for m in range(k + 1, 30):
                if (m - k) % 2 != 1:
                    continue
                closed = _sigma_hat_closed(d, k, m)
                quad = sigma_hat_quadrature(d, k, m)
                assert closed == pytest.approx(quad, rel=1e-9)


def test_spectrum_support_and_zeros():
    sp = spectrum(2, 1, 20)
    assert isinstance(sp, ActivationSpectrum)
    for m in range(21):
        if in_support(1, m):
            assert sp.coefficient(m) != 0.0
        else:
            assert sp.coefficient(m) == 0.0
    assert list(sp.support_degrees(0, 5)) == [0, 1, 2, 4]


def test_spectrum_signs_alternate():
    sp = spectrum(1, 1, 30)
    ms = [m for m in range(2, 31) if in_support(1, m) and m >= 2]
    signs = np.sign([sp.coefficient(m) for m in ms])
    assert np.all(signs[:-1] * signs[1:] == -1.0)


def test_decay_exponent_single_case():
    sp = spectrum(2, 2, 400)
    ms = sp.support_degrees(20, 400)
    slope = np.polyfit(np.log(ms), np.log(np.abs(sp.coefficients[ms])), 1)[0]
    assert slope == pytest.approx(-(2 + 2 * 2 + 1) / 2.0, abs=0.05)


def test_xi_interpolates_squared_coefficients():
    for d in (1, 2):
        for k in (1, 2):
            sp = spectrum(d, k, 60)
            r = (d + 2 * k + 1) / 2.0
            for m in sp.support_degrees(k + 1, 60):
                want = sp.coefficient(int(m)) ** 2 * float(m) ** (2 * r)
                assert xi(d, k, r, int(m)) == pytest.approx(want, rel=1e-10)


def test_xi_domain_checks():
    with pytest.raises(DomainError):
        xi(2, 1, 10.0, 5)
    with pytest.raises(ContractError):
        xi(2, 1, 1.0, 1)


def test_xi_alternating_differences():
    # (-1)^beta * forward difference of xi stays nonnegative
    for beta in (1, 2, 3):
        vals = [
            (-1.0) ** beta * xi_forward_difference(2, 1, 2.0, m, beta)
            for m in range(2, 40)
        ]
        assert min(vals) >= 0.0


def test_kernel_matches_direct_integral_d1():
    # unnormalized angular integral on the circle as the oracle
    d, k = 1, 1
    sp = spectrum(d, k, 800)
    phi = 2.0 * math.pi * (np.arange(20000) + 0.5) / 20000
    theta = np.column_stack([np.cos(phi), np.sin(phi)])
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(5):
        x, y = rng.uniform(-0.8, 0.8, 2)
        xt = np.array([x, 1.0])
        yt = np.array([y, 1.0])
        direct = (2.0 * math.pi / 20000) * float(
            np.sum(sigma_k(k, theta @ xt) * sigma_k(k, theta @ yt))
        )
        series = kernel(d, k, sp, np.array([x]), np.array([y]))
        assert series == pytest.approx(direct, rel=1e-5)


def test_kernel_tail_guard():
    sp = spectrum(2, 1, 12)
    with pytest.raises(PrecisionError):
        kernel(2, 1, sp, np.array([0.5, 0.0]), np.array([0.1, 0.2]), tol=1e-8)
    with pytest.raises(ContractError):
        kernel(2, 2, sp, np.array([0.5, 0.0]), np.array([0.1, 0.2]))


def test_expansion_residual_monotone_and_tail():
    d, k = 1, 1
    res = [expansion_residual(d, k, spectrum(d, k, m_max)) for m_max in (20, 40, 80)]
    assert res[0] > res[1] > res[2] > 0.0
    # residual^2 equals the analytic tail sum of sigma_hat^2 ||p_m||^2
    sp = spectrum(d, k, 40)
    tail = 0.0
    norm = sphere_area(d) / sphere_area(d - 1)
    for m in range(41, 4001):
        if in_support(k, m):
            tail += _sigma_hat_closed(d, k, m) ** 2 * norm * harmonic_dim(d, m)
    assert expansion_residual(d, k, sp) ** 2 == pytest.approx(tail, rel=0.1)


def test_spectrum_csv(tmp_path):
    (tmp_path / "spec.cfg").write_text("d = 1\nk = 1\nm_max = 10\n")
    assert cli_main(["--config", str(tmp_path / "spec.cfg"), "--out", str(tmp_path), "spectrum"]) == 0
    header, *lines = (tmp_path / "spectrum_d1_k1.csv").read_text().splitlines()
    assert header == "m,in_support,sigma_hat"
    sp = spectrum(1, 1, 10)
    assert len(lines) == sp.m_max + 1
    for m, line in enumerate(lines):
        cells = line.split(",")
        assert cells[:2] == [str(m), str(int(sp.support[m]))]
        assert float(cells[2]) == sp.coefficients[m]
