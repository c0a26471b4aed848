import math

import numpy as np
import pytest
from scipy.special import lpmv

from fnspace.errors import ConfigurationError, ContractError, PrecisionError
from fnspace.harmonics import (
    _harmonic_rows,
    harmonic_block,
    harmonic_dim,
    harmonic_table,
    legendre_table,
    project,
    reference_grid,
    sphere_area,
)
from fnspace.quadrature import _moment_system
from fnspace.sphere import PointSet, separation

rng = np.random.Generator(np.random.Philox(42))


def random_sphere(d, n):
    g = rng.standard_normal((n, d + 1))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def test_sphere_area_known_values():
    assert sphere_area(1) == pytest.approx(2.0 * math.pi)
    assert sphere_area(2) == pytest.approx(4.0 * math.pi)
    assert sphere_area(0) == pytest.approx(2.0)


def test_harmonic_dim_values():
    assert harmonic_dim(1, 0) == 1
    assert all(harmonic_dim(1, m) == 2 for m in range(1, 10))
    assert [harmonic_dim(2, m) for m in range(5)] == [1, 3, 5, 7, 9]
    assert harmonic_dim(3, 2) == 9


def test_legendre_normalization_at_one():
    for d in (1, 2, 3):
        table = legendre_table(d, 20, np.array([1.0]))
        dims = [harmonic_dim(d, m) for m in range(21)]
        np.testing.assert_allclose(table[:, 0], dims, rtol=1e-12)


def test_legendre_d1_is_doubled_cosine():
    rho = np.linspace(0.0, math.pi, 7)
    table = legendre_table(1, 12, np.cos(rho))
    for m in range(1, 13):
        np.testing.assert_allclose(table[m], 2.0 * np.cos(m * rho), atol=1e-10)


def test_legendre_domain_check():
    with pytest.raises(ContractError):
        legendre_table(2, 3, np.array([1.5]))


def test_addition_theorem():
    for d in (1, 2):
        eta = random_sphere(d, 12)
        theta = random_sphere(d, 12)
        u = np.clip(np.sum(eta * theta, axis=1), -1.0, 1.0)
        for m in range(21):
            lhs = np.sum(
                harmonic_block(d, m, eta) * harmonic_block(d, m, theta), axis=0
            )
            rhs = legendre_table(d, m, u)[m]
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_harmonic_orthonormality():
    for d in (1, 2):
        grid = reference_grid(d, 40)
        blocks = [harmonic_block(d, m, grid.nodes) for m in range(8)]
        flat = np.vstack(blocks)
        gram = (flat * grid.weights) @ flat.T
        np.testing.assert_allclose(gram, np.eye(len(flat)), atol=1e-10)


def test_norm_sq_matches_quadrature():
    # ||p_m||^2 = (omega_d/omega_{d-1}) N(m) under w_d(t) dt, via t = cos(rho)
    # so the weight is smooth
    for d in (1, 2, 3):
        x, w = np.polynomial.legendre.leggauss(400)
        rho = (x + 1.0) * (math.pi / 2.0)
        jac = (math.pi / 2.0) * np.sin(rho) ** (d - 1)
        table = legendre_table(d, 7, np.cos(rho))
        for m in (0, 3, 7):
            val = float(np.dot(w, table[m] ** 2 * jac))
            want = sphere_area(d) / sphere_area(d - 1) * harmonic_dim(d, m)
            assert val == pytest.approx(want, rel=1e-8)


def test_harmonic_block_bounds():
    eta = random_sphere(2, 3)
    assert harmonic_block(2, 2, eta).shape == (harmonic_dim(2, 2), 3)
    single = harmonic_block(2, 2, eta[0])
    assert single.shape == (harmonic_dim(2, 2), 1)
    np.testing.assert_array_equal(single[:, 0], harmonic_block(2, 2, eta)[:, 0])
    with pytest.raises(ConfigurationError):
        harmonic_block(3, 2, random_sphere(3, 3))


def test_reference_grid_polynomial_exactness():
    for d in (1, 2):
        grid = reference_grid(d, 24)
        assert grid.integrate(np.ones(len(grid.nodes))) == pytest.approx(1.0)
        for m in range(1, 13):
            vals = harmonic_block(d, m, grid.nodes)[0]
            assert abs(grid.integrate(vals)) < 1e-12


def test_project_recovers_bandlimited_coefficients():
    d = 2
    grid = reference_grid(d, 30)
    coeffs = {(2, 3): 0.7, (5, 1): -1.3}
    samples = sum(
        c * harmonic_block(d, m, grid.nodes)[ell - 1] for (m, ell), c in coeffs.items()
    )
    for (m, ell), c in coeffs.items():
        got, evaluator = project(grid, samples, m)
        assert got[ell - 1] == pytest.approx(c, abs=1e-12)
        eta = random_sphere(d, 5)
        np.testing.assert_allclose(
            evaluator(eta), c * harmonic_block(d, m, eta)[ell - 1], atol=1e-10
        )


def test_project_grid_too_coarse():
    grid = reference_grid(1, 10)
    with pytest.raises(PrecisionError):
        project(grid, np.zeros(len(grid.nodes)), 8)


def _harmonic_block_reference(m, eta):
    """Real spherical harmonics on S^2 from one lpmv call per order, scaled
    by sqrt((2m+1)(m-mu)!/(m+mu)!) to be orthonormal under the normalized measure."""
    z = np.clip(eta[..., 2], -1.0, 1.0)
    phi = np.arctan2(eta[..., 1], eta[..., 0])
    rows = []
    for mu in range(-m, m + 1):
        c = math.sqrt((2 * m + 1) * math.exp(math.lgamma(m - abs(mu) + 1) - math.lgamma(m + abs(mu) + 1)))
        p = c * lpmv(abs(mu), m, z)
        if mu == 0:
            rows.append(p)
        elif mu > 0:
            rows.append(math.sqrt(2.0) * p * np.cos(mu * phi))
        else:
            rows.append(math.sqrt(2.0) * p * np.sin(-mu * phi))
    return np.vstack(rows)


def _points_and_poles():
    """Random unit rows plus both poles, where phi is arbitrary."""
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-300, -2e-300, 1.0], [-3.0e-17, 0.0, -1.0]])
    return np.vstack([random_sphere(2, 60), poles])


def test_s2_blocks_match_lpmv_reference():
    eta = _points_and_poles()
    for m in range(41):
        np.testing.assert_allclose(harmonic_block(2, m, eta), _harmonic_block_reference(m, eta), rtol=0.0, atol=1e-12)


def test_s2_moment_rows_match_lpmv_reference():
    eta = _points_and_poles()[:62]  # the random rows and two distinct poles
    A, b = _moment_system(PointSet(eta), 40)
    want = np.vstack([_harmonic_block_reference(m, eta) for m in range(41)])
    np.testing.assert_allclose(A, want, rtol=0.0, atol=1e-12)
    assert np.array_equal(A, harmonic_table(2, 40, eta))
    assert np.array_equal(b, np.eye(len(A))[0])


@pytest.mark.parametrize("d", [1, 2])
def test_harmonic_rows_are_the_stacked_blocks(d):
    """One builder, bit for bit: the table, and rows of any listed degrees
    (poles included on S^2), are the blocks stacked in the order listed."""
    eta = _points_and_poles() if d == 2 else random_sphere(1, 60)
    for degrees in ([0], [7], [2, 4, 6, 8], [1, 3, 40], [5, 2, 9], range(21)):
        want = np.vstack([harmonic_block(d, m, eta) for m in degrees])
        assert np.array_equal(_harmonic_rows(d, degrees, eta), want)
    assert np.array_equal(harmonic_table(d, 30, eta), np.vstack([harmonic_block(d, m, eta) for m in range(31)]))
