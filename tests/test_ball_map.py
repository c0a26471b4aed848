import math

import numpy as np
import pytest

from fnspace.ball_map import (
    CapFunction,
    lift_S_k,
    parity_extend,
    restrict_T_k,
)
from fnspace.errors import ConfigurationError, DomainError
from fnspace.harmonics import reference_grid

rng = np.random.Generator(np.random.Philox(17))

BW = math.pi / 16.0
MARGIN = math.pi / 4.0 + BW / 2.0 + 0.01


def random_ball(n, d=2, radius=0.7):
    pts = rng.uniform(-1.0, 1.0, (4 * n, d))
    pts = pts[np.sum(pts**2, axis=1) <= radius**2]
    return pts[:n]


def random_cap(n, d=2):
    z = rng.uniform(1.0 / math.sqrt(2.0) + 1e-6, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    r = np.sqrt(1.0 - z**2)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def random_sphere(n):
    g = rng.standard_normal((n, 3))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def test_lift_constant_k0():
    g = CapFunction(2, 0, lambda eta: np.ones(len(eta)))
    lifted = lift_S_k(g)
    x = random_ball(20)
    np.testing.assert_allclose(lifted(x), 1.0, atol=1e-12)


def test_lift_homogeneity_identity_k1():
    theta = np.array([0.3, -0.4, math.sqrt(1.0 - 0.25)])
    g = CapFunction(2, 1, lambda eta: np.maximum(eta @ theta, 0.0))
    lifted = lift_S_k(g)
    x = random_ball(50)
    xt = np.column_stack([x, np.ones(len(x))])
    np.testing.assert_allclose(lifted(x), np.maximum(xt @ theta, 0.0), atol=1e-12)


def test_lift_height_squared_is_one():
    g = CapFunction(2, 2, lambda eta: eta[:, 2] ** 2)
    lifted = lift_S_k(g)
    x = random_ball(30)
    np.testing.assert_allclose(lifted(x), 1.0, atol=1e-12)


def test_restrict_constant_k0():
    cap = restrict_T_k(2, 0, lambda x: np.ones(len(x)))
    eta = random_cap(20)
    np.testing.assert_allclose(cap(eta), 1.0, atol=1e-12)


def test_restrict_of_neuron_is_sphere_neuron():
    theta = np.array([0.1, 0.5, math.sqrt(1.0 - 0.26)])

    def f(x):
        xt = np.column_stack([x, np.ones(len(x))])
        return np.maximum(xt @ theta, 0.0)

    cap = restrict_T_k(2, 1, f)
    eta = random_cap(50)
    np.testing.assert_allclose(cap(eta), np.maximum(eta @ theta, 0.0), atol=1e-12)


def test_restrict_domain_guard():
    cap = restrict_T_k(2, 1, lambda x: np.zeros(len(x)))
    below = np.array([[0.0, 1.0, 0.0]])
    with pytest.raises(DomainError):
        cap(below)


def _random_poly(d=2, deg=3):
    coefs = rng.standard_normal((deg + 1, deg + 1))

    def f(x):
        out = np.zeros(len(x))
        for i in range(deg + 1):
            for j in range(deg + 1 - i):
                out += coefs[i, j] * x[:, 0] ** i * x[:, 1] ** j
        return out

    return f


def test_roundtrip_sktk_identity():
    for k in (0, 1, 2):
        f = _random_poly()
        lifted = lift_S_k(restrict_T_k(2, k, f))
        x = random_ball(100)
        assert np.max(np.abs(lifted(x) - f(x))) < 1e-12


def test_roundtrip_tksk_identity():
    for k in (1, 2):
        f = _random_poly()
        g = restrict_T_k(2, k, f)
        back = restrict_T_k(2, k, lift_S_k(g))
        eta = random_cap(100)
        assert np.max(np.abs(back(eta) - g(eta))) < 1e-12


def _random_smooth_bounded(d=2):
    # Gaussian mixture: smooth on all of R^d and decaying, so the cap
    # formula stays O(1) down to the equator
    centers = rng.uniform(-0.5, 0.5, (3, d))
    amps = rng.standard_normal(3)

    def f(x):
        out = np.zeros(len(x))
        for c, a in zip(centers, amps):
            out += a * np.exp(-np.sum((x - c) ** 2, axis=1))
        return out

    return f


def test_parity_extend_exact_parity():
    for k in (1, 2, 3):
        f = _random_smooth_bounded()
        cap = restrict_T_k(2, k, f, margin=MARGIN)
        ext = parity_extend(cap, BW)
        eta = random_sphere(1000)
        res = ext(eta) - (-1.0) ** (k + 1) * ext(-eta)
        assert np.max(np.abs(res)) < 1e-12


def test_parity_extend_on_the_equator():
    # reference_grid(2, 64) has a node row at eta_3 = 0, where the cap
    # formula's projection eta_bar / eta_3 is undefined
    nodes = reference_grid(2, 64).nodes
    equator = nodes[:, -1] == 0.0
    assert np.any(equator)
    gaussian = lambda x: np.exp(-2.0 * np.sum(x**2, axis=-1))  # noqa: E731
    g = parity_extend(restrict_T_k(2, 1, gaussian, margin=math.pi / 4 + math.pi / 32))
    vals = g(nodes)
    assert np.all(np.isfinite(vals))
    assert np.all(vals[equator] == 0.0)


def test_parity_extend_constant_k_even_is_odd():
    cap = restrict_T_k(2, 2, lambda x: np.ones(len(x)), margin=MARGIN)
    ext = parity_extend(cap, BW)
    eta = random_sphere(500)
    assert np.max(np.abs(ext(eta) + ext(-eta))) < 1e-12


def test_parity_extend_reflection_identity():
    # below the blend band the extension of a lifted neuron differs from
    # the sphere neuron by exactly the polynomial (theta . eta)^k
    k = 2
    theta = np.array([0.2, -0.3, math.sqrt(1.0 - 0.13)])

    def f(x):
        xt = np.column_stack([x, np.ones(len(x))])
        return np.maximum(xt @ theta, 0.0) ** k

    cap = restrict_T_k(2, k, f, margin=MARGIN)
    ext = parity_extend(cap, BW)
    eta = random_sphere(2000)
    lower = eta[eta[:, 2] < -math.sin(BW)]
    diff = np.maximum(lower @ theta, 0.0) ** k - ext(lower)
    np.testing.assert_allclose(diff, (lower @ theta) ** k, atol=1e-12)


def test_parity_extend_margin_guard():
    cap = restrict_T_k(2, 1, lambda x: np.zeros(len(x)), margin=0.1)
    with pytest.raises(ConfigurationError):
        parity_extend(cap, BW)


def test_lift_norm_comparability():
    # discrete L2 norms of g and S_k g stay within a fixed equivalence band
    from fnspace.harmonics import reference_grid

    grid = reference_grid(2, 24)
    upper = grid.nodes[grid.nodes[:, 2] >= 1.0 / math.sqrt(2.0) + 1e-9]
    x = random_ball(400, radius=0.95)
    for k in (1, 2):
        for _ in range(5):
            f = _random_poly()
            g = restrict_T_k(2, k, f)
            ng = math.sqrt(np.mean(g(upper) ** 2))
            nf = math.sqrt(np.mean(f(x) ** 2))
            if ng < 1e-12:
                continue
            ratio = nf / ng
            assert 0.05 < ratio < 20.0
