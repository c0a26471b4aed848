"""Constructive approximation by fixed-direction ReLU^k ridge expansions.

Library layout:

- sphere: point sets on S^d, mesh norm (searched on S^2 at a fixed 0.01)
  and separation diagnostics
- harmonics: Legendre polynomials, spherical harmonics, reference grids
- activation: ReLU^k spectrum, decay majorant, dot-product kernel
- quadrature: positive rules on scattered points, exact to a degree
- models: finite neuron models, constructive and least-squares fitting
- ball_map: cap/ball homogeneity transfer and parity extension
- pde_erm: Ritz-energy empirical risk minimization
- harness: the rate, randcmp and PDE sweeps, slope fits, config and CSV I/O
- cli: the `fnspace` command
"""

from .activation import ActivationSpectrum, kernel, sigma_k, sigma_k_prime, spectrum, xi
from .ball_map import CapFunction, lift_S_k, parity_extend, restrict_T_k
from .errors import (
    ConfigurationError,
    ContractError,
    DomainError,
    NumericalError,
    PrecisionError,
)
from .harmonics import ReferenceGrid, harmonic_dim, reference_grid, sphere_area
from .harness import ExperimentConfig, RateReport, fit_slope, run_pde, run_randcmp, run_rates
from .models import (
    FiniteNeuronModel,
    Grid,
    TargetFunction,
    coef_stat,
    constructive_fit,
    error_norms,
    least_squares_fit,
)
from .pde_erm import EllipticProblem, ErmResult, disk_problem, erm_fit, interval_problem
from .quadrature import QuadratureRule, build_rule, integrate
from .sphere import PointSet, generate_points, geodesic_distance

__version__ = "0.1.0"
