"""Numerical laboratory for the second moment and covariance of parabolic
equations with affine multiplicative Levy noise, at finite spectral
dimension.

Three independent routes to the same moment fields cross-validate each
other: a space-time Petrov-Galerkin solver for the tensorized moment
problems, a matrix differential equation solved exactly on its grid by
one matrix-exponential propagator, and Monte Carlo simulation of the
mild solution. The routes share the model definitions (spectral, levy,
noise_map) and never import one another; spectral also holds the
packed upper-triangle layout of a symmetric matrix that three modules
read. The package holds the routes and what they share: the quantities
that only the acceptance criteria measure, such as tensor cross norms
and the Ito isometry, live with the tests.
"""

__version__ = "0.1.0"

from .levy import (
    NoiseModel,
    sample_increments,
)
from .montecarlo import (
    MomentEstimate,
    simulate_moments,
)
from .noise_map import (
    AffineNoiseMap,
    g1_v_to_hs_norm,
    scaled_random_coupling,
)
from .oracle import (
    MomentField,
    lyapunov_solve,
    mean_exact,
    two_time_extend,
)
from .petrov_galerkin import (
    MomentLoad,
    PerModeSystem,
    PicardNonConvergence,
    SpaceTimeMoment,
    TimeGrid,
    assemble_per_mode,
    discrete_inf_sup,
    per_mode_singular_range,
    picard_solve_second_moment,
    rhs_covariance,
    rhs_second_moment,
    solve_mean,
)
from .spectral import (
    SpectralModel,
    dirichlet_laplacian,
)
