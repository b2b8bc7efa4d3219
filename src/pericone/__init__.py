"""Positive periodic solutions of singular second-order systems.

Builds periodic Green tables for x'' + a(t) x, computes the cone constants
they induce, certifies compression/expansion on annuli, and solves for the
positive periodic solutions the certificates predict.
"""

from .benchmarks import PRESETS, ReproducePreset, symmetric_config
from .coefficients import (
    Constant,
    FourierSeries,
    Samples,
    coefficient_extrema,
)
from .cone import ConeConstants, ConeMembership, compute_constants, cone_membership
from .certify import (
    CertifiedAnnulus,
    RadiusBounds,
    RegimeReport,
    Scan,
    annuli_from_scan,
    classify_regime,
    default_r_grid,
    existence_report,
    lambda_rays,
    radius_bounds,
    scan_radii,
)
from .config import ParsedConfig, load_config_file, parse_config
from .errors import (
    AssumptionAError,
    ConfigError,
    DivergenceError,
    DomainError,
    HypothesisError,
    NoConvergenceError,
    PericoneError,
    ResonanceError,
    SingularityError,
    SingularJacobianError,
)
from .greens import (
    GreensTable,
    build_green_table,
    kernel_quadrature,
    kernel_values,
    solve_linear_periodic,
    torres_positive,
)
from .operator import Discretization, GridFunction, apply_T, discretize
from .operator import fixed_point_residual, ode_residual
from .problem import (
    PowerLawRadial,
    Problem,
    annulus_extrema,
    eta_lower,
    fhat,
    thresholds_delta,
)
from .solver import (
    BranchRow,
    BranchTable,
    NewtonResult,
    PicardResult,
    Solution,
    SolveReport,
    continue_lambda,
    find_solutions,
    newton_refine,
    picard_solve,
    resample,
    seed_from_annulus,
)

__version__ = "0.1.0"
