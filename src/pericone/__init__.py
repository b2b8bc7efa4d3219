"""Positive periodic solutions of singular second-order systems.

Builds periodic Green tables for x'' + a(t) x, computes the cone constants
they induce, certifies compression/expansion on annuli, and solves for the
positive periodic solutions the certificates predict.
"""

from .benchmarks import PRESETS, SOUNDNESS_SUITE, ReproducePreset, symmetric_config
from .coefficients import (
    Constant,
    FourierSeries,
    Samples,
    coefficient_extrema,
    constant_k2,
)
from .cone import ConeConstants, ConeMembership, compute_constants, cone_membership
from .certify import (
    CertifiedAnnulus,
    RegimeReport,
    Scan,
    annuli_from_scan,
    classify_regime,
    default_r_grid,
    existence_report,
    lambda0_bound,
    large_lambda_threshold,
    scan_radii,
)
from .config import (
    ParsedConfig,
    load_config_file,
    parse_config,
    serialize_problem,
)
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
    PositivityReport,
    build_green_table,
    coarsen,
    green_bounds_constant,
    green_constant,
    kernel_quadrature,
    kernel_values,
    solve_linear_periodic,
    torres_positive,
)
from .operator import GridFunction, apply_T, fixed_point_residual, ode_residual
from .problem import (
    PowerLawRadial,
    Problem,
    annulus_extrema,
    eta_lower,
    eval_f,
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
    coarse_stride,
    continue_lambda,
    find_solutions,
    lift,
    newton_refine,
    picard_solve,
    seed_from_annulus,
)

__version__ = "0.1.0"
