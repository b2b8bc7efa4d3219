"""Cone constants and membership test.

The cone is K = { x >= 0 : min_t sum_i x_i(t) >= sigma ||x|| } in the product
sup norm, with sigma = min_i (min G_i / max G_i) taken from the tabulated
kernels.  Gamma and C_hat are the two aggregate constants the certificates
multiply against lambda.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import extrema_slack
from .errors import AssumptionAError
from .operator import Discretization, GridFunction
from .problem import Problem, thresholds_delta

__all__ = ["ConeConstants", "ConeMembership", "compute_constants", "cone_membership"]

MEMBERSHIP_SLACK = 1e-10


@dataclass
class ConeConstants:
    m: np.ndarray
    M: np.ndarray
    sigma_i: np.ndarray
    sigma: float
    Gamma: float
    C_hat: float
    int_g: np.ndarray
    int_abs_e: np.ndarray
    delta: float | None  # None unless e changes sign
    Delta: float | None


@dataclass
class ConeMembership:
    member: bool
    margin: float


def compute_constants(disc: Discretization, problem: Problem) -> ConeConstants:
    """Aggregate the kernel extrema and coefficient integrals for one problem.

    Integrals use the periodic trapezoid rule on the table grid, the same
    quadrature scale the operator uses, so the certificate arithmetic and the
    discrete operator see identical constants.  int|e_i| is an upper bound:
    on each cell |e_i| is at most the chord's modulus, which the trapezoid
    bounds, plus the chord error K h^2/8 of ``extrema_slack``.
    """
    disc.check(problem, disc.n_grid)
    tables = [disc.tables[k] for k in disc.index]
    for i, tbl in enumerate(tables):
        if not tbl.positive:
            raise AssumptionAError(f"Green table {i} is not strictly positive")

    m = np.array([tbl.m for tbl in tables])
    big = np.array([tbl.M for tbl in tables])
    sigma_i = m / big
    sigma = float(sigma_i.min())

    n_grid = disc.n_grid
    h = problem.period / n_grid
    int_g = problem.g_on_grid(n_grid).sum(axis=1) * h
    int_abs_e = (np.abs(problem.e_on_grid(n_grid)).sum(axis=1) * h
                 + problem.period * np.array([extrema_slack(c, n_grid) for c in problem.e]))

    gamma = float((0.5 * m * sigma * int_g).min())
    c_hat = float((big * int_g).sum())
    if gamma <= 0.0 or c_hat <= 0.0:
        raise AssumptionAError("degenerate constants: Gamma and C_hat must be positive")

    # delta and Delta bound the radial ranges where g f / 2 + e >= 0, which
    # holds everywhere when e >= 0
    delta = delta_big = None
    if problem.sign_profile == "MixedE":
        delta, delta_big = thresholds_delta(problem, sigma)
    return ConeConstants(
        m=m,
        M=big,
        sigma_i=sigma_i,
        sigma=sigma,
        Gamma=gamma,
        C_hat=c_hat,
        int_g=int_g,
        int_abs_e=int_abs_e,
        delta=delta,
        Delta=delta_big,
    )


def cone_membership(x: GridFunction, sigma: float) -> ConeMembership:
    """Membership of a grid function in the sigma-cone, with absolute slack.

    margin = min_t sum_i x_i(t) - sigma ||x||; membership allows both the
    margin and the componentwise nonnegativity to miss by
    1e-10 * (1 + ||x||) to absorb quadrature roundoff.
    """
    norm = x.norm
    slack = MEMBERSHIP_SLACK * (1.0 + norm)
    nonneg = bool(x.values.min() >= -slack)
    margin = x.min_total - sigma * norm
    return ConeMembership(member=bool(nonneg and margin >= -slack), margin=float(margin))
