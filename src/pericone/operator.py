"""Discretized fixed-point operator and residual diagnostics.

(T x)_i(t_p) = lam * integral of G_i(t_p, s) (g_i(s) f_i(x(s)) + e_i(s)) ds,
evaluated with the diagonal-corrected trapezoid rule from greens.kernel_quadrature.
The quadrature is an operator applied from the kernel's generators, not a
matrix; a problem's ``Discretization`` applies each distinct table's
operator once, to the block of components that share it.
A grid function, its (n, N) samples and the period, is a fixed point of
the discrete map iff it solves the Nystrom system; the ODE residual below,
one FFT multiplier that differentiates nothing, is the independent
cross-check that a discrete fixed point actually tracks the differential
equation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SingularityError
from .greens import build_green_table, kernel_quadrature
from .problem import SINGULARITY_GUARD, SPLIT_FACTOR, Problem

__all__ = [
    "GridFunction",
    "Discretization",
    "discretize",
    "prod_norm",
    "apply_T",
    "fixed_point_residual",
    "ode_residual",
]

# the base grid has min(N, COARSE_GRID) points at every N
COARSE_GRID = 64


def prod_norm(values: np.ndarray) -> float:
    """Product sup norm of (n, N) samples: sum over components of max_t |x_i(t)|."""
    return float(np.abs(values).max(axis=1).sum())


@dataclass
class GridFunction:
    """Componentwise samples values[i, p] = x_i(t_p) on the uniform grid of
    one period; the component count n and the grid size n_grid are the
    shape of values."""

    values: np.ndarray
    period: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DomainError("values must be an (n, n_grid) array")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid function has non-finite entries")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_grid(self) -> int:
        return self.values.shape[1]

    @property
    def grid_t(self) -> np.ndarray:
        return np.arange(self.n_grid) * (self.period / self.n_grid)

    @property
    def norm(self) -> float:
        """Product sup norm: sum over components of max_t |x_i(t)|."""
        return prod_norm(self.values)

    @property
    def min_total(self) -> float:
        """min_t sum_i x_i(t), the quantity the cone bounds from below."""
        return float(self.values.sum(axis=0).min())


def _radial_values(problem: Problem, x: GridFunction) -> np.ndarray:
    """f_i(x(t_q)) as an n x N matrix, with the singularity guard; one
    profile evaluation per distinct term tuple."""
    u = np.sqrt(np.sum(x.values * x.values, axis=0))
    if u.min() < SINGULARITY_GUARD:
        raise SingularityError(
            f"min_t ||x(t)||_2 = {u.min():.3e} below guard {SINGULARITY_GUARD}"
        )
    return problem.f.phi_rows(u)


@dataclass(frozen=True, eq=False)
class Discretization:
    """A problem's Green tables on one grid: each distinct table once, in the
    order the components first use them; component i uses tables[index[i]],
    and table k was built from coefficients[k].  ``discretize`` derives all
    three from the problem; this constructor takes them as given."""

    tables: tuple
    index: tuple
    coefficients: tuple

    @property
    def n_grid(self) -> int:
        return self.tables[0].n_grid

    def check(self, problem: Problem, n_grid: int):
        """Reject a problem without one table per component, or another grid."""
        if len(self.index) != problem.n:
            raise DomainError("need one Green table per component")
        if any(tbl.n_grid != n_grid for tbl in self.tables):
            raise DomainError("table grid does not match the grid function")

    @cached_property
    def base_matrices(self) -> list:
        """The Newton step's base-grid quadrature matrices, one per component,
        built on first use: one read-only matrix per distinct table, the
        operator ``kernel_quadrature`` of a table of its coefficient at
        M = min(N, COARSE_GRID) points applied to the identity.  At N <= M
        that table is the discretization's own, bit for bit."""
        size = min(self.n_grid, COARSE_GRID)
        base = [(kernel_quadrature(build_green_table(coef, size)) @ np.eye(size)).T
                for coef in self.coefficients]
        for matrix in base:
            matrix.flags.writeable = False
        return [base[k] for k in self.index]

    def quadrature(self, w: np.ndarray) -> np.ndarray:
        """Q_i along the last axis of w[i] for every component i: each distinct
        table once, to the stack of the components that share it.  Both
        kernels treat each row on its own, so its bits do not depend on the
        stack."""
        if len(self.tables) == 1:
            return kernel_quadrature(self.tables[0]) @ w
        out = np.empty_like(w)
        for k, tbl in enumerate(self.tables):
            rows = [i for i, j in enumerate(self.index) if j == k]
            out[rows] = kernel_quadrature(tbl) @ w[rows]
        return out


def discretize(problem: Problem, n_grid: int) -> Discretization:
    """The Green tables of ``problem.a`` on n_grid points, one per distinct
    coefficient (by ==), in the order the components first use them."""
    coefficients = [coef for i, coef in enumerate(problem.a) if coef not in problem.a[:i]]
    return Discretization(tuple(build_green_table(coef, n_grid) for coef in coefficients),
                          tuple(map(coefficients.index, problem.a)), tuple(coefficients))


def apply_T(problem: Problem, disc: Discretization, x: GridFunction) -> GridFunction:
    """One application of the discrete operator.

    For a sign-changing e the pointwise split inequality
    SPLIT_FACTOR * g_i f_i(x) + e_i >= 0 must already hold on the grid; it is
    checked, not clipped, because the fixed-point arguments only control
    iterates on the restricted radial ranges.
    """
    disc.check(problem, x.n_grid)
    fx = _radial_values(problem, x)
    g = problem.g_on_grid(x.n_grid)
    e = problem.e_on_grid(x.n_grid)

    if problem.sign_profile == "MixedE":
        half = SPLIT_FACTOR * g * fx + e
        worst = float(half.min())
        if worst < -1e-12:
            raise DomainError(
                f"split inequality violated on the grid (min {worst:.3e}); "
                "iterate left the admissible radial range"
            )

    out = problem.lam * disc.quadrature(g * fx + e)
    return GridFunction(out, x.period)


def fixed_point_residual(problem: Problem, disc: Discretization, x: GridFunction) -> float:
    """||x - T x|| in the product sup norm; zero exactly at a discrete fixed point."""
    return prod_norm(x.values - apply_T(problem, disc, x).values)


def ode_residual(problem: Problem, x: GridFunction) -> float:
    """sup_t |x_i - (D2 - 1)^-1 [lam (g_i f_i(x) + e_i) - (a_i + 1) x_i]|.

    x'' + a x = R is (D2 - 1) x = R - (a + 1) x.  (D2 - 1)^-1 is the FFT
    multiplier -1/(w^2 + 1), w = 2 pi k / period, so the check differentiates
    nothing: its round-off is about eps ||x|| at every grid size.  It reads
    ``problem.a``, not the Green tables, so it cross-checks the kernel path.
    A residual at frequency w is damped by 1/(w^2 + 1), so an error of x
    reads at about its own size at every frequency.
    """
    fx = _radial_values(problem, x)
    g = problem.g_on_grid(x.n_grid)
    e = problem.e_on_grid(x.n_grid)
    a = problem.a_on_grid(x.n_grid)
    v = x.values
    w = 2.0 * np.pi * np.fft.rfftfreq(x.n_grid, x.period / x.n_grid)
    rhs = np.fft.rfft(problem.lam * (g * fx + e) - (a + 1.0) * v, axis=-1)
    return float(np.abs(v + np.fft.irfft(rhs / (w * w + 1.0), x.n_grid, axis=-1)).max())
