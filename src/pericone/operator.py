"""Discretized fixed-point operator and residual diagnostics.

(T x)_i(t_p) = lam * integral of G_i(t_p, s) (g_i(s) f_i(x(s)) + e_i(s)) ds,
evaluated with the diagonal-corrected trapezoid rule from greens.kernel_quadrature.
The quadrature is an operator applied from the kernel's generators, not a
matrix; each distinct table's operator is applied once, to the block of
components that share it (``apply_quadrature``).
A grid function is a fixed point of the discrete map iff it solves the
Nystrom system; the ODE residual below is the independent cross-check that a
discrete fixed point actually tracks the differential equation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError
from .greens import GreensTable, kernel_quadrature
from .problem import SINGULARITY_GUARD, SPLIT_FACTOR, Problem

__all__ = [
    "GridFunction",
    "prod_norm",
    "apply_quadrature",
    "apply_T",
    "fixed_point_residual",
    "ode_residual",
]


def prod_norm(values: np.ndarray) -> float:
    """Product sup norm of (n, N) samples: sum over components of max_t |x_i(t)|."""
    return float(np.abs(values).max(axis=1).sum())


@dataclass
class GridFunction:
    """Componentwise samples values[i, p] = x_i(t_p) on the uniform grid."""

    n: int
    n_grid: int
    period: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.n, self.n_grid):
            raise DomainError("values must have shape (n, n_grid)")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid function has non-finite entries")

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


def apply_quadrature(tables, w: np.ndarray) -> np.ndarray:
    """Q_i w_i for every component row i of the (n, N) array w.

    Each distinct table's operator is applied once, to the block of rows of
    the components that share it.
    """
    if all(tbl is tables[0] for tbl in tables):
        return kernel_quadrature(tables[0]) @ w
    shared: dict = {}
    for i, tbl in enumerate(tables):
        shared.setdefault(id(tbl), (tbl, []))[1].append(i)
    out = np.empty_like(w)
    for tbl, rows in shared.values():
        out[rows] = kernel_quadrature(tbl) @ w[rows]
    return out


def apply_T(problem: Problem, tables, x: GridFunction) -> GridFunction:
    """One application of the discrete operator.

    For a sign-changing e the pointwise split inequality
    SPLIT_FACTOR * g_i f_i(x) + e_i >= 0 must already hold on the grid; it is
    checked, not clipped, because the fixed-point arguments only control
    iterates on the restricted radial ranges.
    """
    if len(tables) != problem.n:
        raise DomainError("need one Green table per component")
    for tbl in tables:
        if tbl.n_grid != x.n_grid:
            raise DomainError("table grid does not match the grid function")

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

    out = problem.lam * apply_quadrature(tables, g * fx + e)
    return GridFunction(n=x.n, n_grid=x.n_grid, period=x.period, values=out)


def fixed_point_residual(problem: Problem, tables, x: GridFunction) -> float:
    """||x - T x|| in the product sup norm; zero exactly at a discrete fixed point."""
    return prod_norm(x.values - apply_T(problem, tables, x).values)


def ode_residual(problem: Problem, x: GridFunction) -> float:
    """sup_t |D2 x_i + a_i x_i - lam (g_i f_i(x) + e_i)| with periodic central D2.

    D2 is the 5-point stencil (-x[p-2] + 16 x[p-1] - 30 x[p] + 16 x[p+1]
    - x[p+2]) / (12 h^2).  Independent of the Green tables, so it
    cross-checks the kernel path.  Fourth-order accurate in the grid spacing
    for smooth solutions.
    """
    h = x.period / x.n_grid
    fx = _radial_values(problem, x)
    g = problem.g_on_grid(x.n_grid)
    e = problem.e_on_grid(x.n_grid)
    a = problem.a_on_grid(x.n_grid)
    v = x.values
    # the stencil as 16 D(1) - D(2), D(k) = x[p-k] - 2 x[p] + x[p+k]: every
    # product is by a power of two, so a constant x gives exactly zero
    near = np.roll(v, -1, axis=1) + np.roll(v, 1, axis=1) - 2.0 * v
    far = np.roll(v, -2, axis=1) + np.roll(v, 2, axis=1) - 2.0 * v
    d2 = (16.0 * near - far) / (12.0 * h * h)
    res = d2 + a * v - problem.lam * (g * fx + e)
    return float(np.abs(res).max())
