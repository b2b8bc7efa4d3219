"""Discretized fixed-point operators and residual diagnostics.

(T x)_i(t_p) = lam * integral of G_i(t_p, s) (g_i(s) f_i(x(s)) + e_i(s)) ds.
A problem's ``Discretization`` evaluates it on the N points of its Green
tables by the diagonal-corrected trapezoid rule (greens.kernel_quadrature,
applied from the kernel's generators); its ``Collocation`` on M points,
where Newton solves, is lam (D2 + a_i)^-1, exact on that Fourier grid.
Either applies each distinct operator once, to the block of components
that share it.  The ODE residual below, one FFT multiplier that
differentiates nothing, is the independent cross-check that a solution
tracks the differential equation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularityError
from .greens import build_green_table, kernel_quadrature
from .problem import SINGULARITY_GUARD, SPLIT_FACTOR, Problem

__all__ = [
    "GridFunction",
    "Discretization",
    "Collocation",
    "collocation_matrix",
    "discretize",
    "prod_norm",
    "apply_T",
    "fixed_point_residual",
    "ode_residual",
]


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


def _check_shape(index: tuple, problem: Problem, grids, n_grid: int):
    """Reject a problem without one operator per component, or another grid."""
    if len(index) != problem.n:
        raise DomainError("need one Green table per component")
    if any(size != n_grid for size in grids):
        raise DomainError("table grid does not match the grid function")


def _per_operator(index: tuple, count: int, apply, w: np.ndarray) -> np.ndarray:
    """apply(k, block) for each of ``count`` distinct operators, once, to the
    block of rows of w whose component uses operator k."""
    if count == 1:
        return apply(0, w)
    out = np.empty_like(w)
    for k in range(count):
        rows = [i for i, j in enumerate(index) if j == k]
        out[rows] = apply(k, w[rows])
    return out


@dataclass(frozen=True, eq=False)
class Discretization:
    """A problem's Green tables on one grid: each distinct table once, in the
    order the components first use them; component i uses tables[index[i]],
    and table k was built from coefficients[k], as are the operators of
    ``collocation``.  ``discretize`` derives all three from the problem;
    this constructor takes them as given."""

    tables: tuple
    index: tuple
    coefficients: tuple
    _collocations: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_grid(self) -> int:
        return self.tables[0].n_grid

    def check(self, problem: Problem, n_grid: int):
        _check_shape(self.index, problem, [tbl.n_grid for tbl in self.tables], n_grid)

    def quadrature(self, w: np.ndarray) -> np.ndarray:
        """Q_i along the last axis of w[i] for every component i: each distinct
        table once, to the stack of the components that share it.  Both
        kernels treat each row on its own, so its bits do not depend on the
        stack."""
        return _per_operator(self.index, len(self.tables),
                             lambda k, v: kernel_quadrature(self.tables[k]) @ v, w)

    def collocation(self, m: int) -> "Collocation":
        """Newton's operator on m points, built once per m."""
        op = self._collocations.get(m)
        if op is None:
            op = Collocation(tuple(collocation_matrix(coef, m) for coef in self.coefficients),
                             self.index)
            self._collocations[m] = op
        return op


@dataclass(frozen=True, eq=False)
class Collocation:
    """(D2 + a_i)^-1 on the M-point grid of one period, one read-only M x M
    matrix per distinct coefficient, component i using matrices[index[i]]:
    Newton's operator, standing where a ``Discretization`` stands in
    ``apply_T``."""

    matrices: tuple
    index: tuple

    @property
    def n_grid(self) -> int:
        return self.matrices[0].shape[0]

    def check(self, problem: Problem, n_grid: int):
        _check_shape(self.index, problem, [q.shape[0] for q in self.matrices], n_grid)

    def quadrature(self, w: np.ndarray) -> np.ndarray:
        """(D2 + a_i)^-1 along the last axis of w[i], each distinct matrix once."""
        return _per_operator(self.index, len(self.matrices),
                             lambda k, v: v @ self.matrices[k].T, w)


def collocation_matrix(coef, m: int) -> np.ndarray:
    """(D2 + a)^-1 on m Fourier points, read-only, as (I + Q0 diag(a - abar))^-1 Q0
    with abar the mean of a and Q0 = (D2 + abar)^-1 the rfft multiplier
    1/(abar - w^2), w = 2 pi k / T: a second-kind system that loses about
    eps, where a plain inverse of D2 + diag(a) loses about m^2 eps.  For a
    constant a it is Q0."""
    abar = coef.c0
    w = 2.0 * np.pi * np.fft.rfftfreq(m, coef.period / m)
    # Q0 is the circulant of Q0 e_0: Q0[p, q] = col[(p - q) mod m]
    col = np.fft.irfft(1.0 / (abar - w * w), m)
    nodes = np.arange(m)
    q0 = col[(nodes[:, None] - nodes) % m]
    da = coef.on_grid(m) - abar
    q = np.linalg.solve(np.eye(m) + q0 * da, q0) if np.any(da) else q0
    q.flags.writeable = False
    return q


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
