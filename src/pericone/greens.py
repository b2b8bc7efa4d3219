"""Periodic Green's functions for x'' + a(t) x = h(t), x(0)=x(T), x'(0)=x'(T).

For a constant coefficient a = k^2 with 0 < k < pi/T the kernel has the
closed form

    G(t,s) = Ghat(|t-s|),
    Ghat(d) = (sin(k d) + sin(k (T-d))) / (2 k (1 - cos(k T))),

which is strictly positive with extrema m = Ghat(0) and M = Ghat(T/2).  On
the grid t_p = p h the table is the symmetric circulant of the profile
Ghat(h j), built from one N-point evaluation without N^2 transcendental calls.
For a general T-periodic coefficient the kernel is assembled from the two
basis solutions of x'' + a(t) x = 0 via the monodromy matrix and variation of
parameters; existence requires I - Phi(T) to be invertible (non-resonance).
The basis is classical RK4 at step T/(4*n_grid): the system is linear, so
every step is a 2x2 matrix, all of them are built at once, and their prefix
product is taken by log-depth doubling, with no Python loop over steps.

Quadrature note: G is continuous but its s-derivative jumps by exactly 1
across the diagonal (the defining delta normalization), so the plain periodic
trapezoid rule stalls at O(N^-2).  ``kernel_quadrature`` therefore adds the
next Euler-Maclaurin term, h^2/12 * w(t), as a diagonal bump h/12, which
restores O(N^-4) accuracy on smooth data.  Tabulated values, m and M are the
raw kernel samples, never corrected.  The corrected matrix is built once per
table; it and the samples are read-only, because every operator application
and every Newton step shares them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coefficients import Constant, PeriodicCoefficient
from .errors import DomainError, ResonanceError

__all__ = [
    "GreensTable",
    "PositivityReport",
    "green_constant",
    "green_bounds_constant",
    "build_green_table",
    "kernel_quadrature",
    "solve_linear_periodic",
]

RESONANCE_RTOL = 1e-10
POSITIVITY_RTOL = 1e-12
FINE_FACTOR = 4


def _ghat(d, k: float, period: float):
    """One-variable profile of the constant-coefficient kernel, on [0, T]."""
    den = 2.0 * k * (1.0 - math.cos(k * period))
    return (np.sin(k * d) + np.sin(k * (period - d))) / den


def _circulant_table(k: float, period: float, n_grid: int) -> np.ndarray:
    """values[p, q] = Ghat(h |p - q|) from one N-point profile, N even.

    Ghat(d) = Ghat(T - d), so the table is the circulant of the profile
    mirrored about N/2, which makes it exactly symmetric.  Row p is a window
    of the doubled profile; the windows are a zero-copy view, copied once.
    """
    h = period / n_grid
    half = _ghat(np.arange(n_grid // 2 + 1) * h, k, period)
    profile = np.concatenate([half, half[-2:0:-1]])
    windows = sliding_window_view(np.concatenate([profile, profile]), n_grid)
    return windows[n_grid:0:-1].copy()


def green_constant(k: float, period: float, t: float, s: float) -> float:
    """Closed-form G(t,s) for a = k^2, valid for 0 < k < pi/T and t,s in [0,T]."""
    if not (0.0 < k * period < math.pi):
        raise DomainError(f"need 0 < k*T < pi, got k*T = {k * period}")
    if not (0.0 <= t <= period and 0.0 <= s <= period):
        raise DomainError("t and s must lie in [0, T]")
    return float(_ghat(abs(t - s), k, period))


def green_bounds_constant(k: float, period: float):
    """(m, M) = (Ghat(0), Ghat(T/2)) for the constant-coefficient kernel."""
    if not (0.0 < k * period < math.pi):
        raise DomainError(f"need 0 < k*T < pi, got k*T = {k * period}")
    m = math.sin(k * period) / (2.0 * k * (1.0 - math.cos(k * period)))
    big = 1.0 / (2.0 * k * math.sin(k * period / 2.0))
    return m, big


@dataclass
class PositivityReport:
    """Strict positivity of a kernel: grid scan plus the refined patch."""

    holds: bool
    min_value: float
    argmin: tuple


@dataclass
class GreensTable:
    """Kernel samples values[p, q] = G(t_p, t_q) on the uniform grid t_p = p*T/N."""

    n_grid: int
    period: float
    values: np.ndarray
    m: float
    M: float
    positivity: PositivityReport
    # h * (values + (h/12) I), the Nystrom matrix kernel_quadrature returns
    quadrature: np.ndarray = field(repr=False)
    # closed-form k when the constant-coefficient branch was used, else None
    k: float | None = field(default=None, repr=False)
    monodromy: np.ndarray | None = field(default=None, repr=False)

    @property
    def positive(self) -> bool:
        return self.positivity.holds

    @property
    def grid_t(self) -> np.ndarray:
        return np.arange(self.n_grid) * (self.period / self.n_grid)


def _check_grid(n_grid: int):
    if n_grid < 16 or n_grid % 2 != 0:
        raise DomainError("n_grid must be even and at least 16")


def _rk4_basis(coef: PeriodicCoefficient, n_grid: int):
    """Fundamental matrix Y(t_j) of x'' + a(t)x = 0 on the fine grid T/(4N).

    Y columns are the basis solutions (phi1, phi2) with Y(0) = I; the state
    rows are (x, x').  y' = A(t) y with A = [[0, 1], [-a, 0]] is linear, so a
    classical RK4 step (coefficient on the half-step grid) is the 2x2 matrix
    M_j = I + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = A0, K2 = Am (I + h/2 K1),
    K3 = Am (I + h/2 K2), K4 = A1 (I + h K3).  All 4N step matrices are built
    at once and Y[j+1] = M_j ... M_0 is their inclusive prefix product, taken
    by log-depth doubling.
    """
    period = coef.period
    nf = FINE_FACTOR * n_grid
    h = period / nf
    t_half = np.arange(2 * nf + 1) * (h / 2.0)
    a_half = coef.eval(t_half)

    def system(a_vals):
        out = np.zeros((a_vals.size, 2, 2))
        out[:, 0, 1] = 1.0
        out[:, 1, 0] = -a_vals
        return out

    eye = np.eye(2)
    k1, am, a1 = system(a_half[0:-1:2]), system(a_half[1::2]), system(a_half[2::2])
    k2 = am @ (eye + (0.5 * h) * k1)
    k3 = am @ (eye + (0.5 * h) * k2)
    k4 = a1 @ (eye + h * k3)

    Y = np.empty((nf + 1, 2, 2))
    Y[0] = eye
    P = Y[1:]
    P[:] = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    s = 1
    while s < nf:
        P[s:] = P[s:] @ P[:-s]
        s *= 2
    return Y


def _kernel_from_basis(Y: np.ndarray, idx_t, idx_s):
    """G on the grid points given by fine indices idx_t (rows) x idx_s (cols)."""
    Phi = Y[-1]
    A = np.eye(2) - Phi
    det = np.linalg.det(A)
    if abs(det) < RESONANCE_RTOL * (1.0 + np.linalg.norm(Phi)):
        raise ResonanceError(f"|det(I - Phi(T))| = {abs(det):.3e} too small")

    p1t, p2t = Y[idx_t, 0, 0], Y[idx_t, 0, 1]
    p1s, p2s = Y[idx_s, 0, 0], Y[idx_s, 0, 1]
    phi1T, phi2T = Phi[0, 0], Phi[0, 1]
    dphi1T, dphi2T = Phi[1, 0], Phi[1, 1]

    # particular solution response at T for a unit impulse at s
    B = np.vstack([p1s * phi2T - phi1T * p2s, p1s * dphi2T - dphi1T * p2s])
    C = np.linalg.solve(A, B)

    # homogeneous part, plus the causal part p1(s) p2(t) - p1(t) p2(s) on t >= s;
    # both are rank-2 products
    G = np.stack([p1t, p2t], 1) @ C
    causal = np.stack([p2t, -p1t], 1) @ np.stack([p1s, p2s])
    np.add(G, causal, out=G, where=idx_t[:, None] >= idx_s[None, :])
    return G


def _refine_min(values_eval, p_star: int, q_star: int, n_grid: int):
    """Spot-check the kernel on a 4x finer patch around the coarse argmin."""
    lo_t = FINE_FACTOR * (p_star - 2)
    lo_s = FINE_FACTOR * (q_star - 2)
    span = 4 * FINE_FACTOR + 1
    # the kernel is periodic in both variables: wrap, so a patch at the grid
    # edge also sees t, s just below T
    idx_t = np.mod(np.arange(lo_t, lo_t + span), FINE_FACTOR * n_grid)
    idx_s = np.mod(np.arange(lo_s, lo_s + span), FINE_FACTOR * n_grid)
    patch = values_eval(idx_t, idx_s)
    flat = int(np.argmin(patch))
    it, js = divmod(flat, patch.shape[1])
    return float(patch[it, js]), (int(idx_t[it]), int(idx_s[js]))


def build_green_table(coef: PeriodicCoefficient, n_grid: int) -> GreensTable:
    """Tabulate the periodic kernel of x'' + a(t) x on an N x N uniform grid."""
    _check_grid(n_grid)
    period = coef.period
    h = period / n_grid
    h_fine = period / (FINE_FACTOR * n_grid)

    if isinstance(coef, Constant) and 0.0 < coef.value < (math.pi / period) ** 2:
        k = math.sqrt(coef.value)
        values = _circulant_table(k, period, n_grid)

        def eval_patch(idx_t, idx_s):
            tt = idx_t * h_fine
            ss = idx_s * h_fine
            return _ghat(np.abs(tt[:, None] - ss[None, :]), k, period)

        Phi = None
        k_used = k
    else:
        Y = _rk4_basis(coef, n_grid)
        coarse = np.arange(0, FINE_FACTOR * n_grid, FINE_FACTOR)
        values = _kernel_from_basis(Y, coarse, coarse)

        def eval_patch(idx_t, idx_s):
            return _kernel_from_basis(Y, idx_t, idx_s)

        Phi = Y[-1]
        k_used = None

    m = float(values.min())
    big = float(values.max())
    p_star, q_star = np.unravel_index(int(np.argmin(values)), values.shape)
    fine_min, fine_arg = _refine_min(eval_patch, int(p_star), int(q_star), n_grid)
    if fine_min < m:
        min_value, argmin = fine_min, (fine_arg[0] * h_fine, fine_arg[1] * h_fine)
    else:
        min_value, argmin = m, (p_star * h, q_star * h)
    tol = POSITIVITY_RTOL * (1.0 + abs(big))
    if k_used is None:
        # tabulated values carry the RK4 global error, O(h_fine^4); a minimum
        # inside that noise floor cannot be certified positive
        tol = max(tol, 1e3 * (1.0 + abs(big)) * h_fine ** 4)

    # h * (values + (h/12) I), formed in place: one N x N array, no identity
    quadrature = values.copy()
    quadrature.flat[::n_grid + 1] += h / 12.0
    quadrature *= h
    values.flags.writeable = False
    quadrature.flags.writeable = False
    return GreensTable(
        n_grid=n_grid,
        period=period,
        values=values,
        m=m,
        M=big,
        positivity=PositivityReport(holds=bool(min_value > tol), min_value=min_value,
                                    argmin=argmin),
        quadrature=quadrature,
        k=k_used,
        monodromy=Phi,
    )


def kernel_quadrature(table: GreensTable) -> np.ndarray:
    """Matrix Q with (Q @ w)[p] ~ integral of G(t_p, s) w(s) ds over one period.

    Periodic trapezoid weights h = T/N plus the Euler-Maclaurin correction
    h^2/12 * w(t_p) for the unit derivative jump of G across the diagonal.
    Built once by build_green_table; every call returns the same read-only array.
    """
    return table.quadrature


def solve_linear_periodic(table: GreensTable, e):
    """Periodic solution of x'' + a(t) x = e(t) as a one-component grid function.

    e may be a periodic coefficient or an array of per-node values.
    """
    from .operator import GridFunction

    if hasattr(e, "eval"):
        e_vals = e.eval(table.grid_t)
    else:
        e_vals = np.asarray(e, dtype=float)
    if e_vals.shape != (table.n_grid,):
        raise DomainError("e must provide one value per grid node")
    x = kernel_quadrature(table) @ e_vals
    return GridFunction(n=1, n_grid=table.n_grid, period=table.period,
                        values=x[None, :])

