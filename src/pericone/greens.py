"""Periodic Green's functions for x'' + a(t) x = h(t), x(0)=x(T), x'(0)=x'(T).

For a constant coefficient a = k^2 with 0 < k < pi/T the kernel has the
closed form

    G(t,s) = Ghat(|t-s|),
    Ghat(d) = (sin(k d) + sin(k (T-d))) / (2 k (1 - cos(k T))),

which is strictly positive with extrema m = Ghat(0) and M = Ghat(T/2).  On
the grid t_p = p h the table is the symmetric circulant of the profile
Ghat(h j), generated by one N-point evaluation.
For a general T-periodic coefficient the kernel is assembled from the two
basis solutions of x'' + a(t) x = 0 via the monodromy matrix and variation of
parameters; existence requires I - Phi(T) to be invertible (non-resonance).
The basis is classical RK4 at step T/(4*n_grid): the system is linear, so
every step is a 2x2 matrix, all of them are built at once, and their prefix
product is taken by log-depth doubling, with no Python loop over steps.  On
the grid that kernel is a rank-2 product plus a causal rank-2 term, so the
table is semiseparable: the basis at the nodes and a 2 x N coefficient
generate it.

Quadrature note: G is continuous but its s-derivative jumps by exactly 1
across the diagonal (the defining delta normalization), so the plain periodic
trapezoid rule stalls at O(N^-2).  ``kernel_quadrature`` therefore applies
Q = h (G + h/12 I): the next Euler-Maclaurin term, h^2/12 * w(t), as a
diagonal bump, which restores O(N^-4) accuracy on smooth data.  No table
holds G or Q as an N x N array: Q is applied from the generators, the
circulant by real FFTs in O(N log N) and the semiseparable kernel by a
rank-2 product and two prefix sums in O(N) (Greengard and Rokhlin, CPAM 44,
1991).  ``kernel_values`` samples G at node indices from the generators;
m and M are raw kernel samples, never corrected.  The grids t_p = p T/N
nest, so ``coarsen`` subsamples the generators at every k-th node and
samples the N/k-point quadrature matrix from them with no new kernel
evaluation: the dense table the two-grid solve's Newton LU factors.
Generators and matrices are read-only, because every operator application
and every Newton step shares them.

``torres_positive`` is an analytic cross-check of the positivity scan, from
the coefficient alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .coefficients import (
    Constant,
    FourierSeries,
    PeriodicCoefficient,
    coefficient_extrema,
    extrema_slack,
)
from .errors import DomainError, ResonanceError

__all__ = [
    "GreensTable",
    "PositivityReport",
    "CirculantKernel",
    "SemiseparableKernel",
    "DenseQuadrature",
    "green_constant",
    "green_bounds_constant",
    "build_green_table",
    "coarsen",
    "kernel_values",
    "kernel_quadrature",
    "torres_positive",
    "solve_linear_periodic",
]

RESONANCE_RTOL = 1e-10
POSITIVITY_RTOL = 1e-12
FINE_FACTOR = 4
# rows per block of the RK4 extrema scan: O(ROW_BLOCK * N) memory, never N^2
ROW_BLOCK = 64


def _ghat(d, k: float, period: float):
    """One-variable profile of the constant-coefficient kernel, on [0, T]."""
    den = 2.0 * k * (1.0 - math.cos(k * period))
    return (np.sin(k * d) + np.sin(k * (period - d))) / den


def _circulant_profile(k: float, period: float, n_grid: int) -> np.ndarray:
    """Ghat(h j) for j = 0..N-1, N even: G(t_p, t_q) = profile[(q - p) mod N].

    Ghat(d) = Ghat(T - d), so the profile is evaluated at N/2 + 1 points and
    mirrored about N/2; profile[j] = profile[N - j] exactly, which makes the
    circulant exactly symmetric.
    """
    h = period / n_grid
    half = _ghat(np.arange(n_grid // 2 + 1) * h, k, period)
    return np.concatenate([half, half[-2:0:-1]])


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class CirculantKernel:
    """Constant-a kernel on N nodes: G(t_p, t_q) = profile[(q - p) mod N].

    The profile is even, so Q = h (G + h/12 I) is diagonal in Fourier space
    with the real eigenvalues h rfft(profile) + h^2/12.
    """

    def __init__(self, profile: np.ndarray, h: float):
        self.profile = _frozen(profile)
        # an even profile has a real spectrum; the imaginary parts are round-off
        self.eigenvalues = _frozen(h * np.fft.rfft(profile).real + h * h / 12.0)

    def sample(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.profile[(cols[None, :] - rows[:, None]) % self.profile.size]

    def subsample(self, stride: int, h: float) -> CirculantKernel:
        return CirculantKernel(self.profile[::stride], h)

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        """Q w along the last axis of w."""
        return np.fft.irfft(self.eigenvalues * np.fft.rfft(w), n=self.profile.size)


class SemiseparableKernel:
    """RK4 kernel on N nodes from the basis at the nodes and the coefficient C.

    basis = (phi1, phi2) at the nodes and C are 2 x N arrays, and
    G(t_p, t_q) = phi1(t_p) C[0, q] + phi2(t_p) C[1, q]
                  + [p >= q] (phi2(t_p) phi1(t_q) - phi1(t_p) phi2(t_q)).
    So (G w)_p = phi(t_p) . (C w) + phi2(t_p) S1_p - phi1(t_p) S2_p with the
    prefix sums S_k = cumsum(phi_k w), and Q w = h G w + (h^2/12) w is O(N).
    The two causal terms cancel where the dense row sum would not, so the
    error grows with the size of the basis; for the bounded bases of the
    positive kernels in the test suite Q w stays within 1e-13 relative of
    the dense product.
    """

    def __init__(self, basis: np.ndarray, coef: np.ndarray, h: float):
        self.basis = _frozen(basis)
        self.coef = _frozen(coef)
        self.h = h

    def sample(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        p1, p2 = self.basis
        return _assemble(p1[rows], p2[rows], p1[cols], p2[cols], self.coef[:, cols],
                         rows[:, None] >= cols[None, :])

    def subsample(self, stride: int, h: float) -> SemiseparableKernel:
        return SemiseparableKernel(self.basis[:, ::stride], self.coef[:, ::stride], h)

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        """Q w along the last axis of w."""
        p1, p2 = self.basis
        proj = w @ self.coef.T
        gw = (proj[..., :1] * p1 + proj[..., 1:] * p2
              + p2 * np.cumsum(p1 * w, axis=-1) - p1 * np.cumsum(p2 * w, axis=-1))
        return self.h * gw + (self.h * self.h / 12.0) * w


class DenseQuadrature:
    """Q = h (G + h/12 I) as a matrix: the coarse form the Newton LU factors."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = _frozen(matrix)

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        """Q w along the last axis of w, one row at a time: a row gets the
        same bits inside a block as on its own."""
        if w.ndim == 1:
            return self.matrix @ w
        out = np.empty(w.shape)
        for i, row in enumerate(w):
            out[i] = self.matrix @ row
        return out


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
    """The kernel G(t_p, t_q) on the uniform grid t_p = p*T/N, held by its generators.

    ``kernel`` is a CirculantKernel (closed form) or a SemiseparableKernel
    (RK4): O(N) numbers, sampled by ``kernel_values``.  ``quadrature`` is the
    Nystrom operator ``kernel_quadrature`` returns: the kernel itself on a
    table from build_green_table, a DenseQuadrature on one from ``coarsen``.
    """

    n_grid: int
    period: float
    kernel: CirculantKernel | SemiseparableKernel = field(repr=False)
    m: float
    M: float
    positivity: PositivityReport
    quadrature: CirculantKernel | SemiseparableKernel | DenseQuadrature = field(repr=False)
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


def _kernel_coefficients(Y: np.ndarray, idx_s) -> np.ndarray:
    """C (2 x len(idx_s)): G(t, s) = [phi1 phi2](t) C[:, s] plus the causal term."""
    Phi = Y[-1]
    A = np.eye(2) - Phi
    det = np.linalg.det(A)
    if abs(det) < RESONANCE_RTOL * (1.0 + np.linalg.norm(Phi)):
        raise ResonanceError(f"|det(I - Phi(T))| = {abs(det):.3e} too small")

    p1s, p2s = Y[idx_s, 0, 0], Y[idx_s, 0, 1]
    phi1T, phi2T = Phi[0, 0], Phi[0, 1]
    dphi1T, dphi2T = Phi[1, 0], Phi[1, 1]

    # particular solution response at T for a unit impulse at s
    B = np.vstack([p1s * phi2T - phi1T * p2s, p1s * dphi2T - dphi1T * p2s])
    return np.linalg.solve(A, B)


def _assemble(p1t, p2t, p1s, p2s, C: np.ndarray, causal: np.ndarray) -> np.ndarray:
    """G from the basis at the rows (t) and columns (s), C at the columns, and
    the mask of the entries with t >= s."""
    # homogeneous part, plus the causal part p1(s) p2(t) - p1(t) p2(s) on t >= s;
    # both are rank-2 products
    G = np.stack([p1t, p2t], 1) @ C
    np.add(G, np.stack([p2t, -p1t], 1) @ np.stack([p1s, p2s]), out=G, where=causal)
    return G


def _kernel_from_basis(Y: np.ndarray, idx_t, idx_s):
    """G on the grid points given by fine indices idx_t (rows) x idx_s (cols)."""
    return _assemble(Y[idx_t, 0, 0], Y[idx_t, 0, 1], Y[idx_s, 0, 0], Y[idx_s, 0, 1],
                     _kernel_coefficients(Y, idx_s), idx_t[:, None] >= idx_s[None, :])


def _scan_extrema(kernel: SemiseparableKernel, n_grid: int):
    """(min, max, first argmin) of the N x N table, ROW_BLOCK rows at a time."""
    nodes = np.arange(n_grid)
    m, big, arg = math.inf, -math.inf, (0, 0)
    for start in range(0, n_grid, ROW_BLOCK):
        block = kernel.sample(nodes[start:start + ROW_BLOCK], nodes)
        flat = int(np.argmin(block))
        if block.flat[flat] < m:
            m = float(block.flat[flat])
            row, col = divmod(flat, n_grid)
            arg = (start + row, col)
        big = max(big, float(block.max()))
    return m, big, arg


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
    """The periodic kernel of x'' + a(t) x on the N-point grid, from its generators.

    m, M and the grid argmin are those of the full N x N table: the profile's
    for the circulant, whose every row is a rotation of row 0, and a scan over
    row blocks for RK4.
    """
    _check_grid(n_grid)
    period = coef.period
    h = period / n_grid
    h_fine = period / (FINE_FACTOR * n_grid)

    if isinstance(coef, Constant) and 0.0 < coef.value < (math.pi / period) ** 2:
        k = math.sqrt(coef.value)
        kernel = CirculantKernel(_circulant_profile(k, period, n_grid), h)
        m, big = float(kernel.profile.min()), float(kernel.profile.max())
        p_star, q_star = 0, int(np.argmin(kernel.profile))

        def eval_patch(idx_t, idx_s):
            tt = idx_t * h_fine
            ss = idx_s * h_fine
            return _ghat(np.abs(tt[:, None] - ss[None, :]), k, period)

        Phi = None
        k_used = k
    else:
        Y = _rk4_basis(coef, n_grid)
        nodes = np.arange(0, FINE_FACTOR * n_grid, FINE_FACTOR)
        kernel = SemiseparableKernel(np.ascontiguousarray(Y[nodes, 0].T),
                                     _kernel_coefficients(Y, nodes), h)
        m, big, (p_star, q_star) = _scan_extrema(kernel, n_grid)

        def eval_patch(idx_t, idx_s):
            return _kernel_from_basis(Y, idx_t, idx_s)

        Phi = Y[-1]
        k_used = None

    fine_min, fine_arg = _refine_min(eval_patch, p_star, q_star, n_grid)
    if fine_min < m:
        min_value, argmin = fine_min, (fine_arg[0] * h_fine, fine_arg[1] * h_fine)
    else:
        min_value, argmin = m, (p_star * h, q_star * h)
    tol = POSITIVITY_RTOL * (1.0 + abs(big))
    if k_used is None:
        # tabulated values carry the RK4 global error, O(h_fine^4); a minimum
        # inside that noise floor cannot be certified positive
        tol = max(tol, 1e3 * (1.0 + abs(big)) * h_fine ** 4)

    return GreensTable(
        n_grid=n_grid,
        period=period,
        kernel=kernel,
        m=m,
        M=big,
        positivity=PositivityReport(holds=bool(min_value > tol), min_value=min_value,
                                    argmin=argmin),
        quadrature=kernel,
        k=k_used,
        monodromy=Phi,
    )


def kernel_values(table: GreensTable, rows, cols) -> np.ndarray:
    """G(t_p, t_q) for node indices p in rows, q in cols, from the generators.

    Equal, bit for bit, to those entries of the full N x N product when rows
    and cols each hold at least two indices: numpy takes a one-row or
    one-column RK4 product through its matrix-vector path, which rounds
    differently.
    """
    return table.kernel.sample(np.asarray(rows), np.asarray(cols))


def coarsen(table: GreensTable, stride: int) -> GreensTable:
    """The table on every stride-th node, N/stride points, as a dense table.

    The grids nest, so the coarse generators are the fine ones subsampled,
    and the quadrature matrix h (G + h/12 I) is sampled from them with
    ``kernel_values``: no new kernel evaluation.  Stride 1 gives the dense
    form of the table itself.  m, M and the positivity report stay those of
    the fine table, which is the one the cone constants come from.
    """
    if stride < 1 or table.n_grid % stride != 0:
        raise DomainError(f"stride {stride} does not divide n_grid {table.n_grid}")
    n_grid = table.n_grid // stride
    _check_grid(n_grid)
    h = table.period / n_grid
    nodes = np.arange(0, table.n_grid, stride)
    matrix = kernel_values(table, nodes, nodes)
    matrix.flat[::n_grid + 1] += h / 12.0
    matrix *= h
    return replace(table, n_grid=n_grid, kernel=table.kernel.subsample(stride, h),
                   quadrature=DenseQuadrature(matrix))


def kernel_quadrature(table: GreensTable):
    """The Nystrom operator Q: (Q @ w)[..., p] ~ integral of G(t_p, s) w(..., s) ds.

    Periodic trapezoid weights h = T/N plus the Euler-Maclaurin correction
    h^2/12 * w(t_p) for the unit derivative jump of G across the diagonal,
    Q = h (G + h/12 I), applied along the last axis of w: one call handles
    every component that shares the table.  Built once per table, from the
    generators (FFT or prefix sums) or, on a coarsened table, as the matrix
    ``.matrix``; every call returns the same object.
    """
    return table.quadrature


def _mean(coef: PeriodicCoefficient) -> float:
    """Exact mean of a coefficient over one period."""
    if isinstance(coef, Constant):
        return float(coef.value)
    if isinstance(coef, FourierSeries):
        return coef.c0
    # the trapezoid rule is exact for the periodic linear interpolant
    return float(coef.values.mean())


def torres_positive(coef: PeriodicCoefficient) -> bool:
    """Torres' L^p criterion for G > 0 (J. Differential Equations 190, 2003).

    At p = inf and p = 1: true when a >= 0 with a positive mean, and either
    max a < pi^2/T^2 or int a < 4/T.  The sign and the max are the audit-grid
    extrema widened by ``extrema_slack``, so they err on the safe side; the
    mean is exact.  Both inequalities are strict: at a = (pi/T)^2 the kernel
    has G(0) = 0.  Not part of build_green_table, so solves do not pay for
    the 4096-point audit.
    """
    lo, hi = coefficient_extrema(coef)
    slack = extrema_slack(coef)
    mean = _mean(coef)
    if not (lo - slack >= 0.0 and mean > 0.0):
        return False
    period = coef.period
    return hi + slack < (math.pi / period) ** 2 or mean * period < 4.0 / period


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

