"""Periodic Green's functions for x'' + a(t) x = h(t), x(0)=x(T), x'(0)=x'(T).

For a coefficient without Fourier modes, a = c0 = k^2 with 0 < k < pi/T,
in whatever form it was given, the kernel has the closed form

    G(t,s) = Ghat(|t-s|),
    Ghat(d) = (sin(k d) + sin(k (T-d))) / (2 k (1 - cos(k T))),

which is strictly positive with extrema m = Ghat(0) and M = Ghat(T/2).  On
the grid t_p = p h the table is the symmetric circulant of the profile
Ghat(h j), generated by one N-point evaluation; the package evaluates the
closed form nowhere else, and its m and M are that profile's extrema.
For a general T-periodic coefficient the kernel is assembled from the two
basis solutions of x'' + a(t) x = 0 via the monodromy matrix and variation of
parameters; existence requires I - Phi(T) to be invertible (non-resonance).
The basis is classical RK4 at step T/(4*n_grid): the system is linear, so
every step is a 2x2 matrix, all of them are built at once as four arrays of
entries, and their prefix product is taken by log-depth doubling, with no
Python loop over steps.  On the grid that kernel is one rank-2 product per
entry, [phi1 phi2](t) times the upper generator C(s) for t < s and the lower
generator D(s) = C(s) + (-phi2(s), phi1(s)) for t >= s, so the table is
semiseparable: the basis and C at the N nodes generate it.  C is linear in
the basis, C(s) = K phi(s) with one 2x2 matrix K, so one 2x2 solve gives C
at any node.

Quadrature note: G is continuous but its s-derivative jumps by exactly 1
across the diagonal (the defining delta normalization), so the plain periodic
trapezoid rule stalls at O(N^-2).  ``kernel_quadrature`` therefore applies
Q = h (G + h/12 I): the next Euler-Maclaurin term, h^2/12 * w(t), as a
diagonal bump, which restores O(N^-4) accuracy on smooth data.  No table
holds G or Q as an N x N array: Q is applied from the generators, the
circulant by real FFTs in O(N log N) and the semiseparable kernel by a
rank-2 product and two prefix sums in O(N) (Greengard and Rokhlin, CPAM 44,
1991).  ``kernel_values`` samples G at node indices from the generators,
each entry with the same bits whatever the shape of the request.  The
generators are read-only, because every operator application shares them.

Extrema of an RK4 kernel: m is the least of the N x N grid scan and of the
diagonal G(s, s) on all 4N basis nodes (for a >= 0 every column is least on
the diagonal).  M is an upper bound for G >= 0, the grid maximum divided by
1 - max|a| h^2/4: the chord bound of a function whose second derivative is
at most max|a| M, solved for M.  The grid scan stays, because it decides
positivity where a dips below zero.

``torres_positive`` is an analytic cross-check of the positivity scan, from
the coefficient alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import FourierSeries, coefficient_extrema, extrema_slack, sup_bound
from .errors import DomainError, ResonanceError

__all__ = [
    "GreensTable",
    "CirculantKernel",
    "SemiseparableKernel",
    "build_green_table",
    "kernel_values",
    "kernel_quadrature",
    "torres_positive",
    "solve_linear_periodic",
]

RESONANCE_RTOL = 1e-10
POSITIVITY_RTOL = 1e-12
FINE_FACTOR = 4
# rows per block of the RK4 extrema scan and of ``green``: 64 N entries, never
# N^2.  A block's diagonal tile is built with both generators and masked, so
# one block of all N rows would build the table twice; an even count leaves
# the last block of an even N two rows or more, never numpy's one-row gemv.
SCAN_ROWS = 64


def _circulant_profile(k: float, period: float, n_grid: int) -> np.ndarray:
    """Ghat(h j) for j = 0..N-1, N even: G(t_p, t_q) = profile[(q - p) mod N].

    Ghat(d) = Ghat(T - d), so the profile is evaluated at N/2 + 1 points and
    mirrored about N/2; profile[j] = profile[N - j] exactly, which makes the
    circulant exactly symmetric.
    """
    d = np.arange(n_grid // 2 + 1) * (period / n_grid)
    den = 2.0 * k * (1.0 - math.cos(k * period))
    half = (np.sin(k * d) + np.sin(k * (period - d))) / den
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

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        """Q w along the last axis of w."""
        return np.fft.irfft(self.eigenvalues * np.fft.rfft(w), n=self.profile.size)


class SemiseparableKernel:
    """RK4 kernel on N nodes from the basis at the nodes and its two generators.

    basis = (phi1, phi2) at the nodes, the upper generator C and the lower
    generator D = C + (-phi2, phi1) are 2 x N arrays, and
    G(t_p, t_q) = phi1(t_p) C[0, q] + phi2(t_p) C[1, q]    for p < q,
                  phi1(t_p) D[0, q] + phi2(t_p) D[1, q]    for p >= q,
    one rank-2 product per entry.  Applied to w, the difference D - C makes
    (G w)_p = phi(t_p) . (C w) + phi2(t_p) S1_p - phi1(t_p) S2_p with the
    prefix sums S_k = cumsum(phi_k w), and Q w = h G w + (h^2/12) w is O(N).
    The two causal terms cancel where the dense row sum would not, so the
    error grows with the size of the basis; for the bounded bases of the
    positive kernels in the test suite Q w stays within 1e-13 relative of
    the dense product.
    """

    def __init__(self, basis: np.ndarray, coef: np.ndarray, h: float):
        self.basis = _frozen(basis)
        self.coef = _frozen(coef)
        self.lower = _frozen(_lower_generator(basis, coef))
        self.h = h

    def sample(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        # numpy takes a one-row or one-column product through gemv, which
        # rounds differently from gemm: such a request is padded to two and
        # sliced, so an entry's bits do not depend on the request's shape
        r, c = (np.repeat(idx, 2) if idx.size == 1 else idx for idx in (rows, cols))
        basis_t = np.stack(self.basis[:, r], 1)
        G = basis_t @ self.coef[:, c]
        np.copyto(G, basis_t @ self.lower[:, c], where=r[:, None] >= c[None, :])
        return G[:rows.size, :cols.size]

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        """Q w along the last axis of w; each row of w is projected on its
        own, so its bits do not depend on the rows stacked with it."""
        p1, p2 = self.basis
        proj = (w[..., None, :] * self.coef).sum(axis=-1)
        gw = (proj[..., :1] * p1 + proj[..., 1:] * p2
              + p2 * np.cumsum(p1 * w, axis=-1) - p1 * np.cumsum(p2 * w, axis=-1))
        return self.h * gw + (self.h * self.h / 12.0) * w


@dataclass
class GreensTable:
    """The kernel G(t_p, t_q) on the uniform grid t_p = p*T/N, held by its generators.

    ``kernel`` is a CirculantKernel (closed form) or a SemiseparableKernel
    (RK4): O(N) numbers, sampled by ``kernel_values`` and applied as the
    Nystrom operator ``kernel_quadrature`` returns.  ``positive`` is strict
    positivity of the kernel, m above the tolerance of its build, and
    ``argmin`` the (t, s) where m was found.
    """

    n_grid: int
    period: float
    kernel: CirculantKernel | SemiseparableKernel = field(repr=False)
    m: float
    M: float
    positive: bool
    argmin: tuple
    # closed-form k when the constant-coefficient branch was used, else None
    k: float | None = field(default=None, repr=False)

    @property
    def grid_t(self) -> np.ndarray:
        return np.arange(self.n_grid) * (self.period / self.n_grid)


def _check_grid(n_grid: int):
    if n_grid < 16 or n_grid % 2 != 0:
        raise DomainError("n_grid must be even and at least 16")


def _rk4_basis(coef: FourierSeries, n_grid: int):
    """Fundamental matrix Y(t_j) of x'' + a(t)x = 0 on the fine grid T/(4N).

    Y columns are the basis solutions (phi1, phi2) with Y(0) = I; the state
    rows are (x, x').  y' = A(t) y with A = [[0, 1], [-a, 0]] is linear, so a
    classical RK4 step (coefficient on the half-step grid) is the 2x2 matrix
    M_j = I + h/6 (K1 + 2 K2 + 2 K3 + K4), K1 = A0, K2 = Am (I + h/2 K1),
    K3 = Am (I + h/2 K2), K4 = A1 (I + h K3).  Every matrix is held as its
    four entries, each an array over the 4N steps, so a product of two is
    eight elementwise products and four adds.  Y[j+1] = M_j ... M_0 is the
    inclusive prefix product of the steps, taken by log-depth doubling
    (Blelloch, CMU-CS-90-190).  Returned as a (4N+1, 2, 2) view.
    """
    period = coef.period
    nf = FINE_FACTOR * n_grid
    h = period / nf
    # the half-step grid t_j = j h/2, j <= 2 nf; a(T) = a(0)
    a_half = coef.on_grid(2 * nf)
    a_half = np.append(a_half, a_half[0])

    def times_a(a_vals, x):
        """A X from the entries (00, 01, 10, 11) of X."""
        return x[2], x[3], -a_vals * x[0], -a_vals * x[1]

    def eye_plus(c, x):
        """I + c X from the entries of X."""
        return 1.0 + c * x[0], c * x[1], c * x[2], 1.0 + c * x[3]

    k1 = times_a(a_half[0:-1:2], (1.0, 0.0, 0.0, 1.0))
    k2 = times_a(a_half[1::2], eye_plus(0.5 * h, k1))
    k3 = times_a(a_half[1::2], eye_plus(0.5 * h, k2))
    k4 = times_a(a_half[2::2], eye_plus(h, k3))

    # Y[j] is Y[..., j]: entry (r, c) of every node is one contiguous row
    Y = np.empty((2, 2, nf + 1))
    Y[..., 0] = np.eye(2)
    P = Y[..., 1:]
    for (r, c), e1, e2, e3, e4 in zip(np.ndindex(2, 2), k1, k2, k3, k4):
        P[r, c] = float(r == c) + (h / 6.0) * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
    # the two halves of each product, in buffers allocated once
    first, second = np.empty((2, 2, 2, nf))
    s = 1
    while s < nf:
        # (L R)[r, c] = L[r, 0] R[0, c] + L[r, 1] R[1, c]
        left, right = P[..., s:], P[..., :-s]
        np.multiply(left[:, :1], right[:1], out=first[..., s:])
        np.multiply(left[:, 1:], right[1:], out=second[..., s:])
        np.add(first[..., s:], second[..., s:], out=left)
        s *= 2
    return Y.transpose(2, 0, 1)


def _impulse_response(Y: np.ndarray) -> np.ndarray:
    """K = (I - Phi(T))^-1 P, so that C(s) = K phi(s), phi = (phi1, phi2).

    P phi(s), P = [[phi2(T), -phi1(T)], [phi2'(T), -phi1'(T)]], is the state
    at T of the particular solution started by a unit impulse at s, so one
    2x2 solve serves every column.  Raises ResonanceError when I - Phi(T)
    is singular.
    """
    Phi = Y[-1]
    A = np.eye(2) - Phi
    det = np.linalg.det(A)
    if abs(det) < RESONANCE_RTOL * (1.0 + np.linalg.norm(Phi)):
        raise ResonanceError(f"|det(I - Phi(T))| = {abs(det):.3e} too small")
    P = np.array([[Phi[0, 1], -Phi[0, 0]], [Phi[1, 1], -Phi[1, 0]]])
    return np.linalg.solve(A, P)


def _kernel_coefficients(K: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """C = K phi (2 x m) at the columns of basis (phi1, phi2): G(t, s) =
    [phi1 phi2](t) C[:, s] for t < s."""
    p1, p2 = basis
    return np.stack([K[0, 0] * p1 + K[0, 1] * p2, K[1, 0] * p1 + K[1, 1] * p2])


def _lower_generator(basis: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """D = C + (-phi2, phi1) at the same columns: the causal term
    phi2(t) phi1(s) - phi1(t) phi2(s) folded into the rank-2 product."""
    p1, p2 = basis
    return coef + np.stack([-p2, p1])


def _scan_extrema(kernel: SemiseparableKernel, n_grid: int):
    """(min, max, first argmin) of the N x N table, SCAN_ROWS rows at a time.

    Rows [start, stop) take D on columns [0, start), C on [stop, N) and
    either on the diagonal tile, each a (k, 2) x (2, m) product with
    k, m >= 2 (N is even); the block is written into one buffer allocated
    once, and its entries are bit-equal to ``kernel.sample`` of it.
    """
    rows = np.stack(kernel.basis, 1)
    coef, lower = kernel.coef, kernel.lower
    buf = np.empty(SCAN_ROWS * n_grid)
    causal = np.tri(SCAN_ROWS, dtype=bool)
    m, big, arg = math.inf, -math.inf, (0, 0)
    for start in range(0, n_grid, SCAN_ROWS):
        stop = min(start + SCAN_ROWS, n_grid)
        k = stop - start
        block = buf[:k * n_grid].reshape(k, n_grid)
        row_block = rows[start:stop]
        if start:
            np.matmul(row_block, lower[:, :start], out=block[:, :start])
        if stop < n_grid:
            np.matmul(row_block, coef[:, stop:], out=block[:, stop:])
        tile = np.matmul(row_block, coef[:, start:stop], out=block[:, start:stop])
        np.copyto(tile, row_block @ lower[:, start:stop], where=causal[:k, :k])
        low = block.min()
        if low < m:
            m = float(low)
            row, col = divmod(int(np.argmin(block)), n_grid)
            arg = (start + row, col)
        big = max(big, float(block.max()))
    return m, big, arg


def _diagonal(rows: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """G(s, s) = phi(s) . D(s) from the basis as rows (n x 2) and D, n a
    multiple of 8: each run of 8 nodes is one (8, 2) x (2, 8) product whose
    diagonal is kept, so every value has the gemm bits of the same entry of
    a sampled table (a one-node product would take gemv's)."""
    tiles = rows.reshape(-1, 8, 2) @ lower.reshape(2, -1, 8).transpose(1, 0, 2)
    return np.diagonal(tiles, axis1=1, axis2=2).ravel()


def build_green_table(coef: FourierSeries, n_grid: int) -> GreensTable:
    """The periodic kernel of x'' + a(t) x on the N-point grid, from its generators.

    The closed form is chosen from the modes: a series without them, with
    0 < c0 < (pi/T)^2, is a circulant, and any other coefficient goes to RK4.
    The circulant's m and M are its profile's exact extrema: every row is a
    rotation of row 0, and m = Ghat(0) is the exact minimum.

    RK4: the basis and C = K phi live on the fine grid of 4N nodes, the
    table being their every FINE_FACTOR-th node.  A scan over row blocks
    gives the grid extrema, which decide positivity.  m is the lower of the
    grid minimum and the diagonal minimum over all 4N nodes, with argmin
    (s, s) when the diagonal wins: for a >= 0 and G > 0, G_tt = -a G <= 0
    between kinks, so each column is least at t = s; where a dips below 0
    the grid minimum still counts.

    M is an upper bound of G >= 0, where the grid maximum M_grid lies below
    the true one.  Off its kink a column has |G_tt| = |a| G <= max|a| M, and
    at the kink G_t jumps by +1, a convex kink, so between samples h apart it
    lies below their chord plus max|a| M h^2/8.  Applied in s along grid rows
    (G is symmetric) and then in t, no point exceeds M_grid by more than
    max|a| M h^2/4, so M = M_grid / (1 - max|a| h^2/4), with max|a| read off
    the modes (``sup_bound``), or +inf where the divisor is not positive.
    """
    _check_grid(n_grid)
    period = coef.period
    h = period / n_grid
    h_fine = period / (FINE_FACTOR * n_grid)

    if coef.is_constant and 0.0 < coef.c0 < (math.pi / period) ** 2:
        k = math.sqrt(coef.c0)
        kernel = CirculantKernel(_circulant_profile(k, period, n_grid), h)
        m, big = float(kernel.profile.min()), float(kernel.profile.max())
        # Ghat'' = -k^2 Ghat < 0, so Ghat is concave on [0, T] and least at
        # d = 0 and d = T: the diagonal, which is on the grid
        argmin = (0.0, 0.0)
        k_used = k
    else:
        Y = _rk4_basis(coef, n_grid)
        fine_basis = Y[:-1, 0].T
        fine_coef = _kernel_coefficients(_impulse_response(Y), fine_basis)
        kernel = SemiseparableKernel(fine_basis[:, ::FINE_FACTOR].copy(),
                                     fine_coef[:, ::FINE_FACTOR].copy(), h)
        m, big, (p_star, q_star) = _scan_extrema(kernel, n_grid)
        argmin = (p_star * h, q_star * h)
        diag = _diagonal(np.stack(fine_basis, 1), _lower_generator(fine_basis, fine_coef))
        j = int(np.argmin(diag))
        if diag[j] < m:
            m, argmin = float(diag[j]), (j * h_fine, j * h_fine)
        k_used = None

    tol = POSITIVITY_RTOL * (1.0 + abs(big))
    if k_used is None:
        # tabulated values carry the RK4 global error, O(h_fine^4); a minimum
        # inside that noise floor cannot be certified positive
        tol = max(tol, 1e3 * (1.0 + abs(big)) * h_fine ** 4)
        shrink = 1.0 - sup_bound(coef) * h * h / 4.0
        big = big / shrink if shrink > 0.0 else math.inf

    return GreensTable(
        n_grid=n_grid,
        period=period,
        kernel=kernel,
        m=m,
        M=big,
        positive=bool(m > tol),
        argmin=argmin,
        k=k_used,
    )


def kernel_values(table: GreensTable, rows, cols) -> np.ndarray:
    """G(t_p, t_q) for node indices p in rows, q in cols, from the generators.

    An RK4 entry is one rank-2 product, with C above the diagonal and D on
    and below it, as in the extrema scan, so every sample is bit-equal to
    the scanned table, whatever the shape of the request.
    """
    return table.kernel.sample(np.asarray(rows), np.asarray(cols))


def kernel_quadrature(table: GreensTable):
    """The Nystrom operator Q: (Q @ w)[..., p] ~ integral of G(t_p, s) w(..., s) ds.

    Periodic trapezoid weights h = T/N plus the Euler-Maclaurin correction
    h^2/12 * w(t_p) for the unit derivative jump of G across the diagonal,
    Q = h (G + h/12 I), applied along the last axis of w: one call handles
    every component that shares the table.  It is the table's kernel,
    applied from the generators (FFT or prefix sums), so every call returns
    the same object.
    """
    return table.kernel


def torres_positive(coef: FourierSeries) -> bool:
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
    mean = coef.c0
    if not (lo - slack >= 0.0 and mean > 0.0):
        return False
    period = coef.period
    return hi + slack < (math.pi / period) ** 2 or mean * period < 4.0 / period


def solve_linear_periodic(table: GreensTable, e: FourierSeries):
    """Periodic solution of x'' + a(t) x = e(t), e a periodic coefficient, as
    a one-component grid function."""
    from .operator import GridFunction

    x = kernel_quadrature(table) @ e.on_grid(table.n_grid)
    return GridFunction(x[None, :], table.period)

