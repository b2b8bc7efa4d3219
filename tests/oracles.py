"""Independent reference computations for the test suite.

Everything in here is deliberately written from scratch (math + numpy only,
no imports from the package under test) so the tests compare two separate
derivations rather than the code against itself.
"""

import math

import numpy as np


def ghat(d, k, period):
    """Periodic kernel profile for constant coefficient k**2, 0 <= d <= period."""
    return (math.sin(k * d) + math.sin(k * (period - d))) / (
        2.0 * k * (1.0 - math.cos(k * period))
    )


def kernel_min_max(k, period):
    m = math.sin(k * period) / (2.0 * k * (1.0 - math.cos(k * period)))
    big = 1.0 / (2.0 * k * math.sin(k * period / 2.0))
    return m, big


def phi_value(terms, u):
    """Radial nonlinearity sum(c * u**p) for one component."""
    return sum(c * u ** p for c, p in terms)


def constant_root_residual(terms, lam, c, n):
    return c - lam * phi_value(terms, math.sqrt(n) * c)


def constant_solution_norms(terms, lam, n=2, lo=1e-12, hi=1e12, samples=8192):
    """All norms n*c of constant solutions x_i(t) = c, by sign scan + bisection.

    A constant vector (c, ..., c) is a fixed point exactly when
    c = lam * phi(sqrt(n) * c), since the kernel integrates to 1/k**2 = 1
    on the unit benchmark.  Returns sorted norms; empty list when no root.
    """
    if lam <= 0.0:
        return []
    grid = np.geomspace(lo, hi, samples)
    vals = np.array([constant_root_residual(terms, lam, c, n) for c in grid])
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb >= 0.0:
            continue
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = constant_root_residual(terms, lam, mid, n)
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    # collapse near-duplicates from adjacent brackets
    out = []
    for r in sorted(roots):
        if not out or abs(r - out[-1]) > 1e-9 * max(1.0, out[-1]):
            out.append(r)
    return [n * c for c in out]


def has_constant_solution(terms, lam, n=2):
    return bool(constant_solution_norms(terms, lam, n=n))


def bisect_increasing(fn, lo, hi, iters=200):
    """Root of an increasing function on [lo, hi] (fn(lo) < 0 < fn(hi))."""
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_annulus_extrema(terms_by_comp, r, sigma, n, samples=20000, rng=None):
    """Sampled min/max of every component's phi over the annulus radii.

    The annulus sigma*r <= |x|_1 <= r on the positive orthant maps to
    euclidean radii u in [sigma*r/sqrt(n), r]; we just sample u densely.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    lo = sigma * r / math.sqrt(n)
    us = np.concatenate([
        np.geomspace(lo, r, samples // 2),
        rng.uniform(lo, r, samples // 2),
        [lo, r],
    ])
    mins, maxs = math.inf, -math.inf
    for terms in terms_by_comp:
        vals = sum(c * us ** p for c, p in terms)
        mins = min(mins, float(vals.min()))
        maxs = max(maxs, float(vals.max()))
    return mins, maxs


def brute_eta(terms_by_comp, r, sigma, n, samples=20000):
    """Sampled value of max_j min_u phi_j(u) / min(sqrt(n)*u, r)."""
    lo = sigma * r / math.sqrt(n)
    us = np.geomspace(lo, r, samples)
    best = -math.inf
    for terms in terms_by_comp:
        vals = sum(c * us ** p for c, p in terms)
        ratio = vals / np.minimum(math.sqrt(n) * us, r)
        best = max(best, float(ratio.min()))
    return best


def brute_power_sum_min(terms, lo, hi, samples=200001):
    """Sampled min of sum(c * u**p) on a log grid over [lo, hi].

    An end at 0 or inf is replaced by 1e-8 or 1e8, which suits sums that
    blow up there.  Sampling can only overestimate the true minimum.
    """
    a = max(lo, 1e-8)
    b = min(hi, 1e8)
    us = np.geomspace(a, b, samples)
    return float(sum(c * us ** p for c, p in terms).min())


def rk4_basis_stepwise(a_func, period, n_fine):
    """Fundamental matrix of x'' + a(t) x = 0 at t_j = j*period/n_fine, j = 0..n_fine.

    One classical RK4 step at a time on the 2x2 state (x, x') with Y(0) = I,
    the coefficient read at the step ends and midpoint.
    """
    h = period / n_fine

    def rhs(t, y):
        return np.array([y[1], -a_func(t) * y[0]])

    Y = np.empty((n_fine + 1, 2, 2))
    y = np.eye(2)
    Y[0] = y
    for j in range(n_fine):
        t = j * h
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        Y[j + 1] = y
    return Y


def kernel_from_basis_outer(Y, idx_t, idx_s):
    """Periodic kernel from a fundamental-matrix table Y (fine nodes x 2 x 2).

    G(t, s) = p1(t) C1(s) + p2(t) C2(s), plus p1(s) p2(t) - p1(t) p2(s) where
    the fine index of t is at least that of s; C solves (I - Y(T)) C = B with
    B the response at T to a unit impulse at s.  Written with outer products
    and a float triangle mask, one term at a time.
    """
    phi = Y[-1]
    p1t, p2t = Y[idx_t, 0, 0], Y[idx_t, 0, 1]
    p1s, p2s = Y[idx_s, 0, 0], Y[idx_s, 0, 1]
    b = np.vstack([p1s * phi[0, 1] - phi[0, 0] * p2s,
                   p1s * phi[1, 1] - phi[1, 0] * p2s])
    c = np.linalg.solve(np.eye(2) - phi, b)
    g = np.outer(p1t, c[0]) + np.outer(p2t, c[1])
    tri = (idx_t[:, None] >= idx_s[None, :]).astype(float)
    return g + tri * (np.outer(p2t, p1s) - np.outer(p1t, p2s))


def single_grid_solve(quads, g, e, terms_by_comp, lam, seed):
    """Damped Picard, then Newton with the dense Jacobian, all on one grid.

    Solves x_i = lam * Q_i (g_i phi_i(|x|_2) + e_i) for an (n, N) array of
    values from the (n, N) seed.  Picard (damping 0.5, halved on a norm
    overshoot, at most 200 steps) hands over at residual 1e-6; if it stalls
    or leaves the positive orthant, Newton starts from the raw seed.  Newton
    assembles the full (nN) x (nN) Jacobian,
    d(T x)_i / dx_j = lam Q_i diag(g_i phi_i'(u) x_j / u), and stops at
    residual 1e-10.  Returns the values, or None if Newton does not converge.
    """
    n, n_grid = seed.shape

    def norm(v):
        return float(np.abs(v).max(axis=1).sum())

    def phi(terms, u):
        return sum(c * u ** p for c, p in terms)

    def dphi(terms, u):
        return sum(c * p * u ** (p - 1.0) for c, p in terms)

    def apply(x):
        u = np.sqrt((x * x).sum(axis=0))
        return np.stack([lam * (q @ (gi * phi(t, u) + ei))
                         for q, gi, ei, t in zip(quads, g, e, terms_by_comp)])

    start = seed
    x, omega, halvings = seed, 0.5, 0
    with np.errstate(all="ignore"):
        for _ in range(201):
            tx = apply(x)
            if not np.all(np.isfinite(tx)):
                break
            if norm(x - tx) <= 1e-6:
                start = x
                break
            cand = (1.0 - omega) * x + omega * tx
            while norm(cand) > 2.0 * norm(x) and halvings < 4:
                omega *= 0.5
                halvings += 1
                cand = (1.0 - omega) * x + omega * tx
            if cand.min() < 0.0 or norm(cand) > 1e12:
                break
            x = cand

    x = start
    for _ in range(31):
        fx = x - apply(x)
        if norm(fx) <= 1e-10:
            return x
        u = np.sqrt((x * x).sum(axis=0))
        jac = np.eye(n * n_grid)
        for i in range(n):
            col = lam * g[i] * dphi(terms_by_comp[i], u)
            for j in range(n):
                block = quads[i] * (col * x[j] / u)[None, :]
                jac[i * n_grid:(i + 1) * n_grid, j * n_grid:(j + 1) * n_grid] -= block
        x = x - np.linalg.solve(jac, fx.ravel()).reshape(n, n_grid)
    return None
