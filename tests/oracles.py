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


def dense_circulant_table(k, period, n_grid):
    """The constant-coefficient table as one dense N x N array, as the package
    once stored it: the profile at N/2 + 1 points, mirrored, and row p the
    window of the doubled profile that starts at N - p."""
    h = period / n_grid
    d = np.arange(n_grid // 2 + 1) * h
    half = (np.sin(k * d) + np.sin(k * (period - d))) / (2.0 * k * (1.0 - math.cos(k * period)))
    profile = np.concatenate([half, half[-2:0:-1]])
    doubled = np.concatenate([profile, profile])
    return np.stack([doubled[n_grid - p:2 * n_grid - p] for p in range(n_grid)])


def kernel_from_basis_products(Y, idx_t, idx_s):
    """The kernel on fine indices idx_t x idx_s as two rank-2 matrix products
    and a masked add, the arithmetic of the package's dense build (unlike
    ``kernel_from_basis_outer``, so the results compare bit for bit)."""
    phi = Y[-1]
    p1t, p2t = Y[idx_t, 0, 0], Y[idx_t, 0, 1]
    p1s, p2s = Y[idx_s, 0, 0], Y[idx_s, 0, 1]
    b = np.vstack([p1s * phi[0, 1] - phi[0, 0] * p2s,
                   p1s * phi[1, 1] - phi[1, 0] * p2s])
    c = np.linalg.solve(np.eye(2) - phi, b)
    g = np.stack([p1t, p2t], 1) @ c
    np.add(g, np.stack([p2t, -p1t], 1) @ np.stack([p1s, p2s]), out=g,
           where=idx_t[:, None] >= idx_s[None, :])
    return g


def dense_positivity(values, patch, period, fine_factor, rk4):
    """(m, M, holds, min_value, argmin) of the dense build from its N x N table.

    m and M are the table's extrema.  ``patch(idx_t, idx_s)`` evaluates the
    kernel on fine indices (fine_factor per node); it is read on the
    (4 fine_factor + 1)^2 patch around the first grid argmin, wrapped around
    the period, and a lower patch value replaces the grid minimum.  The
    kernel holds positive above 1e-12 (1 + M), raised for RK4 tables to
    1e3 (1 + M) h_fine^4.
    """
    n_grid = values.shape[0]
    m, big = float(values.min()), float(values.max())
    p_star, q_star = np.unravel_index(int(np.argmin(values)), values.shape)
    span = 4 * fine_factor + 1
    n_fine = fine_factor * n_grid
    idx_t = np.mod(np.arange(fine_factor * (p_star - 2), fine_factor * (p_star - 2) + span), n_fine)
    idx_s = np.mod(np.arange(fine_factor * (q_star - 2), fine_factor * (q_star - 2) + span), n_fine)
    vals = patch(idx_t, idx_s)
    it, js = divmod(int(np.argmin(vals)), vals.shape[1])
    h, h_fine = period / n_grid, period / n_fine
    if vals[it, js] < m:
        min_value, argmin = float(vals[it, js]), (idx_t[it] * h_fine, idx_s[js] * h_fine)
    else:
        min_value, argmin = m, (p_star * h, q_star * h)
    tol = 1e-12 * (1.0 + abs(big))
    if rk4:
        tol = max(tol, 1e3 * (1.0 + abs(big)) * h_fine ** 4)
    return m, big, bool(min_value > tol), min_value, argmin


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


def threshold_radii_bisect(terms_by_comp, bounds, sigma, interval_min,
                           u_lo=1e-20, u_hi=1e20):
    """(delta, Delta) by bisecting the all-component conditions, 60 predicate
    calls or so per threshold.

    delta: the largest d in [u_lo, u_hi] with inf over (0, d] of phi_i >= bounds[i]
    for every i; inf if u_hi qualifies, None if u_lo does not, None unless every
    component has a negative power.  Delta: R/sigma for the smallest R with
    inf over [R/sqrt(n), inf) of phi_i >= bounds[i] for every i; u_lo/sigma if u_lo
    qualifies, None if u_hi does not, None unless every component has a
    positive power.  ``interval_min(terms, a, b)`` is the infimum of one
    component's sum over [a, b] with an open end at 0 or inf.  Bisection by
    geometric means from [u_lo, u_hi] down to adjacent floats.
    """
    n = len(terms_by_comp)
    comps = list(zip(terms_by_comp, bounds))

    def bisect(below):
        lo, hi = u_lo, u_hi
        for _ in range(160):
            mid = math.sqrt(lo * hi)
            if mid in (lo, hi):
                break
            if below(mid):
                lo = mid
            else:
                hi = mid
        return lo, hi

    delta = None
    if all(min(p for _, p in terms) < 0.0 for terms in terms_by_comp):
        def small_ok(d):
            return all(interval_min(terms, 0.0, d) >= b for terms, b in comps)

        if small_ok(u_lo):
            delta = math.inf if small_ok(u_hi) else bisect(small_ok)[0]

    delta_big = None
    if all(max(p for _, p in terms) > 0.0 for terms in terms_by_comp):
        def large_ok(rr):
            return all(interval_min(terms, rr / math.sqrt(n), math.inf) >= b
                       for terms, b in comps)

        if large_ok(u_hi):
            r_dd = u_lo if large_ok(u_lo) else bisect(lambda rr: not large_ok(rr))[1]
            delta_big = r_dd / sigma
    return delta, delta_big


def _power_sum_numpy(terms, u):
    """sum c * u**p with np.power, accumulated from zero in term order."""
    out = np.zeros_like(u)
    for c, p in terms:
        out = out + c * np.power(u, p)
    return out


def apply_T_resampled(quads, g_coefs, e_coefs, terms_by_comp, lam, period, values):
    """lam * Q_i (g_i phi_i(|x|_2) + e_i) with g and e sampled afresh on every call.

    ``g_coefs``/``e_coefs`` are coefficient objects with an ``eval(t)`` method,
    sampled at t_p = p * period / N; the sums run in the operator's order, so
    the result is bitwise comparable.
    """
    n, n_grid = values.shape
    t = np.arange(n_grid) * (period / n_grid)
    g = np.vstack([coef.eval(t) for coef in g_coefs])
    e = np.vstack([coef.eval(t) for coef in e_coefs])
    u = np.sqrt(np.sum(values * values, axis=0))
    fx = np.vstack([_power_sum_numpy(terms, u) for terms in terms_by_comp])
    w = g * fx + e
    out = np.empty_like(values)
    for i in range(n):
        out[i] = lam * (quads[i] @ w[i])
    return out


def damped_picard_iterates(apply, x0, target=1e-6, max_steps=200):
    """Every iterate of x <- (1 - w) x + w apply(x) until |x - apply(x)| <= target.

    w starts at 0.5 and halves, at most four times in all, while the candidate's
    product sup norm exceeds twice the current one.  Stops early, with the
    iterates so far, when a candidate goes negative.
    """
    def norm(v):
        return float(np.abs(v).max(axis=1).sum())

    x, omega, halvings = x0, 0.5, 0
    iterates = [x]
    for _ in range(max_steps):
        tx = apply(x)
        if norm(x - tx) <= target:
            break
        cand = (1.0 - omega) * x + omega * tx
        while norm(cand) > 2.0 * norm(x) and halvings < 4:
            omega *= 0.5
            halvings += 1
            cand = (1.0 - omega) * x + omega * tx
        if cand.min() < 0.0:
            break
        x = cand
        iterates.append(x)
    return iterates


class PicardAbort(Exception):
    """A divergence exit of ``picard_reference``; ``iterates`` holds every
    iterate the loop applied the map to, the last one included."""

    def __init__(self, message, iterates):
        super().__init__(message)
        self.iterates = iterates


def picard_reference(apply, x0, singular_error, target=1e-6, damping=0.5,
                     max_steps=200, clamp_tol=1e-12, blowup=1e12):
    """The damped Picard loop on raw (n, N) arrays, each product norm
    recomputed wherever it is used.

    x <- (1 - w) x + w apply(x) from w = damping, halved (at most four times
    in all) while the candidate's product sup norm exceeds twice the
    current one; a candidate below -clamp_tol aborts, one in [-clamp_tol, 0)
    is clamped to zero, a norm above blowup aborts, and ``singular_error``
    raised by apply aborts.  Returns (iterates, iterations, residual,
    converged), where iterates are every array the map was applied to, or
    raises PicardAbort with the solver's wording; any other exception from
    apply propagates as it is.
    """
    def norm(v):
        return float(np.abs(v).max(axis=1).sum())

    x, omega, halvings, res = x0, damping, 0, math.inf
    iterates = []
    for it in range(max_steps + 1):
        iterates.append(x)
        try:
            tx = apply(x)
        except singular_error:
            raise PicardAbort(
                f"iterate fell below the singularity guard after {it} picard steps",
                iterates) from None
        res = norm(x - tx)
        if res <= target:
            return iterates, it, res, True
        if it == max_steps:
            break
        cand = (1.0 - omega) * x + omega * tx
        while norm(cand) > 2.0 * norm(x) and halvings < 4:
            omega *= 0.5
            halvings += 1
            cand = (1.0 - omega) * x + omega * tx
        low = float(cand.min())
        if low < -clamp_tol:
            raise PicardAbort(f"component went negative ({low:.3e}) at picard step {it + 1}",
                              iterates)
        if low < 0.0:
            cand = np.where(cand < 0.0, 0.0, cand)
        if norm(cand) > blowup:
            raise PicardAbort(f"iterate norm exceeded {blowup:.1e}", iterates)
        x = cand
    return iterates, max_steps, res, False
