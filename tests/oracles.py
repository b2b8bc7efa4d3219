"""Independent reference computations for the test suite.

Everything in here is deliberately written from scratch (math + numpy only,
no imports from the package under test) so the tests compare two separate
derivations rather than the code against itself.  ``dense_quadrature`` is
the one reader of a package object: it takes a Green table's kernel
entries as given (the dense builds below check those bit for bit) and
forms the quadrature from them densely; ``coefficient_value`` reads a
coefficient's modes and sums them.  ``shell_ratio_reference`` is the
one caller of a package function: it keeps the compression route the
package dropped, on the package's own fhat, so a test can show why.
"""

import math

import numpy as np


def ghat(d, k, period):
    """Closed-form periodic kernel of x'' + k^2 x at separation d in [0, T]."""
    return (np.sin(k * d) + np.sin(k * (period - d))) / (2.0 * k * (1.0 - math.cos(k * period)))


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


def constant_solutions(a, g, e, terms_by_comp, lam, lo=1e-8, hi=1e8, samples=8192):
    """Every constant solution of x_i'' + a_i x_i = lam (g_i phi_i(|x|_2) + e_i)
    with constant a_i > 0, g_i, e_i, as the rows of a (roots, n) array.

    A constant x = c solves the system exactly when c = c(u) with
    c_i(u) = lam (g_i phi_i(u) + e_i) / a_i and u = |c(u)|_2.  The roots of
    |c(u)|_2 - u are bracketed by its sign changes on a geometric u-grid and
    bisected in log u, every bracket at once, as numpy arrays.
    """
    a, g, e = (np.asarray(v, dtype=float)[:, None] for v in (a, g, e))

    def c_of(u):
        phi = np.array([sum(cf * u ** p for cf, p in terms) for terms in terms_by_comp])
        return lam * (g * phi + e) / a

    def gap(u):
        return np.sqrt((c_of(u) ** 2).sum(axis=0)) - u

    u = np.geomspace(lo, hi, samples)
    side = gap(u) > 0.0
    k = np.flatnonzero(side[:-1] != side[1:])
    left, right, left_side = u[k], u[k + 1], side[k]
    for _ in range(100):
        mid = np.sqrt(left * right)
        same = (gap(mid) > 0.0) == left_side
        left, right = np.where(same, mid, left), np.where(same, right, mid)
    return c_of(np.sqrt(left * right)).T


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
    half = ghat(np.arange(n_grid // 2 + 1) * (period / n_grid), k, period)
    profile = np.concatenate([half, half[-2:0:-1]])
    doubled = np.concatenate([profile, profile])
    return np.stack([doubled[n_grid - p:2 * n_grid - p] for p in range(n_grid)])


def dense_quadrature(table):
    """h (G + h/12 I) of a Green table as one dense N x N matrix, from the
    kernel sampled at every pair of nodes: the reference for the
    quadrature operator applied from the table's generators."""
    n_grid = table.n_grid
    h = table.period / n_grid
    nodes = np.arange(n_grid)
    return h * (table.kernel.sample(nodes, nodes) + (h / 12.0) * np.eye(n_grid))


def kernel_from_basis_products(Y, idx_t, idx_s):
    """The kernel on fine indices idx_t x idx_s as one rank-2 matrix product
    per entry, [p1 p2](t) times c(s) for t < s and times
    d(s) = c(s) + (-p2(s), p1(s)) for t >= s: the arithmetic of the
    package's dense build (unlike ``kernel_from_basis_outer``, so the
    results compare bit for bit)."""
    phi = Y[-1]
    p1t, p2t = Y[idx_t, 0, 0], Y[idx_t, 0, 1]
    p1s, p2s = Y[idx_s, 0, 0], Y[idx_s, 0, 1]
    b = np.vstack([p1s * phi[0, 1] - phi[0, 0] * p2s,
                   p1s * phi[1, 1] - phi[1, 0] * p2s])
    c = np.linalg.solve(np.eye(2) - phi, b)
    d = c + np.stack([-p2s, p1s])
    rows = np.stack([p1t, p2t], 1)
    g = rows @ c
    np.copyto(g, rows @ d, where=idx_t[:, None] >= idx_s[None, :])
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


def _trig_eval(coef, t):
    """c0 + sum_m cos_m cos(2 pi m t) + sin_m sin(2 pi m t) for coef =
    (c0, cos, sin) on period 1."""
    c0, cos, sin = coef
    out = np.full_like(t, c0)
    for m, c in enumerate(cos, start=1):
        out += c * np.cos(2.0 * math.pi * m * t)
    for m, c in enumerate(sin, start=1):
        out += c * np.sin(2.0 * math.pi * m * t)
    return out


def manufactured_variable_a(a, samples=4096, rel_trim=1e-15):
    """A manufactured smooth solution of x_i'' + a_i x_i = lam g_i phi(|x|_2)
    with one a_i = (c0, cos, sin) per component, T = 1, e = 0, lam = 0.05 and
    phi(u) = 1/u + u^2 in both components.

    x*_1 = 1 + 0.01 cos 2 pi t + 0.002 sin 4 pi t and x*_2 = 0.8 + 0.01 sin 2 pi t
    are fixed; g_i = (x*_i'' + a_i x*_i) / (lam phi(|x*|_2)) is formed on
    ``samples`` points and read as its real Fourier coefficients, cut after
    the last mode whose cosine or sine exceeds rel_trim |c0|.  Returns
    (g, lam, terms, x_star): each g_i as (c0, cos, sin), the (c, p) terms of
    phi and x_star(t), an (2, len(t)) array.
    """
    w = 2.0 * math.pi
    lam, terms = 0.05, ((1.0, -1.0), (1.0, 2.0))

    def x_star(t):
        return np.stack([1.0 + 0.01 * np.cos(w * t) + 0.002 * np.sin(2.0 * w * t),
                         0.8 + 0.01 * np.sin(w * t)])

    t = np.arange(samples) / samples
    x = x_star(t)
    xpp = -w * w * np.stack([0.01 * np.cos(w * t) + 0.008 * np.sin(2.0 * w * t),
                             0.01 * np.sin(w * t)])
    u = np.sqrt((x * x).sum(axis=0))
    a_vals = np.stack([_trig_eval(coef, t) for coef in a])
    g_vals = (xpp + a_vals * x) / (lam * phi_value(terms, u))
    g = []
    for spec in np.fft.rfft(g_vals, axis=1) / samples:
        c0 = float(spec[0].real)
        cos, sin = 2.0 * spec[1:samples // 2].real, -2.0 * spec[1:samples // 2].imag
        kept = np.flatnonzero(np.maximum(abs(cos), abs(sin)) > rel_trim * abs(c0))
        top = int(kept[-1]) + 1 if kept.size else 0
        g.append((c0, tuple(cos[:top]), tuple(sin[:top])))
    return tuple(g), lam, terms, x_star


def fourier_d2(m, period):
    """The m-point Fourier second-derivative matrix, m even, from its closed
    form (L. N. Trefethen, Spectral Methods in MATLAB, 2000, ch. 3): the
    second derivative of the trigonometric interpolant at the nodes, with
    the Nyquist mode a cosine."""
    h = 2.0 * math.pi / m
    d = (np.arange(m)[:, None] - np.arange(m)[None, :]) % m
    with np.errstate(divide="ignore"):
        off = -0.5 * (-1.0) ** d / np.sin(0.5 * h * d) ** 2
    d2 = np.where(d == 0, -math.pi ** 2 / (3.0 * h * h) - 1.0 / 6.0, off)
    return d2 * (2.0 * math.pi / period) ** 2


def collocation_inverse(a_values, period):
    """(D2 + diag(a))^-1 on the nodes of ``a_values`` as a plain dense
    inverse, which loses about m^2 eps to round-off."""
    return np.linalg.inv(fourier_d2(len(a_values), period) + np.diag(a_values))


def coefficient_value(coef, t):
    """c0 + sum_m cos_m cos(2 pi m t / T) + sin_m sin(2 pi m t / T) of a
    package coefficient, summed mode by mode."""
    if hasattr(coef, "value"):
        return np.full_like(np.asarray(t, dtype=float), coef.value)
    w = 2.0 * math.pi / coef.period
    out = np.full_like(np.asarray(t, dtype=float), coef.c0)
    for m, c in enumerate(coef.cos_coeffs, start=1):
        out += c * np.cos(m * w * t)
    for m, c in enumerate(coef.sin_coeffs, start=1):
        out += c * np.sin(m * w * t)
    return out


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

    ``g_coefs``/``e_coefs`` are coefficient objects with an ``on_grid(N)``
    method, sampled at t_p = p * period / N; the sums run in the operator's
    order, so the result is bitwise comparable.
    """
    n, n_grid = values.shape
    g = np.vstack([coef.on_grid(n_grid) for coef in g_coefs])
    e = np.vstack([coef.on_grid(n_grid) for coef in e_coefs])
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


def _annulus_in_one_region(problem, constants, r_in, r_out):
    """Whole closed annulus inside one allowed radial region (sign-changing e)."""
    if problem.sign_profile != "MixedE":
        return True
    below = constants.delta is not None and r_out < constants.delta
    above = constants.Delta is not None and r_in > constants.Delta
    return below or above


def certified(scan):
    """(expansion, compression) flags over the radii of a scan: where each
    kind's margin is positive inside the domain gate."""
    return ((scan.expansion > 0.0) & scan.domain_ok,
            (scan.compression > 0.0) & scan.domain_ok)


def annuli_from_scan_loop(problem, constants, scan):
    """The certified annuli of a scan, one adjacent pair of labeled radii at
    a time: the pairing loop the package ran before it became array work.
    Each annulus is a dict of the ``CertifiedAnnulus`` fields."""
    e_ok, c_ok = certified(scan)
    labeled = np.flatnonzero(e_ok | c_ok)

    annuli = []
    for i, j in zip(labeled, labeled[1:]):
        exp_inner = e_ok[i] and c_ok[j]
        comp_inner = c_ok[i] and e_ok[j]
        if exp_inner and comp_inner:
            # both-certified on both ends; default orientation
            comp_inner = False
        if not (exp_inner or comp_inner):
            continue
        r1, r2 = float(scan.r[i]), float(scan.r[j])
        if not _annulus_in_one_region(problem, constants, r1, r2):
            continue
        inner, outer = ((scan.expansion, scan.compression) if exp_inner
                        else (scan.compression, scan.expansion))
        annuli.append(dict(
            annulus_id=f"A{len(annuli) + 1}",
            r_in=r1,
            r_out=r2,
            orientation="expansion_inner" if exp_inner else "compression_inner",
            predicted=f"solution norm in ({r1:.6g}, {r2:.6g})",
            inner_margin=float(inner[i]),
            outer_margin=float(outer[j]),
        ))
    return annuli


def shell_ratio_reference(problem, constants, r):
    """(margin, gate) over the radii r of the shell-ratio compression route,
    which the package dropped because annulus-max dominates it.

    On the shell 1 <= |x|_1 <= r, ||T x|| <= lam C_hat eps_r ||x|| + ||x||/2
    with eps_r = max_i fhat_i(r)/r, valid for r > max(1/sigma, 2 lam sum
    M_i int|e_i|) and, with a sign-changing e, for r > Delta only.  The
    margin is 1/2 - lam C_hat eps_r inside that gate and -inf outside it.
    """
    from pericone.problem import fhat

    r = np.asarray(r, dtype=float)
    lam = problem.lam
    e_term = float((constants.M * constants.int_abs_e).sum())
    gate = (r > 1.0 / constants.sigma) & (r > 2.0 * lam * e_term)
    if problem.sign_profile == "MixedE":
        gate &= r > (math.inf if constants.Delta is None else constants.Delta)
    margin = np.full(r.shape, -math.inf)
    eps = (fhat(problem.f, r[gate], problem.n) / r[gate]).max(axis=0)
    margin[gate] = 0.5 - lam * constants.C_hat * eps
    return margin, gate
