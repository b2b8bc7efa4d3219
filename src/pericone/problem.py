"""Problem definition for the system x_i'' + a_i(t) x_i = lam (g_i(t) f_i(x) + e_i(t)).

The nonlinearity family is radial power sums, f_i(x) = sum_j c_ij * ||x||_2^{p_ij}
with every c_ij > 0.  Radii and annuli always refer to the summation norm
|x|_1 = sum x_i on the positive orthant; the euclidean norm appears only as
the argument of the radial profiles.  On the orthant the two norms bracket
each other (u <= |x|_1 <= sqrt(n) u), which is what lets every annulus
quantity reduce to a one-dimensional search over u = ||x||_2.

All 1-D extrema, eta_r included, are computed from the exact critical points
of the power sums (sign changes of u * phi'(u), refined by bisection), so
quantities like fhat are monotone and eta_r is a true minimum by construction
rather than up to sampling error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .coefficients import coefficient_extrema, extrema_slack
from .errors import DomainError, HypothesisError, SingularityError

__all__ = [
    "PowerLawRadial",
    "Problem",
    "eval_f",
    "annulus_extrema",
    "eta_lower",
    "fhat",
    "thresholds_delta",
]

SINGULARITY_GUARD = 1e-10
AUDIT_GRID = 4096
# share of g_i f_i that must dominate a sign-changing e_i: the split
# SPLIT_FACTOR * g_i f_i(x) + e_i >= 0 checked by apply_T, guaranteed by
# the thresholds delta/Delta through phi_i >= B_i
SPLIT_FACTOR = 0.5
# search window for radial critical points and threshold bisections
U_LO, U_HI = 1e-20, 1e20


@dataclass(frozen=True)
class PowerLawRadial:
    """Per-component radial power sums: terms[i] = ((c, p), ...)."""

    terms: tuple

    def __post_init__(self):
        clean = []
        for comp in self.terms:
            comp_terms = tuple((float(c), float(p)) for c, p in comp)
            if not comp_terms:
                raise DomainError("each component needs at least one term")
            for c, _ in comp_terms:
                if c <= 0.0:
                    raise DomainError(f"coefficients must be positive, got {c}")
            clean.append(comp_terms)
        if not clean:
            raise DomainError("nonlinearity needs at least one component")
        object.__setattr__(self, "terms", tuple(clean))

    @property
    def n_components(self) -> int:
        return len(self.terms)

    def powers(self, i: int) -> np.ndarray:
        return np.array([p for _, p in self.terms[i]])

    def phi(self, i: int, u):
        """Radial profile phi_i(u) = sum_j c_ij u^p_ij, vectorized over u."""
        return _power_sum(self.terms[i], u)

    def dphi(self, i: int, u):
        """Derivative phi_i'(u) = sum_j c_ij p_ij u^(p_ij - 1), vectorized over u."""
        return _power_sum(tuple((c * p, p - 1.0) for c, p in self.terms[i]), u)

    def singular_at_zero(self, i: int) -> bool:
        return bool(self.powers(i).min() < 0.0)

    def unbounded_at_infinity(self, i: int) -> bool:
        return bool(self.powers(i).max() > 0.0)


def _power_sum(comp_terms: tuple, u):
    """sum c u^p over one component's (c, p) terms, vectorized over u."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    for c, p in comp_terms:
        out = out + c * np.power(u, p)
    return out


@lru_cache(maxsize=256)
def _critical_points(comp_terms: tuple) -> tuple:
    """Roots of u*phi'(u) = sum c p u^p in (0, inf), by log-grid sign scan."""
    cs = np.array([c * p for c, p in comp_terms])
    ps = np.array([p for _, p in comp_terms])
    if np.all(cs >= 0.0) or np.all(cs <= 0.0):
        return ()

    def psi(w):
        # w = ln u; exponential sum, evaluated overflow-tolerantly
        with np.errstate(over="ignore"):
            return np.sum(cs * np.exp(ps * w))

    w_grid = np.linspace(math.log(U_LO), math.log(U_HI), 2048)
    with np.errstate(over="ignore"):
        vals = (cs[:, None] * np.exp(ps[:, None] * w_grid)).sum(axis=0)
    roots = []
    for j in range(len(w_grid) - 1):
        v0, v1 = vals[j], vals[j + 1]
        if v0 == 0.0:
            roots.append(w_grid[j])
            continue
        # compared, not multiplied: a product can overflow, or underflow to
        # -0.0 and hide the change; an exact zero v1 is taken on the next step
        if v1 != 0.0 and (v0 < 0.0) != (v1 < 0.0):
            lo, hi = w_grid[j], w_grid[j + 1]
            flo = v0
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                fm = psi(mid)
                if fm == 0.0:
                    lo = mid
                    break
                if (flo < 0.0) != (fm < 0.0):
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    return tuple(math.exp(w) for w in roots)


def _interval_extrema(comp_terms: tuple, lo, hi):
    """(min, max) of a power sum over [lo, hi], elementwise over arrays lo and hi.

    The candidates are the two ends and the critical points; a critical point
    outside [lo, hi] is clipped onto the nearer end, whose value is already a
    candidate.  An end may be 0 or inf: where the sum blows up there it
    contributes +inf, so the min is the infimum over the open end.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    crit = _critical_points(comp_terms)
    pts = np.empty(np.broadcast(lo, hi).shape + (len(crit) + 2,))
    pts[..., 0] = lo
    pts[..., 1] = hi
    pts[..., 2:] = np.minimum(np.maximum(crit, lo[..., None]), hi[..., None])
    with np.errstate(divide="ignore"):
        vals = _power_sum(comp_terms, pts)
    return vals.min(axis=-1), vals.max(axis=-1)


def eval_f(f: PowerLawRadial, x) -> np.ndarray:
    """f(x) componentwise at one orthant point; guards the singularity at 0."""
    x = np.asarray(x, dtype=float)
    u = float(np.sqrt(np.sum(x * x)))
    if u < SINGULARITY_GUARD:
        raise SingularityError(f"||x||_2 = {u:.3e} below guard {SINGULARITY_GUARD}")
    return np.array([f.phi(i, u) for i in range(f.n_components)])


def _annulus_lower_u(r, sigma: float, n: int):
    """Smallest ||x||_2 on the orthant annulus sigma*r <= |x|_1 <= r, elementwise over r."""
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0.0):
        raise DomainError("r must be positive")
    if not (0.0 < sigma <= 1.0):
        raise DomainError("sigma must lie in (0, 1]")
    return sigma * r / math.sqrt(n)


def annulus_extrema(f: PowerLawRadial, r, sigma: float, n: int):
    """(m_hat, M_hat): extrema of all component profiles on the orthant annulus
    sigma*r <= |x|_1 <= r, i.e. u in [sigma*r/sqrt(n), r]; elementwise over r."""
    lo = _annulus_lower_u(r, sigma, n)
    pairs = [_interval_extrema(comp, lo, r) for comp in f.terms]
    return (np.minimum.reduce([m for m, _ in pairs]),
            np.maximum.reduce([big for _, big in pairs]))


def eta_lower(f: PowerLawRadial, r, sigma: float, n: int):
    """eta_r with f_j(x) >= eta_r * |x|_1 guaranteed on the orthant annulus
    sigma*r <= |x|_1 <= r, maximized over the component j; elementwise over r.

    For ||x||_2 = u the summation norm is at most min(sqrt(n)*u, r) on the
    annulus, so the worst ratio at fixed u is phi_j(u)/min(sqrt(n)*u, r).
    The knee u = r/sqrt(n) splits u in [sigma*r/sqrt(n), r] into two pieces,
    each with an exact minimum: below it the ratio is the shifted power sum
    sum (c/sqrt(n)) u^(p-1), above it phi_j(u)/r.  Either piece may be the
    single point r/sqrt(n) (sigma = 1, or n = 1).
    """
    lo = _annulus_lower_u(r, sigma, n)
    r = np.asarray(r, dtype=float)
    root_n = math.sqrt(n)
    knee = r / root_n
    best = np.zeros_like(r)
    for comp in f.terms:
        shifted = tuple((c / root_n, p - 1.0) for c, p in comp)
        below, _ = _interval_extrema(shifted, lo, knee)
        above, _ = _interval_extrema(comp, knee, r)
        best = np.maximum(best, np.minimum(below, above / r))
    return best


def fhat(f: PowerLawRadial, theta, n: int) -> np.ndarray:
    """Per-component max of f_i over the orthant shell 1 <= |x|_1 <= theta;
    shape (n_components, *theta.shape)."""
    theta = np.asarray(theta, dtype=float)
    if not np.all(theta >= 1.0):
        raise DomainError("theta must be at least 1")
    lo = 1.0 / math.sqrt(n)
    return np.array([_interval_extrema(comp, lo, theta)[1] for comp in f.terms])


@dataclass
class Problem:
    """The full parametrized system on one period.

    a, g, e are per-component periodic coefficients sharing the problem
    period; f is the radial nonlinearity; lam >= 0 (lam = 0 degenerates to
    the zero forcing, kept valid for linearity checks).  sign_profile is
    derived from e: "MixedE" as soon as some e_i dips negative, which then
    requires min g_i > 0 everywhere.  sign_profile, g_min and e_abs_max are
    derived from the coefficients, never set by the caller.
    """

    n: int
    period: float
    a: tuple
    g: tuple
    e: tuple
    f: PowerLawRadial
    lam: float
    sign_profile: str = field(init=False)
    # lower bound on min g_i and upper bound on max |e_i|: the audit-grid
    # extrema widened by extrema_slack, computed once per problem
    g_min: tuple = field(init=False, repr=False)
    e_abs_max: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be at least 1")
        if self.period <= 0.0:
            raise DomainError("period must be positive")
        if self.lam < 0.0:
            raise DomainError("lam must be nonnegative")
        self.a = tuple(self.a)
        self.g = tuple(self.g)
        self.e = tuple(self.e)
        if not (len(self.a) == len(self.g) == len(self.e) == self.n):
            raise DomainError("a, g, e must each have n entries")
        if self.f.n_components != self.n:
            raise DomainError("nonlinearity component count must equal n")
        for coef in (*self.a, *self.g, *self.e):
            if abs(coef.period - self.period) > 1e-12 * self.period:
                raise DomainError("coefficient period differs from problem period")

        t = np.arange(AUDIT_GRID) * (self.period / AUDIT_GRID)
        g_sampled, g_min, e_abs_max, mixed = [], [], [], False
        for i in range(self.n):
            g_lo, _ = coefficient_extrema(self.g[i], AUDIT_GRID)
            if g_lo < -1e-12:
                raise HypothesisError(f"g[{i}] takes negative values")
            if self.g[i].eval(t).mean() * self.period <= 0.0:
                raise HypothesisError(f"g[{i}] must have positive integral")
            e_lo, e_hi = coefficient_extrema(self.e[i], AUDIT_GRID)
            mixed = mixed or e_lo < 0.0
            g_sampled.append(g_lo)
            # bounds err on the safe side: the true min g may dip below the
            # sampled one, the true max |e| may rise above it
            g_min.append(g_lo - extrema_slack(self.g[i], AUDIT_GRID))
            e_abs_max.append(max(abs(e_lo), abs(e_hi)) + extrema_slack(self.e[i], AUDIT_GRID))
        self.g_min = tuple(g_min)
        self.e_abs_max = tuple(e_abs_max)
        self.sign_profile = "MixedE" if mixed else "NonnegativeE"
        if mixed:
            for i, g_lo in enumerate(g_sampled):
                if g_lo <= 0.0:
                    raise HypothesisError(
                        f"sign-changing e requires strictly positive g, g[{i}] is not"
                    )

    def grid(self, n_grid: int) -> np.ndarray:
        return np.arange(n_grid) * (self.period / n_grid)

    def g_on_grid(self, n_grid: int) -> np.ndarray:
        t = self.grid(n_grid)
        return np.vstack([coef.eval(t) for coef in self.g])

    def e_on_grid(self, n_grid: int) -> np.ndarray:
        t = self.grid(n_grid)
        return np.vstack([coef.eval(t) for coef in self.e])

    def a_on_grid(self, n_grid: int) -> np.ndarray:
        t = self.grid(n_grid)
        return np.vstack([coef.eval(t) for coef in self.a])


def _forcing_bounds(problem: Problem):
    """Per-component B_i = (max|e_i| + 1) / (SPLIT_FACTOR * min g_i).

    phi_i >= B_i makes SPLIT_FACTOR * g_i f_i + e_i >= 1 > 0 pointwise.
    """
    bounds = []
    for i, (g_lo, e_abs) in enumerate(zip(problem.g_min, problem.e_abs_max)):
        if g_lo <= 0.0:
            raise HypothesisError(f"threshold bound needs min g[{i}] > 0")
        bounds.append((e_abs + 1.0) / (SPLIT_FACTOR * g_lo))
    return bounds


def _largest_radius(pred) -> float | None:
    """Largest d in [U_LO, U_HI] with pred true on it; pred is nonincreasing."""
    if not pred(U_LO):
        return None
    if pred(U_HI):
        return math.inf
    lo, hi = U_LO, U_HI
    for _ in range(160):
        mid = math.sqrt(lo * hi)
        if mid in (lo, hi):
            break  # bracket down to adjacent floats: no later step moves it
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _smallest_radius(pred) -> float | None:
    """Smallest d in [U_LO, U_HI] with pred true on it; pred is nondecreasing."""
    if not pred(U_HI):
        return None
    if pred(U_LO):
        return U_LO
    lo, hi = U_LO, U_HI
    for _ in range(160):
        mid = math.sqrt(lo * hi)
        if mid in (lo, hi):
            break  # bracket down to adjacent floats: no later step moves it
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def thresholds_delta(problem: Problem, sigma: float):
    """(delta, Delta): radii inside/outside of which f_i dominates the forcing.

    delta is the largest d with phi_i(u) >= B_i for all u in (0, d] and all i
    (None unless every component is singular at zero, may be inf).  Delta is
    R''/sigma where R'' is the smallest radius with phi_i(u) >= B_i for all
    u >= R''/sqrt(n) (None unless every component blows up at infinity).
    Both by bisection on the monotone envelopes; sigma comes from the cone
    constants of the Green tables.
    """
    if not (0.0 < sigma <= 1.0):
        raise DomainError("sigma must lie in (0, 1]")
    bounds = _forcing_bounds(problem)
    f = problem.f
    n = problem.n

    if all(f.singular_at_zero(i) for i in range(n)):

        def small_ok(d):
            return all(_interval_extrema(f.terms[i], 0.0, d)[0] >= bounds[i]
                       for i in range(n))

        delta = _largest_radius(small_ok)
    else:
        delta = None

    if all(f.unbounded_at_infinity(i) for i in range(n)):

        def large_ok(rr):
            return all(_interval_extrema(f.terms[i], rr / math.sqrt(n), math.inf)[0]
                       >= bounds[i] for i in range(n))

        r_dd = _smallest_radius(large_ok)
        delta_big = None if r_dd is None else r_dd / sigma
    else:
        delta_big = None

    return delta, delta_big
