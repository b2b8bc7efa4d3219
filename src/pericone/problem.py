"""Problem definition for the system x_i'' + a_i(t) x_i = lam (g_i(t) f_i(x) + e_i(t)).

The nonlinearity family is radial power sums, f_i(x) = sum_j c_ij * ||x||_2^{p_ij}
with every c_ij > 0.  Radii and annuli always refer to the summation norm
|x|_1 = sum x_i on the positive orthant; the euclidean norm appears only as
the argument of the radial profiles.  On the orthant the two norms bracket
each other (u <= |x|_1 <= sqrt(n) u), which is what lets every annulus
quantity reduce to a one-dimensional search over u = ||x||_2.

All 1-D extrema, eta_r included, are computed from the exact critical point
of the power sums.  With positive coefficients u * phi'(u) is strictly
increasing, so phi has at most one critical point, its minimum, and one
bisection finds it.  Quantities like fhat are monotone and eta_r is a true
minimum by construction rather than up to sampling error.
"""
from __future__ import annotations

import copy
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
# search window for the radial critical point and the threshold roots
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
            for c, p in comp_terms:
                # written so that NaN fails it
                if not (0.0 < c < math.inf and -math.inf < p < math.inf):
                    raise DomainError(f"need c > 0 and both finite, got c={c}, p={p}")
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
    (c, p), *rest = comp_terms
    out = c * np.power(u, p)
    for c, p in rest:
        out = out + c * np.power(u, p)
    return out


@lru_cache(maxsize=256)
def _critical_point(comp_terms: tuple) -> float | None:
    """Where phi is least in [U_LO, U_HI]: the root of u*phi'(u) = sum c p u^p.

    With every c > 0 the sum has derivative sum c p^2 u^(p-1) > 0, so it is
    strictly increasing and phi has at most one critical point, its minimum.
    Returns the smallest float u with sum c p u^p >= 0, or None if the sum
    keeps one sign on the window (no negative or no positive power, or a
    root outside it).
    """
    slope = tuple((c * p, p) for c, p in comp_terms)

    def below(u):
        return bool(_power_sum(slope, u) < 0.0)

    # the sum may overflow to -inf near U_LO; that is still below the root
    with np.errstate(over="ignore"):
        if not below(U_LO) or below(U_HI):
            return None
        return _geometric_bisect(below)[1]


def _interval_extrema(comp_terms: tuple, lo, hi):
    """(min, max) of a power sum over [lo, hi], elementwise over arrays lo and hi.

    The candidates are the two ends and the critical point clipped onto
    [lo, hi] (an end again when there is none).  An end may be 0 or inf:
    where the sum blows up there it contributes +inf, so the min is the
    infimum over the open end.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    crit = _critical_point(comp_terms)
    pts = np.empty(np.broadcast(lo, hi).shape + (3,))
    pts[..., 0] = lo
    pts[..., 1] = hi
    pts[..., 2] = lo if crit is None else np.minimum(np.maximum(crit, lo), hi)
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


def _check_lam(lam: float) -> None:
    # written so that NaN fails it
    if not 0.0 <= lam < math.inf:
        raise DomainError("lam must be nonnegative and finite")


@dataclass
class Problem:
    """The full parametrized system on one period.

    a, g, e are per-component periodic coefficients sharing the problem
    period; f is the radial nonlinearity; lam >= 0 (lam = 0 degenerates to
    the zero forcing, kept valid for linearity checks).  sign_profile is
    derived from e: "MixedE" as soon as some e_i dips negative, which then
    requires min g_i > 0 everywhere.  sign_profile, g_min and e_abs_max are
    derived from the coefficients, never set by the caller; so are the grid
    samples of a, g and e, once per grid size (``g_on_grid`` and the like).
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
    # read-only samples of a, g, e keyed by (name, grid size), each derived
    # on first use; the operator reads them on every application
    _samples: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be at least 1")
        # written so that NaN fails them
        if not 0.0 < self.period < math.inf:
            raise DomainError("period must be positive and finite")
        _check_lam(self.lam)
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

    def with_lam(self, lam: float) -> Problem:
        """This problem at another lam, without a new coefficient audit.

        sign_profile, g_min, e_abs_max and the grid samples do not depend on
        lam, so they carry over; the copy shares the samples dict.
        """
        _check_lam(lam)
        out = copy.copy(self)
        out.lam = lam
        return out

    def grid(self, n_grid: int) -> np.ndarray:
        return np.arange(n_grid) * (self.period / n_grid)

    def _on_grid(self, name: str, n_grid: int) -> np.ndarray:
        """(n, n_grid) read-only samples of the coefficients a, g or e."""
        key = (name, n_grid)
        vals = self._samples.get(key)
        if vals is None:
            t = self.grid(n_grid)
            vals = np.vstack([coef.eval(t) for coef in getattr(self, name)])
            vals.flags.writeable = False
            self._samples[key] = vals
        return vals

    def g_on_grid(self, n_grid: int) -> np.ndarray:
        return self._on_grid("g", n_grid)

    def e_on_grid(self, n_grid: int) -> np.ndarray:
        return self._on_grid("e", n_grid)

    def a_on_grid(self, n_grid: int) -> np.ndarray:
        return self._on_grid("a", n_grid)


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


def _geometric_bisect(below) -> tuple:
    """Final (lo, hi) of bisection by geometric means on [U_LO, U_HI].

    below(d) says d lies below the threshold sought.  The bracket always
    starts at [U_LO, U_HI] and halves in log u, so each threshold lands on
    the same float whatever decides the steps; it stops at adjacent floats.
    """
    lo, hi = U_LO, U_HI
    for _ in range(160):
        mid = math.sqrt(lo * hi)
        if mid in (lo, hi):
            break  # bracket down to adjacent floats: no later step moves it
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


@lru_cache(maxsize=256)
def _head_root(comp_terms: tuple, bound: float) -> float | None:
    """Largest d in [U_LO, U_HI] with phi >= bound on all of (0, d], for a
    component singular at zero; inf if U_HI qualifies, None if U_LO does not.

    phi falls down to its minimum u* and rises after it.  If phi(u*) >= bound
    the condition holds everywhere; otherwise it fails from u* on, and the
    root is a scalar bisection on phi below u* (the whole window if there is
    no u* in it).
    """
    crit = _critical_point(comp_terms)
    if crit is not None and _power_sum(comp_terms, crit) >= bound:
        return math.inf
    right = math.inf if crit is None else crit

    def holds(d):
        return d < right and bool(_power_sum(comp_terms, d) >= bound)

    if not holds(U_LO):
        return None
    if holds(U_HI):
        return math.inf
    return _geometric_bisect(holds)[0]


@lru_cache(maxsize=256)
def _tail_root(comp_terms: tuple, bound: float, root_n: float) -> float | None:
    """Smallest rr in [U_LO, U_HI] with phi >= bound on all of [rr/root_n, inf),
    for a component unbounded at infinity; U_LO if U_LO qualifies, None if
    U_HI does not.

    The mirror of ``_head_root``: if phi(u*) >= bound the condition holds
    everywhere; otherwise it fails up to u*, and the root is a scalar
    bisection on phi above u*.
    """
    crit = _critical_point(comp_terms)
    if crit is not None and _power_sum(comp_terms, crit) >= bound:
        return U_LO
    left = 0.0 if crit is None else crit

    def fails(rr):
        u = rr / root_n
        return u <= left or not _power_sum(comp_terms, u) >= bound

    if fails(U_HI):
        return None
    if not fails(U_LO):
        return U_LO
    return _geometric_bisect(fails)[1]


def thresholds_delta(problem: Problem, sigma: float):
    """(delta, Delta): radii inside/outside of which f_i dominates the forcing.

    delta is the largest d with phi_i(u) >= B_i for all u in (0, d] and all i
    (None unless every component is singular at zero, may be inf).  Delta is
    R''/sigma where R'' is the smallest radius with phi_i(u) >= B_i for all
    u >= R''/sqrt(n) (None unless every component blows up at infinity).

    Each component contributes one root of phi_i(u) = B_i, below its
    minimum (for delta) or above it (for Delta), where phi_i is monotone:
    delta = min_i delta_i and Delta = max_i R''_i / sigma.  The roots follow
    the geometric bisection on [U_LO, U_HI] of ``_geometric_bisect``, which
    lands each one on the float a bisection of the all-component condition
    lands on; None and inf (delta) or U_LO (R'') mark a condition that fails
    or holds on the whole window.  The roots do not depend on lam and are cached per component
    and bound.  sigma comes from the cone constants of the Green tables.
    """
    if not (0.0 < sigma <= 1.0):
        raise DomainError("sigma must lie in (0, 1]")
    bounds = _forcing_bounds(problem)
    f = problem.f
    n = problem.n

    delta = None
    if all(f.singular_at_zero(i) for i in range(n)):
        roots = [_head_root(f.terms[i], bounds[i]) for i in range(n)]
        if None not in roots:
            delta = min(roots)

    delta_big = None
    if all(f.unbounded_at_infinity(i) for i in range(n)):
        roots = [_tail_root(f.terms[i], bounds[i], math.sqrt(n)) for i in range(n)]
        if None not in roots:
            delta_big = max(roots) / sigma

    return delta, delta_big
