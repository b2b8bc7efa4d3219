"""Fixed-point solvers: Newton refinement, multi-solution search, a lambda
continuation sweep, and a standalone damped Picard iteration.

Multiplicity is captured by seeding every certified annulus separately and
deduplicating afterwards, mirroring how the existence proofs localize each
solution in its own annulus.  Newton on F(x) = x - T x starts from a leveled
start (``_level_start``): the constant annulus seed, or a warm start, scaled
by the root kappa of the one-mode form of x = lam T x along kappa x0, the
grid mean summed over components.  That is a scalar power-sum equation in
kappa, solved on plain floats; the root for a seed lies in its annulus, the
root for a warm start is the one nearest kappa = 1, and without a root the
start stays as it is.  For constant a, g, e the leveled start is the
fixed point to round-off, and Newton returns it without a step.

Every f_i is radial, f_i(x) = phi_i(|x|_2), so its gradient
phi_i'(u) x / u has rank one at each grid point and the exact Jacobian is
I - U V with U_i = lam Q_i diag(g_i phi_i') and V = [diag(x_j / u)].  The
Newton step therefore needs only the M x M system (I - V U) w = V F
(Woodbury), not the dense (nM) x (nM) one; by Sylvester's identity
det(I - U V) = det(I - V U), so the small system is singular exactly when
the full one is.

``picard_solve`` (damped fixed-point iteration) is no part of any solve
path; it stays a standalone function until the benchmark's tracer no longer
wraps it.

Newton runs on M collocation points, where T = lam (D2 + a)^-1 is exact
(``Discretization.collocation``), so every step is the exact Newton step.
M starts at START_POINTS and doubles, warm-started by interpolation, up to
min(N, MAX_POINTS), until the upper half of x's spectrum is below
TAIL_RTOL |x|; a start unresolved at the cap is dropped with a note.  The
solution is interpolated to the N points, where the ODE check, the cone
test and positivity run; its fixed-point residual is Newton's, on M points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .certify import default_r_grid, existence_report, radius_bounds
from .cone import ConeConstants, cone_membership
from .errors import (
    DivergenceError,
    DomainError,
    NoConvergenceError,
    SingularityError,
    SingularJacobianError,
)
from .greens import kernel_quadrature  # noqa: F401  the benchmark's tracer wraps it here
from .operator import (
    Collocation,
    Discretization,
    GridFunction,
    apply_T,
    fixed_point_residual,  # noqa: F401  the benchmark's tracer wraps it here
    ode_residual,
    prod_norm,
)
from .problem import Problem

__all__ = [
    "PicardResult",
    "NewtonResult",
    "Solution",
    "SolveReport",
    "BranchRow",
    "BranchTable",
    "seed_from_annulus",
    "resample",
    "picard_solve",
    "newton_refine",
    "find_solutions",
    "continue_lambda",
]

PICARD_TARGET = 1e-6
PICARD_DAMPING = 0.5
MAX_PICARD = 200
NEWTON_TOL = 1e-10
# a residual this small relative to the iterate's norm is round-off: Newton
# returns there without a further step
ROUNDOFF_RTOL = 16.0 * 2.0 ** -52
MAX_NEWTON = 30
# gate on the independent spectral ODE check of accepted solutions
ODE_TOL = 1e-6
NORM_BLOWUP = 1e12
CLAMP_TOL = 1e-12
DEDUPE_RTOL = 1e-6
# the one-mode level equation: root-finder steps, and the outward search of
# a warm start's root in log kappa, from LEVEL_STEP doubling to LEVEL_REACH
MAX_LEVEL = 100
LEVEL_STEP = 0.125
LEVEL_REACH = 16.0
NEWTON_FAILURES = (SingularJacobianError, NoConvergenceError, DomainError,
                   SingularityError)
START_POINTS = 32
MAX_POINTS = 256
TAIL_RTOL = 1e-15


@dataclass
class PicardResult:
    x: GridFunction
    iterations: int
    residual: float
    converged: bool


@dataclass
class NewtonResult:
    x: GridFunction
    residual: float
    iterations: int
    history: tuple


@dataclass
class Solution:
    x: GridFunction
    lam: float
    norm: float
    fp_residual: float
    ode_residual: float
    cone_margin: float
    positive_min: float
    annulus_id: str


@dataclass
class SolveReport:
    solutions: list
    annuli: list
    notes: list


@dataclass
class BranchRow(Solution):
    branch_id: str


@dataclass
class BranchTable:
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def seed_from_annulus(annulus, problem: Problem, n_grid: int) -> GridFunction:
    """Constant cone-interior seed with norm at the geometric mean of the annulus."""
    c = math.sqrt(annulus.r_in * annulus.r_out) / problem.n
    return GridFunction(np.full((problem.n, n_grid), c), problem.period)


def resample(values: np.ndarray, n_grid: int) -> np.ndarray:
    """Trigonometric resampling of periodic samples to n_grid points, along
    the last axis.

    Going up, the real FFT is zero-padded and the old Nyquist bin halved,
    because on the finer grid it stands for the pair of frequencies at plus
    and minus half the old count.
    Going down, the bins below n_grid/2 are kept and the new Nyquist bin is
    twice the real part of the old bin there, the cosine its pair aliases to.
    Samples already on n_grid points are returned as they are.
    """
    size = values.shape[-1]
    if n_grid == size:
        return values
    return _interpolant(np.fft.rfft(values, norm="forward"), size, n_grid)


def _interpolant(spec: np.ndarray, size: int, n_grid: int) -> np.ndarray:
    """``resample`` of the samples on ``size`` points whose real FFT
    (norm="forward") is spec, which it overwrites, to n_grid != size points."""
    if n_grid < size:
        spec[..., n_grid // 2] = 2.0 * spec[..., n_grid // 2].real
    else:
        spec[..., -1] *= 0.5
    # irfft crops the bins above n_grid/2, or pads with zeros up to it
    return np.fft.irfft(spec, n=n_grid, norm="forward")


def picard_solve(problem: Problem, disc: Discretization, x0: GridFunction) -> PicardResult:
    """Damped fixed-point iteration x <- (1-w) x + w T x.

    Stops as soon as the residual reaches PICARD_TARGET or the iteration
    budget runs out.  The damping halves on norm overshoot, at most four
    times.  Micro-negative components (roundoff) are clamped to zero;
    anything worse aborts, as does a norm blow-up or a fall below the
    singularity guard.  A sign-changing e whose split inequality fails
    raises DomainError from apply_T; it is not caught here.
    """
    x = x0
    x_norm = x.norm
    omega = PICARD_DAMPING
    halvings = 0
    res = math.inf
    for it in range(MAX_PICARD + 1):
        try:
            tx = apply_T(problem, disc, x)
        except SingularityError as exc:
            raise DivergenceError(
                f"iterate fell below the singularity guard after {it} picard steps"
            ) from exc
        res = prod_norm(x.values - tx.values)
        if res <= PICARD_TARGET:
            return PicardResult(x=x, iterations=it, residual=res, converged=True)
        if it == MAX_PICARD:
            break
        cand = (1.0 - omega) * x.values + omega * tx.values
        cand_norm = prod_norm(cand)
        while cand_norm > 2.0 * x_norm and halvings < 4:
            omega *= 0.5
            halvings += 1
            cand = (1.0 - omega) * x.values + omega * tx.values
            cand_norm = prod_norm(cand)
        low = float(cand.min())
        if low < -CLAMP_TOL:
            raise DivergenceError(
                f"component went negative ({low:.3e}) at picard step {it + 1}"
            )
        if low < 0.0:
            cand = np.where(cand < 0.0, 0.0, cand)
            cand_norm = prod_norm(cand)
        if cand_norm > NORM_BLOWUP:
            raise DivergenceError(f"iterate norm exceeded {NORM_BLOWUP:.1e}")
        x = GridFunction(cand, x.period)
        x_norm = cand_norm
    return PicardResult(x=x, iterations=MAX_PICARD, residual=res, converged=False)


def _coupling_solve(quad, rows: np.ndarray, cols: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - sum_i diag(rows_i) Q_i diag(cols_i)) w = rhs, the M x M Newton system."""
    small = np.eye(rhs.size)
    for q, r, c in zip(quad, rows, cols):
        small -= q * r[:, None] * c
    return np.linalg.solve(small, rhs)


def _newton_step(problem: Problem, op: Collocation, x: GridFunction,
                 fvals: np.ndarray) -> np.ndarray:
    """The exact Newton step s with J s = F for J = I - U V, as an (n, M) array.

    The system (I - sum_i diag(x_i/u) lam Q_i diag(g_i phi_i'(u))) w
    = sum_i (x_i/u) F_i is formed from the matrices of ``op`` and solved,
    and s_i = F_i + lam Q_i (g_i phi_i'(u) w), one application per
    distinct matrix.
    """
    u = np.sqrt(np.sum(x.values * x.values, axis=0))
    g = problem.g_on_grid(x.n_grid)
    cols = problem.lam * g * problem.f.dphi_rows(u)
    rows = x.values / u
    rhs = np.sum(rows * fvals, axis=0)
    try:
        w = _coupling_solve([op.matrices[k] for k in op.index], rows, cols, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobianError(
            f"linear solve failed at residual {prod_norm(fvals):.3e}"
        ) from exc
    return fvals + op.quadrature(cols * w)


def newton_refine(problem: Problem, op: Collocation, x0: GridFunction) -> NewtonResult:
    """Newton iteration on F(x) = x - T x on the grid of ``op``, down to round-off.

    Every step is the exact ``_newton_step``.  The iteration returns at the
    first iterate whose residual r is at most NEWTON_TOL and either is
    round-off, r <= ROUNDOFF_RTOL * |x|, or follows a step that started at
    or below NEWTON_TOL.  So a start already at round-off takes no step,
    and otherwise, once the residual first falls to NEWTON_TOL, at most one
    more step takes it to round-off.  Where ROUNDOFF_RTOL * |x| exceeds
    NEWTON_TOL (norms above about 3e4), the absolute NEWTON_TOL decides:
    the loop stops at the first residual at or below it.
    """
    x = x0
    history = []
    for _ in range(MAX_NEWTON + 1):
        tx = apply_T(problem, op, x)
        fvals = x.values - tx.values
        res = prod_norm(fvals)
        history.append(res)
        if res <= NEWTON_TOL and (res <= ROUNDOFF_RTOL * x.norm
                                  or len(history) > 1 and history[-2] <= NEWTON_TOL):
            return NewtonResult(x=x, residual=res, iterations=len(history) - 1,
                                history=tuple(history))
        if len(history) > MAX_NEWTON:
            break
        step = _newton_step(problem, op, x, fvals)
        x = GridFunction(x.values - step, x.period)
    raise NoConvergenceError(
        f"newton did not converge in {MAX_NEWTON} steps"
    )


def _verify_candidate(problem: Problem, constants: ConeConstants, x: GridFunction,
                      fp: float, annulus_id: str, ode_tol: float, notes: list):
    """Gate a Newton output, interpolated to the N-point grid, through the
    solution invariants; None if any fails.  Its fixed-point residual fp is
    where Newton stopped on its own grid, at most NEWTON_TOL."""
    ode = ode_residual(problem, x)
    if ode > ode_tol:
        notes.append(f"{annulus_id}: ode residual {ode:.3e} above {ode_tol:.1e}, dropped")
        return None
    mem = cone_membership(x, constants.sigma)
    if not mem.member:
        notes.append(f"{annulus_id}: output left the cone (margin {mem.margin:.3e}), dropped")
        return None
    pos = float(x.values.min())
    if pos <= 0.0:
        notes.append(f"{annulus_id}: not strictly positive (min {pos:.3e}), dropped")
        return None
    return Solution(
        x=x,
        lam=problem.lam,
        norm=x.norm,
        fp_residual=fp,
        ode_residual=ode,
        cone_margin=mem.margin,
        positive_min=pos,
        annulus_id=annulus_id,
    )


def _close_norms(a: float, b: float) -> bool:
    """Whether two norms belong to one solution: DEDUPE_RTOL relative, absolute below 1."""
    return abs(a - b) <= DEDUPE_RTOL * max(abs(a), abs(b), 1.0)


def _dedupe(solutions: list) -> list:
    """Merge solutions whose norms are ``_close_norms``; keep the cleaner one."""
    out = []
    for sol in sorted(solutions, key=lambda s: (s.norm, s.fp_residual)):
        if out and _close_norms(sol.norm, out[-1].norm):
            if sol.fp_residual < out[-1].fp_residual:
                out[-1] = sol
            continue
        out.append(sol)
    return out


def _level_root(level, a: float, fa: float, b: float, fb: float):
    """The root of the level equation between a and b, where it takes the
    values fa and fb.

    Newton in s = log kappa from the midpoint, with a bisection wherever a
    step would leave the bracket, until a step or the bracket is a few ulps
    wide.  None when fa and fb are not finite or have one sign, or when a
    value inside is not finite.
    """
    if not (math.isfinite(fa) and math.isfinite(fb)):
        return None
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    if (fa < 0.0) == (fb < 0.0):
        return None
    s = 0.5 * (a + b)
    for _ in range(MAX_LEVEL):
        f, slope = level(s)
        if not math.isfinite(f):
            return None
        if f == 0.0:
            return s
        if (f < 0.0) == (fa < 0.0):
            a = s
        else:
            b = s
        tol = 4.0 * math.ulp(max(1.0, abs(s)))
        t = s - f / slope if slope else math.nan
        if abs(t - s) <= tol:
            return t
        if not min(a, b) < t < max(a, b):
            if abs(b - a) <= tol:
                return s
            t = 0.5 * (a + b)
        s = t
    return s


def _nearest_root(level):
    """The root of the level equation nearest s = 0: brackets [r, 2r] and
    [-2r, -r] tried outward from [0, LEVEL_STEP], the nearer root of the
    first pair that holds one.  None if none does within LEVEL_REACH, if a
    value is not finite, or if s = 0 is itself the root.
    """
    f0 = level(0.0)[0]
    if not math.isfinite(f0) or f0 == 0.0:
        return None
    inner = [(0.0, f0), (0.0, f0)]
    reach = LEVEL_STEP
    while reach <= LEVEL_REACH:
        roots = []
        for k, side in enumerate((1.0, -1.0)):
            a, fa = inner[k]
            b = side * reach
            fb = level(b)[0]
            if not math.isfinite(fb):
                return None
            root = _level_root(level, a, fa, b, fb)
            if root is not None:
                roots.append(root)
            inner[k] = (b, fb)
        if roots:
            return min(roots, key=abs)
        reach *= 2.0
    return None


def _level_start(problem: Problem, op: Collocation | Discretization, x0: GridFunction,
                 radii=None) -> GridFunction:
    """The start kappa * x0 whose level solves the one-mode form of x = lam T x.

    Along kappa * x0 every f_i(kappa x0) = sum_j c_ij kappa^p_ij u0^p_ij,
    u0 = |x0(t)|_2, so the grid mean of x = lam T x summed over components is
    a scalar equation in s = log kappa:

        kappa sum_i mean(x0_i)
            = lam sum_i [sum_j kappa^p_ij mean(Q_i(g_i c_ij u0^p_ij)) + mean(Q_i e_i)]

    with Q_i the operator of ``op``, on whose grid x0 lies.  Each
    component makes one (terms + 1) x M block, zero rows padding the
    shorter ones, and ``op.quadrature`` applies each distinct operator
    once, to the 3-D stack of the blocks that share it.  For an annulus seed,
    ``radii`` = (r_in, r_out) and the root is the one with kappa |x0| in
    [r_in, r_out]; for a warm start (None) it is the root nearest kappa = 1.
    Without such a root, or with a non-finite value of the equation, x0 is
    returned unchanged.  For constant a, g, e and equal components, the
    leveled constant start is the fixed point to round-off.
    """
    u0 = np.sqrt(np.sum(x0.values * x0.values, axis=0))
    g = problem.g_on_grid(x0.n_grid)
    e = problem.e_on_grid(x0.n_grid)
    # (p, w): the equation is sum w exp(p s) = 0
    terms = [(1.0, float(x0.values.mean(axis=1).sum()))]
    comps = problem.f.terms
    block = np.zeros((problem.n, 1 + max(map(len, comps)), x0.n_grid))
    with np.errstate(all="ignore"):
        for i, comp in enumerate(comps):
            block[i, 0] = e[i]
            block[i, 1:1 + len(comp)] = [c * g[i] * np.power(u0, p) for c, p in comp]
        means = op.quadrature(block).mean(axis=-1)
    for comp, m in zip(comps, means):
        terms.extend((p, -problem.lam * float(v)) for (_, p), v in zip(comp, m[1:]))
        terms.append((0.0, -problem.lam * float(m[0])))
    if not all(math.isfinite(w) for _, w in terms):
        return x0

    def level(s: float) -> tuple:
        """The equation's value and its derivative in s."""
        try:
            vals = [w * math.exp(p * s) for p, w in terms]
            return math.fsum(vals), math.fsum(p * v for (p, _), v in zip(terms, vals))
        except (OverflowError, ValueError):
            return math.nan, math.nan

    if radii is None:
        s = _nearest_root(level)
    else:
        norm = x0.norm
        a, b = (math.log(r / norm) for r in radii)
        s = _level_root(level, a, level(a)[0], b, level(b)[0])
    if s is None:
        return x0
    return GridFunction(math.exp(s) * x0.values, x0.period)


def _solve_from_seed(problem: Problem, disc: Discretization, constants: ConeConstants,
                     start: GridFunction, annulus_id: str, ode_tol: float, notes: list,
                     radii=None):
    """Level a start (an annulus seed, ``radii`` its annulus, or a warm
    start, None) on M = min(N, START_POINTS) points, run Newton there,
    doubling M while the output is unresolved (see the module docstring),
    and verify the result interpolated to the N points of ``disc``.  None,
    with a note, if Newton fails or the solution is unresolved at the cap.

    A start on N points that M divides is sampled at every (N/M)-th point
    rather than truncated by two FFTs: a start need only lie near the
    solution, and for a warm start resolved on M points the two agree to
    round-off.
    """
    n, period = disc.n_grid, start.period
    m = min(n, START_POINTS)
    cap = min(n, MAX_POINTS)
    size = start.n_grid
    values = start.values[:, ::size // m] if size % m == 0 else resample(start.values, m)
    x = _level_start(problem, disc.collocation(m), GridFunction(values, period), radii)
    while True:
        try:
            refined = newton_refine(problem, disc.collocation(m), x)
        except NEWTON_FAILURES as exc:
            notes.append(f"{annulus_id}: newton failed ({exc})")
            return None
        spec = np.fft.rfft(refined.x.values, norm="forward")
        tail = float(np.abs(spec[:, m // 4:]).max()) / refined.x.norm
        if tail <= TAIL_RTOL:
            break
        if m == cap:
            notes.append(f"{annulus_id}: spectral tail {tail:.3e} of |x| at M={m} "
                         f"above {TAIL_RTOL:.0e}, dropped")
            return None
        size, m = m, min(2 * m, cap)
        x = GridFunction(_interpolant(spec, size, m), period)
    x = refined.x if m == n else GridFunction(_interpolant(spec, m, n), period)
    return _verify_candidate(problem, constants, x, refined.residual, annulus_id,
                             ode_tol, notes)


def _solve_annuli(problem: Problem, disc: Discretization, constants: ConeConstants,
                  annuli, ode_tol: float, notes: list) -> list:
    """Seed each annulus, solve from the seed and deduplicate what survives.

    A solution whose norm landed outside its annulus is kept, with a note.
    """
    found = []
    for ann in annuli:
        seed = seed_from_annulus(ann, problem, min(disc.n_grid, START_POINTS))
        sol = _solve_from_seed(problem, disc, constants, seed, ann.annulus_id,
                               ode_tol, notes, (ann.r_in, ann.r_out))
        if sol is None:
            continue
        lo, hi = ann.r_in, ann.r_out
        if not (lo < sol.norm < hi):
            notes.append(
                f"{ann.annulus_id}: solution norm {sol.norm:.6g} landed outside "
                f"({lo:.6g}, {hi:.6g}); kept, it still passed every invariant"
            )
        found.append(sol)
    return _dedupe(found)


def find_solutions(problem: Problem, disc: Discretization, constants: ConeConstants,
                   ode_tol: float = ODE_TOL) -> SolveReport:
    """Seed every certified annulus of the default radius grid, solve, verify,
    deduplicate.

    Returns whatever survives (possibly nothing) plus per-annulus notes for
    everything that was attempted and dropped.
    """
    annuli = existence_report(problem, constants, default_r_grid())
    notes: list = []
    solutions = _solve_annuli(problem, disc, constants, annuli, ode_tol, notes)
    return SolveReport(solutions=solutions, annuli=annuli, notes=notes)


def continue_lambda(problem: Problem, disc: Discretization, lam_lo: float, lam_hi: float,
                    steps: int, constants: ConeConstants,
                    ode_tol: float = ODE_TOL) -> BranchTable:
    """Geometric lambda sweep with warm starts and fresh annulus seeds per step.

    Each step first refines the previous solutions at the new lambda (warm
    starts, each leveled by the one-mode equation onto its root nearest the
    previous level, exact for constant coefficients), then seeds only the
    certified annuli that no warm-start solution lies strictly inside:
    Krasnoselskii's theorem promises one solution per annulus, and a warm
    start has already found it there.  Fresh solutions are deduplicated and
    dropped when their norm matches a warm one.  A branch id follows its
    warm-start lineage: whatever the previous branch's solution converges to
    at the next lambda keeps the id, fresh solutions that nobody claims open
    new ids.  A disappearing branch is recorded, with a fold indicator when
    the vanished pair had come within 5% in norm.  Every step shares the
    collocation operators of ``disc`` and one set of radius bounds (``radius_bounds``:
    eta_r and M_hat_r do not depend on lambda), so a step's
    certification is only its margins and the pairing.
    """
    # written so that NaN fails them
    if not 0.0 < lam_lo < math.inf:
        raise DomainError("lam_lo must be positive and finite")
    if not 0.0 < lam_hi < math.inf:
        raise DomainError("lam_hi must be positive and finite")
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    table = BranchTable()
    # geomspace rounds between equal ends; they ask for one lambda
    lams = np.full(steps, lam_lo) if lam_lo == lam_hi else np.geomspace(lam_lo, lam_hi, steps)
    bounds = radius_bounds(problem, constants, default_r_grid())
    prev: list = []
    next_branch = 1
    for lam in lams:
        lam = float(lam)
        prob_l = problem.with_lam(lam)
        notes: list = []
        assigned = []  # (branch_id, solution), warm lineage first
        for bid, psol in prev:
            sol = _solve_from_seed(prob_l, disc, constants, psol.x,
                                   f"warm:{bid}", ode_tol, notes)
            if sol is None:
                continue
            sol = replace(sol, annulus_id=psol.annulus_id)
            dup = next((b for b, s in assigned if _close_norms(s.norm, sol.norm)), None)
            if dup is None:
                assigned.append((bid, sol))
            else:
                notes.append(f"branches {dup} and {bid} merged")
        uncovered = [
            ann for ann in existence_report(prob_l, constants, bounds)
            if not any(ann.r_in < s.norm < ann.r_out for _, s in assigned)
        ]
        for sol in _solve_annuli(prob_l, disc, constants, uncovered, ode_tol, notes):
            if any(_close_norms(s.norm, sol.norm) for _, s in assigned):
                continue  # a warm start already owns this solution
            assigned.append((f"b{next_branch}", sol))
            next_branch += 1

        survivors = {b for b, _ in assigned}
        lost = [b for b, _ in prev if b not in survivors]
        if lost:
            lost_norms = sorted(s.norm for b, s in prev if b in lost)
            squeezed = any(
                hi <= lo * 1.05 for lo, hi in zip(lost_norms, lost_norms[1:])
            )
            if squeezed:
                table.notes.append(
                    f"fold indicator near lambda={lam:.6g}: branch(es) "
                    f"{', '.join(lost)} vanished after norms came within 5%"
                )
            else:
                table.notes.append(
                    f"branch(es) {', '.join(lost)} lost at lambda={lam:.6g}"
                )
        for note in notes:
            table.notes.append(f"lambda={lam:.6g}: {note}")
        assigned.sort(key=lambda pair: pair[1].norm)
        for bid, sol in assigned:
            table.rows.append(BranchRow(**vars(sol), branch_id=bid))
        prev = assigned
    return table
