"""Fixed-point solvers: Newton refinement, multi-solution search, a lambda
continuation sweep, and a standalone damped Picard iteration.

Multiplicity is captured by seeding every certified annulus separately and
deduplicating afterwards, mirroring how the existence proofs localize each
solution in its own annulus.  Newton on F(x) = x - T x starts straight from
the constant annulus seed.  Every f_i is radial, f_i(x) = phi_i(|x|_2), so
its gradient phi_i'(u) x / u has rank one at each grid point and the exact
Jacobian is I - U V with U_i = lam Q_i diag(g_i phi_i') and
V = [diag(x_j / u)].  The Newton step therefore needs only the N x N system
(I - V U) w = V F (Woodbury), not the dense (nN) x (nN) one; by Sylvester's
identity det(I - U V) = det(I - V U), so the small system is singular
exactly when the full one is.

``picard_solve`` (damped fixed-point iteration) is no part of any solve
path; it stays a standalone function until the benchmark's tracer no longer
wraps it.

Two grids: for N > COARSE_GRID, Newton runs on the kernel subsampled at
stride k (``coarse_stride``), which is the exact N/k-point table.  Its
quadrature is the only matrix a solve forms (``coarsen`` samples it from the
kernel's generators) and the only LU it factors, at most COARSE_GRID x
COARSE_GRID.  The discrete solution varies smoothly with the grid, so the
coarse fixed point, lifted to N points by zero-padded FFT interpolation, is
already close to the fine one (a two-grid Nystrom start).  The fine grid never forms an N x N matrix:
each fine step is an Atkinson-Brakhage two-grid correction, the Newton step
whose inner system is solved on the coarse grid from the restricted iterate
and residual, lifted, and back-substituted through the fine quadrature
operator (an FFT or a semiseparable product, applied from the generators).
Its error contracts by the coarse discretization error, so one correction
takes a lifted start from about 1e-8 to round-off.  A lifted start always
takes at least one correction: the interpolation error alone can already
sit below NEWTON_TOL.  An annulus whose coarse solve or corrections fail is
dropped with a note saying which.  For N <= COARSE_GRID the stride is 1 and
the coarse table is the dense form of the fine one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .certify import default_r_grid, existence_report
from .cone import ConeConstants, cone_membership
from .errors import (
    DivergenceError,
    DomainError,
    NoConvergenceError,
    SingularityError,
    SingularJacobianError,
)
from .greens import coarsen, kernel_quadrature
from .operator import (
    GridFunction,
    apply_quadrature,
    apply_T,
    fixed_point_residual,
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
    "coarse_stride",
    "lift",
    "picard_solve",
    "newton_refine",
    "find_solutions",
    "continue_lambda",
]

PICARD_TARGET = 1e-6
PICARD_DAMPING = 0.5
MAX_PICARD = 200
NEWTON_TOL = 1e-10
MAX_NEWTON = 30
# default gate on the independent second-difference residual of accepted
# solutions; loosen for problems whose solutions have large fourth derivatives
ODE_TOL = 1e-6
NORM_BLOWUP = 1e12
CLAMP_TOL = 1e-12
DEDUPE_RTOL = 1e-6
# largest grid the Newton stage runs on; finer grids get two-grid corrections
COARSE_GRID = 64
NEWTON_FAILURES = (SingularJacobianError, NoConvergenceError, DomainError,
                   SingularityError, DivergenceError)


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
class BranchRow:
    lam: float
    branch_id: str
    annulus_id: str
    norm: float
    fp_residual: float
    ode_residual: float
    cone_margin: float


@dataclass
class BranchTable:
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def seed_from_annulus(annulus, problem: Problem, n_grid: int = 256) -> GridFunction:
    """Constant cone-interior seed with norm at the geometric mean of the annulus."""
    c = math.sqrt(annulus.r_in * annulus.r_out) / problem.n
    values = np.full((problem.n, n_grid), c)
    return GridFunction(n=problem.n, n_grid=n_grid, period=problem.period, values=values)


def coarse_stride(n_grid: int) -> int:
    """Largest k <= n_grid / COARSE_GRID that divides n_grid into an even count; 1 at least."""
    for k in range(max(n_grid // COARSE_GRID, 1), 1, -1):
        if n_grid % k == 0 and (n_grid // k) % 2 == 0:
            return k
    return 1


def _coarse_tables(tables) -> list:
    """The dense tables at the coarse stride (at most COARSE_GRID points, stride 1
    included), one coarsening per distinct table."""
    k = coarse_stride(tables[0].n_grid)
    distinct = {id(tbl): tbl for tbl in tables}
    coarse = {key: coarsen(tbl, k) for key, tbl in distinct.items()}
    return [coarse[id(tbl)] for tbl in tables]


def lift(x: GridFunction, n_grid: int) -> GridFunction:
    """Trigonometric interpolation of x onto n_grid points (a multiple of x.n_grid).

    Zero-pads the real FFT; the coarse Nyquist bin is halved, because on the
    finer grid it stands for the pair of frequencies +-N_c/2.  A grid function
    already on n_grid points is returned as it is.
    """
    if n_grid == x.n_grid:
        return x
    spec = np.fft.rfft(x.values, axis=1, norm="forward")
    spec[:, -1] *= 0.5
    padded = np.zeros((x.n, n_grid // 2 + 1), dtype=complex)
    padded[:, :spec.shape[1]] = spec
    values = np.fft.irfft(padded, n=n_grid, axis=1, norm="forward")
    return GridFunction(n=x.n, n_grid=n_grid, period=x.period, values=values)


def picard_solve(problem: Problem, tables, x0: GridFunction) -> PicardResult:
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
            tx = apply_T(problem, tables, x)
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
        x = GridFunction(n=x.n, n_grid=x.n_grid, period=x.period, values=cand)
        x_norm = cand_norm
    return PicardResult(x=x, iterations=MAX_PICARD, residual=res, converged=False)


def _coupling_solve(quad, rows: np.ndarray, cols: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - sum_i diag(rows_i) Q_i diag(cols_i)) w = rhs, the N x N Newton system."""
    small = np.eye(rhs.size)
    for q, r, c in zip(quad, rows, cols):
        small -= q * r[:, None] * c
    return np.linalg.solve(small, rhs)


def _newton_step(problem: Problem, tables, x: GridFunction, fvals: np.ndarray,
                 coarse=None) -> np.ndarray:
    """Newton step s with J s = F for J = I - U V, as an (n, N) array.

    The system (I - sum_i diag(x_i/u) lam Q_i diag(g_i phi_i'(u))) w
    = sum_i (x_i/u) F_i is built from the quadrature matrices of the coarse
    tables and solved on the restriction to their grid; without coarse
    tables, the tables themselves must be dense (``coarsen`` output).  w is
    its lift, and s_i = F_i + lam Q_i (g_i phi_i'(u) w), with one operator
    application per distinct table.  With coarse tables this is the two-grid
    correction; without, the lift is the identity and the step is the exact
    N x N Newton step.
    """
    u = np.sqrt(np.sum(x.values * x.values, axis=0))
    g = problem.g_on_grid(x.n_grid)
    cols = np.vstack([problem.lam * g[i] * problem.f.dphi(i, u) for i in range(x.n)])
    rows = x.values / u
    rhs = np.sum(rows * fvals, axis=0)
    small = [kernel_quadrature(tbl).matrix for tbl in (tables if coarse is None else coarse)]
    k = x.n_grid // len(small[0])
    try:
        w = _coupling_solve(small, rows[:, ::k], cols[:, ::k], rhs[::k])
    except np.linalg.LinAlgError as exc:
        raise SingularJacobianError(
            f"linear solve failed at residual {prod_norm(fvals):.3e}"
        ) from exc
    w = lift(GridFunction(n=1, n_grid=w.size, period=x.period, values=w[None, :]),
             x.n_grid).values[0]
    return fvals + apply_quadrature(tables, cols * w)


def newton_refine(problem: Problem, tables, x0: GridFunction, coarse=None) -> NewtonResult:
    """Newton iteration on F(x) = x - T x down to NEWTON_TOL.

    Without coarse tables every step is the exact N x N Newton step, on
    dense tables; the solver takes it only on the base grid.  Given coarse tables (the fine
    ones subsampled at a stride), every step is a two-grid correction and at
    least one is taken.
    """
    x = x0
    history = []
    for _ in range(MAX_NEWTON + 1):
        tx = apply_T(problem, tables, x)
        fvals = x.values - tx.values
        res = prod_norm(fvals)
        history.append(res)
        if res <= NEWTON_TOL and (coarse is None or len(history) > 1):
            return NewtonResult(x=x, residual=res, iterations=len(history) - 1,
                                history=tuple(history))
        if len(history) > MAX_NEWTON:
            break
        step = _newton_step(problem, tables, x, fvals, coarse)
        x = GridFunction(n=x.n, n_grid=x.n_grid, period=x.period,
                         values=x.values - step)
    raise NoConvergenceError(
        f"newton stalled at residual {history[-1]:.3e} after {MAX_NEWTON} steps"
    )


def _verify_candidate(problem: Problem, tables, constants: ConeConstants,
                      x: GridFunction, annulus_id: str, ode_tol: float, notes: list):
    """Gate a Newton output through the solution invariants; None if any fails."""
    fp = fixed_point_residual(problem, tables, x)
    if fp > NEWTON_TOL * 100.0:
        notes.append(f"{annulus_id}: fixed-point residual {fp:.3e} too large, dropped")
        return None
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


def _solve_from_seed(problem: Problem, tables, coarse, constants: ConeConstants,
                     seed: GridFunction, annulus_id: str, ode_tol: float, notes: list):
    """Newton on the coarse tables straight from a coarse-grid seed (an annulus
    seed or a warm start); the lifted iterate gets two-grid corrections and is
    verified on the fine tables.  None, with a note, if Newton or the
    corrections fail."""
    try:
        x = newton_refine(problem, coarse, seed).x
    except NEWTON_FAILURES as exc:
        notes.append(f"{annulus_id}: newton failed ({exc})")
        return None
    n_fine = tables[0].n_grid
    if x.n_grid < n_fine:
        try:
            x = newton_refine(problem, tables, lift(x, n_fine), coarse=coarse).x
        except NEWTON_FAILURES as exc:
            notes.append(f"{annulus_id}: two-grid correction failed ({exc})")
            return None
    return _verify_candidate(problem, tables, constants, x, annulus_id, ode_tol, notes)


def find_solutions(problem: Problem, tables, constants: ConeConstants,
                   ode_tol: float = ODE_TOL) -> SolveReport:
    """Seed every certified annulus of the default radius grid, solve, verify,
    deduplicate.

    Returns whatever survives (possibly nothing) plus per-annulus notes for
    everything that was attempted and dropped.
    """
    annuli = existence_report(problem, constants, default_r_grid())
    coarse = _coarse_tables(tables)
    notes: list = []
    found = []
    for ann in annuli:
        seed = seed_from_annulus(ann, problem, coarse[0].n_grid)
        sol = _solve_from_seed(problem, tables, coarse, constants, seed, ann.annulus_id,
                               ode_tol, notes)
        if sol is None:
            continue
        lo, hi = ann.r_in, ann.r_out
        if not (lo < sol.norm < hi):
            notes.append(
                f"{ann.annulus_id}: solution norm {sol.norm:.6g} landed outside "
                f"({lo:.6g}, {hi:.6g}); kept, it still passed every invariant"
            )
        found.append(sol)
    return SolveReport(solutions=_dedupe(found), annuli=annuli, notes=notes)


def continue_lambda(problem: Problem, tables, lam_lo: float, lam_hi: float, steps: int,
                    constants: ConeConstants, ode_tol: float = ODE_TOL) -> BranchTable:
    """Geometric lambda sweep with warm starts and fresh annulus seeds per step.

    Warm starts (previous solutions refined at the new lambda) and fresh
    certificate-driven seeds are both attempted and deduplicated.  A branch id
    follows its warm-start lineage: whatever the previous branch's solution
    converges to at the next lambda keeps the id, fresh solutions that nobody
    claims open new ids.  A disappearing branch is recorded, with a fold
    indicator when the vanished pair had come within 5% in norm.
    """
    # written so that NaN fails them
    if not 0.0 < lam_lo < math.inf:
        raise DomainError("lam_lo must be positive and finite")
    if not 0.0 < lam_hi < math.inf:
        raise DomainError("lam_hi must be positive and finite")
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    table = BranchTable()
    if steps == 0:
        return table

    lams = np.geomspace(lam_lo, lam_hi, steps)
    coarse = _coarse_tables(tables)
    stride = tables[0].n_grid // coarse[0].n_grid
    prev: list = []
    next_branch = 1
    for lam in lams:
        lam = float(lam)
        prob_l = problem.with_lam(lam)
        notes: list = []
        assigned = []  # (branch_id, solution), warm lineage first
        for bid, psol in prev:
            warm_id = f"warm:{bid}"
            seed = GridFunction(n=psol.x.n, n_grid=coarse[0].n_grid, period=psol.x.period,
                                values=psol.x.values[:, ::stride])
            sol = _solve_from_seed(prob_l, tables, coarse, constants, seed, warm_id,
                                   ode_tol, notes)
            if sol is None:
                continue
            sol = replace(sol, annulus_id=psol.annulus_id)
            dup = next((b for b, s in assigned if _close_norms(s.norm, sol.norm)), None)
            if dup is None:
                assigned.append((bid, sol))
            else:
                notes.append(f"branches {dup} and {bid} merged")
        rep = find_solutions(prob_l, tables, constants, ode_tol)
        notes.extend(rep.notes)
        for sol in sorted(rep.solutions, key=lambda s: s.norm):
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
            table.rows.append(BranchRow(
                lam=lam,
                branch_id=bid,
                annulus_id=sol.annulus_id,
                norm=sol.norm,
                fp_residual=sol.fp_residual,
                ode_residual=sol.ode_residual,
                cone_margin=sol.cone_margin,
            ))
        prev = assigned
    return table
