"""Fixed-point solvers: damped Picard, Newton refinement, multi-solution search,
and a lambda continuation sweep.

Multiplicity is captured by seeding every certified annulus separately and
deduplicating afterwards, mirroring how the existence proofs localize each
solution in its own annulus.  Picard is a heuristic warm-up (the singular
term makes the raw iteration overshoot, hence the damping); Newton on
F(x) = x - T x does the actual convergence.  Because T is linear in the
nonlinearity values, the forward-difference Jacobian assembles in closed
form from the quadrature matrices, which is identical to perturbing one
unknown at a time but costs O(n^2 N) profile evaluations instead of O(n^2 N^3).
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
from .greens import kernel_quadrature
from .operator import GridFunction, apply_T, fixed_point_residual, ode_residual
from .problem import Problem

__all__ = [
    "PicardResult",
    "NewtonResult",
    "Solution",
    "SolveReport",
    "BranchRow",
    "BranchTable",
    "seed_from_annulus",
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
FD_STEP = 1e-6


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


def _prod_norm(values: np.ndarray) -> float:
    return float(np.abs(values).max(axis=1).sum())


def seed_from_annulus(annulus, constants: ConeConstants, problem: Problem,
                      n_grid: int = 256) -> GridFunction:
    """Constant cone-interior seed with norm at the geometric mean of the annulus."""
    c = math.sqrt(annulus.r_in * annulus.r_out) / problem.n
    values = np.full((problem.n, n_grid), c)
    return GridFunction(n=problem.n, n_grid=n_grid, period=problem.period, values=values)


def picard_solve(problem: Problem, tables, x0: GridFunction) -> PicardResult:
    """Damped fixed-point iteration x <- (1-w) x + w T x.

    Stops as soon as the residual reaches the hand-off target (Newton takes
    over from there) or the iteration budget runs out.  The damping halves on
    norm overshoot, at most four times.  Micro-negative components (roundoff)
    are clamped to zero; anything worse aborts, as does a norm blow-up or a
    fall below the singularity guard.  A sign-changing e whose split
    inequality fails raises DomainError from apply_T; it is not caught here.
    """
    x = x0
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
        res = _prod_norm(x.values - tx.values)
        if res <= PICARD_TARGET:
            return PicardResult(x=x, iterations=it, residual=res, converged=True)
        if it == MAX_PICARD:
            break
        cand = (1.0 - omega) * x.values + omega * tx.values
        while _prod_norm(cand) > 2.0 * x.norm and halvings < 4:
            omega *= 0.5
            halvings += 1
            cand = (1.0 - omega) * x.values + omega * tx.values
        low = float(cand.min())
        if low < -CLAMP_TOL:
            raise DivergenceError(
                f"component went negative ({low:.3e}) at picard step {it + 1}"
            )
        if low < 0.0:
            cand = np.where(cand < 0.0, 0.0, cand)
        if _prod_norm(cand) > NORM_BLOWUP:
            raise DivergenceError(f"iterate norm exceeded {NORM_BLOWUP:.1e}")
        x = GridFunction(n=x.n, n_grid=x.n_grid, period=x.period, values=cand)
    return PicardResult(x=x, iterations=MAX_PICARD, residual=res, converged=False)


def _assemble_jacobian(problem: Problem, tables, x: GridFunction) -> np.ndarray:
    """Jacobian of F(x) = x - T x, exploiting that T is linear in the f-values.

    Perturbing the single unknown x_j(t_q) by h_q changes f_i(x(t_q)) by the
    forward difference D_ij(q); every matrix entry is then
    -lam * Q_i[p, q] * g_i(q) * D_ij(q) plus the identity.
    """
    n, n_grid = x.n, x.n_grid
    u = np.sqrt(np.sum(x.values * x.values, axis=0))
    g = problem.g_on_grid(n_grid)
    phi_u = [problem.f.phi(i, u) for i in range(n)]
    quad = [kernel_quadrature(tbl) for tbl in tables]
    jac = np.eye(n * n_grid)
    for j in range(n):
        hq = FD_STEP * (1.0 + np.abs(x.values[j]))
        u_pert = np.sqrt(u * u + 2.0 * hq * x.values[j] + hq * hq)
        for i in range(n):
            d = (problem.f.phi(i, u_pert) - phi_u[i]) / hq
            block = problem.lam * (quad[i] * (g[i] * d)[None, :])
            jac[i * n_grid:(i + 1) * n_grid, j * n_grid:(j + 1) * n_grid] -= block
    return jac


def newton_refine(problem: Problem, tables, x0: GridFunction) -> NewtonResult:
    """Newton iteration on F(x) = x - T x down to NEWTON_TOL."""
    x = x0
    history = []
    for _ in range(MAX_NEWTON + 1):
        tx = apply_T(problem, tables, x)
        fvals = x.values - tx.values
        res = _prod_norm(fvals)
        history.append(res)
        if res <= NEWTON_TOL:
            return NewtonResult(x=x, residual=res, iterations=len(history) - 1,
                                history=tuple(history))
        if len(history) > MAX_NEWTON:
            break
        jac = _assemble_jacobian(problem, tables, x)
        try:
            step = np.linalg.solve(jac, fvals.reshape(-1))
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                f"linear solve failed at residual {res:.3e}"
            ) from exc
        x = GridFunction(n=x.n, n_grid=x.n_grid, period=x.period,
                         values=x.values - step.reshape(x.n, x.n_grid))
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


def _dedupe(solutions: list) -> list:
    """Merge solutions whose norms agree to 1e-6 relative; keep the cleaner one."""
    out = []
    for sol in sorted(solutions, key=lambda s: (s.norm, s.fp_residual)):
        if out and abs(sol.norm - out[-1].norm) < DEDUPE_RTOL * max(sol.norm, out[-1].norm):
            if sol.fp_residual < out[-1].fp_residual:
                out[-1] = sol
            continue
        out.append(sol)
    return out


def _solve_from_seed(problem: Problem, tables, constants: ConeConstants,
                     seed: GridFunction, annulus_id: str, ode_tol: float, notes: list):
    start = seed
    try:
        pic = picard_solve(problem, tables, seed)
        if pic.converged:
            start = pic.x
        else:
            notes.append(
                f"{annulus_id}: picard stalled at residual {pic.residual:.3e}, "
                "handing the raw seed to newton"
            )
    except DivergenceError as exc:
        notes.append(f"{annulus_id}: picard diverged ({exc}); newton from the raw seed")
    except DomainError as exc:
        notes.append(f"{annulus_id}: picard left the admissible region ({exc}); "
                     "newton from the raw seed")
    try:
        refined = newton_refine(problem, tables, start)
    except (SingularJacobianError, NoConvergenceError, DomainError,
            SingularityError, DivergenceError) as exc:
        notes.append(f"{annulus_id}: newton failed ({exc})")
        return None
    return _verify_candidate(problem, tables, constants, refined.x, annulus_id, ode_tol, notes)


def find_solutions(problem: Problem, tables, constants: ConeConstants,
                   ode_tol: float = ODE_TOL) -> SolveReport:
    """Seed every certified annulus of the default radius grid, solve, verify,
    deduplicate.

    Returns whatever survives (possibly nothing) plus per-annulus notes for
    everything that was attempted and dropped.
    """
    annuli = existence_report(problem, constants, default_r_grid())
    n_grid = tables[0].n_grid
    notes: list = []
    found = []
    for ann in annuli:
        seed = seed_from_annulus(ann, constants, problem, n_grid)
        sol = _solve_from_seed(problem, tables, constants, seed, ann.annulus_id, ode_tol, notes)
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


def _close_norms(a: float, b: float) -> bool:
    return abs(a - b) <= DEDUPE_RTOL * max(abs(a), abs(b), 1.0)


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
    if lam_lo <= 0.0:
        raise DomainError("lam_lo must be positive")
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    table = BranchTable()
    if steps == 0:
        return table

    lams = np.geomspace(lam_lo, lam_hi, steps)
    prev: list = []
    next_branch = 1
    for lam in lams:
        lam = float(lam)
        prob_l = replace(problem, lam=lam)
        notes: list = []
        assigned = []  # (branch_id, solution), warm lineage first
        for bid, psol in prev:
            warm_id = f"warm:{bid}"
            sol = _solve_from_seed(prob_l, tables, constants, psol.x, warm_id, ode_tol, notes)
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
