"""The benchmark's workloads: which problems each pass runs, and why.

A workload is a list of distinct problems.  One pass runs the whole list, in
an order shuffled by the workload seed, inside one fresh interpreter; the
program sees only the config files written here and CLI arguments.  No
problem repeats within a pass, so a cache inside the program can only carry
over between distinct problems, never make an identical re-solve look fast.

Why these three:

- ``presets``: the paper's reproduction set, ``pericone solve`` on every
  (preset, lambda) of the four ``PRESETS`` at N=256, each with its preset's
  ode_tol and expected count read from ``PRESETS`` when the pass starts.  The
  certificate scan dominates (``problem.eta_lower`` ~69% self, Newton ~21%,
  Green tables ~1%); this is where the exact, lambda-factored scan must show.
- ``sweep``: ``pericone sweep`` on the superlinear family (alpha=1, beta=2,
  e=0) for lambda 0.01 -> 0.3 in 6 steps at the default ``--jobs``.  Tables
  and constants are built once and the scan runs 6 x 361 radii on the same
  tables, so lambda-independent work can be factored out; the upper-branch
  Picard diverges on every step, and at lambda=0.3 only the warm starts carry
  both branches.
- ``fine_grid``: ``pericone solve`` at N=1024 on cor1b lambda=0.05 (constant
  a, closed-form table) and a(t)=1+0.3cos(2 pi t) (RK4 monodromy tables) for
  the superlinear problem at lambda=0.05 and the sublinear one at lambda=1.
  The dense Newton step (2048^2 LU), the RK4 tables and the N x N quadrature
  rebuilds carry the time; the scan drops to about a quarter.  Both
  variable-a problems lose a solution to the 1e-6 ODE-residual gate at the
  seed commit (second-order stencil); they stay in and count as failures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

SUPERLINEAR = (1.0, 2.0)
SUBLINEAR = (0.5, 0.5)
VARIABLE_A = {"fourier": {"c0": 1.0, "cos": [0.3], "sin": []}}
SWEEP_LAMBDAS = (0.01, 0.3, 6)
DEFAULT_ODE_TOL = 1e-6

WORKLOADS = ("presets", "sweep", "fine_grid")

@dataclass
class Problem:
    """One operation list entry: a config, the CLI arguments, what must come out."""

    pid: str
    kind: str  # "solve" | "sweep"
    config: dict
    args: list = field(default_factory=list)
    # solutions the regime clause promises: per problem for solve, per step for sweep
    expected: int = 1


def symmetric_config(alpha: float, beta: float, lam: float, n_grid: int,
                     a_spec=None, e_spec=None) -> dict:
    """n=2 config x_i'' + a x_i = lam (u^-alpha + u^beta + e), g = 1."""
    a_spec = a_spec if a_spec is not None else {"constant": 1.0}
    e_spec = e_spec if e_spec is not None else {"constant": 0.0}
    terms = [{"c": 1.0, "p": -alpha}, {"c": 1.0, "p": beta}]
    return {
        "n": 2, "T": 1.0, "lambda": lam, "N": n_grid,
        "a": [a_spec, a_spec],
        "g": [{"constant": 1.0}, {"constant": 1.0}],
        "e": [e_spec, e_spec],
        "f": [terms, terms],
    }


def sweep_lambdas() -> list:
    """The geometric lambda grid ``pericone sweep`` is asked to follow."""
    lo, hi, steps = SWEEP_LAMBDAS
    ratio = math.log(hi / lo) / (steps - 1)
    return [lo * math.exp(k * ratio) for k in range(steps)]


def build(name: str) -> list:
    """Problem list of a workload; imports the package's PRESETS for ``presets``."""
    if name == "presets":
        from pericone.benchmarks import PRESETS

        out = []
        for pname in sorted(PRESETS):
            preset = PRESETS[pname]
            for lam in preset.lambdas:
                out.append(Problem(
                    pid=f"{pname}@{lam:g}", kind="solve",
                    config=preset.config(lam, 256),
                    args=["--ode-tol", repr(preset.ode_tol)],
                    expected=preset.expected_count,
                ))
        return out
    if name == "sweep":
        lo, hi, steps = SWEEP_LAMBDAS
        return [Problem(
            pid="superlinear-sweep", kind="sweep",
            config=symmetric_config(*SUPERLINEAR, lo, 256),
            args=["--lmin", repr(lo), "--lmax", repr(hi), "--steps", str(steps)],
            expected=2,
        )]
    if name == "fine_grid":
        from pericone.benchmarks import PRESETS

        cor1b = PRESETS["cor1b"]
        return [
            Problem(pid="cor1b@0.05/N1024", kind="solve",
                    config=cor1b.config(0.05, 1024),
                    args=["--ode-tol", repr(cor1b.ode_tol)],
                    expected=cor1b.expected_count),
            # superlinear singular: two solutions for small lambda
            Problem(pid="superlinear-var-a@0.05/N1024", kind="solve",
                    config=symmetric_config(*SUPERLINEAR, 0.05, 1024, a_spec=VARIABLE_A),
                    args=["--ode-tol", repr(DEFAULT_ODE_TOL)], expected=2),
            # sublinear singular, e = 0: one solution at every lambda
            Problem(pid="sublinear-var-a@1/N1024", kind="solve",
                    config=symmetric_config(*SUBLINEAR, 1.0, 1024, a_spec=VARIABLE_A),
                    args=["--ode-tol", repr(DEFAULT_ODE_TOL)], expected=1),
        ]
    raise ValueError(f"unknown workload {name!r}")
