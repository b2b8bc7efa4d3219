#!/usr/bin/env python3
"""Time the pipeline layer by layer, in-process, and write BENCH_<label>.json.

Each entry runs once to warm up, then --repeats times; the file records the
median and the minimum, because a small shared machine is noisy.  The
entries:

* greens: Green tables, closed form (a = 1) and RK4 (a = 1 + 0.3 cos), at
  N = 256, 1024 and 4096; the N = 4096 entries also record the peak of the
  memory Python allocates during one build (tracemalloc), in MiB
* operator: Newton's collocation matrix (D2 + a)^-1 (collocation_matrix)
  for a = 1 (the rfft multiplier applied to the identity) and
  a = 1 + 0.3 cos (the second-kind solve as well) at M = 32, the grid every
  solve starts on, and M = 256, the cap; and the ODE check (ode_residual)
  of the one solution of cor2a lambda = 8, two non-constant components, at
  N = 256, 1024 and 4096
* problem: thresholds_delta on each preset's first lambda, with the caches
  of the critical point and the per-component roots emptied before each
  call, so all of them are computed every time
* cone: compute_constants on cor1b lambda = 0.05 (tables built)
* certify: on cor1b lambda = 0.05 over the default 361 radii and over 961
  radii on [1e-8, 1e8], the whole scan (scan_radii from the grid), its
  lambda-free radius bounds alone (radius_bounds) and the per-lambda rest
  alone (existence_report from the prebuilt bounds: margins, gates and the
  pairing), the two parts a sweep separates
* solver: per certified annulus of cor1b lambda = 0.05 at N = 256, the
  Newton solve from the leveled annulus seed on Newton's 32-point grid, as
  ``find_solutions`` runs it, with its Newton step count (0: the leveled
  start is the fixed point to round-off); the same for the first annulus
  of cor2b lambda = 0.01 and of the superlinear problem with
  a = 1 + 0.3 cos at lambda = 0.05, N = 1024, whose starts take steps; and
  the Picard solve from the cor1b annulus seed itself on the 64-point
  tables, a standalone function that no solve path calls, timed for as
  long as it exists
* run: every (preset, lambda) problem at N = 256 (discretize, constants,
  find_solutions), cor1b lambda = 0.05 at N = 1024, 4096 and 2062 (twice
  a prime: no coarser even grid nests in it), and the CLI per subcommand,
  output files written to a temporary directory: ``pericone sweep`` on
  the superlinear family for lambda 0.01 -> 0.3 in 6 steps, ``green``,
  ``certify`` and ``solve`` on cor1b lambda = 0.05, and ``reproduce
  cor1b``; the same sweep in-process (continue_lambda from a built
  discretization and constants, no files); the superlinear family at
  lambda = 0.05 with sampled coefficients, config parsed (the coefficient
  audit), discretized and solved: g = 64 samples of 1 + 0.5 cos at
  N = 256, a = 256 samples of 1 + 0.3 cos at N = 1024, and a = 64 samples
  of the triangle wave 1 + 0.3 (1 - 4 min(t, 1 - t)) at N = 1024, whose
  Newton grid doubles to 256 points; the presets and
  the sweeps also record the Newton steps of one run, so a change to the
  Newton start shows up as step counts as well as time; and the tier-1
  test suite
  (``python -m pytest -q --continue-on-collection-errors`` with
  PYTHONPATH=src, from the repository root) in a subprocess

The file also records the commit of the tree the package was imported from
(null outside a git checkout), the Python and numpy versions, the CPU count
and the BLAS thread setting.  BLAS runs one thread unless OPENBLAS_NUM_THREADS
(or OMP_NUM_THREADS, MKL_NUM_THREADS) is set: with a thread per vCPU on a
2-vCPU machine, some processes ran the N = 1024 entries 3 to 7 times slower
than others.  This is a measurement, not a test gate.

    PYTHONPATH=src python scripts/bench.py --label baseline
    PYTHONPATH=src python scripts/bench.py --label smoke --repeats 1 --out /tmp
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# before numpy loads BLAS, which reads these once
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import pericone  # noqa: E402
import pericone.problem  # noqa: E402
import pericone.solver  # noqa: E402
from pericone import (  # noqa: E402
    PRESETS,
    Constant,
    FourierSeries,
    Samples,
    build_green_table,
    compute_constants,
    default_r_grid,
    discretize,
    existence_report,
    find_solutions,
    newton_refine,
    continue_lambda,
    ode_residual,
    parse_config,
    picard_solve,
    radius_bounds,
    scan_radii,
    seed_from_annulus,
    symmetric_config,
    thresholds_delta,
)
from pericone.cli import main as cli_main  # noqa: E402
from pericone.operator import collocation_matrix  # noqa: E402
from pericone.solver import START_POINTS, _level_start  # noqa: E402


def _time(fn, repeats):
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return {"median_s": statistics.median(samples), "min_s": min(samples),
            "repeats": repeats}


def _peak_mib(fn):
    """Peak of the memory Python allocates during one call of fn, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _setup(preset, lam, n_grid=256):
    problem = parse_config(PRESETS[preset].config(lam, n_grid)).problem
    disc = discretize(problem, n_grid)
    return problem, disc, compute_constants(disc, problem)


def _uncached_thresholds(problem, sigma):
    def run():
        pericone.problem._critical_point.cache_clear()
        pericone.problem._branch_root.cache_clear()
        return thresholds_delta(problem, sigma)
    return run


def _cli(argv):
    """One CLI run with stdout discarded; a nonzero exit code stops the bench,
    because it would time an error path."""
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
        if code != 0:
            raise RuntimeError(f"pericone {' '.join(argv)} exited with {code}")
    return run


def _newton_steps(fn):
    """Newton steps of one run of fn, counted by wrapping
    ``pericone.solver.newton_refine`` for that run."""
    real = pericone.solver.newton_refine
    steps = {"newton_steps": 0}

    def count(problem, disc, x0):
        res = real(problem, disc, x0)
        steps["newton_steps"] += res.iterations
        return res

    pericone.solver.newton_refine = count
    try:
        fn()
    finally:
        pericone.solver.newton_refine = real
    return steps


def _test_suite():
    """The tier-1 test command in a fresh interpreter, output discarded; a
    failing suite stops the bench, because it would time a failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    code = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=REPO, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    if code != 0:
        raise RuntimeError(f"the tier-1 test suite exited with {code}")


def _leveled_starts(problem, n_grid):
    """Newton's first operator for ``problem`` at n_grid points and (annulus,
    leveled seed) per certified annulus: the starts of ``find_solutions``'s
    Newton loops."""
    disc = discretize(problem, n_grid)
    op = disc.collocation(START_POINTS)
    starts = []
    for ann in existence_report(problem, compute_constants(disc, problem), default_r_grid()):
        seed = seed_from_annulus(ann, problem, START_POINTS)
        starts.append((ann, _level_start(problem, op, seed, (ann.r_in, ann.r_out))))
    return op, starts


def _newton_entry(problem, op, start, repeats):
    return dict(_time(lambda: newton_refine(problem, op, start), repeats),
                newton_steps=newton_refine(problem, op, start).iterations)


def _solver_entries(repeats):
    """Newton from the leveled seed and Picard per annulus of cor1b
    lambda=0.05, and Newton from the leveled seed of the first annulus of
    cor2b lambda=0.01 and of the superlinear a = 1 + 0.3 cos problem."""
    problem = parse_config(PRESETS["cor1b"].config(0.05)).problem
    op, starts = _leveled_starts(problem, 256)
    base_disc = discretize(problem, 64)
    out = {}
    for ann, start in starts:
        base_seed = seed_from_annulus(ann, problem, 64)
        tag = f"cor1b@0.05/{ann.annulus_id}"

        def picard():
            try:
                return picard_solve(problem, base_disc, base_seed)
            except pericone.DivergenceError:
                return None

        pic = picard()
        out[f"solver.picard[{tag}]"] = dict(
            _time(picard, repeats),
            outcome="diverged" if pic is None else
            ("converged" if pic.converged else "stalled"))
        out[f"solver.newton[{tag}]"] = _newton_entry(problem, op, start, repeats)
    # the cor1b starts are fixed points to round-off and take no Newton
    # step; cor2b's sign-changing e and the variable a make their solutions
    # non-constant, so these starts time the Newton steps themselves
    var_a = symmetric_config(1.0, 2.0, 0.05, n_grid=1024)
    var_a["a"] = [{"fourier": {"c0": 1.0, "cos": [0.3], "sin": []}}] * 2
    for tag, cfg, n_grid in (("cor2b@0.01", PRESETS["cor2b"].config(0.01), 256),
                             ("var-a@0.05/N1024", var_a, 1024)):
        problem = parse_config(cfg).problem
        op, starts = _leveled_starts(problem, n_grid)
        ann, start = starts[0]
        out[f"solver.newton[{tag}/{ann.annulus_id}]"] = _newton_entry(
            problem, op, start, repeats)
    return out


def _run_entries(repeats):
    problems = [parse_config(PRESETS[name].config(lam)).problem
                for name in sorted(PRESETS) for lam in PRESETS[name].lambdas]
    ode_tols = [PRESETS[name].ode_tol
                for name in sorted(PRESETS) for _ in PRESETS[name].lambdas]

    def presets():
        for problem, ode_tol in zip(problems, ode_tols):
            disc = discretize(problem, 256)
            find_solutions(problem, disc, compute_constants(disc, problem), ode_tol)

    def fine_grid(n_grid):
        fine = parse_config(PRESETS["cor1b"].config(0.05, n_grid)).problem

        def run():
            disc = discretize(fine, n_grid)
            find_solutions(fine, disc, compute_constants(disc, fine))
        return run

    def sampled(key, values, n_grid):
        cfg = symmetric_config(1.0, 2.0, 0.05, n_grid=n_grid)
        cfg[key] = [{"samples": values.tolist()}] * 2

        def run():
            problem = parse_config(cfg).problem
            disc = discretize(problem, n_grid)
            find_solutions(problem, disc, compute_constants(disc, problem))
        return run

    swept = parse_config(symmetric_config(1.0, 2.0, 0.01)).problem
    swept_disc = discretize(swept, 256)
    swept_constants = compute_constants(swept_disc, swept)

    def sweep_in_process():
        continue_lambda(swept, swept_disc, 0.01, 0.3, 6, swept_constants)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        superlinear = tmp / "superlinear.json"
        superlinear.write_text(json.dumps(symmetric_config(1.0, 2.0, 0.01)))
        cor1b = tmp / "cor1b.json"
        cor1b.write_text(json.dumps(PRESETS["cor1b"].config(0.05)))
        sweep_args = ["sweep", "--config", str(superlinear), "--lmin", "0.01", "--lmax", "0.3",
                      "--steps", "6", "--out", str(tmp / "sweep")]
        sweep = _cli(sweep_args)
        timings = {
            "run.presets[8 problems]": dict(_time(presets, repeats), **_newton_steps(presets)),
            "run.cli_sweep[superlinear 0.01->0.3, 6 steps]": dict(
                _time(sweep, repeats), **_newton_steps(sweep)),
            "run.continue_lambda[superlinear 0.01->0.3, 6 steps]": dict(
                _time(sweep_in_process, repeats), **_newton_steps(sweep_in_process)),
        }
        for cmd in ("green", "certify", "solve"):
            timings[f"run.cli_{cmd}[cor1b@0.05]"] = _time(
                _cli([cmd, "--config", str(cor1b), "--out", str(tmp / cmd)]), repeats)
        timings["run.cli_reproduce[cor1b]"] = _time(
            _cli(["reproduce", "cor1b", "--out", str(tmp / "reproduce")]), repeats)
    timings["run.fine_grid[cor1b@0.05/N1024]"] = _time(fine_grid(1024), repeats)
    timings["run.fine_grid[cor1b@0.05/N4096]"] = _time(fine_grid(4096), repeats)
    timings["run.fine_grid[cor1b@0.05/N2062]"] = _time(fine_grid(2062), repeats)
    def cosine(amplitude, count):
        return 1.0 + amplitude * np.cos(2.0 * np.pi * np.arange(count) / count)

    nodes = np.arange(64) / 64
    triangle = 1.0 + 0.3 * (1.0 - 4.0 * np.minimum(nodes, 1.0 - nodes))
    timings["run.samples[g 64 samples@0.05/N256]"] = _time(
        sampled("g", cosine(0.5, 64), 256), repeats)
    timings["run.samples[a 256 samples@0.05/N1024]"] = _time(
        sampled("a", cosine(0.3, 256), 1024), repeats)
    timings["run.samples[a 64-sample triangle@0.05/N1024]"] = _time(
        sampled("a", triangle, 1024), repeats)
    timings["run.test_suite[tier-1]"] = _time(_test_suite, repeats)
    return timings


def measure(repeats):
    timings = {}
    for n_grid in (256, 1024, 4096):
        for name, coef in (("closed_form", Constant(1.0)), ("rk4", FourierSeries(1.0, (0.3,)))):
            def build():
                return build_green_table(coef, n_grid)
            entry = timings[f"greens.{name}[N{n_grid}]"] = _time(build, repeats)
            if n_grid == 4096:
                entry["peak_mib"] = _peak_mib(build)
    # a constant given as samples is the constant: the closed form, not RK4
    ones = Samples(np.full(64, 1.0))
    timings["greens.build_green_table[a=1 as 64 samples/N4096]"] = _time(
        lambda: build_green_table(ones, 4096), repeats)
    # a constant outside (0, (pi/T)^2) goes to RK4: a translation-invariant
    # kernel, whose grid maximum lies on a whole line of nodes
    ridge = Constant(12.0)
    timings["greens.build_green_table[a=12 RK4 ridge/N4096]"] = _time(
        lambda: build_green_table(ridge, 4096), repeats)
    for name, coef in (("a=1", Constant(1.0)), ("a=1+0.3cos", FourierSeries(1.0, (0.3,)))):
        for m in (START_POINTS, 256):
            timings[f"operator.collocation_matrix[{name}/M{m}]"] = _time(
                lambda: collocation_matrix(coef, m), repeats)
    for n_grid in (256, 1024, 4096):
        problem, disc, constants = _setup("cor2a", 8.0, n_grid)
        [sol] = find_solutions(problem, disc, constants).solutions
        timings[f"operator.ode_residual[cor2a@8/N{n_grid}]"] = _time(
            lambda: ode_residual(problem, sol.x), repeats)
    for name in sorted(PRESETS):
        lam = PRESETS[name].lambdas[0]
        problem, _, constants = _setup(name, lam)
        timings[f"problem.thresholds_delta[{name}@{lam:g}]"] = _time(
            _uncached_thresholds(problem, constants.sigma), repeats)
    problem, disc, constants = _setup("cor1b", 0.05)
    timings["cone.compute_constants[cor1b@0.05]"] = _time(
        lambda: compute_constants(disc, problem), repeats)
    for r_grid in (default_r_grid(), default_r_grid(1e-8, 1e8)):
        tag = f"cor1b@0.05/{r_grid.size} radii"
        bounds = radius_bounds(problem, constants, r_grid)
        timings[f"certify.scan_radii[{tag}]"] = _time(
            lambda: scan_radii(problem, constants, r_grid), repeats)
        timings[f"certify.radius_bounds[{tag}]"] = _time(
            lambda: radius_bounds(problem, constants, r_grid), repeats)
        timings[f"certify.per_lambda[{tag}]"] = _time(
            lambda: existence_report(problem, constants, bounds), repeats)
    timings.update(_solver_entries(repeats))
    timings.update(_run_entries(repeats))
    return timings


def _git(*args):
    here = Path(pericone.__file__).resolve().parent
    try:
        done = subprocess.run(["git", "-C", str(here), *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="local", help="file name part: BENCH_<label>.json")
    ap.add_argument("--repeats", type=int, default=10, help="timed runs per entry")
    ap.add_argument("--out", default=".", help="directory for the JSON file")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    wall = time.perf_counter()
    timings = measure(args.repeats)
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    doc = {
        "label": args.label,
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "repeats": args.repeats,
        "wall_s": time.perf_counter() - wall,
        "timings": timings,
    }
    path = Path(args.out) / f"BENCH_{args.label}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    width = max(len(name) for name in timings)
    for name, t in timings.items():
        peak = f"  peak {t['peak_mib']:7.1f} MiB" if "peak_mib" in t else ""
        steps = f"  newton steps {t['newton_steps']}" if "newton_steps" in t else ""
        print(f"{name:<{width}}  median {1e3 * t['median_s']:9.3f} ms  "
              f"min {1e3 * t['min_s']:9.3f} ms{peak}{steps}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
