import copy
import math
from dataclasses import replace

import numpy as np
import pytest

from pericone import (
    PRESETS,
    Constant,
    DivergenceError,
    DomainError,
    FourierSeries,
    NoConvergenceError,
    GridFunction,
    Discretization,
    PowerLawRadial,
    Problem,
    SingularityError,
    apply_T,
    build_green_table,
    compute_constants,
    cone_membership,
    continue_lambda,
    discretize,
    find_solutions,
    fixed_point_residual,
    ode_residual,
    newton_refine,
    parse_config,
    kernel_quadrature,
    picard_solve,
    resample,
    seed_from_annulus,
    symmetric_config,
)
import pericone.certify as certify_mod
import pericone.operator as operator_mod
import pericone.problem as problem_mod
import pericone.solver as solver_mod
from pericone.benchmarks import MIXED_E
from pericone.certify import default_r_grid, existence_report
from pericone.solver import _newton_step

import oracles
from conftest import SUBLINEAR_TERMS, SUPERLINEAR_TERMS, make_problem

FOLD_LAMBDA = 2.0 ** (1.0 / 6.0) / 3.0  # where the two constant roots merge


class FakeAnnulus:
    def __init__(self, r_in, r_out):
        self.r_in = r_in
        self.r_out = r_out


def test_seed_geometry(superlinear_small):
    prob, cc = superlinear_small
    seed = seed_from_annulus(FakeAnnulus(0.1, 1.0), prob, 256)
    target = math.sqrt(0.1 * 1.0)
    assert abs(seed.norm - target) <= 1e-12
    assert np.allclose(seed.values, target / 2.0)
    assert cone_membership(seed, cc.sigma).member


def test_picard_accepts_fixed_seed(bench_disc, superlinear_small):
    prob, cc = superlinear_small
    lo, _ = oracles.constant_solution_norms(SUPERLINEAR_TERMS, prob.lam)
    seed = seed_from_annulus(FakeAnnulus(lo, lo), prob, 256)
    res = picard_solve(prob, bench_disc, seed)
    assert res.converged
    assert res.iterations == 0


def test_picard_converges_sublinear(bench_disc, sublinear_unit):
    prob, cc = sublinear_unit
    seed = seed_from_annulus(FakeAnnulus(1.0, 10.0), prob, 256)
    res = picard_solve(prob, bench_disc, seed)
    assert res.converged
    assert res.residual <= 1e-6
    (norm,) = oracles.constant_solution_norms(SUBLINEAR_TERMS, prob.lam)
    assert abs(res.x.norm - norm) <= 1e-4


def _picard_problems():
    """The 8 preset problems and the 6 lambda of the superlinear sweep, at N=256."""
    for name in sorted(PRESETS):
        for lam in PRESETS[name].lambdas:
            yield parse_config(PRESETS[name].config(lam, 256)).problem
    for lam in np.geomspace(0.01, 0.3, 6):
        yield make_problem(1.0, 2.0, float(lam))


def test_picard_matches_reference_loop(monkeypatch):
    # every iterate, the step count, the residual and every exception of
    # picard_solve, bitwise, against the loop that recomputes each norm
    real_apply = solver_mod.apply_T
    applied = []

    def record(problem, disc, x):
        applied.append(x.values)
        return real_apply(problem, disc, x)

    monkeypatch.setattr(solver_mod, "apply_T", record)
    outcomes = {"converged": 0, "stalled": 0, "raised": 0}
    for prob in _picard_problems():
        disc = discretize(prob, 256)
        # Picard iterates on the Nystrom tables of a 64-point discretization
        tables64 = discretize(prob, 64)
        cc = compute_constants(disc, prob)
        for ann in existence_report(prob, cc, default_r_grid()):
            seed = seed_from_annulus(ann, prob, tables64.n_grid)

            def apply(values):
                x = GridFunction(values, prob.period)
                return real_apply(prob, tables64, x).values

            applied.clear()
            try:
                ref = oracles.picard_reference(apply, seed.values, SingularityError)
            except Exception as exc:  # noqa: BLE001 - compared below
                ref, ref_exc = None, exc
            try:
                got = picard_solve(prob, tables64, seed)
            except Exception as exc:  # noqa: BLE001 - compared below
                assert ref is None, f"{ann.annulus_id}: solver raised, reference did not"
                if isinstance(ref_exc, oracles.PicardAbort):
                    assert type(exc) is DivergenceError
                    ref_iterates = ref_exc.iterates
                else:
                    assert type(exc) is type(ref_exc)
                    ref_iterates = None
                assert str(exc) == str(ref_exc)
                outcomes["raised"] += 1
            else:
                assert ref is not None, f"{ann.annulus_id}: reference raised {ref_exc!r}"
                ref_iterates, iterations, residual, converged = ref
                assert got.iterations == iterations
                assert got.residual == residual
                assert got.converged is converged
                assert got.x.values.tobytes() == ref_iterates[-1].tobytes()
                outcomes["converged" if converged else "stalled"] += 1
            if ref_iterates is not None:
                assert len(applied) == len(ref_iterates)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(applied, ref_iterates))
    assert outcomes["converged"] >= 1 and outcomes["raised"] >= 1


@pytest.fixture
def collocation32():
    """Newton's operator of the bench discretization on 32 points."""
    return discretize(make_problem(1.0, 2.0, 0.05), 256).collocation(32)


def test_newton_polishes_to_tolerance(bench_disc, collocation32, sublinear_unit):
    # Picard on the 256-point tables hands over to Newton on 32 points,
    # each step the exact one
    prob, cc = sublinear_unit
    seed = seed_from_annulus(FakeAnnulus(1.0, 10.0), prob, 256)
    pic = picard_solve(prob, bench_disc, seed)
    ref = newton_refine(prob, collocation32, GridFunction(resample(pic.x.values, 32), 1.0))
    assert ref.residual <= 1e-10
    assert ref.iterations <= 6
    # once close, each step is at least superlinear
    small = [r for r in ref.history if r <= 1e-4]
    assert all(b <= max(a ** 1.5, 1e-14) for a, b in zip(small, small[1:]))


def test_newton_reconverges_after_perturbation(collocation32, sublinear_unit):
    # the constant solution is exact on the collocation grid: Newton returns
    # to the oracle root to round-off
    prob, cc = sublinear_unit
    (norm,) = oracles.constant_solution_norms(SUBLINEAR_TERMS, prob.lam)
    rng = np.random.default_rng(5)
    c = norm / 2.0
    vals = c * (1.0 + 1e-3 * rng.standard_normal((2, 32)))
    x0 = GridFunction(vals, 1.0)
    ref = newton_refine(prob, collocation32, x0)
    assert ref.iterations <= 5
    assert abs(ref.x.norm - norm) <= 1e-13 * norm


def _dense_newton_step(problem, quads, x, fvals):
    """Reference step: the full (nN) x (nN) exact Jacobian of F = x - T x.

    Block (i, j) is delta_ij I - lam Q_i diag(g_i phi_i'(u) x_j / u), with
    phi_i' summed from the power-law terms here, independently of dphi.
    """
    n, n_grid = x.n, x.n_grid
    u = np.sqrt(np.sum(x.values ** 2, axis=0))
    g = problem.g_on_grid(n_grid)
    jac = np.eye(n * n_grid)
    for i, quad in enumerate(quads):
        dphi = sum(c * p * u ** (p - 1.0) for c, p in problem.f.terms[i])
        for j in range(n):
            col = g[i] * dphi * x.values[j] / u
            jac[i * n_grid:(i + 1) * n_grid, j * n_grid:(j + 1) * n_grid] -= (
                problem.lam * quad * col[None, :])
    return np.linalg.solve(jac, fvals.reshape(-1)).reshape(n, n_grid)


def _three_component_problem():
    a = (Constant(1.0), Constant(2.0), FourierSeries(1.0, (0.3,), ()))
    return Problem(
        n=3, period=1.0, a=a,
        g=(Constant(1.0), FourierSeries(1.0, (0.5,), ()), Constant(2.0)),
        e=(Constant(0.1), Constant(0.0), FourierSeries(0.2, (), (0.1,))),
        f=PowerLawRadial((((1.0, -1.0), (1.0, 2.0)),
                          ((0.5, -0.5), (2.0, 0.5)),
                          ((1.0, -2.0), (0.3, 3.0)))),
        lam=0.2,
    )


@pytest.mark.parametrize("case", ["n2-unequal", "n3", "mixed-e"])
def test_newton_step_matches_dense_solve(case):
    # the step on Newton's 32-point grid of a 64-point discretization
    # against the dense (nM) x (nM) Jacobian of the same collocation system,
    # its operators the oracle's plain inverse of D2 + diag(a), which loses
    # about M^2 eps
    n_grid = 32
    t = np.arange(n_grid) / n_grid
    wave = np.cos(2.0 * math.pi * t)
    if case == "n3":
        prob = _three_component_problem()
        vals = np.stack([0.4 + 0.1 * wave, 0.2 - 0.05 * np.sin(2.0 * math.pi * t),
                         0.3 + 0.15 * wave ** 2])
    else:
        e_spec = {"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}} if case == "mixed-e" else None
        prob = make_problem(1.0, 2.0, 0.05, e_spec=e_spec, n_grid=n_grid)
        prob = replace(prob, a=(Constant(1.0), Constant(2.0)))
        vals = np.stack([0.3 + 0.1 * wave, 0.1 + 0.02 * np.sin(4.0 * math.pi * t)])
    op = discretize(prob, 64).collocation(n_grid)
    dense = [oracles.collocation_inverse(oracles.coefficient_value(coef, t), 1.0)
             for coef in prob.a]
    x = GridFunction(vals, 1.0)
    fvals = x.values - apply_T(prob, op, x).values
    ref = _dense_newton_step(prob, dense, x, fvals)
    step = _newton_step(prob, op, x, fvals)
    assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_two_solutions_superlinear(bench_disc, superlinear_small):
    prob, cc = superlinear_small
    report = find_solutions(prob, bench_disc, cc)
    assert len(report.solutions) == 2
    lo, hi = oracles.constant_solution_norms(SUPERLINEAR_TERMS, prob.lam)
    got = sorted(s.norm for s in report.solutions)
    assert abs(got[0] - lo) <= 1e-8
    assert abs(got[1] - hi) <= 1e-8
    for sol in report.solutions:
        assert sol.fp_residual <= 1e-8
        assert sol.ode_residual <= 1e-6
        assert sol.positive_min > 0.0
        assert sol.cone_margin >= -1e-10
        # profiles are genuinely constant in t
        c = sol.norm / 2.0
        assert np.max(np.abs(sol.x.values - c)) <= 1e-8
    assert {s.annulus_id for s in report.solutions} == {"A1", "A2"}


def test_no_solution_superlinear_lambda_one(bench_disc):
    prob = make_problem(1.0, 2.0, 1.0)
    cc = compute_constants(bench_disc, prob)
    assert not oracles.has_constant_solution(SUPERLINEAR_TERMS, 1.0)
    report = find_solutions(prob, bench_disc, cc)
    assert report.annuli == []
    assert report.solutions == []


def test_sublinear_matches_oracle(bench_disc):
    for lam in (0.1, 1.0, 10.0):
        prob = make_problem(0.5, 0.5, lam)
        cc = compute_constants(bench_disc, prob)
        report = find_solutions(prob, bench_disc, cc)
        assert len(report.solutions) == 1
        (norm,) = oracles.constant_solution_norms(SUBLINEAR_TERMS, lam)
        sol = report.solutions[0]
        assert abs(sol.norm - norm) <= 1e-8
        ann = report.annuli[0]
        assert ann.r_in < sol.norm < ann.r_out


def test_mixed_two_solutions(bench_disc):
    prob = make_problem(1.0, 2.0, 0.01,
                        e_spec={"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}})
    cc = compute_constants(bench_disc, prob)
    report = find_solutions(prob, bench_disc, cc)
    assert len(report.solutions) == 2
    for sol in report.solutions:
        assert sol.fp_residual <= 1e-8
        assert sol.ode_residual <= 1e-6
        assert sol.positive_min > 0.0
        assert cone_membership(sol.x, cc.sigma).member


def test_grid_robustness():
    norms = {}
    for n_grid in (128, 256):
        prob = make_problem(1.0, 2.0, 0.05, n_grid=n_grid)
        disc = discretize(prob, n_grid)
        cc = compute_constants(disc, prob)
        report = find_solutions(prob, disc, cc)
        norms[n_grid] = sorted(s.norm for s in report.solutions)
    assert len(norms[128]) == len(norms[256]) == 2
    for a, b in zip(norms[128], norms[256]):
        assert abs(a - b) <= 1e-5


def test_branch_sweep_sublinear(bench_disc, sublinear_unit):
    prob, cc = sublinear_unit
    table = continue_lambda(prob, bench_disc, 0.1, 10.0, 5, constants=cc)
    ids = {row.branch_id for row in table.rows}
    assert ids == {"b1"}
    lams = [row.lam for row in table.rows]
    assert lams == sorted(lams)
    assert len(table.rows) == 5
    norms = [row.norm for row in table.rows]
    assert all(a < b for a, b in zip(norms, norms[1:]))
    for row in table.rows:
        assert row.fp_residual <= 1e-8
        (expect,) = oracles.constant_solution_norms(SUBLINEAR_TERMS, row.lam)
        assert abs(row.norm - expect) <= 1e-7
        # a row is the solution at row.lam, kept whole
        assert row.norm == row.x.norm


def test_branch_sweep_superlinear_fold(bench_disc, superlinear_small):
    prob, cc = superlinear_small
    table = continue_lambda(prob, bench_disc, 0.05, 0.5, 6, constants=cc)
    by_lam = {}
    for row in table.rows:
        by_lam.setdefault(row.lam, []).append(row)
    # the oracle says where the pair of constant roots ceases to exist
    lams = [float(l) for l in np.geomspace(0.05, 0.5, 6)]
    assert lams[-1] > FOLD_LAMBDA  # the sweep really crossed the fold
    for lam in lams:
        expected = len(oracles.constant_solution_norms(SUPERLINEAR_TERMS, lam))
        assert len(by_lam.get(lam, [])) == expected, lam
    # both branches survive to the last pre-fold step under their original ids
    pre_fold = by_lam[lams[-2]]
    assert {row.branch_id for row in pre_fold} == {"b1", "b2"}
    assert any(("lost" in n) or ("fold" in n) for n in table.notes)


def test_sweep_argument_validation(bench_disc, sublinear_unit):
    prob, cc = sublinear_unit
    empty = continue_lambda(prob, bench_disc, 0.1, 1.0, 0, constants=cc)
    assert empty.rows == []
    with pytest.raises(DomainError):
        continue_lambda(prob, bench_disc, 0.0, 1.0, 3, constants=cc)


@pytest.mark.parametrize("lam_lo, lam_hi", [
    (math.nan, 1.0), (math.inf, 1.0), (-0.1, 1.0),
    (0.1, math.nan), (0.1, math.inf), (0.1, 0.0), (0.1, -1.0),
])
@pytest.mark.parametrize("steps", [0, 3])
def test_sweep_rejects_bad_lambda_ends(bench_disc, sublinear_unit, lam_lo, lam_hi, steps):
    prob, cc = sublinear_unit
    with pytest.raises(DomainError):
        continue_lambda(prob, bench_disc, lam_lo, lam_hi, steps, constants=cc)


def test_resample_is_exact_on_constants():
    x = np.array([[0.37] * 64, [19.99] * 64])
    for n_grid in (256, 96):
        assert np.array_equal(resample(x, n_grid), np.array([[0.37] * n_grid, [19.99] * n_grid]))
    assert resample(x, 64) is x


def _trig_polynomial(t):
    # frequencies up to the 64-point Nyquist bin, whose cosine the halving keeps
    return (1.0 + 0.3 * np.cos(2 * np.pi * t) + 0.2 * np.sin(10 * np.pi * t)
            + 0.1 * np.cos(62 * np.pi * t + 0.4) + 0.05 * np.cos(64 * np.pi * t))


def test_resample_interpolates_trig_polynomials():
    # onto a multiple of 64 points and onto counts that are not one
    coarse = _trig_polynomial(np.arange(64) / 64)
    for n_grid in (256, 96, 2062):
        fine = resample(coarse, n_grid)
        assert fine.shape == (n_grid,)
        assert np.max(np.abs(fine - _trig_polynomial(np.arange(n_grid) / n_grid))) <= 1e-13


@pytest.mark.parametrize("n_grid", [96, 130, 2062])
def test_resample_down_inverts_up(n_grid):
    # a 64-point function resampled up and back, and a band-limited N-point
    # function resampled down and back, return to round-off
    rng = np.random.default_rng(n_grid)
    base = rng.uniform(0.5, 2.0, (2, 64))
    fine = resample(base, n_grid)
    back = resample(fine, 64)
    assert np.max(np.abs(back - base)) <= 1e-15 * np.max(np.abs(base))
    again = resample(back, n_grid)
    assert np.max(np.abs(again - fine)) <= 1e-15 * np.max(np.abs(fine))


@pytest.mark.parametrize("n_grid", [96, 130, 256, 2062])
def test_resample_truncation_is_exact_below_half_the_base_grid(n_grid):
    # restriction keeps every frequency below 32 (the 64-point Nyquist) and
    # drops the ones above it; at 32 it keeps the cosine the pair aliases to
    # on the 64-point grid.  On its nodes the kept part is the function
    # itself
    def low(t):
        return 1.0 + 0.3 * np.cos(2 * np.pi * t) + 0.2 * np.sin(14 * np.pi * t + 0.3) \
            + 0.1 * np.cos(62 * np.pi * t + 0.4) + 0.25 * np.cos(64 * np.pi * t + 0.6)

    t_fine = np.arange(n_grid) / n_grid
    got = resample(low(t_fine) + 0.07 * np.cos(80 * np.pi * t_fine), 64)
    assert np.max(np.abs(got - low(np.arange(64) / 64))) <= 1e-14


def _var_a_config(alpha, beta, lam, n_grid):
    cfg = symmetric_config(alpha, beta, lam, n_grid=n_grid)
    cfg["a"] = [{"fourier": {"c0": 1.0, "cos": [0.3], "sin": []}}] * 2
    return cfg


@pytest.mark.parametrize("config_of, alpha, beta, lam, n_grid, count", [
    (symmetric_config, 1.0, 2.0, 0.05, 512, 2),  # cor1b, closed-form table
    (_var_a_config, 1.0, 2.0, 0.05, 512, 2),     # RK4 table
    (symmetric_config, 1.0, 2.0, 0.05, 256, 2),
    (_var_a_config, 1.0, 2.0, 0.05, 256, 2),
    (symmetric_config, 1.0, 2.0, 0.05, 1024, 2),
    (_var_a_config, 1.0, 2.0, 0.05, 1024, 2),
    (_var_a_config, 0.5, 0.5, 1.0, 1024, 1),     # sublinear, curved solution
    (symmetric_config, 1.0, 2.0, 0.05, 130, 2),  # 130 is no multiple of 64
    (_var_a_config, 1.0, 2.0, 0.05, 130, 2),
], ids=["cor1b", "var-a", "cor1b-256", "var-a-256", "cor1b-1024", "var-a-1024",
        "sublinear-var-a-1024", "cor1b-130", "var-a-130"])
def test_two_grid_matches_single_grid(config_of, alpha, beta, lam, n_grid, count):
    # every solution of these problems is resolved on Newton's first grid of
    # 32 points: restricted back there it is the oracle's dense solve of the
    # same collocation system (Picard, then Newton with the full Jacobian;
    # operators the plain inverse of D2 + diag(a), which loses about M^2
    # eps), and for constant a the constant solutions are the cubic roots
    prob = parse_config(config_of(alpha, beta, lam, n_grid=n_grid)).problem
    disc = discretize(prob, n_grid)
    cc = compute_constants(disc, prob)
    report = find_solutions(prob, disc, cc)
    t = np.arange(32) / 32
    g, e = prob.g_on_grid(32), prob.e_on_grid(32)
    dense = oracles.collocation_inverse(oracles.coefficient_value(prob.a[0], t), 1.0)
    expect = {}
    for ann in report.annuli:
        seed = seed_from_annulus(ann, prob, 32).values
        x = oracles.single_grid_solve([dense] * 2, g, e, prob.f.terms, prob.lam, seed)
        if x is not None:
            expect[ann.annulus_id] = x
    assert len(report.solutions) == len(expect) == count
    for sol in report.solutions:
        ref = expect[sol.annulus_id]
        assert np.max(np.abs(resample(sol.x.values, 32) - ref)) <= 1e-10 * np.max(np.abs(ref))
    if config_of is symmetric_config:
        roots = oracles.constant_solution_norms(prob.f.terms[0], lam)
        for sol, root in zip(report.solutions, roots):
            assert abs(sol.norm - root) <= 1e-13 * root


def test_two_grid_sweep_warm_starts():
    # warm starts enter Newton's 32-point grid by Fourier truncation; each
    # step must land on the solutions a fresh solve at that lambda finds
    prob = make_problem(1.0, 2.0, 0.04, n_grid=512)
    disc = discretize(prob, 512)
    cc = compute_constants(disc, prob)
    sweep = continue_lambda(prob, disc, 0.04, 0.05, 2, constants=cc)
    assert {row.branch_id for row in sweep.rows} == {"b1", "b2"}
    for lam in (0.04, 0.05):
        rep = find_solutions(replace(prob, lam=lam), disc, cc)
        rows = sorted(row.norm for row in sweep.rows if row.lam == lam)
        fresh = sorted(s.norm for s in rep.solutions)
        assert len(rows) == len(fresh) == 2
        for a, b in zip(rows, fresh):
            assert abs(a - b) <= 1e-10 * b


@pytest.mark.parametrize("n_grid", [64, 256, 512, 1024])
def test_coarse_newton_failure(monkeypatch, n_grid):
    # a failed linear solve on Newton's 32-point grid fails that start's
    # Newton loop and drops the annulus at every N: there is no second solve
    # path to retry on.  cor2b has a sign-changing e, so its leveled starts
    # are not fixed points and each takes Newton steps
    prob = parse_config(PRESETS["cor2b"].config(0.01, n_grid)).problem
    disc = discretize(prob, n_grid)
    cc = compute_constants(disc, prob)
    real = solver_mod.newton_refine
    calls, systems = [], []

    def record(problem, disc, x0):
        calls.append(x0.n_grid)
        return real(problem, disc, x0)

    def coarse_fails(quad, rows, cols, rhs):
        systems.append(rhs.size)
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(solver_mod, "newton_refine", record)
    monkeypatch.setattr(solver_mod, "_coupling_solve", coarse_fails)
    report = find_solutions(prob, disc, cc)
    assert len(report.annuli) == 2
    assert report.solutions == []
    assert calls == [32] * 2
    assert systems == [32] * 2
    failed = [n for n in report.notes if "newton failed" in n]
    assert [n.split(":")[0] for n in failed] == ["A1", "A2"]
    assert all("(linear solve failed at residual" in n for n in failed)


@pytest.mark.parametrize("n_grid", [66, 96, 130, 1030, 2062, 4094])
def test_base_grid_has_64_points(monkeypatch, n_grid):
    # a = 1 + 0.3 cos 10 pi t: at M = 32 the upper half of the spectrum of
    # each solution reads about 3e-9 of its norm, so at every N, whatever
    # its factors, each start doubles Newton's grid once, to 64 points, where
    # it is resolved; the N-point grid never enters a solve, and every LU is
    # 32 x 32 or 64 x 64
    prob = replace(make_problem(1.0, 2.0, 0.05, n_grid=n_grid),
                   a=(FourierSeries(1.0, (0.0, 0.0, 0.0, 0.0, 0.3)),) * 2)
    disc = discretize(prob, n_grid)
    cc = compute_constants(disc, prob)
    real_newton, real_solve = solver_mod.newton_refine, solver_mod._coupling_solve
    grids, systems = [], []

    def record_newton(problem, disc, x0):
        grids.append(x0.n_grid)
        return real_newton(problem, disc, x0)

    def record_solve(quad, rows, cols, rhs):
        systems.append(rhs.size)
        return real_solve(quad, rows, cols, rhs)

    monkeypatch.setattr(solver_mod, "newton_refine", record_newton)
    monkeypatch.setattr(solver_mod, "_coupling_solve", record_solve)
    report = find_solutions(prob, disc, cc)
    assert [s.annulus_id for s in report.solutions] == ["A1", "A2"]
    assert grids == [32, 64] * 2
    assert systems and set(systems) <= {32, 64}


def _three_coefficient_problem(a):
    return Problem(n=3, period=1.0, a=a, g=(Constant(1.0),) * 3, e=(Constant(0.0),) * 3,
                   f=PowerLawRadial((SUPERLINEAR_TERMS,) * 3), lam=0.05)


def _exp_sine(a, m):
    """x* = exp(0.3 sin 2 pi t) and R = x*'' + a x* on m points, T = 1."""
    w = 2.0 * math.pi
    t = np.arange(m) / m
    x = np.exp(0.3 * np.sin(w * t))
    xpp = (0.09 * w * w * np.cos(w * t) ** 2 - 0.3 * w * w * np.sin(w * t)) * x
    return x, xpp + oracles.coefficient_value(a, t) * x


def test_base_tables_follow_the_coefficients():
    # one collocation matrix per distinct coefficient, shared by the
    # components with that coefficient (a_1 = a_3 here), built from it: the
    # oracle's plain inverse of D2 + diag(a) to its M^2 eps round-off
    a = (Constant(1.0), FourierSeries(1.0, (0.3,)), Constant(1.0))
    op = discretize(_three_coefficient_problem(a), 130).collocation(32)
    per = [op.matrices[k] for k in op.index]
    assert len(op.matrices) == 2 and per[0] is per[2] and per[1] is not per[0]
    for matrix, coef in zip(per, a):
        dense = oracles.collocation_inverse(oracles.coefficient_value(coef, np.arange(32) / 32), 1.0)
        assert np.max(np.abs(matrix - dense)) <= 1e-10 * np.max(np.abs(dense))


@pytest.mark.parametrize("n_grid", [32, 64])
def test_base_matrices_are_the_tables_own_operator(n_grid):
    # on M = N points each collocation matrix is (D2 + a)^-1 exactly: applied
    # to R = x*'' + a x* it returns x* = exp(0.3 sin 2 pi t) to round-off.
    # The table's own Nystrom operator returns it only to its O(h^4) error
    a = (Constant(1.0), FourierSeries(1.0, (0.3,)), Constant(1.0))
    disc = discretize(_three_coefficient_problem(a), n_grid)
    op = disc.collocation(n_grid)
    for matrix, k, coef in zip([op.matrices[j] for j in op.index], disc.index, a):
        x, rhs = _exp_sine(coef, n_grid)
        assert np.max(np.abs(matrix @ rhs - x)) <= 5e-15 * np.max(x)
        nystrom = kernel_quadrature(disc.tables[k]) @ rhs
        assert 1e-12 <= np.max(np.abs(nystrom - x)) / np.max(x) <= 1e-5


def test_fine_grid_base_matrix_matches_the_dense_quadrature():
    # a = 1 + 0.3 cos at N = 1024: Newton's operator is the 32 x 32
    # collocation matrix, exact on 32 points, not an N-point quadrature
    coef = FourierSeries(1.0, (0.3,))
    op = Discretization((build_green_table(coef, 1024),), (0, 0), (coef,)).collocation(32)
    x, rhs = _exp_sine(coef, 32)
    for matrix in op.matrices:
        assert matrix.shape == (32, 32)
        assert np.max(np.abs(matrix @ rhs - x)) <= 5e-15 * np.max(x)


def test_base_matrices_are_built_once_per_discretization(monkeypatch):
    # compute_constants builds none; the first solve builds one 32-point
    # collocation matrix per distinct coefficient, and later solves on the
    # same object reuse it.  With a = 1 + 0.3 cos the solutions are not
    # constant, so every start takes steps
    prob = parse_config(_var_a_config(1.0, 2.0, 0.05, n_grid=256)).problem
    disc = discretize(prob, 256)
    built = _record_collocations(monkeypatch)
    cc = compute_constants(disc, prob)
    assert built == []
    for lam in (0.05, 0.04):
        assert len(find_solutions(replace(prob, lam=lam), disc, cc).solutions) == 2
    assert built == [(prob.a[0], 32)]


def test_tables_of_another_coefficient_need_the_explicit_constructor():
    # discretize derives its tables from problem.a, so tables built for
    # a = 1 + 1e-7 reach a cor1b solve (a = 1) only through the explicit
    # constructor.  There both solutions still come back, with no note and
    # norms moved by up to 1e-7 relative: the gates cannot tell
    prob = parse_config(PRESETS["cor1b"].config(0.05)).problem
    near = Constant(1.0 + 1e-7)
    disc = discretize(prob, 256)
    assert disc.coefficients == (Constant(1.0),) and disc.tables[0].k == 1.0
    wrong = Discretization((build_green_table(near, 256),), (0, 0), (near,))
    assert wrong.tables[0].m != disc.tables[0].m
    right = find_solutions(prob, disc, compute_constants(disc, prob))
    moved = find_solutions(prob, wrong, compute_constants(wrong, prob))
    assert right.notes == moved.notes == []
    assert [s.annulus_id for s in moved.solutions] == ["A1", "A2"]
    for a, b in zip(right.solutions, moved.solutions):
        assert 0.0 < abs(a.norm - b.norm) <= 2e-7 * a.norm


@pytest.mark.parametrize("name, lam", [("cor1b", 0.05), ("cor2b", 0.01)])
def test_tables_of_a_wrong_coefficient_fail_the_ode_check(name, lam):
    # tables built for a = 1 + 1e-6 solve a nearby problem; the ODE check
    # reads problem.a, so A2, the larger solution, is dropped with its note
    prob = parse_config(PRESETS[name].config(lam)).problem
    near = Constant(1.0 + 1e-6)
    wrong = Discretization((build_green_table(near, 256),), (0, 0), (near,))
    report = find_solutions(prob, wrong, compute_constants(wrong, prob))
    assert [s.annulus_id for s in report.solutions] == ["A1"]
    assert len(report.notes) == 1
    assert report.notes[0].startswith("A2: ode residual ") and report.notes[0].endswith(" dropped")


@pytest.mark.parametrize("n_grid", [64, 256, 512, 1024])
def test_two_grid_correction_failure_drops(monkeypatch, n_grid):
    # a failed Newton loop drops the annulus with one note at every N: each
    # start has one loop, and no second solve path to retry on
    prob = make_problem(1.0, 2.0, 0.05, n_grid=n_grid)
    disc = discretize(prob, n_grid)
    cc = compute_constants(disc, prob)
    assert len(find_solutions(prob, disc, cc).solutions) == 2

    def fails(problem, disc, x0):
        raise NoConvergenceError("forced")

    monkeypatch.setattr(solver_mod, "newton_refine", fails)
    report = find_solutions(prob, disc, cc)
    assert len(report.annuli) == 2
    assert report.solutions == []
    assert [n for n in report.notes if "newton failed" in n] == [
        "A1: newton failed (forced)", "A2: newton failed (forced)"]


def test_one_two_grid_correction_reaches_round_off(monkeypatch):
    # the Newton loops take every solve of the preset problems at N=96 and
    # N=256 to a residual of 1e-13, or to round-off (1e-15 relative) for the
    # solutions with norm above 100: each stops at or below NEWTON_TOL, at
    # round-off relative to the iterate or after a step that started at or
    # below NEWTON_TOL.  Newton's 32-point grid does not nest in N=96
    real = solver_mod.newton_refine
    solves = []

    def record(problem, disc, x0):
        res = real(problem, disc, x0)
        solves.append(res)
        return res

    monkeypatch.setattr(solver_mod, "newton_refine", record)
    problems = 0
    for n_grid in (96, 256):
        for name in sorted(PRESETS):
            preset = PRESETS[name]
            for lam in preset.lambdas:
                parsed = parse_config(preset.config(lam, n_grid))
                disc = discretize(parsed.problem, parsed.n_grid)
                cc = compute_constants(disc, parsed.problem)
                before = len(solves)
                report = find_solutions(parsed.problem, disc, cc, preset.ode_tol)
                assert len(solves) - before >= len(report.solutions) >= 1
                problems += 1
    assert problems == 16
    for res in solves:
        assert res.residual <= solver_mod.NEWTON_TOL
        assert (res.residual <= solver_mod.ROUNDOFF_RTOL * res.x.norm
                or res.iterations >= 1 and res.history[-2] <= solver_mod.NEWTON_TOL)
        assert res.residual <= 1e-15 * max(res.x.norm, 100.0)


@pytest.mark.parametrize("alpha, beta, lam_lo, lam_hi, steps", [
    (0.5, 0.5, 1.0, 30.0, 3),
    (1.0, 0.5, 1.0, 30.0, 3),
    (1.0, 0.5, 0.1, 10.0, 3),
])
def test_coarse_sublinear_sweep_keeps_its_warm_start_rows(alpha, beta, lam_lo, lam_hi, steps):
    # a 5x-10x lambda step on the sublinear branch: undamped Newton from the
    # warm start zigzags for many steps before it converges.  At lambda=30 no
    # annulus is certified, so only the warm start finds that row; at 10 a
    # fresh annulus solve would find it under a new branch id
    prob = make_problem(alpha, beta, lam_lo)
    disc = discretize(prob, 256)
    table = continue_lambda(prob, disc, lam_lo, lam_hi, steps,
                            constants=compute_constants(disc, prob))
    assert [row.lam for row in table.rows] == [float(v) for v in np.geomspace(lam_lo, lam_hi, steps)]
    assert [(row.branch_id, row.annulus_id) for row in table.rows] == [("b1", "A1")] * steps


# annulus ids of the solutions found for each preset problem at N=256, as the
# solver with a Picard warm-up before Newton gave them
PRESET_ANNULUS_IDS = {
    ("cor1a", 0.1): ["A1"], ("cor1a", 1.0): ["A1"], ("cor1a", 10.0): ["A1"],
    ("cor1b", 0.05): ["A1", "A2"], ("cor1b", 0.02): ["A1", "A2"],
    ("cor2a", 8.0): ["A1"], ("cor2a", 10.0): ["A1"],
    ("cor2b", 0.01): ["A1", "A2"],
}


def test_pipeline_never_calls_picard(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("picard_solve called")

    monkeypatch.setattr(solver_mod, "picard_solve", forbidden)
    got = {}
    for name in sorted(PRESETS):
        preset = PRESETS[name]
        for lam in preset.lambdas:
            parsed = parse_config(preset.config(lam, 256))
            disc = discretize(parsed.problem, parsed.n_grid)
            cc = compute_constants(disc, parsed.problem)
            report = find_solutions(parsed.problem, disc, cc, preset.ode_tol)
            got[name, lam] = [s.annulus_id for s in report.solutions]
    assert got == PRESET_ANNULUS_IDS
    prob = make_problem(1.0, 2.0, 0.01)
    disc = discretize(prob, 256)
    sweep = continue_lambda(prob, disc, 0.01, 0.3, 6,
                            constants=compute_constants(disc, prob))
    # both branches at every step, under the ids the Picard warm-up gave them
    rows = [(row.branch_id, row.annulus_id) for row in sweep.rows]
    assert rows == [("b1", "A1"), ("b2", "A2")] * 6
    assert [row.lam for row in sweep.rows[::2]] == [float(v) for v in np.geomspace(0.01, 0.3, 6)]


def test_sweep_steps_skip_the_coefficient_audit(monkeypatch):
    # each step's problem is the swept one at the step's lambda, with the
    # audited g_min, e_abs_max and sign_profile carried over, not recomputed
    prob = make_problem(1.0, 2.0, 0.01, e_spec={"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}})
    disc = discretize(prob, 256)
    cc = compute_constants(disc, prob)
    real_extrema = problem_mod.coefficient_extrema
    real_report = solver_mod.existence_report
    audits, steps = [], []

    def count(*args):
        audits.append(args)
        return real_extrema(*args)

    def record(problem, *args):
        steps.append(problem)
        return real_report(problem, *args)

    monkeypatch.setattr(problem_mod, "coefficient_extrema", count)
    monkeypatch.setattr(solver_mod, "existence_report", record)
    table = continue_lambda(prob, disc, 0.01, 0.3, 6, constants=cc)
    assert audits == []
    assert table.rows
    monkeypatch.setattr(problem_mod, "coefficient_extrema", real_extrema)
    assert [step.lam for step in steps] == [float(v) for v in np.geomspace(0.01, 0.3, 6)]
    for step in steps:
        assert step == replace(prob, lam=step.lam)


def _record_solves(monkeypatch):
    """Patch ``_solve_from_seed`` to record (lambda, annulus or warm id) per call."""
    real = solver_mod._solve_from_seed
    calls = []

    def record(problem, disc, constants, start, annulus_id, *args):
        calls.append((problem.lam, annulus_id))
        return real(problem, disc, constants, start, annulus_id, *args)

    monkeypatch.setattr(solver_mod, "_solve_from_seed", record)
    return calls


def test_sweep_seeds_no_annulus_a_warm_start_holds(monkeypatch):
    # the bench sweep: after the first step both warm starts land inside
    # the two certified annuli, so no step seeds either annulus again
    calls = _record_solves(monkeypatch)
    prob = make_problem(1.0, 2.0, 0.01)
    disc = discretize(prob, 256)
    sweep = continue_lambda(prob, disc, 0.01, 0.3, 6,
                            constants=compute_constants(disc, prob))
    assert [(row.branch_id, row.annulus_id) for row in sweep.rows] == [("b1", "A1"), ("b2", "A2")] * 6
    lams = [float(v) for v in np.geomspace(0.01, 0.3, 6)]
    assert calls == [(lams[0], "A1"), (lams[0], "A2")] + [
        (lam, bid) for lam in lams[1:] for bid in ("warm:b1", "warm:b2")]


def test_sweep_seeds_the_annulus_of_a_new_branch(monkeypatch):
    # at lambda=0.004 one annulus is certified; at 0.008 a second one is,
    # and no warm start lies in it, so it is seeded and opens branch b2
    calls = _record_solves(monkeypatch)
    prob = make_problem(1.0, 2.0, 0.004)
    disc = discretize(prob, 256)
    cc = compute_constants(disc, prob)
    assert [len(existence_report(replace(prob, lam=lam), cc, default_r_grid()))
            for lam in (0.004, 0.008)] == [1, 2]
    sweep = continue_lambda(prob, disc, 0.004, 0.008, 2, constants=cc)
    assert calls == [(0.004, "A1"), (0.008, "warm:b1"), (0.008, "A2")]
    assert [(row.lam, row.branch_id, row.annulus_id) for row in sweep.rows] == [
        (0.004, "b1", "A1"), (0.008, "b1", "A1"), (0.008, "b2", "A2")]
    assert sweep.notes == []


def test_sweep_builds_its_base_tables_once(monkeypatch):
    # every step of a sweep solves with the same 32-point collocation matrix
    cfg = symmetric_config(1.0, 2.0, 0.01)
    cfg["a"] = [{"fourier": {"c0": 1.0, "cos": [0.3], "sin": []}}] * 2
    prob = parse_config(cfg).problem
    disc = discretize(prob, 256)
    cc = compute_constants(disc, prob)
    built = _record_collocations(monkeypatch)
    sweep = continue_lambda(prob, disc, 0.01, 0.3, 6, constants=cc)
    assert len({row.lam for row in sweep.rows}) == 6
    assert built == [(prob.a[0], 32)]


def _record_collocations(monkeypatch):
    """Patch ``collocation_matrix`` in ``operator`` to record the
    (coefficient, M) of every collocation matrix it builds."""
    real = operator_mod.collocation_matrix
    built = []

    def count(coef, m):
        built.append((coef, m))
        return real(coef, m)

    monkeypatch.setattr(operator_mod, "collocation_matrix", count)
    return built


def _forbid_newton_systems(monkeypatch):
    """Patch ``_coupling_solve`` to fail the test if a Newton system is solved."""
    def forbidden(*args):
        raise AssertionError("a Newton system was solved")

    monkeypatch.setattr(solver_mod, "_coupling_solve", forbidden)


def _record_newton_steps(monkeypatch):
    """Patch ``newton_refine`` to record the steps of every call."""
    real = solver_mod.newton_refine
    steps = []

    def record(problem, disc, x0):
        res = real(problem, disc, x0)
        steps.append(res.iterations)
        return res

    monkeypatch.setattr(solver_mod, "newton_refine", record)
    return steps


def test_leveled_cor1b_starts_are_fixed_points():
    # constant coefficients: the one-mode level of the constant annulus seed
    # is the fixed point of Newton's collocation operator on M = min(N, 32)
    # points, so Newton takes no step, and of the N-point tables as well
    for n_grid in (16, 64, 256):
        prob = parse_config(PRESETS["cor1b"].config(0.05, n_grid)).problem
        disc = discretize(prob, n_grid)
        annuli = existence_report(prob, compute_constants(disc, prob), default_r_grid())
        assert [ann.annulus_id for ann in annuli] == ["A1", "A2"]
        for op in (disc.collocation(min(n_grid, 32)), disc):
            for ann in annuli:
                seed = seed_from_annulus(ann, prob, op.n_grid)
                start = solver_mod._level_start(prob, op, seed, (ann.r_in, ann.r_out))
                assert fixed_point_residual(prob, op, seed) > 1e-3 * seed.norm
                assert fixed_point_residual(prob, op, start) <= 1e-13 * start.norm
                if op is not disc:
                    assert newton_refine(prob, op, start).iterations == 0


def test_every_preset_annulus_levels_inside_it():
    # the one-mode equation changes sign across every certified annulus of
    # the presets, sign-changing e included, and its root lies inside
    for name in sorted(PRESETS):
        for lam in PRESETS[name].lambdas:
            prob = parse_config(PRESETS[name].config(lam, 256)).problem
            disc = discretize(prob, 256)
            for ann in existence_report(prob, compute_constants(disc, prob),
                                        default_r_grid()):
                seed = seed_from_annulus(ann, prob, 256)
                start = solver_mod._level_start(prob, disc, seed, (ann.r_in, ann.r_out))
                assert start is not seed, (name, lam, ann.annulus_id)
                assert ann.r_in * (1.0 - 1e-12) <= start.norm <= ann.r_out * (1.0 + 1e-12)


def test_level_without_a_root_keeps_the_start():
    # no sign change in the bracket, or past the fold no root at all: the
    # start comes back as it went in
    prob = make_problem(1.0, 2.0, 0.05, n_grid=64)
    disc = discretize(prob, 64)
    lo, hi = oracles.constant_solution_norms(SUPERLINEAR_TERMS, prob.lam)
    assert lo < 1.0 < 2.0 < hi
    seed = seed_from_annulus(FakeAnnulus(1.0, 2.0), prob, 64)
    values = seed.values.copy()
    assert solver_mod._level_start(prob, disc, seed, (1.0, 2.0)) is seed
    past = replace(prob, lam=0.5)
    assert not oracles.constant_solution_norms(SUPERLINEAR_TERMS, past.lam)
    assert solver_mod._level_start(past, disc, seed) is seed
    assert np.array_equal(seed.values, values)


def test_bench_sweep_takes_no_newton_step(monkeypatch):
    # every annulus seed and every warm start of the bench sweep is leveled
    # onto its fixed point to round-off, so no solve takes a Newton step or
    # solves a Newton system; the one collocation matrix, a = 1 on 32
    # points, is built once, for the level
    steps = _record_newton_steps(monkeypatch)
    built = _record_collocations(monkeypatch)
    _forbid_newton_systems(monkeypatch)
    prob = make_problem(1.0, 2.0, 0.01)
    disc = discretize(prob, 256)
    sweep = continue_lambda(prob, disc, 0.01, 0.3, 6,
                            constants=compute_constants(disc, prob))
    assert [(row.branch_id, row.annulus_id) for row in sweep.rows] == [("b1", "A1"), ("b2", "A2")] * 6
    assert steps == [0] * 12
    assert built == [(Constant(1.0), 32)]


def test_cor1_presets_build_no_base_matrix(monkeypatch):
    # constant a, g and e: every leveled start of the cor1 presets is the
    # fixed point to round-off, so no solve forms or factors a Newton
    # system; each discretization builds its one collocation matrix, the
    # multiplier of a = 1 on 32 points, for the level
    steps = _record_newton_steps(monkeypatch)
    built = _record_collocations(monkeypatch)
    _forbid_newton_systems(monkeypatch)
    for name in ("cor1a", "cor1b"):
        preset = PRESETS[name]
        for lam in preset.lambdas:
            parsed = parse_config(preset.config(lam))
            disc = discretize(parsed.problem, parsed.n_grid)
            report = find_solutions(parsed.problem, disc,
                                    compute_constants(disc, parsed.problem), preset.ode_tol)
            assert [s.annulus_id for s in report.solutions] == PRESET_ANNULUS_IDS[name, lam]
    assert steps == [0] * 7
    assert built == [(Constant(1.0), 32)] * 5


def test_large_solution_stops_at_newton_tol(monkeypatch):
    # cor1a at lambda=1000 on the radius window [1e-8, 1e8]: the solution
    # has norm 2.8e6, where round-off in the residual exceeds NEWTON_TOL,
    # and Newton still reaches it
    parsed = parse_config(PRESETS["cor1a"].config(1000.0))
    disc = discretize(parsed.problem, parsed.n_grid)
    cc = compute_constants(disc, parsed.problem)
    monkeypatch.setattr(solver_mod, "default_r_grid", lambda: default_r_grid(1e-8, 1e8))
    report = find_solutions(parsed.problem, disc, cc)
    assert [s.annulus_id for s in report.solutions] == ["A1"]
    (sol,) = report.solutions
    assert abs(sol.norm - 2828429.953169366) <= 1e-12 * sol.norm
    assert sol.fp_residual <= solver_mod.NEWTON_TOL


@pytest.mark.parametrize("alpha, beta, lam, count", [
    (1.0, 2.0, 0.05, 2),
    (0.5, 0.5, 1.0, 1),
])
def test_variable_a_keeps_its_solutions(monkeypatch, alpha, beta, lam, count):
    # a = 1 + 0.3 cos: the solutions are not constant and the level fixes
    # only their one-mode part; the counts stay and Newton is short
    steps = _record_newton_steps(monkeypatch)
    prob = parse_config(_var_a_config(alpha, beta, lam, n_grid=256)).problem
    disc = discretize(prob, 256)
    report = find_solutions(prob, disc, compute_constants(disc, prob))
    assert len(report.solutions) == count
    assert len(steps) == count and max(steps) <= 4


_NODES64 = np.arange(64) / 64.0


@pytest.mark.parametrize("key, values", [
    ("a", 1.0 + 0.3 * np.cos(2.0 * math.pi * np.arange(256) / 256.0)),
    ("g", 1.0 + 0.5 * np.cos(2.0 * math.pi * _NODES64)),
    ("a", 1.0 + 0.3 * (1.0 - 4.0 * np.minimum(_NODES64, 1.0 - _NODES64))),  # triangle
], ids=["a-256-cos", "g-64-cos", "a-64-triangle"])
def test_sampled_coefficients_keep_their_solutions(key, values):
    # samples are read as their trigonometric interpolant, a smooth
    # coefficient: the ODE check keeps both superlinear solutions at
    # N = 1024, where the kinks of a linear interpolant dropped one or both
    cfg = symmetric_config(1.0, 2.0, 0.05, n_grid=1024)
    cfg[key] = [{"samples": values.tolist()}] * 2
    prob = parse_config(cfg).problem
    disc = discretize(prob, 1024)
    report = find_solutions(prob, disc, compute_constants(disc, prob))
    assert len(report.solutions) == 2, report.notes


def test_verified_fp_residual_is_the_fixed_point_residual(monkeypatch):
    # the gate takes the residual Newton stopped at on its collocation grid:
    # bit for bit the one T applied afresh there gives, at the Newton output
    # whose interpolant to the N points is the accepted x
    real = solver_mod.newton_refine
    outputs = []

    def record(problem, op, x0):
        res = real(problem, op, x0)
        outputs.append((op, res))
        return res

    monkeypatch.setattr(solver_mod, "newton_refine", record)
    for name in sorted(PRESETS):
        preset = PRESETS[name]
        for lam in preset.lambdas:
            prob = parse_config(preset.config(lam, 256)).problem
            disc = discretize(prob, 256)
            outputs.clear()
            report = find_solutions(prob, disc, compute_constants(disc, prob),
                                    preset.ode_tol)
            for sol in report.solutions:
                [(op, res)] = [(op, res) for op, res in outputs
                               if resample(res.x.values, 256).tobytes() == sol.x.values.tobytes()]
                assert op.n_grid == 32
                assert sol.fp_residual == res.residual == fixed_point_residual(prob, op, res.x)


def test_sweep_builds_its_radius_bounds_once(monkeypatch):
    # eta_r and M_hat_r do not depend on lambda: the bench sweep evaluates
    # each once, not once per step, and no radius bound reads fhat
    prob = make_problem(1.0, 2.0, 0.01)
    disc = discretize(prob, 256)
    cc = compute_constants(disc, prob)
    calls = []
    for name in ("eta_lower", "annulus_extrema", "fhat"):
        def count(*args, _name=name, _real=getattr(certify_mod, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(certify_mod, name, count)
    sweep = continue_lambda(prob, disc, 0.01, 0.3, 6, constants=cc)
    assert len({row.lam for row in sweep.rows}) == 6
    assert sorted(calls) == ["annulus_extrema", "eta_lower"]


@pytest.mark.parametrize("alpha, beta, e_spec, lam_lo, lam_hi, steps", [
    (1.0, 2.0, None, 0.01, 0.3, 6),  # the bench sweep
    (0.5, 0.5, MIXED_E, 1.0, 10.0, 4),  # sign-changing e, the forcing share grows
])
def test_sweep_step_annuli_match_fresh_reports(monkeypatch, alpha, beta, e_spec,
                                               lam_lo, lam_hi, steps):
    # the annuli a step certifies from the shared radius bounds are, field for
    # field, those of a fresh report at the step's lambda
    prob = make_problem(alpha, beta, lam_lo, e_spec=e_spec)
    disc = discretize(prob, 256)
    cc = compute_constants(disc, prob)
    real = solver_mod.existence_report
    reports = []

    def record(problem, *args):
        annuli = real(problem, *args)
        reports.append((problem.lam, annuli))
        return annuli

    monkeypatch.setattr(solver_mod, "existence_report", record)
    continue_lambda(prob, disc, lam_lo, lam_hi, steps, constants=cc)
    lams = [float(v) for v in np.geomspace(lam_lo, lam_hi, steps)]
    assert [lam for lam, _ in reports] == lams
    assert any(annuli for _, annuli in reports)
    for lam, annuli in reports:
        assert annuli == existence_report(replace(prob, lam=lam), cc, default_r_grid())
    if e_spec is not None:
        # the forcing-window gate cuts the grid: each step's scan drops the
        # radii between delta and Delta
        r = default_r_grid()
        assert r[0] < cc.delta < cc.Delta < r[-1]


@pytest.mark.parametrize("a_specs, applications", [
    ([{"constant": 1.0}] * 2, 1),
    ([{"constant": 1.0}, {"fourier": {"c0": 1.0, "cos": [0.3], "sin": []}}], 2),
])
def test_level_start_applies_each_table_once(monkeypatch, a_specs, applications):
    cfg = symmetric_config(1.0, 2.0, 0.05)
    cfg["a"] = a_specs
    prob = parse_config(cfg).problem
    disc = discretize(prob, 256)
    ann = existence_report(prob, compute_constants(disc, prob), default_r_grid())[0]
    seed = seed_from_annulus(ann, prob, 256)
    real = operator_mod.kernel_quadrature
    applied = []

    def count(tbl):
        applied.append(tbl)
        return real(tbl)

    monkeypatch.setattr(operator_mod, "kernel_quadrature", count)
    assert solver_mod._level_start(prob, disc, seed, (ann.r_in, ann.r_out)) is not seed
    assert len(applied) == applications
    assert len({id(tbl) for tbl in applied}) == applications


@pytest.mark.parametrize("config_of", [symmetric_config, _var_a_config])
@pytest.mark.parametrize("n_grid", [128, 256])
def test_shared_table_levels_like_a_table_per_component(config_of, n_grid):
    # the shared table applied once to the stacked blocks levels every start,
    # bit for bit, as one application per component does (a copy of the
    # table per component), closed-form and RK4 kernels alike
    prob = parse_config(config_of(1.0, 2.0, 0.05, n_grid=n_grid)).problem
    disc = discretize(prob, n_grid)
    assert disc.index == (0, 0)
    own = Discretization((copy.copy(disc.tables[0]), copy.copy(disc.tables[0])), (0, 1),
                         disc.coefficients * 2)
    t = np.arange(n_grid) * (prob.period / n_grid)
    starts = [(seed_from_annulus(ann, prob, n_grid), (ann.r_in, ann.r_out))
              for ann in existence_report(prob, compute_constants(disc, prob),
                                          default_r_grid())]
    # and warm-start-like profiles: a last-bit change of a block product
    # shows in the leveled start of only some of them
    rng = np.random.default_rng(5)
    for _ in range(20):
        base = rng.uniform(0.1, 3.0, (2, 1))
        wave = np.cos(2.0 * math.pi * (t - rng.uniform(0.0, 1.0, (2, 1))))
        values = base * (1.0 + rng.uniform(0.05, 0.5, (2, 1)) * wave)
        starts.append((GridFunction(values, prob.period), None))
    for start, radii in starts:
        shared = solver_mod._level_start(prob, disc, start, radii)
        alone = solver_mod._level_start(prob, own, start, radii)
        assert shared.values.tobytes() == alone.values.tobytes()


def _random_constant_system(rng):
    """A constant-coefficient system: n in {1, 2, 3}, a_i in {0.5, 2, 6} (so
    components often share a table), g_i in (0.5, 2), e_i zero or in (0, 1),
    one singular power and 0-2 positive ones per component, lam log-uniform
    in (1e-3, 10)."""
    n = int(rng.integers(1, 4))
    terms = tuple(
        ((float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.5, -0.25))),)
        + tuple((float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.25, 2.5)))
                for _ in range(int(rng.integers(0, 3))))
        for _ in range(n))
    a = [float(rng.choice([0.5, 2.0, 6.0])) for _ in range(n)]
    g = [float(rng.uniform(0.5, 2.0)) for _ in range(n)]
    e = [float(rng.uniform(0.0, 1.0)) if rng.random() < 0.5 else 0.0 for _ in range(n)]
    lam = float(10.0 ** rng.uniform(-3.0, 1.0))
    prob = Problem(n=n, period=1.0, a=tuple(map(Constant, a)), g=tuple(map(Constant, g)),
                   e=tuple(map(Constant, e)), f=PowerLawRadial(terms), lam=lam)
    return prob, oracles.constant_solutions(a, g, e, terms, lam)


def test_constant_systems_solve_to_their_constant_solutions():
    # constant a, g, e: T maps constants to constants inside the cone, so
    # every certified annulus holds an exact constant solution, and every
    # solution found is one, to the N=64 discretization error
    rng = np.random.default_rng(2027)
    annuli = solutions = shared = 0
    for _ in range(60):
        prob, roots = _random_constant_system(rng)
        disc = discretize(prob, 64)
        shared += len(disc.tables) < prob.n
        report = find_solutions(prob, disc, compute_constants(disc, prob))
        norms = roots.sum(axis=1)
        for ann in report.annuli:
            assert np.any((ann.r_in < norms) & (norms < ann.r_out)), (prob, ann)
        for sol in report.solutions:
            assert np.min(np.abs(norms - sol.norm)) <= 1e-7 * sol.norm, (prob, sol.norm)
        annuli += len(report.annuli)
        solutions += len(report.solutions)
    assert annuli >= 40 and solutions >= 40 and shared >= 10


def _manufactured_problem(a):
    """The ROADMAP 13(b) problem with a_i = FourierSeries(*a[i]), and its x*."""
    g, lam, terms, x_star = oracles.manufactured_variable_a(a)
    prob = Problem(n=2, period=1.0, a=tuple(FourierSeries(*coef) for coef in a),
                   g=tuple(FourierSeries(*coef) for coef in g), e=(Constant(0.0),) * 2,
                   f=PowerLawRadial((terms, terms)), lam=lam)
    return prob, x_star


@pytest.mark.parametrize("a, tables", [
    (((1.0, (0.3,), ()),) * 2, 1),
    (((1.0, (0.3,), ()), (1.5, (), (0.4,))), 2),
    (((6.0, (2.5, 0.0, 0.8), (0.0, 1.0)),) * 2, 1),
], ids=["shared-a", "distinct-a", "wide-a"])
def test_manufactured_variable_a_converges_at_fourth_order(a, tables):
    # a known smooth solution of a system with a = 1 + 0.3 cos in both
    # components (one operator), a_2 = 1.5 + 0.4 sin in the second (two), or
    # a = 6 + 2.5 cos 2 pi t + 0.8 cos 6 pi t + sin 4 pi t: Newton on the
    # collocation grid, from 1.001 x*, lands on it to round-off at M = 32
    # and M = 64
    prob, x_star = _manufactured_problem(a)
    disc = discretize(prob, 256)
    assert len(disc.coefficients) == tables
    for m in (32, 64):
        exact = x_star(np.arange(m) / m)
        res = newton_refine(prob, disc.collocation(m), GridFunction(1.001 * exact, 1.0))
        assert res.residual <= 1e-13
        assert np.abs(res.x.values - exact).max() <= 5e-14 * np.abs(exact).max()


@pytest.mark.parametrize("config, n_grid, annulus_id", [
    (PRESETS["cor2a"].config(8.0, 4096), 4096, "A1"),
    (PRESETS["cor2a"].config(8.0, 8192), 8192, "A1"),
    (PRESETS["cor2b"].config(0.01, 8192), 8192, "A2"),
    (_var_a_config(0.5, 0.5, 10.0, 1024), 1024, "A1"),
], ids=["cor2a-4096", "cor2a-8192", "cor2b-8192", "sublinear-var-a-1024"])
def test_fine_grid_solutions_pass_the_ode_check(config, n_grid, annulus_id):
    # correct solutions on grids where round-off amplified by 1/h^2 would
    # pass the 1e-6 gate; the spectral check reads them at round-off
    prob = parse_config(config).problem
    disc = discretize(prob, n_grid)
    report = find_solutions(prob, disc, compute_constants(disc, prob))
    assert report.notes == []
    [sol] = [s for s in report.solutions if s.annulus_id == annulus_id]
    assert sol.ode_residual <= 1e-11


def test_ode_check_tracks_the_manufactured_error():
    # the distinct-a manufactured problem: Newton's 32-point output,
    # interpolated to N points, is x* to round-off and the check reads
    # round-off at every N; with an error of known size added, at low or
    # high frequency, the check reads a fixed share of it
    prob, x_star = _manufactured_problem(((1.0, (0.3,), ()), (1.5, (), (0.4,))))
    exact32 = x_star(np.arange(32) / 32)
    res = newton_refine(prob, discretize(prob, 32).collocation(32),
                        GridFunction(1.001 * exact32, 1.0))
    for n_grid in (64, 128, 256, 512, 1024, 2048, 4096, 8192):
        t = np.arange(n_grid) / n_grid
        exact = x_star(t)
        x = resample(res.x.values, n_grid)
        assert np.abs(x - exact).max() <= 5e-14 * np.abs(exact).max()
        assert ode_residual(prob, GridFunction(x, 1.0)) <= 1e-13, n_grid
        assert ode_residual(prob, GridFunction(exact, 1.0)) <= 1e-14
        for size, k in ((1e-6, 1), (1e-9, 5), (1e-12, 3)):
            wrong = x + size * np.stack([np.cos(2.0 * math.pi * k * t), np.zeros(n_grid)])
            err = np.abs(wrong - exact).max()
            check = ode_residual(prob, GridFunction(wrong, 1.0))
            assert err / 10.0 <= check <= 2.0 * err, (n_grid, size, check, err)


def _samples_a_config():
    """The superlinear problem at lambda=0.05, N=1024, with a = the 64-sample
    triangle wave 1 + 0.3 (1 - 4 min(t, 1 - t))."""
    cfg = symmetric_config(1.0, 2.0, 0.05, n_grid=1024)
    cfg["a"] = [{"samples": (1.0 + 0.3 * (1.0 - 4.0 * np.minimum(_NODES64, 1.0 - _NODES64))).tolist()}] * 2
    return cfg


def _record_newton_grids(monkeypatch):
    """Patch ``newton_refine`` to record the grid size of every call."""
    real = solver_mod.newton_refine
    grids = []

    def record(problem, op, x0):
        grids.append(x0.n_grid)
        return real(problem, op, x0)

    monkeypatch.setattr(solver_mod, "newton_refine", record)
    return grids


def test_samples_a_doubles_newton_grid_to_256(monkeypatch):
    # the triangle wave's spectrum falls as 1/k^2 up to mode 32, so the
    # solutions' upper spectral half reads about 1e-11 of |x| at M = 128 and
    # is resolved at M = 256; both solutions are kept
    grids = _record_newton_grids(monkeypatch)
    prob = parse_config(_samples_a_config()).problem
    disc = discretize(prob, 1024)
    report = find_solutions(prob, disc, compute_constants(disc, prob))
    assert [s.annulus_id for s in report.solutions] == ["A1", "A2"] and report.notes == []
    assert grids == [32, 64, 128, 256] * 2


def test_unresolved_solution_at_the_cap_is_dropped(monkeypatch):
    # with the cap at 128 points the samples_a solutions are unresolved
    # there: each is dropped with a note, never sampled on a coarse grid
    monkeypatch.setattr(solver_mod, "MAX_POINTS", 128)
    grids = _record_newton_grids(monkeypatch)
    prob = parse_config(_samples_a_config()).problem
    disc = discretize(prob, 1024)
    report = find_solutions(prob, disc, compute_constants(disc, prob))
    assert report.solutions == [] and len(report.annuli) == 2
    assert grids == [32, 64, 128] * 2
    assert [n.split(":")[0] for n in report.notes] == ["A1", "A2"]
    for note in report.notes:
        assert " at M=128 above 1e-15, dropped" in note and "spectral tail" in note


@pytest.mark.parametrize("config_of, n_grid", [
    (symmetric_config, 16),
    (symmetric_config, 24),
    (_var_a_config, 24),
])
def test_grids_below_32_points_solve_on_all_of_them(monkeypatch, config_of, n_grid):
    # N < 32: Newton's grid is the whole N-point grid, M = N, and the
    # solution is its output as it is
    grids = _record_newton_grids(monkeypatch)
    prob = parse_config(config_of(1.0, 2.0, 0.05, n_grid=n_grid)).problem
    disc = discretize(prob, n_grid)
    report = find_solutions(prob, disc, compute_constants(disc, prob))
    assert [s.annulus_id for s in report.solutions] == ["A1", "A2"]
    assert grids == [n_grid] * 2
    assert all(s.x.n_grid == n_grid for s in report.solutions)
    if config_of is symmetric_config:
        roots = oracles.constant_solution_norms(SUPERLINEAR_TERMS, 0.05)
        for sol, root in zip(report.solutions, roots):
            assert abs(sol.norm - root) <= 1e-13 * root


def test_sixteen_points_do_not_resolve_a_variable_a_solution():
    # a = 1 + 0.3 cos at N = 16: the upper half of each solution's spectrum
    # reads about 1e-13 of its norm on all 16 points, so both are dropped
    # with a note rather than kept on a grid that does not resolve them
    prob = parse_config(_var_a_config(1.0, 2.0, 0.05, n_grid=16)).problem
    disc = discretize(prob, 16)
    report = find_solutions(prob, disc, compute_constants(disc, prob))
    assert report.solutions == [] and len(report.annuli) == 2
    assert [n.split(":")[0] for n in report.notes] == ["A1", "A2"]
    assert all(n.endswith(" at M=16 above 1e-15, dropped") for n in report.notes)


@pytest.mark.parametrize("n_grid", [16, 1024])
def test_constant_a_leveled_starts_take_no_newton_step(monkeypatch, n_grid):
    # cor1a and cor1b: a, g, e constant, so every leveled annulus seed is
    # the fixed point of Newton's operator, at N = 16 (M = N) and above
    steps = _record_newton_steps(monkeypatch)
    _forbid_newton_systems(monkeypatch)
    for name, lam in (("cor1b", 0.05), ("cor1b", 0.02), ("cor1a", 1.0)):
        prob = parse_config(PRESETS[name].config(lam, n_grid)).problem
        disc = discretize(prob, n_grid)
        report = find_solutions(prob, disc, compute_constants(disc, prob))
        assert [s.annulus_id for s in report.solutions] == PRESET_ANNULUS_IDS[name, lam]
    assert steps == [0] * 5


def test_sweep_with_equal_ends_asks_for_one_lambda(bench_disc, superlinear_small):
    # np.geomspace(0.05, 0.05, 3) puts 0.049999999999999996 in the middle;
    # every step of a sweep with equal ends is at lambda = lam_lo
    prob, cc = superlinear_small
    table = continue_lambda(prob, bench_disc, 0.05, 0.05, 3, constants=cc)
    assert [row.lam for row in table.rows] == [0.05] * 6
    assert [row.branch_id for row in table.rows] == ["b1", "b2"] * 3
