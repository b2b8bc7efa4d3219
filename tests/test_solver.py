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
    PowerLawRadial,
    Problem,
    SingularityError,
    apply_T,
    build_green_table,
    compute_constants,
    cone_membership,
    continue_lambda,
    dense_table,
    find_solutions,
    fixed_point_residual,
    kernel_quadrature,
    newton_refine,
    parse_config,
    picard_solve,
    resample,
    seed_from_annulus,
    symmetric_config,
)
import pericone.problem as problem_mod
import pericone.solver as solver_mod
from pericone.certify import default_r_grid, existence_report
from pericone.cli import build_tables
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


def test_picard_accepts_fixed_seed(bench_tables, superlinear_small):
    prob, cc = superlinear_small
    lo, _ = oracles.constant_solution_norms(SUPERLINEAR_TERMS, prob.lam)
    seed = seed_from_annulus(FakeAnnulus(lo, lo), prob, 256)
    res = picard_solve(prob, bench_tables, seed)
    assert res.converged
    assert res.iterations == 0


def test_picard_converges_sublinear(bench_tables, sublinear_unit):
    prob, cc = sublinear_unit
    seed = seed_from_annulus(FakeAnnulus(1.0, 10.0), prob, 256)
    res = picard_solve(prob, bench_tables, seed)
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

    def record(problem, tables, x):
        applied.append(x.values)
        return real_apply(problem, tables, x)

    monkeypatch.setattr(solver_mod, "apply_T", record)
    outcomes = {"converged": 0, "stalled": 0, "raised": 0}
    for prob in _picard_problems():
        tables = build_tables(prob, 256)
        coarse = solver_mod._coarse_tables(prob, tables)
        cc = compute_constants(tables, prob)
        for ann in existence_report(prob, cc, default_r_grid()):
            seed = seed_from_annulus(ann, prob, coarse[0].n_grid)

            def apply(values):
                x = GridFunction(prob.n, seed.n_grid, prob.period, values)
                return real_apply(prob, coarse, x).values

            applied.clear()
            try:
                ref = oracles.picard_reference(apply, seed.values, SingularityError)
            except Exception as exc:  # noqa: BLE001 - compared below
                ref, ref_exc = None, exc
            try:
                got = picard_solve(prob, coarse, seed)
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


def test_newton_polishes_to_tolerance(bench_tables, dense_bench_tables, sublinear_unit):
    # two-grid Newton with both grids at N points, on the generator tables:
    # the exact step, its inner system factored from the dense tables
    prob, cc = sublinear_unit
    seed = seed_from_annulus(FakeAnnulus(1.0, 10.0), prob, 256)
    pic = picard_solve(prob, bench_tables, seed)
    ref = newton_refine(prob, bench_tables, pic.x, dense_bench_tables)
    assert ref.residual <= 1e-10
    assert ref.iterations <= 6
    # once close, each step is at least superlinear
    small = [r for r in ref.history if r <= 1e-4]
    assert all(b <= max(a ** 1.5, 1e-14) for a, b in zip(small, small[1:]))


def test_newton_reconverges_after_perturbation(bench_tables, dense_bench_tables, sublinear_unit):
    prob, cc = sublinear_unit
    (norm,) = oracles.constant_solution_norms(SUBLINEAR_TERMS, prob.lam)
    rng = np.random.default_rng(5)
    c = norm / 2.0
    vals = c * (1.0 + 1e-3 * rng.standard_normal((2, 256)))
    x0 = GridFunction(2, 256, 1.0, vals)
    ref = newton_refine(prob, bench_tables, x0, dense_bench_tables)
    assert ref.iterations <= 5
    assert abs(ref.x.norm - norm) <= 1e-9


def _dense_newton_step(problem, tables, x, fvals):
    """Reference step: the full (nN) x (nN) exact Jacobian of F = x - T x.

    Block (i, j) is delta_ij I - lam Q_i diag(g_i phi_i'(u) x_j / u), with
    phi_i' summed from the power-law terms here, independently of dphi.
    """
    n, n_grid = x.n, x.n_grid
    u = np.sqrt(np.sum(x.values ** 2, axis=0))
    g = problem.g_on_grid(n_grid)
    jac = np.eye(n * n_grid)
    for i in range(n):
        quad = kernel_quadrature(tables[i]).matrix
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
    ), [build_green_table(coef, 64) for coef in a]


@pytest.mark.parametrize("case", ["n2-unequal", "n3", "mixed-e"])
def test_newton_step_matches_dense_solve(case):
    n_grid = 64
    t = np.arange(n_grid) / n_grid
    wave = np.cos(2.0 * math.pi * t)
    if case == "n3":
        prob, tables = _three_component_problem()
        vals = np.stack([0.4 + 0.1 * wave, 0.2 - 0.05 * np.sin(2.0 * math.pi * t),
                         0.3 + 0.15 * wave ** 2])
    else:
        e_spec = {"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}} if case == "mixed-e" else None
        prob = make_problem(1.0, 2.0, 0.05, e_spec=e_spec, n_grid=n_grid)
        tables = [build_green_table(Constant(1.0), n_grid),
                  build_green_table(Constant(2.0), n_grid)]
        vals = np.stack([0.3 + 0.1 * wave, 0.1 + 0.02 * np.sin(4.0 * math.pi * t)])
    # the two-grid step with both grids at N points: inner system from the
    # dense tables, back-substitution through the FFT or semiseparable operators
    dense = [dense_table(tbl) for tbl in tables]
    x = GridFunction(prob.n, n_grid, 1.0, vals)
    fvals = x.values - apply_T(prob, tables, x).values
    ref = _dense_newton_step(prob, dense, x, fvals)
    step = _newton_step(prob, tables, x, fvals, dense)
    assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_two_solutions_superlinear(bench_tables, superlinear_small):
    prob, cc = superlinear_small
    report = find_solutions(prob, bench_tables, cc)
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


def test_no_solution_superlinear_lambda_one(bench_tables):
    prob = make_problem(1.0, 2.0, 1.0)
    cc = compute_constants(bench_tables, prob)
    assert not oracles.has_constant_solution(SUPERLINEAR_TERMS, 1.0)
    report = find_solutions(prob, bench_tables, cc)
    assert report.annuli == []
    assert report.solutions == []


def test_sublinear_matches_oracle(bench_tables):
    for lam in (0.1, 1.0, 10.0):
        prob = make_problem(0.5, 0.5, lam)
        cc = compute_constants(bench_tables, prob)
        report = find_solutions(prob, bench_tables, cc)
        assert len(report.solutions) == 1
        (norm,) = oracles.constant_solution_norms(SUBLINEAR_TERMS, lam)
        sol = report.solutions[0]
        assert abs(sol.norm - norm) <= 1e-8
        ann = report.annuli[0]
        assert ann.r_in < sol.norm < ann.r_out


def test_mixed_two_solutions(bench_tables):
    prob = make_problem(1.0, 2.0, 0.01,
                        e_spec={"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}})
    cc = compute_constants(bench_tables, prob)
    report = find_solutions(prob, bench_tables, cc)
    assert len(report.solutions) == 2
    for sol in report.solutions:
        assert sol.fp_residual <= 1e-8
        assert sol.ode_residual <= 1e-6
        assert sol.positive_min > 0.0
        assert cone_membership(sol.x, cc.sigma).member


def test_grid_robustness():
    t128 = build_green_table(Constant(1.0), 128)
    t256 = build_green_table(Constant(1.0), 256)
    norms = {}
    for n_grid, table in ((128, t128), (256, t256)):
        prob = make_problem(1.0, 2.0, 0.05, n_grid=n_grid)
        cc = compute_constants([table, table], prob)
        report = find_solutions(prob, [table, table], cc)
        norms[n_grid] = sorted(s.norm for s in report.solutions)
    assert len(norms[128]) == len(norms[256]) == 2
    for a, b in zip(norms[128], norms[256]):
        assert abs(a - b) <= 1e-5


def test_branch_sweep_sublinear(bench_tables, sublinear_unit):
    prob, cc = sublinear_unit
    table = continue_lambda(prob, bench_tables, 0.1, 10.0, 5, constants=cc)
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


def test_branch_sweep_superlinear_fold(bench_tables, superlinear_small):
    prob, cc = superlinear_small
    table = continue_lambda(prob, bench_tables, 0.05, 0.5, 6, constants=cc)
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


def test_sweep_argument_validation(bench_tables, sublinear_unit):
    prob, cc = sublinear_unit
    empty = continue_lambda(prob, bench_tables, 0.1, 1.0, 0, constants=cc)
    assert empty.rows == []
    with pytest.raises(DomainError):
        continue_lambda(prob, bench_tables, 0.0, 1.0, 3, constants=cc)


@pytest.mark.parametrize("lam_lo, lam_hi", [
    (math.nan, 1.0), (math.inf, 1.0), (-0.1, 1.0),
    (0.1, math.nan), (0.1, math.inf), (0.1, 0.0), (0.1, -1.0),
])
@pytest.mark.parametrize("steps", [0, 3])
def test_sweep_rejects_bad_lambda_ends(bench_tables, sublinear_unit, lam_lo, lam_hi, steps):
    prob, cc = sublinear_unit
    with pytest.raises(DomainError):
        continue_lambda(prob, bench_tables, lam_lo, lam_hi, steps, constants=cc)


def test_lift_is_exact_on_constants():
    x = np.array([[0.37] * 64, [19.99] * 64])
    for n_grid in (256, 96):
        assert np.array_equal(resample(x, n_grid), np.array([[0.37] * n_grid, [19.99] * n_grid]))
    assert resample(x, 64) is x


def _trig_polynomial(t):
    # frequencies up to the 64-point Nyquist bin, whose cosine the halving keeps
    return (1.0 + 0.3 * np.cos(2 * np.pi * t) + 0.2 * np.sin(10 * np.pi * t)
            + 0.1 * np.cos(62 * np.pi * t + 0.4) + 0.05 * np.cos(64 * np.pi * t))


def test_lift_interpolates_trig_polynomials():
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
    # on the base grid.  On the base-grid nodes the kept part is the
    # function itself
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
    prob = parse_config(config_of(alpha, beta, lam, n_grid=n_grid)).problem
    table = build_green_table(prob.a[0], n_grid)
    tables = [table, table]
    cc = compute_constants(tables, prob)
    report = find_solutions(prob, tables, cc)
    g, e = prob.g_on_grid(n_grid), prob.e_on_grid(n_grid)
    dense = kernel_quadrature(dense_table(table)).matrix
    expect = []
    for ann in report.annuli:
        seed = seed_from_annulus(ann, prob, n_grid).values
        x = oracles.single_grid_solve([dense] * 2, g, e, prob.f.terms,
                                      prob.lam, seed)
        if x is not None:
            expect.append((ann.annulus_id, float(np.abs(x).max(axis=1).sum())))
    got = [(s.annulus_id, s.norm) for s in report.solutions]
    assert len(got) == len(expect) == count
    for (gid, gnorm), (eid, enorm) in zip(sorted(got), sorted(expect)):
        assert gid == eid
        assert abs(gnorm - enorm) <= 1e-12 * enorm


def test_two_grid_sweep_warm_starts():
    # warm starts enter the base grid by Fourier truncation; each step must
    # land on the fine solutions a fresh solve at that lambda finds
    table = build_green_table(Constant(1.0), 512)
    prob = make_problem(1.0, 2.0, 0.04, n_grid=512)
    cc = compute_constants([table, table], prob)
    sweep = continue_lambda(prob, [table, table], 0.04, 0.05, 2, constants=cc)
    assert {row.branch_id for row in sweep.rows} == {"b1", "b2"}
    for lam in (0.04, 0.05):
        rep = find_solutions(replace(prob, lam=lam), [table, table], cc)
        rows = sorted(row.norm for row in sweep.rows if row.lam == lam)
        fresh = sorted(s.norm for s in rep.solutions)
        assert len(rows) == len(fresh) == 2
        for a, b in zip(rows, fresh):
            assert abs(a - b) <= 1e-10 * b


@pytest.mark.parametrize("n_grid", [64, 256, 512, 1024])
def test_coarse_newton_failure(monkeypatch, n_grid):
    # a failed Newton on the 64-point base grid drops the annulus at every N:
    # there is no second solve path to retry on
    table = build_green_table(Constant(1.0), n_grid)
    prob = make_problem(1.0, 2.0, 0.05, n_grid=n_grid)
    cc = compute_constants([table, table], prob)
    real = solver_mod.newton_refine

    def coarse_fails(problem, tables, x0, coarse=None):
        if x0.n_grid == solver_mod.COARSE_GRID:
            raise NoConvergenceError("forced")
        return real(problem, tables, x0, coarse)

    monkeypatch.setattr(solver_mod, "newton_refine", coarse_fails)
    report = find_solutions(prob, [table, table], cc)
    assert len(report.annuli) == 2
    assert report.solutions == []
    assert sum(": newton failed (forced)" in n for n in report.notes) == 2
    assert not any("two-grid correction failed" in n for n in report.notes)


@pytest.mark.parametrize("n_grid", [66, 96, 130, 1030, 2062, 4094])
def test_base_grid_has_64_points(monkeypatch, n_grid):
    # at every N, whatever its factors, each base-grid Newton call sees 64
    # points and every LU a solve factors is 64 x 64
    table = build_green_table(Constant(1.0), n_grid)
    prob = make_problem(1.0, 2.0, 0.05, n_grid=n_grid)
    cc = compute_constants([table, table], prob)
    real_newton, real_solve = solver_mod.newton_refine, solver_mod._coupling_solve
    grids, systems = [], []

    def record_newton(problem, tables, x0, coarse):
        grids.append((tables is coarse, x0.n_grid))
        return real_newton(problem, tables, x0, coarse)

    def record_solve(quad, rows, cols, rhs):
        systems.append(rhs.size)
        return real_solve(quad, rows, cols, rhs)

    monkeypatch.setattr(solver_mod, "newton_refine", record_newton)
    monkeypatch.setattr(solver_mod, "_coupling_solve", record_solve)
    report = find_solutions(prob, [table, table], cc)
    assert [s.annulus_id for s in report.solutions] == ["A1", "A2"]
    assert grids == [(True, 64), (False, n_grid)] * 2
    assert systems and set(systems) == {64}


def test_base_tables_follow_the_coefficients():
    # one dense 64-point base table per distinct fine table, built from the
    # coefficient of the components that share it (a_1 = a_3 here)
    a = (Constant(1.0), FourierSeries(1.0, (0.3,)), Constant(1.0))
    prob = Problem(n=3, period=1.0, a=a, g=(Constant(1.0),) * 3, e=(Constant(0.0),) * 3,
                   f=PowerLawRadial((SUPERLINEAR_TERMS,) * 3), lam=0.05)
    shared, other = build_green_table(a[0], 130), build_green_table(a[1], 130)
    base = solver_mod._coarse_tables(prob, [shared, other, shared])
    assert base[0] is base[2] and base[1] is not base[0]
    for tbl, coef in zip(base, a):
        want = kernel_quadrature(dense_table(build_green_table(coef, 64))).matrix
        assert np.array_equal(kernel_quadrature(tbl).matrix, want)


@pytest.mark.parametrize("n_grid", [64, 256, 512, 1024])
def test_two_grid_correction_failure_drops(monkeypatch, n_grid):
    # a failed two-grid correction drops the annulus with its own note, at
    # every N: at N=64 both grids are one and the correction still runs
    table = build_green_table(Constant(1.0), n_grid)
    prob = make_problem(1.0, 2.0, 0.05, n_grid=n_grid)
    cc = compute_constants([table, table], prob)
    assert len(find_solutions(prob, [table, table], cc).solutions) == 2
    real = solver_mod.newton_refine

    def corrections_fail(problem, tables, x0, coarse):
        if tables is not coarse:
            raise NoConvergenceError("forced")
        return real(problem, tables, x0, coarse)

    monkeypatch.setattr(solver_mod, "newton_refine", corrections_fail)
    report = find_solutions(prob, [table, table], cc)
    assert not any("newton failed" in n for n in report.notes)
    assert report.solutions == []
    assert sum(": two-grid correction failed (forced)" in n for n in report.notes) == 2


def test_one_two_grid_correction_reaches_round_off(monkeypatch):
    # one correction, the mandatory one, takes every lifted base-grid solution
    # of the preset problems at N=96 and N=256 to a residual of 1e-13, or to
    # round-off (1e-15 relative) for the solutions with norm above 100.  At
    # N=96 the base grid has 64 points, and the grids do not nest
    real = solver_mod.newton_refine
    corrections = []

    def record(problem, tables, x0, coarse):
        res = real(problem, tables, x0, coarse)
        if tables is not coarse:
            corrections.append(res)
        return res

    monkeypatch.setattr(solver_mod, "newton_refine", record)
    problems = 0
    for n_grid in (96, 256):
        for name in sorted(PRESETS):
            preset = PRESETS[name]
            for lam in preset.lambdas:
                parsed = parse_config(preset.config(lam, n_grid))
                tables = build_tables(parsed.problem, parsed.n_grid)
                cc = compute_constants(tables, parsed.problem)
                before = len(corrections)
                report = find_solutions(parsed.problem, tables, cc, preset.ode_tol)
                assert len(corrections) - before >= len(report.solutions) >= 1
                problems += 1
    assert problems == 16
    for res in corrections:
        assert res.iterations == 1
        assert res.history[0] > res.residual
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
    tables = build_tables(prob, 256)
    table = continue_lambda(prob, tables, lam_lo, lam_hi, steps,
                            constants=compute_constants(tables, prob))
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
            tables = build_tables(parsed.problem, parsed.n_grid)
            cc = compute_constants(tables, parsed.problem)
            report = find_solutions(parsed.problem, tables, cc, preset.ode_tol)
            got[name, lam] = [s.annulus_id for s in report.solutions]
    assert got == PRESET_ANNULUS_IDS
    prob = make_problem(1.0, 2.0, 0.01)
    tables = build_tables(prob, 256)
    sweep = continue_lambda(prob, tables, 0.01, 0.3, 6,
                            constants=compute_constants(tables, prob))
    # both branches at every step, under the ids the Picard warm-up gave them
    rows = [(row.branch_id, row.annulus_id) for row in sweep.rows]
    assert rows == [("b1", "A1"), ("b2", "A2")] * 6
    assert [row.lam for row in sweep.rows[::2]] == [float(v) for v in np.geomspace(0.01, 0.3, 6)]


def test_sweep_steps_skip_the_coefficient_audit(monkeypatch):
    # each step's problem is the swept one at the step's lambda, with the
    # audited g_min, e_abs_max and sign_profile carried over, not recomputed
    prob = make_problem(1.0, 2.0, 0.01, e_spec={"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}})
    tables = build_tables(prob, 256)
    cc = compute_constants(tables, prob)
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
    table = continue_lambda(prob, tables, 0.01, 0.3, 6, constants=cc)
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

    def record(problem, tables, coarse, constants, start, annulus_id, *args):
        calls.append((problem.lam, annulus_id))
        return real(problem, tables, coarse, constants, start, annulus_id, *args)

    monkeypatch.setattr(solver_mod, "_solve_from_seed", record)
    return calls


def test_sweep_seeds_no_annulus_a_warm_start_holds(monkeypatch):
    # the bench sweep: after the first step both warm starts land inside
    # the two certified annuli, so no step seeds either annulus again
    calls = _record_solves(monkeypatch)
    prob = make_problem(1.0, 2.0, 0.01)
    tables = build_tables(prob, 256)
    sweep = continue_lambda(prob, tables, 0.01, 0.3, 6,
                            constants=compute_constants(tables, prob))
    assert [(row.branch_id, row.annulus_id) for row in sweep.rows] == [("b1", "A1"), ("b2", "A2")] * 6
    lams = [float(v) for v in np.geomspace(0.01, 0.3, 6)]
    assert calls == [(lams[0], "A1"), (lams[0], "A2")] + [
        (lam, bid) for lam in lams[1:] for bid in ("warm:b1", "warm:b2")]


def test_sweep_seeds_the_annulus_of_a_new_branch(monkeypatch):
    # at lambda=0.004 one annulus is certified; at 0.008 a second one is,
    # and no warm start lies in it, so it is seeded and opens branch b2
    calls = _record_solves(monkeypatch)
    prob = make_problem(1.0, 2.0, 0.004)
    tables = build_tables(prob, 256)
    cc = compute_constants(tables, prob)
    assert [len(existence_report(replace(prob, lam=lam), cc, default_r_grid()))
            for lam in (0.004, 0.008)] == [1, 2]
    sweep = continue_lambda(prob, tables, 0.004, 0.008, 2, constants=cc)
    assert calls == [(0.004, "A1"), (0.008, "warm:b1"), (0.008, "A2")]
    assert [(row.lam, row.branch_id, row.annulus_id) for row in sweep.rows] == [
        (0.004, "b1", "A1"), (0.008, "b1", "A1"), (0.008, "b2", "A2")]
    assert sweep.notes == []


def test_sweep_builds_its_base_tables_once(monkeypatch):
    # every step of a sweep solves on the same 64-point base tables
    real = solver_mod.build_green_table
    built = []

    def count(coef, n_grid):
        built.append((coef, n_grid))
        return real(coef, n_grid)

    cfg = symmetric_config(1.0, 2.0, 0.01)
    cfg["a"] = [{"fourier": {"c0": 1.0, "cos": [0.3], "sin": []}}] * 2
    prob = parse_config(cfg).problem
    tables = build_tables(prob, 256)
    cc = compute_constants(tables, prob)
    monkeypatch.setattr(solver_mod, "build_green_table", count)
    sweep = continue_lambda(prob, tables, 0.01, 0.3, 6, constants=cc)
    assert len({row.lam for row in sweep.rows}) == 6
    assert built == [(prob.a[0], 64)]


def _record_base_steps(monkeypatch):
    """Patch ``newton_refine`` to record the steps of every base-grid call."""
    real = solver_mod.newton_refine
    steps = []

    def record(problem, tables, x0, coarse):
        res = real(problem, tables, x0, coarse)
        if tables is coarse:
            steps.append(res.iterations)
        return res

    monkeypatch.setattr(solver_mod, "newton_refine", record)
    return steps


def test_leveled_cor1b_starts_are_base_grid_fixed_points():
    # constant coefficients: the one-mode level of the constant annulus seed
    # is the base-grid fixed point, so Newton takes only its forced step
    prob = parse_config(PRESETS["cor1b"].config(0.05, 64)).problem
    tables = build_tables(prob, 64)
    coarse = solver_mod._coarse_tables(prob, tables)
    annuli = existence_report(prob, compute_constants(tables, prob), default_r_grid())
    assert [ann.annulus_id for ann in annuli] == ["A1", "A2"]
    for ann in annuli:
        seed = seed_from_annulus(ann, prob, 64)
        start = solver_mod._level_start(prob, coarse, seed, (ann.r_in, ann.r_out))
        assert fixed_point_residual(prob, coarse, seed) > 1e-3 * seed.norm
        assert fixed_point_residual(prob, coarse, start) <= 1e-13 * start.norm
        assert newton_refine(prob, coarse, start, coarse).iterations == 1


def test_every_preset_annulus_levels_inside_it():
    # the one-mode equation changes sign across every certified annulus of
    # the presets, sign-changing e included, and its root lies inside
    for name in sorted(PRESETS):
        for lam in PRESETS[name].lambdas:
            prob = parse_config(PRESETS[name].config(lam, 256)).problem
            tables = build_tables(prob, 256)
            coarse = solver_mod._coarse_tables(prob, tables)
            for ann in existence_report(prob, compute_constants(tables, prob),
                                        default_r_grid()):
                seed = seed_from_annulus(ann, prob, 64)
                start = solver_mod._level_start(prob, coarse, seed, (ann.r_in, ann.r_out))
                assert start is not seed, (name, lam, ann.annulus_id)
                assert ann.r_in * (1.0 - 1e-12) <= start.norm <= ann.r_out * (1.0 + 1e-12)


def test_level_without_a_root_keeps_the_start():
    # no sign change in the bracket, or past the fold no root at all: the
    # start comes back as it went in
    prob = make_problem(1.0, 2.0, 0.05, n_grid=64)
    coarse = solver_mod._coarse_tables(prob, build_tables(prob, 64))
    lo, hi = oracles.constant_solution_norms(SUPERLINEAR_TERMS, prob.lam)
    assert lo < 1.0 < 2.0 < hi
    seed = seed_from_annulus(FakeAnnulus(1.0, 2.0), prob, 64)
    values = seed.values.copy()
    assert solver_mod._level_start(prob, coarse, seed, (1.0, 2.0)) is seed
    past = replace(prob, lam=0.5)
    assert not oracles.constant_solution_norms(SUPERLINEAR_TERMS, past.lam)
    assert solver_mod._level_start(past, coarse, seed) is seed
    assert np.array_equal(seed.values, values)


def test_bench_sweep_takes_one_base_grid_step_per_solve(monkeypatch):
    # every annulus seed and every warm start of the bench sweep is leveled
    # onto its base-grid fixed point
    steps = _record_base_steps(monkeypatch)
    prob = make_problem(1.0, 2.0, 0.01)
    tables = build_tables(prob, 256)
    sweep = continue_lambda(prob, tables, 0.01, 0.3, 6,
                            constants=compute_constants(tables, prob))
    assert [(row.branch_id, row.annulus_id) for row in sweep.rows] == [("b1", "A1"), ("b2", "A2")] * 6
    assert steps == [1] * 12


@pytest.mark.parametrize("alpha, beta, lam, count", [
    (1.0, 2.0, 0.05, 2),
    (0.5, 0.5, 1.0, 1),
])
def test_variable_a_keeps_its_solutions(monkeypatch, alpha, beta, lam, count):
    # a = 1 + 0.3 cos: the solutions are not constant and the level fixes
    # only their one-mode part; the counts stay and base Newton is shorter
    steps = _record_base_steps(monkeypatch)
    prob = parse_config(_var_a_config(alpha, beta, lam, n_grid=256)).problem
    tables = build_tables(prob, 256)
    report = find_solutions(prob, tables, compute_constants(tables, prob))
    assert len(report.solutions) == count
    assert len(steps) == count and max(steps) <= 3


def test_verified_fp_residual_is_the_fixed_point_residual():
    # the gate takes the residual the fine Newton stopped at: bit for bit the
    # one T applied afresh at the accepted x gives
    for name in sorted(PRESETS):
        preset = PRESETS[name]
        for lam in preset.lambdas:
            prob = parse_config(preset.config(lam, 256)).problem
            tables = build_tables(prob, 256)
            report = find_solutions(prob, tables, compute_constants(tables, prob),
                                    preset.ode_tol)
            for sol in report.solutions:
                assert sol.fp_residual == fixed_point_residual(prob, tables, sol.x)
