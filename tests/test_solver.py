import math
from dataclasses import replace

import numpy as np
import pytest

from pericone import (
    Constant,
    DomainError,
    FourierSeries,
    GridFunction,
    PowerLawRadial,
    Problem,
    apply_T,
    build_green_table,
    compute_constants,
    cone_membership,
    continue_lambda,
    find_solutions,
    kernel_quadrature,
    newton_refine,
    picard_solve,
    seed_from_annulus,
)
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


def test_newton_polishes_to_tolerance(bench_tables, sublinear_unit):
    prob, cc = sublinear_unit
    seed = seed_from_annulus(FakeAnnulus(1.0, 10.0), prob, 256)
    pic = picard_solve(prob, bench_tables, seed)
    ref = newton_refine(prob, bench_tables, pic.x)
    assert ref.residual <= 1e-10
    assert ref.iterations <= 6
    # once close, each step is at least superlinear
    small = [r for r in ref.history if r <= 1e-4]
    assert all(b <= max(a ** 1.5, 1e-14) for a, b in zip(small, small[1:]))


def test_newton_reconverges_after_perturbation(bench_tables, sublinear_unit):
    prob, cc = sublinear_unit
    (norm,) = oracles.constant_solution_norms(SUBLINEAR_TERMS, prob.lam)
    rng = np.random.default_rng(5)
    c = norm / 2.0
    vals = c * (1.0 + 1e-3 * rng.standard_normal((2, 256)))
    x0 = GridFunction(2, 256, 1.0, vals)
    ref = newton_refine(prob, bench_tables, x0)
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
        quad = kernel_quadrature(tables[i])
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
    x = GridFunction(prob.n, n_grid, 1.0, vals)
    fvals = x.values - apply_T(prob, tables, x).values
    ref = _dense_newton_step(prob, tables, x, fvals)
    step = _newton_step(prob, tables, x, fvals)
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

