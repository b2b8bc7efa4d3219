import math
from dataclasses import replace

import numpy as np
import pytest

import pericone.operator as operator_mod
import pericone.solver as solver
from pericone import (
    PRESETS,
    Constant,
    DomainError,
    FourierSeries,
    GridFunction,
    PowerLawRadial,
    Problem,
    SingularityError,
    annulus_extrema,
    apply_T,
    build_green_table,
    coarsen,
    compute_constants,
    cone_membership,
    default_r_grid,
    eta_lower,
    existence_report,
    fixed_point_residual,
    kernel_quadrature,
    ode_residual,
    parse_config,
    picard_solve,
    seed_from_annulus,
)
from pericone.cli import build_tables

import oracles
from conftest import (
    SUPERLINEAR_TERMS,
    kernel_cone_points,
    make_problem,
    smooth_cone_points,
)


def test_constant_nonlinearity_inverts_kernel(bench_tables):
    # f identically 4: T x = lam * 4 * integral of G = lam * 4 / k^2
    prob = make_problem(1.0, 2.0, 0.3)
    prob = replace(prob, f=PowerLawRadial((((4.0, 0.0),), ((4.0, 0.0),))))
    x = GridFunction(2, 256, 1.0, np.full((2, 256), 0.7))
    out = apply_T(prob, bench_tables, x)
    assert np.max(np.abs(out.values - 0.3 * 4.0)) <= 1e-8


def test_lambda_zero_annihilates(bench_tables):
    prob = make_problem(1.0, 2.0, 0.0)
    x = GridFunction(2, 256, 1.0, np.full((2, 256), 0.7))
    out = apply_T(prob, bench_tables, x)
    assert np.max(np.abs(out.values)) == 0.0


def test_linearity_in_lambda(bench_tables):
    prob1 = make_problem(1.0, 2.0, 0.2)
    prob2 = make_problem(1.0, 2.0, 0.4)
    x = GridFunction(2, 256, 1.0, np.full((2, 256), 1.3))
    y1 = apply_T(prob1, bench_tables, x)
    y2 = apply_T(prob2, bench_tables, x)
    assert np.max(np.abs(y2.values - 2.0 * y1.values)) <= 1e-12


def test_cone_invariance(bench_tables, superlinear_small):
    prob, cc = superlinear_small
    rng = np.random.default_rng(11)
    pts = smooth_cone_points(prob, 256, cc.sigma, 50, rng)
    pts += kernel_cone_points(prob, bench_tables, 50, rng)
    for x in pts:
        out = apply_T(prob, bench_tables, x)
        rep = cone_membership(out, cc.sigma)
        assert rep.margin >= -1e-10
        assert rep.member


def test_operator_estimates_on_annulus(bench_tables, superlinear_small):
    prob, cc = superlinear_small
    rng = np.random.default_rng(23)
    for r in (0.3, 1.0, 5.0):
        eta = eta_lower(prob.f, r, cc.sigma, prob.n)
        _, big_hat = annulus_extrema(prob.f, r, cc.sigma, prob.n)
        low = prob.lam * cc.Gamma * eta * r
        high = prob.lam * (cc.C_hat * big_hat
                           + float((cc.M * cc.int_abs_e).sum()))
        pts = smooth_cone_points(prob, 256, cc.sigma, 20, rng, norm=r)
        pts += kernel_cone_points(prob, bench_tables, 15, rng, norm=r)
        for x in pts:
            out = apply_T(prob, bench_tables, x)
            slack = 1e-8 * (1.0 + x.norm)
            assert out.norm >= low - slack
            assert out.norm <= high + slack


def test_fixed_point_residual_at_oracle_root(bench_tables):
    lam = 0.05
    norms = oracles.constant_solution_norms(SUPERLINEAR_TERMS, lam)
    assert len(norms) == 2
    prob = make_problem(1.0, 2.0, lam)
    for norm in norms:
        c = norm / 2.0
        x = GridFunction(2, 256, 1.0, np.full((2, 256), c))
        assert fixed_point_residual(prob, bench_tables, x) <= 1e-8


def test_ode_residual_constant_solution(bench_tables):
    lam = 0.05
    norms = oracles.constant_solution_norms(SUPERLINEAR_TERMS, lam)
    prob = make_problem(1.0, 2.0, lam)
    c = norms[0] / 2.0
    x = GridFunction(2, 256, 1.0, np.full((2, 256), c))
    assert ode_residual(prob, x) <= 1e-8


def test_ode_residual_flags_non_solution(bench_tables):
    prob = make_problem(1.0, 2.0, 0.05)
    x = GridFunction(2, 256, 1.0, np.full((2, 256), 5.0))
    assert ode_residual(prob, x) > 0.1


def test_singularity_guard(bench_tables):
    prob = make_problem(1.0, 2.0, 0.05)
    x = GridFunction(2, 256, 1.0, np.zeros((2, 256)))
    with pytest.raises(SingularityError):
        apply_T(prob, bench_tables, x)


def test_mixed_split_violation_raises(bench_tables):
    # pure-growth f with a negative e: at small amplitude the pointwise
    # split g*f/2 + e dips below zero and the operator must refuse
    prob = Problem(
        n=1, period=1.0,
        a=(Constant(1.0),), g=(Constant(1.0),),
        e=(FourierSeries(-0.1, (0.2,)),),
        f=PowerLawRadial((((1.0, 2.0),),)), lam=1.0)
    x = GridFunction(1, 256, 1.0, np.full((1, 256), 0.1))
    with pytest.raises(DomainError):
        apply_T(prob, [bench_tables[0]], x)
    # at large amplitude the same profile is admissible
    x_big = GridFunction(1, 256, 1.0, np.full((1, 256), 3.0))
    out = apply_T(prob, [bench_tables[0]], x_big)
    assert out.values.min() > 0.0


def test_table_grid_mismatch_rejected(bench_tables):
    prob = make_problem(1.0, 2.0, 0.05)
    x = GridFunction(2, 128, 1.0, np.full((2, 128), 1.0))
    with pytest.raises(DomainError):
        apply_T(prob, bench_tables, x)


def _resampled_apply(prob, tables):
    quads = [kernel_quadrature(tbl) for tbl in tables]
    return lambda values: oracles.apply_T_resampled(
        quads, prob.g, prob.e, prob.f.terms, prob.lam, prob.period, values)


@pytest.mark.parametrize("e", [Constant(0.0), FourierSeries(-0.1, (0.2,), (0.1,))])
def test_apply_T_bitwise_equals_resampling(bench_tables, e):
    # the stored grid samples change where g and e come from, not one bit of
    # T x; g varies, so a reordered g * f + e would show
    prob = Problem(n=2, period=1.0, a=(Constant(1.0),) * 2,
                   g=(FourierSeries(1.5, (0.5,), (0.2,)), FourierSeries(1.0, (), (0.3,))),
                   e=(e, e), f=PowerLawRadial((SUPERLINEAR_TERMS,) * 2), lam=0.05)
    reference = _resampled_apply(prob, bench_tables)
    rng = np.random.default_rng(11)
    for x in smooth_cone_points(prob, 256, 0.8, 3, rng, norm=2.0):
        assert apply_T(prob, bench_tables, x).values.tobytes() == reference(x.values).tobytes()


@pytest.mark.parametrize("name, lam", [
    ("cor1a", 1.0), ("cor1b", 0.05), ("cor2a", 8.0), ("cor2b", 0.01)])
def test_picard_iterates_bitwise_equal_resampling(monkeypatch, name, lam):
    # the coarse-grid Picard solve of each preset's first annulus, iterate by
    # iterate, against a loop that samples g and e afresh on every step
    prob = parse_config(PRESETS[name].config(lam)).problem
    tables = build_tables(prob, 256)
    coarse = solver._coarse_tables(tables)
    ann = existence_report(prob, compute_constants(tables, prob), default_r_grid())[0]
    seed = seed_from_annulus(ann, prob, coarse[0].n_grid)

    seen = []

    def recording_apply_T(problem, tabs, x):
        seen.append(x.values.copy())
        return apply_T(problem, tabs, x)

    monkeypatch.setattr(solver, "apply_T", recording_apply_T)
    result = picard_solve(prob, coarse, seed)
    assert result.converged
    iterates = oracles.damped_picard_iterates(_resampled_apply(prob, coarse), seed.values)
    assert len(seen) == len(iterates) == result.iterations + 1
    for k, (got, ref) in enumerate(zip(seen, iterates)):
        assert got.tobytes() == ref.tobytes(), k


@pytest.mark.parametrize("dense", [False, True], ids=["generators", "coarsened"])
def test_apply_T_applies_each_shared_table_once(monkeypatch, dense):
    # components 0 and 2 share one table: apply_T applies its operator once,
    # to both rows, and each row comes out as the operator applied to it alone
    shared = build_green_table(Constant(1.0), 64)
    other = build_green_table(FourierSeries(1.0, (0.3,)), 64)
    if dense:
        shared, other = coarsen(shared, 1), coarsen(other, 1)
    tables = [shared, other, shared]
    terms = (SUPERLINEAR_TERMS,) * 3
    prob = Problem(n=3, period=1.0, a=(Constant(1.0), FourierSeries(1.0, (0.3,)), Constant(1.0)),
                   g=(Constant(1.0),) * 3, e=(Constant(0.0),) * 3,
                   f=PowerLawRadial(terms), lam=0.05)
    x = GridFunction(3, 64, 1.0, 0.4 + 0.1 * np.cos(2.0 * math.pi * np.arange(64) / 64)
                     * np.array([[1.0], [0.5], [-1.0]]))
    calls = []

    def counting(tbl):
        calls.append(tbl)
        return kernel_quadrature(tbl)

    monkeypatch.setattr(operator_mod, "kernel_quadrature", counting)
    out = apply_T(prob, tables, x).values
    assert len(calls) == 2 and calls[0] is shared and calls[1] is other
    w = out / prob.lam
    rows = [kernel_quadrature(tbl) @ (prob.f.phi(i, np.sqrt((x.values ** 2).sum(axis=0))))
            for i, tbl in enumerate(tables)]
    for i in range(3):
        assert np.max(np.abs(w[i] - rows[i])) <= 1e-14 * np.max(np.abs(rows[i]))
