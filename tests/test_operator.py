import math
from dataclasses import replace

import numpy as np
import pytest

import pericone.operator as operator_mod
import pericone.solver as solver
from pericone import (
    PRESETS,
    Constant,
    Discretization,
    DomainError,
    FourierSeries,
    GridFunction,
    PowerLawRadial,
    Problem,
    Samples,
    SingularityError,
    annulus_extrema,
    apply_T,
    compute_constants,
    cone_membership,
    default_r_grid,
    discretize,
    eta_lower,
    existence_report,
    fixed_point_residual,
    kernel_quadrature,
    ode_residual,
    parse_config,
    picard_solve,
    seed_from_annulus,
)

import oracles
from conftest import (
    SUPERLINEAR_TERMS,
    kernel_cone_points,
    make_problem,
    smooth_cone_points,
)


def test_constant_nonlinearity_inverts_kernel(bench_disc):
    # f identically 4: T x = lam * 4 * integral of G = lam * 4 / k^2
    prob = make_problem(1.0, 2.0, 0.3)
    prob = replace(prob, f=PowerLawRadial((((4.0, 0.0),), ((4.0, 0.0),))))
    x = GridFunction(np.full((2, 256), 0.7), 1.0)
    out = apply_T(prob, bench_disc, x)
    assert np.max(np.abs(out.values - 0.3 * 4.0)) <= 1e-8


def test_lambda_zero_annihilates(bench_disc):
    prob = make_problem(1.0, 2.0, 0.0)
    x = GridFunction(np.full((2, 256), 0.7), 1.0)
    out = apply_T(prob, bench_disc, x)
    assert np.max(np.abs(out.values)) == 0.0


def test_linearity_in_lambda(bench_disc):
    prob1 = make_problem(1.0, 2.0, 0.2)
    prob2 = make_problem(1.0, 2.0, 0.4)
    x = GridFunction(np.full((2, 256), 1.3), 1.0)
    y1 = apply_T(prob1, bench_disc, x)
    y2 = apply_T(prob2, bench_disc, x)
    assert np.max(np.abs(y2.values - 2.0 * y1.values)) <= 1e-12


def test_cone_invariance(bench_disc, superlinear_small):
    prob, cc = superlinear_small
    rng = np.random.default_rng(11)
    pts = smooth_cone_points(prob, 256, cc.sigma, 50, rng)
    pts += kernel_cone_points(prob, bench_disc, 50, rng)
    for x in pts:
        out = apply_T(prob, bench_disc, x)
        rep = cone_membership(out, cc.sigma)
        assert rep.margin >= -1e-10
        assert rep.member


def test_operator_estimates_on_annulus(bench_disc, superlinear_small):
    prob, cc = superlinear_small
    rng = np.random.default_rng(23)
    for r in (0.3, 1.0, 5.0):
        eta = eta_lower(prob.f, r, cc.sigma, prob.n)
        _, big_hat = annulus_extrema(prob.f, r, cc.sigma, prob.n)
        low = prob.lam * cc.Gamma * eta * r
        high = prob.lam * (cc.C_hat * big_hat
                           + float((cc.M * cc.int_abs_e).sum()))
        pts = smooth_cone_points(prob, 256, cc.sigma, 20, rng, norm=r)
        pts += kernel_cone_points(prob, bench_disc, 15, rng, norm=r)
        for x in pts:
            out = apply_T(prob, bench_disc, x)
            slack = 1e-8 * (1.0 + x.norm)
            assert out.norm >= low - slack
            assert out.norm <= high + slack


def test_fixed_point_residual_at_oracle_root(bench_disc):
    lam = 0.05
    norms = oracles.constant_solution_norms(SUPERLINEAR_TERMS, lam)
    assert len(norms) == 2
    prob = make_problem(1.0, 2.0, lam)
    for norm in norms:
        c = norm / 2.0
        x = GridFunction(np.full((2, 256), c), 1.0)
        assert fixed_point_residual(prob, bench_disc, x) <= 1e-8


def test_ode_residual_constant_solution(bench_disc):
    lam = 0.05
    norms = oracles.constant_solution_norms(SUPERLINEAR_TERMS, lam)
    prob = make_problem(1.0, 2.0, lam)
    c = norms[0] / 2.0
    x = GridFunction(np.full((2, 256), c), 1.0)
    assert ode_residual(prob, x) <= 1e-8


def test_ode_residual_flags_non_solution(bench_disc):
    prob = make_problem(1.0, 2.0, 0.05)
    x = GridFunction(np.full((2, 256), 5.0), 1.0)
    assert ode_residual(prob, x) > 0.1


@pytest.mark.parametrize("period", [1.0, 2.5])
def test_ode_residual_of_an_exact_solution_is_round_off(period):
    # x = (cos wt, sin wt), w = 2 pi / period, solves x'' + w^2 x = 0 exactly
    # and has |x(t)|_2 = 1, so at lam = 0 the check reads round-off alone: the
    # multiplier differentiates nothing, so it does not grow with N
    w = 2.0 * math.pi / period
    prob = Problem(n=2, period=period, a=(Constant(w * w, period),) * 2,
                   g=(Constant(1.0, period),) * 2, e=(Constant(0.0, period),) * 2,
                   f=PowerLawRadial((((1.0, -1.0),), ((1.0, -1.0),))), lam=0.0)
    for n_grid in (32, 256, 1024, 8192):
        t = np.arange(n_grid) * (period / n_grid)
        x = GridFunction(np.stack([np.cos(w * t), np.sin(w * t)]), period)
        assert ode_residual(prob, x) <= 1e-13, n_grid


@pytest.mark.parametrize("k", [1, 8, 64, 127])
def test_ode_residual_reads_a_perturbation_at_its_size(k):
    # eps cos(2 pi k t) added to a constant solution reads about eps at every
    # frequency: the check compares x with the inverse applied to it, it does
    # not differentiate the error
    lam, eps = 0.05, 1e-5
    prob = make_problem(1.0, 2.0, lam)
    c = oracles.constant_solution_norms(SUPERLINEAR_TERMS, lam)[0] / 2.0
    t = np.arange(256) / 256
    values = np.full((2, 256), c)
    values[0] += eps * np.cos(2.0 * math.pi * k * t)
    assert 0.5 * eps <= ode_residual(prob, GridFunction(values, 1.0)) <= 2.0 * eps


def test_singularity_guard(bench_disc):
    prob = make_problem(1.0, 2.0, 0.05)
    x = GridFunction(np.zeros((2, 256)), 1.0)
    with pytest.raises(SingularityError):
        apply_T(prob, bench_disc, x)


def _ones_with(bad):
    values = np.ones((2, 8))
    values[1, 3] = bad
    return values


@pytest.mark.parametrize("values", [
    _ones_with(math.nan), _ones_with(math.inf), _ones_with(-math.inf),
    np.ones(16), np.ones((2, 8, 1)),
], ids=["nan", "inf", "-inf", "flat", "deep"])
def test_grid_function_rejects_bad_values(values):
    with pytest.raises(DomainError):
        GridFunction(values, 1.0)


def test_grid_function_shape_is_its_samples():
    # n and n_grid are read from the samples, so they cannot disagree with them
    x = GridFunction(np.ones((3, 16)), 2.0)
    assert (x.n, x.n_grid) == (3, 16)
    assert x.grid_t[1] == 2.0 / 16
    with pytest.raises(AttributeError):
        x.n_grid = 32


def test_mixed_split_violation_raises(bench_disc):
    # pure-growth f with a negative e: at small amplitude the pointwise
    # split g*f/2 + e dips below zero and the operator must refuse
    prob = Problem(
        n=1, period=1.0,
        a=(Constant(1.0),), g=(Constant(1.0),),
        e=(FourierSeries(-0.1, (0.2,)),),
        f=PowerLawRadial((((1.0, 2.0),),)), lam=1.0)
    x = GridFunction(np.full((1, 256), 0.1), 1.0)
    with pytest.raises(DomainError):
        apply_T(prob, discretize(prob, 256), x)
    # at large amplitude the same profile is admissible
    x_big = GridFunction(np.full((1, 256), 3.0), 1.0)
    out = apply_T(prob, discretize(prob, 256), x_big)
    assert out.values.min() > 0.0


def test_table_grid_mismatch_rejected(bench_disc):
    prob = make_problem(1.0, 2.0, 0.05)
    x = GridFunction(np.full((2, 128), 1.0), 1.0)
    with pytest.raises(DomainError):
        apply_T(prob, bench_disc, x)


def _resampled_apply(prob, disc):
    quads = [kernel_quadrature(disc.tables[k]) for k in disc.index]
    return lambda values: oracles.apply_T_resampled(
        quads, prob.g, prob.e, prob.f.terms, prob.lam, prob.period, values)


@pytest.mark.parametrize("e", [Constant(0.0), FourierSeries(-0.1, (0.2,), (0.1,))])
def test_apply_T_bitwise_equals_resampling(bench_disc, e):
    # the stored grid samples change where g and e come from, not one bit of
    # T x; g varies, so a reordered g * f + e would show
    prob = Problem(n=2, period=1.0, a=(Constant(1.0),) * 2,
                   g=(FourierSeries(1.5, (0.5,), (0.2,)), FourierSeries(1.0, (), (0.3,))),
                   e=(e, e), f=PowerLawRadial((SUPERLINEAR_TERMS,) * 2), lam=0.05)
    reference = _resampled_apply(prob, bench_disc)
    rng = np.random.default_rng(11)
    for x in smooth_cone_points(prob, 256, 0.8, 3, rng, norm=2.0):
        assert apply_T(prob, bench_disc, x).values.tobytes() == reference(x.values).tobytes()


@pytest.mark.parametrize("name, lam", [
    ("cor1a", 1.0), ("cor1b", 0.05), ("cor2a", 8.0), ("cor2b", 0.01)])
def test_picard_iterates_bitwise_equal_resampling(monkeypatch, name, lam):
    # the coarse-grid Picard solve of each preset's first annulus, iterate by
    # iterate, against a loop that samples g and e afresh on every step
    prob = parse_config(PRESETS[name].config(lam)).problem
    disc = discretize(prob, 256)
    coarse = discretize(prob, 64)
    ann = existence_report(prob, compute_constants(disc, prob), default_r_grid())[0]
    seed = seed_from_annulus(ann, prob, coarse.n_grid)

    seen = []

    def recording_apply_T(problem, disc, x):
        seen.append(x.values.copy())
        return apply_T(problem, disc, x)

    monkeypatch.setattr(solver, "apply_T", recording_apply_T)
    result = picard_solve(prob, coarse, seed)
    assert result.converged
    iterates = oracles.damped_picard_iterates(_resampled_apply(prob, coarse), seed.values)
    assert len(seen) == len(iterates) == result.iterations + 1
    for k, (got, ref) in enumerate(zip(seen, iterates)):
        assert got.tobytes() == ref.tobytes(), k


def test_apply_T_applies_each_shared_table_once(monkeypatch):
    # components 0 and 2 share one table: apply_T applies its operator once,
    # to both rows, and each row comes out as the operator applied to it alone
    terms = (SUPERLINEAR_TERMS,) * 3
    prob = Problem(n=3, period=1.0, a=(Constant(1.0), FourierSeries(1.0, (0.3,)), Constant(1.0)),
                   g=(Constant(1.0),) * 3, e=(Constant(0.0),) * 3,
                   f=PowerLawRadial(terms), lam=0.05)
    disc = discretize(prob, 64)
    shared, other = disc.tables
    assert disc.index == (0, 1, 0)
    x = GridFunction(0.4 + 0.1 * np.cos(2.0 * math.pi * np.arange(64) / 64)
                     * np.array([[1.0], [0.5], [-1.0]]), 1.0)
    calls = []

    def counting(tbl):
        calls.append(tbl)
        return kernel_quadrature(tbl)

    monkeypatch.setattr(operator_mod, "kernel_quadrature", counting)
    out = apply_T(prob, disc, x).values
    assert len(calls) == 2 and calls[0] is shared and calls[1] is other
    w = out / prob.lam
    fx = prob.f.phi_rows(np.sqrt((x.values ** 2).sum(axis=0)))
    rows = [kernel_quadrature(tbl) @ fx[i] for i, tbl in enumerate((shared, other, shared))]
    for i in range(3):
        assert np.max(np.abs(w[i] - rows[i])) <= 1e-14 * np.max(np.abs(rows[i]))


def test_radial_values_evaluate_every_profile():
    # components 0 and 2 share a profile, component 1 has its own: both
    # profiles are evaluated, and each row is its component's phi, bit for
    # bit as its terms alone evaluate it
    terms = (SUPERLINEAR_TERMS, ((1.0, -0.5), (1.0, 0.5)), SUPERLINEAR_TERMS)
    f = PowerLawRadial(terms)
    assert f.profiles == terms[:2]
    prob = Problem(n=3, period=1.0, a=(Constant(1.0),) * 3, g=(Constant(1.0),) * 3,
                   e=(Constant(0.0),) * 3, f=f, lam=0.05)
    t = np.arange(64) / 64
    x = GridFunction(0.4 + 0.1 * np.cos(2.0 * math.pi * t)
                     * np.array([[1.0], [0.5], [-1.0]]), 1.0)
    u = np.sqrt((x.values ** 2).sum(axis=0))
    fx = operator_mod._radial_values(prob, x)
    dfx = f.dphi_rows(u)
    assert fx.shape == dfx.shape == (3, 64)
    for i in range(3):
        alone = PowerLawRadial((terms[i],))
        assert np.array_equal(fx[i], alone.phi_rows(u)[0])
        assert np.array_equal(dfx[i], alone.dphi_rows(u)[0])
    assert not np.array_equal(fx[0], fx[1])


def _three_component(a):
    return Problem(n=3, period=1.0, a=a, g=(Constant(1.0),) * 3, e=(Constant(0.0),) * 3,
                   f=PowerLawRadial((SUPERLINEAR_TERMS,) * 3), lam=0.05)


def test_discretize_builds_one_table_per_coefficient():
    # a = [A, B, A]: two tables, in the order the components first use them
    a = (Constant(1.0), FourierSeries(1.0, (0.3,)), Constant(1.0))
    disc = discretize(_three_component(a), 64)
    assert len(disc.tables) == 2 and disc.index == (0, 1, 0)
    assert disc.coefficients == a[:2]
    assert [tbl.k for tbl in disc.tables] == [1.0, None]


def test_one_constant_in_two_forms_builds_one_table_and_one_matrix():
    # Constant(1.0) and FourierSeries(1.0) are one coefficient, so they
    # share a table and a collocation matrix
    a = (Constant(1.0), FourierSeries(1.0), Constant(1.0))
    disc = discretize(_three_component(a), 64)
    assert len(disc.tables) == 1 and disc.index == (0, 0, 0)
    assert disc.tables[0].k == 1.0
    assert len(disc.collocation(32).matrices) == 1


def test_equal_samples_share_one_table():
    # two Samples holding equal arrays have equal coefficients, so one
    # table; a third with other values gets its own
    vals = 1.0 + 0.3 * np.cos(2.0 * math.pi * np.arange(64) / 64)
    disc = discretize(_three_component((Samples(vals), Samples(vals.copy()),
                                        Samples(vals + 0.1))), 64)
    assert len(disc.tables) == 2 and disc.index == (0, 0, 1)


def test_discretization_checks_components_and_grid(bench_disc):
    # one check, in the object: a table per component, all on the grid
    one = Problem(n=1, period=1.0, a=(Constant(1.0),), g=(Constant(1.0),), e=(Constant(0.0),),
                  f=PowerLawRadial((SUPERLINEAR_TERMS,)), lam=0.05)
    with pytest.raises(DomainError, match="one Green table per component"):
        apply_T(one, bench_disc, GridFunction(np.ones((1, 256)), 1.0))
    with pytest.raises(DomainError, match="one Green table per component"):
        compute_constants(bench_disc, one)
    two_grids = Discretization(bench_disc.tables + discretize(one, 128).tables, (0, 1),
                               bench_disc.coefficients * 2)
    with pytest.raises(DomainError, match="table grid"):
        compute_constants(two_grids, make_problem(1.0, 2.0, 0.05))
