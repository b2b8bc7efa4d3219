import math
from dataclasses import replace

import numpy as np
import pytest

from pericone import (
    PRESETS,
    AssumptionAError,
    Constant,
    GridFunction,
    Samples,
    compute_constants,
    cone_membership,
    discretize,
    parse_config,
    symmetric_config,
)
from pericone.benchmarks import MIXED_E

import oracles
from conftest import make_problem, smooth_cone_points


def test_benchmark_constants(bench_disc, superlinear_small):
    prob, cc = superlinear_small
    m, big = oracles.kernel_min_max(1.0, 1.0)
    sigma = math.cos(0.5)
    assert abs(cc.sigma - sigma) <= 1e-12
    # integral of g is 1, so Gamma = m * sigma / 2 and C_hat = 2 M
    assert abs(cc.Gamma - 0.5 * m * sigma) <= 1e-10
    assert abs(cc.C_hat - 2.0 * big) <= 1e-10
    # and the hand-rounded reference values
    assert abs(cc.sigma - 0.8775825619) <= 1e-4
    assert abs(cc.Gamma - 0.40159) <= 1e-4
    assert abs(cc.C_hat - 2.08583) <= 1e-4


def test_per_component_arrays(bench_disc, superlinear_small):
    prob, cc = superlinear_small
    assert len(cc.m) == len(cc.M) == len(cc.sigma_i) == 2
    assert np.all(cc.int_g > 0)
    assert np.all(cc.int_abs_e == 0.0)


def test_g_zero_on_a_set_is_fine(bench_disc):
    # g = 1 - cos 2 pi t vanishes at t = 0 but integrates to 1 > 0; its
    # trigonometric interpolant is g itself, so its zero stays a zero
    vals = 1.0 - np.cos(2.0 * math.pi * np.arange(64) / 64.0)
    prob = make_problem(1.0, 2.0, 0.05)
    prob = replace(prob, g=(Samples(vals), Samples(vals)))
    cc = compute_constants(bench_disc, prob)
    assert cc.Gamma > 0.0
    assert np.all(cc.int_g > 0.05)


@pytest.mark.parametrize("g", [
    {"fourier": {"c0": 1.0, "cos": [0.5], "sin": []}},
    # 64 samples: modes 16 and 32 alias onto the mean of a 16-point grid
    {"samples": np.random.default_rng(64).uniform(0.5, 1.5, 64).tolist()},
], ids=["1+0.5cos", "64-samples"])
def test_int_g_does_not_depend_on_the_grid(g):
    # int g_i = T c0, exact: the same bits at every N
    cfg = symmetric_config(1.0, 2.0, 0.05)
    cfg["g"] = [g, g]
    prob = parse_config(cfg).problem
    ints = [compute_constants(discretize(prob, n), prob).int_g for n in (16, 256, 1024)]
    assert all(np.array_equal(ints[0], other) for other in ints[1:])
    assert np.array_equal(ints[0], np.full(2, prob.period * prob.g[0].c0))


def test_scaling_g_scales_gamma(bench_disc):
    base = make_problem(1.0, 2.0, 0.05)
    cc1 = compute_constants(bench_disc, base)
    doubled = replace(base, g=(Constant(2.0), Constant(2.0)))
    cc2 = compute_constants(bench_disc, doubled)
    assert abs(cc2.Gamma - 2.0 * cc1.Gamma) <= 1e-12 * cc2.Gamma
    assert abs(cc2.C_hat - 2.0 * cc1.C_hat) <= 1e-12 * cc2.C_hat


def test_mixed_e_integral(bench_disc):
    prob = make_problem(1.0, 2.0, 0.01,
                        e_spec={"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}})
    cc = compute_constants(bench_disc, prob)
    # exact integral of |-0.1 + 0.2 cos(2 pi t)|: 0.2 sqrt(3)/pi - 1/15 + 0.1
    exact = 0.2 * math.sqrt(3.0) / math.pi - 1.0 / 15.0 + 0.1
    # trapezoid across the kinks of |e| is only second order
    assert abs(cc.int_abs_e[0] - exact) <= 1e-4
    assert cc.delta is not None
    assert cc.Delta is not None and cc.Delta > cc.delta


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_constants_do_not_depend_on_the_grid(name):
    # a = 1 takes the closed form, whose m and M are exact at every even N,
    # int g is T c0 and int|e| is read on the audit grid: no constant sees N
    preset = PRESETS[name]
    lam = preset.lambdas[0]
    runs = []
    for n_grid in (16, 256, 1024, 4096):
        prob = parse_config(preset.config(lam, n_grid)).problem
        runs.append(vars(compute_constants(discretize(prob, n_grid), prob)))
    for other in runs[1:]:
        assert other.keys() == runs[0].keys()
        for key, value in runs[0].items():
            assert np.array_equal(other[key], value), key


@pytest.mark.parametrize("n_grid", [16, 64, 96, 256, 1024])
def test_int_abs_e_is_never_below_the_integral(n_grid):
    # int|e| enters every compression bound as an upper bound; the bare
    # trapezoid sum on a 96-point grid reads 3.9e-5 below the exact value
    prob = make_problem(1.0, 2.0, 0.01, e_spec=MIXED_E, n_grid=n_grid)
    cc = compute_constants(discretize(prob, n_grid), prob)
    exact = 0.2 * math.sqrt(3.0) / math.pi - 1.0 / 15.0 + 0.1
    assert np.all(cc.int_abs_e >= exact)


def test_rejects_non_positive_table():
    coef = Constant((math.pi + 0.1) ** 2)
    prob = replace(make_problem(1.0, 2.0, 0.05, n_grid=64), a=(coef, coef))
    with pytest.raises(AssumptionAError):
        compute_constants(discretize(prob, 64), prob)


def test_membership_constant_vector():
    x = GridFunction(np.full((2, 64), 1.5), 1.0)
    rep = cone_membership(x, 0.8)
    assert rep.member
    # min sum = 3.0, norm = 3.0, margin = 3.0 - 0.8 * 3.0
    assert abs(rep.margin - 0.6) <= 1e-12


def test_membership_rejects_negative_component():
    vals = np.full((2, 64), 1.0)
    vals[1, 10] = -0.5
    x = GridFunction(vals, 1.0)
    assert not cone_membership(x, 0.5).member


def test_membership_rejects_too_concentrated():
    # a spike fails the min-sum condition even though it is nonnegative
    vals = np.zeros((2, 64))
    vals[0, 5] = 1.0
    x = GridFunction(vals, 1.0)
    assert not cone_membership(x, 0.5).member


def test_membership_of_generated_points(superlinear_small):
    prob, cc = superlinear_small
    rng = np.random.default_rng(7)
    for x in smooth_cone_points(prob, 256, cc.sigma, 25, rng):
        rep = cone_membership(x, cc.sigma)
        assert rep.member
        assert rep.margin >= 0.0
