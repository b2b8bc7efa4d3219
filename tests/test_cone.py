import math
from dataclasses import replace

import numpy as np
import pytest

from pericone import (
    AssumptionAError,
    Constant,
    GridFunction,
    Samples,
    compute_constants,
    cone_membership,
    discretize,
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


@pytest.mark.parametrize("n_grid", [16, 64, 96, 256, 1024])
def test_int_abs_e_is_never_below_the_integral(n_grid):
    # int|e| enters every compression bound as an upper bound; the bare
    # trapezoid sum reads 3.9e-5 below the exact value at N=96
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
