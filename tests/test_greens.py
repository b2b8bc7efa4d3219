import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pericone import (
    Constant,
    DomainError,
    FourierSeries,
    ResonanceError,
    Samples,
    build_green_table,
    green_bounds_constant,
    green_constant,
    kernel_quadrature,
    solve_linear_periodic,
)

from pericone.greens import FINE_FACTOR, _ghat, _kernel_from_basis, _refine_min, _rk4_basis

import oracles

# closed-form kernel extrema for k = T = 1, frozen at mpmath precision
M_SMALL = 0.91524386085622595963
M_BIG = 1.0429148214667440929


def test_table_constants_match_closed_form(unit_table):
    assert abs(unit_table.m - M_SMALL) <= 1e-12
    assert abs(unit_table.M - M_BIG) <= 1e-12
    # and the frozen values themselves agree with the formulas
    m, big = oracles.kernel_min_max(1.0, 1.0)
    assert abs(m - M_SMALL) <= 1e-15
    assert abs(big - M_BIG) <= 1e-15


def test_table_symmetry(unit_table):
    assert np.max(np.abs(unit_table.values - unit_table.values.T)) <= 1e-12


def test_table_sandwich(unit_table):
    assert unit_table.values.min() >= unit_table.m - 1e-12
    assert unit_table.values.max() <= unit_table.M + 1e-12


@pytest.mark.parametrize("coef", [Constant(1.0), FourierSeries(1.0, (0.3,), ())])
def test_kernel_quadrature_built_once(coef):
    table = build_green_table(coef, 32)
    h = table.period / table.n_grid
    quad = kernel_quadrature(table)
    assert np.array_equal(quad, h * (table.values + (h / 12.0) * np.eye(32)))
    assert kernel_quadrature(table) is quad


def test_table_arrays_read_only(unit_table):
    # the quadrature is shared by every operator call; an in-place edit
    # would silently desynchronise it from values, m and M
    with pytest.raises(ValueError):
        unit_table.values[0, 0] = 0.0
    with pytest.raises(ValueError):
        kernel_quadrature(unit_table)[0, 0] = 0.0


def test_positivity_report(unit_table):
    rep = unit_table.positivity
    assert rep.holds
    assert rep.min_value > 0.9


def test_green_constant_pointwise():
    # diagonal value is the kernel minimum
    assert abs(green_constant(1.0, 1.0, 0.3, 0.3) - M_SMALL) <= 1e-12
    # symmetry in (t, s)
    a = green_constant(1.0, 1.0, 0.2, 0.7)
    b = green_constant(1.0, 1.0, 0.7, 0.2)
    assert abs(a - b) <= 1e-15
    # antipodal separation gives the maximum
    assert abs(green_constant(1.0, 1.0, 0.0, 0.5) - M_BIG) <= 1e-12


def test_green_constant_domain_errors():
    with pytest.raises(DomainError):
        green_constant(math.pi, 1.0, 0.1, 0.1)  # k at the window edge
    with pytest.raises(DomainError):
        green_constant(0.0, 1.0, 0.1, 0.1)
    with pytest.raises(DomainError):
        green_constant(1.0, 1.0, 1.5, 0.1)  # t outside [0, T]


def test_sigma_closed_form():
    for k, period in [(1.0, 1.0), (0.5, 2.0), (2.0, 1.2)]:
        m, big = green_bounds_constant(k, period)
        assert abs(m / big - math.cos(k * period / 2.0)) <= 1e-12


def test_sigma_collapses_near_window_edge():
    m, big = green_bounds_constant(math.pi - 1e-6, 1.0)
    assert m / big < 0.01


def test_sigma_monotone_to_one():
    ratios = [green_bounds_constant(k, 1.0)[0] / green_bounds_constant(k, 1.0)[1]
              for k in [2.0, 1.0, 0.5, 0.25, 0.1]]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 0.998


def test_window_boundary_not_positive():
    # at k*T = pi the kernel touches zero on the diagonal; either outcome
    # (resonance refusal or a negative positivity verdict) is acceptable,
    # but a "positive" table is not
    try:
        table = build_green_table(Constant(math.pi ** 2), 64)
    except ResonanceError:
        return
    assert not table.positive
    assert not table.positivity.holds


def test_resonance_at_full_period():
    with pytest.raises(ResonanceError):
        build_green_table(Constant((2.0 * math.pi) ** 2), 64)


def test_kernel_goes_negative_past_window():
    table = build_green_table(Constant((math.pi + 0.1) ** 2), 64)
    assert not table.positive
    assert table.positivity.min_value < 0.0


def test_samples_path_matches_closed_form():
    ref = build_green_table(Constant(1.0), 256)
    smp = build_green_table(Samples(np.full(64, 1.0)), 256)
    assert np.max(np.abs(ref.values - smp.values)) <= 1e-6
    assert abs(ref.m - smp.m) <= 1e-6
    assert abs(ref.M - smp.M) <= 1e-6


def test_linear_oracle_convergence():
    # x'' + x = cos(2 pi t) has the exact 1-periodic solution
    # cos(2 pi t) / (1 - 4 pi^2)
    scale = 1.0 / (1.0 - 4.0 * math.pi ** 2)
    errs = []
    for n in (64, 128, 256):
        table = build_green_table(Constant(1.0), n)
        x = solve_linear_periodic(table, FourierSeries(0.0, (1.0,)))
        t = x.grid_t
        exact = scale * np.cos(2.0 * math.pi * t)
        errs.append(float(np.max(np.abs(x.values[0] - exact))))
    order = math.log(errs[0] / errs[2]) / math.log(4.0) / 2.0
    assert order >= 1.9
    assert errs[2] <= 1e-4


def test_constant_forcing_reproduces_division():
    # x'' + x = 3 -> x = 3
    table = build_green_table(Constant(1.0), 256)
    x = solve_linear_periodic(table, Constant(3.0))
    assert np.max(np.abs(x.values[0] - 3.0)) <= 1e-8


def test_zero_forcing_gives_zero(unit_table):
    x = solve_linear_periodic(unit_table, Constant(0.0))
    assert np.max(np.abs(x.values)) == 0.0


def test_row_integrals_invert_constant():
    # integral of G(t, .) over a period is 1/k^2 for every t
    for k in (0.7, 1.0, 2.5):
        table = build_green_table(Constant(k * k), 128)
        quad = kernel_quadrature(table)
        rows = quad @ np.ones(table.n_grid)
        assert np.max(np.abs(rows - 1.0 / k ** 2)) <= 1e-8


def test_fourier_coefficient_table():
    coef = FourierSeries(1.0, (0.5,))
    t128 = build_green_table(coef, 128)
    t256 = build_green_table(coef, 256)
    assert t256.positive
    assert np.max(np.abs(t256.values - t256.values.T)) <= 1e-12
    # grid refinement leaves the extrema essentially unchanged
    assert abs(t128.m - t256.m) <= 1e-4
    assert abs(t128.M - t256.M) <= 1e-4


def test_fourier_table_monodromy_determinant():
    # trace of the companion system is zero, so det of the period map is 1
    table = build_green_table(FourierSeries(1.0, (0.5,)), 128)
    assert table.monodromy is not None
    assert abs(np.linalg.det(table.monodromy) - 1.0) <= 1e-10


@pytest.mark.parametrize("n_grid", [16, 256])
@pytest.mark.parametrize("coef", [
    FourierSeries(1.0, (0.3,)),
    FourierSeries(2.0, (0.5, 0.2), (0.1,), period=0.8),
    Samples(np.array([1.0, 2.0, 0.5, 1.5, 1.0])),
])
def test_rk4_basis_matches_stepwise_loop(coef, n_grid):
    # the prefix product of the step matrices is the loop of RK4 steps,
    # reassociated: equal up to round-off at every fine node
    ref = oracles.rk4_basis_stepwise(lambda t: float(coef.eval(t)), coef.period,
                                     FINE_FACTOR * n_grid)
    basis = _rk4_basis(coef, n_grid)
    assert basis.shape == ref.shape
    assert np.max(np.abs(basis - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("coef", [
    FourierSeries(1.0, (0.3,)),
    FourierSeries(2.0, (0.5, 0.2), (0.1,), period=0.8),
])
def test_kernel_from_basis_matches_outer_products(coef):
    # rank-2 products and a masked add against the outer-product formula,
    # on the coarse grid and on a refine patch that wraps around the period
    n_grid = 64
    basis = _rk4_basis(coef, n_grid)
    coarse = np.arange(0, FINE_FACTOR * n_grid, FINE_FACTOR)
    patch = np.mod(np.arange(-9, 8), FINE_FACTOR * n_grid)
    for idx_t, idx_s in ((coarse, coarse), (patch, patch), (patch, coarse[:20])):
        ref = oracles.kernel_from_basis_outer(basis, idx_t, idx_s)
        got = _kernel_from_basis(basis, idx_t, idx_s)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_rk4_basis_wronskian_at_every_node():
    # the companion system is trace-free, so det Y(t) = 1 along the whole
    # period, not only at the monodromy Y(T)
    basis = _rk4_basis(FourierSeries(1.0, (0.5,)), 128)
    assert np.max(np.abs(np.linalg.det(basis) - 1.0)) <= 1e-10


def test_closed_form_table_non_dyadic_period():
    # h = T/N is not a power of two, so the circulant profile and the
    # pairwise differences round differently; they must still agree
    k, period, n_grid = 2.0, 0.7, 64
    table = build_green_table(Constant(k * k, period=period), n_grid)
    t = np.arange(n_grid) * (period / n_grid)
    direct = _ghat(np.abs(t[:, None] - t[None, :]), k, period)
    assert np.max(np.abs(table.values - direct) / direct) <= 1e-14
    assert np.array_equal(table.values, table.values.T)


def test_refined_patch_wraps_around_the_period():
    # a patch centred on (0, 0) must look at t, s just below T as well
    n_grid = 32
    n_fine = FINE_FACTOR * n_grid
    seen = []

    def record(idx_t, idx_s):
        seen.append((idx_t.copy(), idx_s.copy()))
        return np.ones((idx_t.size, idx_s.size))

    _refine_min(record, 0, 0, n_grid)
    (idx_t, idx_s), = seen
    for idx in (idx_t, idx_s):
        assert {n_fine - 1, 0, 1} <= set(idx.tolist())
        assert idx.min() >= 0 and idx.max() < n_fine
        assert len(set(idx.tolist())) == idx.size


def test_second_difference_recovers_forcing():
    # central second difference of the Nystrom solution plus a*x should
    # approximate the forcing at the O(h^2) level of the difference stencil
    table = build_green_table(FourierSeries(1.0, (0.5,)), 256)
    x = solve_linear_periodic(table, FourierSeries(0.0, (1.0,)))
    vals = x.values[0]
    h = table.period / table.n_grid
    d2 = (np.roll(vals, -1) - 2.0 * vals + np.roll(vals, 1)) / h ** 2
    t = x.grid_t
    a = 1.0 + 0.5 * np.cos(2.0 * math.pi * t)
    forcing = np.cos(2.0 * math.pi * t)
    assert np.max(np.abs(d2 + a * vals - forcing)) <= 1e-3


def test_grid_validation():
    with pytest.raises(DomainError):
        build_green_table(Constant(1.0), 15)
    with pytest.raises(DomainError):
        build_green_table(Constant(1.0), 33)  # odd


@settings(max_examples=40, deadline=None)
@given(
    k=st.floats(min_value=0.05, max_value=2.9),
    period=st.floats(min_value=0.5, max_value=1.05),
)
def test_bounds_formulas_property(k, period):
    if k * period >= math.pi - 1e-3:
        return
    m, big = green_bounds_constant(k, period)
    em, ebig = oracles.kernel_min_max(k, period)
    assert abs(m - em) <= 1e-10 * (1.0 + abs(em))
    assert abs(big - ebig) <= 1e-10 * (1.0 + abs(ebig))
    assert 0.0 < m < big


@settings(max_examples=20, deadline=None)
@given(k=st.floats(min_value=0.2, max_value=2.8))
def test_small_table_sandwich_property(k):
    if k >= math.pi - 1e-3:
        return
    table = build_green_table(Constant(k * k), 32)
    assert table.positive
    assert np.max(np.abs(table.values - table.values.T)) <= 1e-10
    assert table.values.min() >= table.m - 1e-10
    assert table.values.max() <= table.M + 1e-10
