import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracemalloc

from pericone import (
    Constant,
    Discretization,
    DomainError,
    FourierSeries,
    ResonanceError,
    Samples,
    build_green_table,
    kernel_quadrature,
    kernel_values,
    solve_linear_periodic,
    torres_positive,
)

from pericone import greens
from pericone.greens import (
    FINE_FACTOR,
    SCAN_ROWS,
    SemiseparableKernel,
    _impulse_response,
    _kernel_coefficients,
    _rk4_basis,
)
from pericone.coefficients import sup_bound

import oracles
from oracles import dense_quadrature

# closed-form kernel extrema for k = T = 1, frozen at mpmath precision
M_SMALL = 0.91524386085622595963
M_BIG = 1.0429148214667440929
# the RK4 coefficient with the largest sup norm in the suite, a four-term
# coefficient, a rough one whose minimum lies off the grid, and two that
# dip below zero on part of the period, yet have positive kernels
WIDE_A = FourierSeries(2.0, (0.5, 0.2), (0.1,), period=0.8)
FOUR_TERM_A = FourierSeries(2.0, (0.5, 0.3), (0.0, 0.4))
ROUGH_A = FourierSeries(6.0, (2.5, 0.0, 0.8), (0.0, 1.0))
DIPPING_A = [FourierSeries(0.5, (0.6,)), FourierSeries(0.1, (0.2,))]


def full_values(table):
    """The whole N x N table, sampled a scan block of rows at a time as the CLI does."""
    nodes = np.arange(table.n_grid)
    return np.vstack([kernel_values(table, nodes[s:s + SCAN_ROWS], nodes)
                      for s in range(0, table.n_grid, SCAN_ROWS)])


def test_table_constants_match_closed_form(unit_table):
    assert abs(unit_table.m - M_SMALL) <= 1e-12
    assert abs(unit_table.M - M_BIG) <= 1e-12
    # and the frozen values themselves agree with the formulas
    m, big = oracles.kernel_min_max(1.0, 1.0)
    assert abs(m - M_SMALL) <= 1e-15
    assert abs(big - M_BIG) <= 1e-15


def test_table_symmetry(unit_table):
    values = full_values(unit_table)
    assert np.max(np.abs(values - values.T)) <= 1e-12


def test_table_sandwich(unit_table):
    values = full_values(unit_table)
    assert values.min() >= unit_table.m - 1e-12
    assert values.max() <= unit_table.M + 1e-12


@pytest.mark.parametrize("coef", [Constant(1.0), FourierSeries(1.0, (0.3,), ())])
def test_kernel_quadrature_built_once(coef):
    table = build_green_table(coef, 32)
    quad = kernel_quadrature(table)
    assert kernel_quadrature(table) is quad
    # applied to the identity, the operator is h (G + h/12 I) of the sampled
    # table to round-off
    dense = dense_quadrature(table)
    assert np.max(np.abs(quad @ np.eye(32) - dense.T)) <= 1e-14 * np.max(np.abs(dense))


@pytest.mark.parametrize("n_grid", [256, 1024])
@pytest.mark.parametrize("coef", [Constant(1.0), WIDE_A, FOUR_TERM_A],
                         ids=["a=1", "wide-rk4", "four-term-rk4"])
def test_quadrature_operator_matches_dense(coef, n_grid):
    # the FFT and prefix-sum operators against the dense h (G + h/12 I),
    # on one component and on a block of three
    table = build_green_table(coef, n_grid)
    quad = kernel_quadrature(table)
    dense = dense_quadrature(table)
    rng = np.random.default_rng(n_grid)
    block = np.vstack([rng.uniform(0.0, 1.0, n_grid), rng.standard_normal(n_grid),
                       np.cos(2.0 * math.pi * np.arange(n_grid) / n_grid)])
    ref = block @ dense.T
    for got, want in ((quad @ block[0], ref[0]), (quad @ block, ref)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_table_arrays_read_only(unit_table):
    # the generators are shared by every operator call, the collocation
    # matrices by every Newton step; an in-place edit would silently
    # desynchronise them from m and M, or from the operator
    rk4_coef = FourierSeries(1.0, (0.3,))
    rk4 = build_green_table(rk4_coef, 32)
    base = [Discretization((tbl,), (0,), (coef,)).collocation(32).matrices[0]
            for tbl, coef in ((unit_table, Constant(1.0)), (rk4, rk4_coef))]
    arrays = [unit_table.kernel.profile, unit_table.kernel.eigenvalues,
              rk4.kernel.basis, rk4.kernel.coef, rk4.kernel.lower, *base]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("coef", [Constant(1.0), FourierSeries(1.0, (0.3,))])
def test_no_table_array_grows_with_n_squared(coef):
    # at N = 4096 a dense table would be 16.8M entries (128 MiB); the
    # generators are a few N, and building them never allocates N^2 either
    n_grid = 4096
    tracemalloc.start()
    try:
        table = build_green_table(coef, n_grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    holders = (table, table.kernel)
    arrays = [v for obj in holders for v in vars(obj).values() if isinstance(v, np.ndarray)]
    assert arrays
    assert max(arr.size for arr in arrays) <= 64 * n_grid


# N=130 leaves a last row block of 2 rows
@pytest.mark.parametrize("n_grid", [64, 130, 256, 1024])
@pytest.mark.parametrize("coef", [Constant(1.0), Constant(4.0, period=0.7),
                                  FourierSeries(1.0, (0.3,)), FOUR_TERM_A],
                         ids=["a=1", "a=4,T=0.7", "a=1+0.3cos", "four-term"])
def test_generators_bit_equal_dense_build(coef, n_grid):
    # against the dense N x N build the tables once stored: every sample,
    # M widened by the chord formula, the positivity verdict and argmin, m
    # as the lower of the grid and the dense fine diagonal minima, and the
    # quadrature operator applied to the identity
    table = build_green_table(coef, n_grid)
    period = coef.period
    h = period / n_grid
    if table.k is not None:
        values = oracles.dense_circulant_table(table.k, period, n_grid)
        diagonal = None
    else:
        basis = _rk4_basis(coef, n_grid)
        nodes = np.arange(0, FINE_FACTOR * n_grid, FINE_FACTOR)
        values = oracles.kernel_from_basis_products(basis, nodes, nodes)
        diagonal = oracles.dense_fine_extrema(basis)[0]

    assert np.array_equal(full_values(table), values)
    big, holds, min_value, argmin = oracles.dense_positivity(values, period, FINE_FACTOR, diagonal)
    assert table.m == min_value
    assert (table.positive, table.argmin) == (holds, argmin)
    if table.k is not None:
        assert table.M == big
    else:
        # the chord bound M_grid / (1 - max|a| h^2/4), bit for bit
        assert table.M == big / (1.0 - sup_bound(coef) * h * h / 4.0)
    dense = h * (values + (h / 12.0) * np.eye(n_grid))
    applied = kernel_quadrature(table) @ np.eye(n_grid)
    assert np.max(np.abs(applied.T - dense)) <= 1e-13 * np.max(np.abs(dense))


# one block of all N rows; at N = 4096 that would take 128 MiB, so 16 rows
@pytest.mark.parametrize("n_grid, rows", [(256, 256), (1024, 1024), (4096, 16)])
def test_scan_is_bit_equal_to_one_block(monkeypatch, n_grid, rows):
    # m, M and the argmin of the SCAN_ROWS-row scan do not depend on the
    # block size
    coef = FourierSeries(1.0, (0.3,), (0.1,))
    table = build_green_table(coef, n_grid)
    monkeypatch.setattr(greens, "SCAN_ROWS", rows)
    other = build_green_table(coef, n_grid)
    assert (table.m, table.M, table.argmin) == (other.m, other.M, other.argmin)


def test_scan_rows_are_even_and_at_least_two():
    # so the last block of an even N has two rows or more, never gemv's one
    assert SCAN_ROWS % 2 == 0 and SCAN_ROWS >= 2


def test_m_is_the_diagonal_kernel_minimum():
    # on this rough coefficient the diagonal on the 4N basis nodes holds a
    # lower kernel value than any grid node; m is that value, on the diagonal
    table = build_green_table(ROUGH_A, 64)
    grid_min = float(full_values(table).min())
    assert table.m < grid_min
    assert table.argmin[0] == table.argmin[1]


@pytest.mark.parametrize("n_grid", [16, 64, 256, 1024])
@pytest.mark.parametrize("coef", [FourierSeries(1.0, (0.3,)), WIDE_A, FOUR_TERM_A, ROUGH_A,
                                  *DIPPING_A],
                         ids=["a=1+0.3cos", "wide", "four-term", "rough", "a=0.5+0.6cos",
                              "a=0.1+0.2cos"])
def test_rk4_extrema_bound_the_dense_fine_table(coef, n_grid):
    # the dense table on all 4N basis nodes: m is never above its min, and M
    # never below its max (a sampled max lies below the true one), yet
    # within the chord formula's widening of it
    table = build_green_table(coef, n_grid)
    _, lo, hi = oracles.dense_fine_extrema(_rk4_basis(coef, n_grid))
    assert table.positive
    assert table.m <= lo
    h = coef.period / n_grid
    assert hi <= table.M <= hi / (1.0 - sup_bound(coef) * h ** 2 / 4.0)


def test_ridge_constant_takes_the_chord_formula_without_sampling(monkeypatch):
    # a constant outside (0, (pi/T)^2) goes to RK4, and its kernel is
    # translation invariant: a ridge of grid maxima.  M is the formula, and
    # the build samples the kernel nowhere
    coef, n_grid = Constant(12.0), 256
    samples = []
    real_sample = SemiseparableKernel.sample

    def count(kernel, rows, cols):
        samples.append(rows.size * cols.size)
        return real_sample(kernel, rows, cols)

    monkeypatch.setattr(SemiseparableKernel, "sample", count)
    table = build_green_table(coef, n_grid)
    assert samples == []
    monkeypatch.undo()
    assert table.k is None and not table.positive
    h = coef.period / n_grid
    big = float(full_values(table).max())
    assert table.M == big / (1.0 - sup_bound(coef) * h * h / 4.0)


def test_chord_bound_is_infinite_on_a_grid_too_coarse_for_it():
    # max|a| h^2/4 >= 1 leaves the chord bound nothing to divide by
    table = build_green_table(Constant(1100.0), 16)
    assert table.k is None
    assert table.M == math.inf
    assert not table.positive


def test_sup_bound_is_at_least_the_sampled_max():
    for coef in (FourierSeries(1.0, (0.3,)), WIDE_A, FOUR_TERM_A, ROUGH_A, *DIPPING_A,
                 Samples(np.array([1.0, 2.0, 0.5, 1.5, 1.0]))):
        assert sup_bound(coef) >= np.max(np.abs(coef.on_grid(4096)))
    # one mode: |c0| + its amplitude, the max of |a| itself
    assert sup_bound(FourierSeries(-1.0, (0.3,), (0.4,))) == 1.5
    assert sup_bound(Constant(-2.0)) == 2.0


@pytest.mark.parametrize("coef", [FourierSeries(1.0, (0.3,)), FOUR_TERM_A])
def test_samples_are_bit_equal_whatever_the_request_shape(coef):
    # one row, one column or one entry has the bits of the same entries of
    # a 64-row block; numpy's gemv path would round them differently
    n_grid = 256
    table = build_green_table(coef, n_grid)
    nodes = np.arange(n_grid)
    block = kernel_values(table, nodes[:64], nodes)
    for p in range(64):
        assert np.array_equal(kernel_values(table, [p], nodes), block[p:p + 1])
        assert kernel_values(table, [p], [p]).shape == (1, 1)
        assert kernel_values(table, [p], [p])[0, 0] == block[p, p]
    for q in range(n_grid):
        assert np.array_equal(kernel_values(table, nodes[:64], [q]), block[:, q:q + 1])


def test_positivity_report(unit_table):
    assert unit_table.positive
    assert unit_table.m > 0.9
    # the closed-form minimum lies on the diagonal
    assert unit_table.argmin == (0.0, 0.0)


def test_green_constant_pointwise():
    # the a = 1 table at single node pairs (t_p = p/20) against the oracle's
    # dense closed form: the diagonal is the minimum, the antipode the
    # maximum, and G is symmetric in (t, s)
    table = build_green_table(Constant(1.0), 20)
    dense = oracles.dense_circulant_table(1.0, 1.0, 20)

    def at(p, q):
        return float(kernel_values(table, [p], [q])[0, 0])

    for p, q in ((6, 6), (4, 14), (14, 4), (0, 10)):
        assert abs(at(p, q) - dense[p, q]) <= 1e-15
    assert abs(at(6, 6) - M_SMALL) <= 1e-12
    assert at(4, 14) == at(14, 4)
    assert abs(at(0, 10) - M_BIG) <= 1e-12


def _sigma(k, period):
    """m / M of the closed-form table of a = k^2."""
    table = build_green_table(Constant(k * k, period=period), 64)
    return table.m / table.M


def test_sigma_closed_form():
    for k, period in [(1.0, 1.0), (0.5, 2.0), (2.0, 1.2)]:
        assert abs(_sigma(k, period) - math.cos(k * period / 2.0)) <= 1e-12


def test_sigma_collapses_near_window_edge():
    assert _sigma(math.pi - 1e-6, 1.0) < 0.01


def test_sigma_monotone_to_one():
    ratios = [_sigma(k, 1.0) for k in [2.0, 1.0, 0.5, 0.25, 0.1]]
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


def test_resonance_at_full_period():
    with pytest.raises(ResonanceError):
        build_green_table(Constant((2.0 * math.pi) ** 2), 64)


def test_kernel_goes_negative_past_window():
    table = build_green_table(Constant((math.pi + 0.1) ** 2), 64)
    assert not table.positive
    assert table.m < 0.0


def test_samples_path_matches_closed_form():
    # 64 equal samples are the constant itself, so they take the closed form
    # at every grid, N=4096 included, and not RK4
    for n_grid in (256, 4096):
        ref = build_green_table(Constant(1.0), n_grid)
        smp = build_green_table(Samples(np.full(64, 1.0)), n_grid)
        assert smp.k == ref.k == 1.0
        assert np.array_equal(smp.kernel.profile, ref.kernel.profile)
        assert (ref.m, ref.M, ref.argmin) == (smp.m, smp.M, smp.argmin)


def test_one_coefficient_whatever_its_form():
    forms = (Constant(1.0), FourierSeries(1.0, (0.0,)), FourierSeries(1.0, (), (0.0, 0.0)),
             Samples(np.full(64, 1.0)))
    assert all(form == forms[0] for form in forms)
    assert forms[0].is_constant and not FourierSeries(1.0, (0.0, 0.3)).is_constant
    # an inner zero mode stays: only trailing ones are dropped
    assert FourierSeries(1.0, (0.0, 0.3, 0.0)).cos_coeffs == (0.0, 0.3)


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
    values = full_values(t256)
    assert np.max(np.abs(values - values.T)) <= 1e-12
    # grid refinement leaves the extrema essentially unchanged
    assert abs(t128.m - t256.m) <= 1e-4
    assert abs(t128.M - t256.M) <= 1e-4


@pytest.mark.parametrize("n_grid", [16, 256, 1024])
@pytest.mark.parametrize("coef", [
    FourierSeries(1.0, (0.3,)),
    FourierSeries(2.0, (0.5, 0.2), (0.1,), period=0.8),
    Samples(np.array([1.0, 2.0, 0.5, 1.5, 1.0])),
])
def test_rk4_basis_matches_stepwise_loop(coef, n_grid):
    # the prefix product of the step matrices is the loop of RK4 steps,
    # reassociated: equal up to round-off at every fine node
    ref = oracles.rk4_basis_stepwise(lambda t: float(oracles.coefficient_value(coef, t)), coef.period,
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
    # on the coarse grid and on a patch that wraps around the period
    n_grid = 64
    n_fine = FINE_FACTOR * n_grid
    basis = _rk4_basis(coef, n_grid)
    fine_basis = basis[:-1, 0].T
    fine = SemiseparableKernel(fine_basis,
                               _kernel_coefficients(_impulse_response(basis), fine_basis),
                               coef.period / n_fine)
    coarse = np.arange(0, n_fine, FINE_FACTOR)
    patch = np.mod(np.arange(-9, 8), n_fine)
    for idx_t, idx_s in ((coarse, coarse), (patch, patch), (patch, coarse[:20])):
        ref = oracles.kernel_from_basis_outer(basis, idx_t, idx_s)
        got = fine.sample(idx_t, idx_s)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_rk4_basis_wronskian_at_every_node():
    # the companion system is trace-free, so det Y(t) = 1 along the whole
    # period, not only at the monodromy Y(T)
    for n_grid in (128, 1024):
        basis = _rk4_basis(FourierSeries(1.0, (0.5,)), n_grid)
        assert np.max(np.abs(np.linalg.det(basis) - 1.0)) <= 1e-10


def test_rk4_build_solves_one_2x2_system_for_c(monkeypatch):
    # C(s) = K phi(s): the build solves for K once, not for C per column,
    # and forms C on the 4N fine nodes, where the diagonal and the bound on
    # M read it; the table keeps every FINE_FACTOR-th column
    n_grid = 1024
    real_k, real_c = greens._impulse_response, greens._kernel_coefficients
    solves, widths = [], []

    def record_k(Y):
        solves.append(Y.shape)
        return real_k(Y)

    def record_c(K, basis):
        widths.append(basis.shape[1])
        return real_c(K, basis)

    monkeypatch.setattr(greens, "_impulse_response", record_k)
    monkeypatch.setattr(greens, "_kernel_coefficients", record_c)
    table = build_green_table(FourierSeries(1.0, (0.3,)), n_grid)
    assert solves == [(FINE_FACTOR * n_grid + 1, 2, 2)]
    assert widths == [FINE_FACTOR * n_grid]
    assert table.kernel.coef.shape == (2, n_grid)


@pytest.mark.parametrize("n_grid", [128, 256, 1024])
def test_rk4_operator_rows_do_not_depend_on_their_neighbours(n_grid):
    # a component's Q w must not change with the components stacked with it
    quad = kernel_quadrature(build_green_table(FourierSeries(1.0, (0.3,)), n_grid))
    block = np.random.default_rng(n_grid).standard_normal((6, n_grid))
    six = quad @ block
    assert np.array_equal(six[:3], quad @ block[:3])
    for i in range(3):
        assert np.array_equal(six[i], quad @ block[i])


def test_closed_form_table_non_dyadic_period():
    # h = T/N is not a power of two, so the circulant profile and the
    # pairwise differences round differently; they must still agree
    k, period, n_grid = 2.0, 0.7, 64
    table = build_green_table(Constant(k * k, period=period), n_grid)
    t = np.arange(n_grid) * (period / n_grid)
    direct = oracles.ghat(np.abs(t[:, None] - t[None, :]), k, period)
    values = full_values(table)
    assert np.max(np.abs(values - direct) / direct) <= 1e-14
    assert np.array_equal(values, values.T)


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
    table = build_green_table(Constant(k * k, period=period), 32)
    m, big = table.m, table.M
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
    values = full_values(table)
    assert np.max(np.abs(values - values.T)) <= 1e-10
    assert values.min() >= table.m - 1e-10
    assert values.max() <= table.M + 1e-10


# every coefficient a the suite builds a table for
SUITE_A = [
    Constant(1.0), Constant(2.0), Constant(4.0, period=0.7), Constant(1.0, period=0.7),
    Constant(1.0, period=2.0), Constant(math.pi ** 2), Constant((math.pi + 0.1) ** 2),
    Constant((2.0 * math.pi) ** 2),
    FourierSeries(1.0, (0.3,)), FourierSeries(1.0, (0.5,)), WIDE_A, FOUR_TERM_A,
    FourierSeries(1.0, (0.3, 0.1), (0.4,)),
    Samples(np.array([1.0, 2.0, 0.5, 1.5, 1.0])), Samples(np.full(64, 1.0)),
]


@pytest.mark.parametrize("coef", SUITE_A)
def test_torres_criterion_implies_positive_scan(coef):
    # the criterion is sufficient only: a coefficient that meets it must scan
    # positive, with its minimum on the diagonal (a >= 0); one that does not
    # may still be positive
    if not torres_positive(coef):
        return
    for n_grid in (64, 256):
        table = build_green_table(coef, n_grid)
        assert table.positive
        assert table.argmin[0] == table.argmin[1]


def test_torres_criterion_is_strict_at_the_window_edge():
    # a = (pi/T)^2 has G(0) = 0 (test_window_boundary_not_positive), so a
    # non-strict inequality would certify a kernel that is not positive
    for period in (1.0, 0.7):
        assert not torres_positive(Constant((math.pi / period) ** 2, period=period))
        assert torres_positive(Constant(0.999 * (math.pi / period) ** 2, period=period))
    assert not torres_positive(Constant(0.0))
    # a sign change anywhere fails a >= 0, however small the max
    assert not torres_positive(FourierSeries(0.1, (0.2,)))
    assert not torres_positive(Samples(np.array([1.0, -0.01, 1.0, 1.0])))


def test_torres_criterion_mean_branch():
    # max a far above pi^2 but int a < 4/T: the p = 1 branch certifies it.
    # The spike is the Fejer kernel of order 15 plus 0.01: nonnegative with
    # room for the audit slack, and its 64 samples interpolate it exactly
    t = np.arange(64) / 64.0
    fejer = 1.0 + 2.0 * sum((1.0 - k / 16.0) * np.cos(2.0 * math.pi * k * t)
                            for k in range(1, 16))
    spike = Samples(fejer + 0.01)
    assert max(fejer + 0.01) > math.pi ** 2
    assert abs(spike.c0 - 1.01) <= 1e-12
    assert torres_positive(spike)
    assert build_green_table(spike, 256).positive


def test_torres_near_boundary_fourier_scans_positive():
    # max a sits 1e-4 below pi^2/T^2, the audit slack included: the
    # criterion holds and the RK4 scan, with its h_fine^4 noise floor,
    # still finds a strictly positive kernel (its min is about 2.5e-6)
    coef = FourierSeries(math.pi ** 2 - 2e-4, (1e-4,))
    assert torres_positive(coef)
    for n_grid in (64, 256):
        table = build_green_table(coef, n_grid)
        assert table.k is None
        assert table.positive
        assert table.m < 1e-4
