import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tracemalloc

from pericone import (
    Constant,
    DomainError,
    FourierSeries,
    ResonanceError,
    Samples,
    build_green_table,
    coarsen,
    green_bounds_constant,
    green_constant,
    kernel_quadrature,
    kernel_values,
    solve_linear_periodic,
    torres_positive,
)

from pericone.greens import (
    FINE_FACTOR,
    ROW_BLOCK,
    _ghat,
    _kernel_from_basis,
    _refine_min,
    _rk4_basis,
)

import oracles

# closed-form kernel extrema for k = T = 1, frozen at mpmath precision
M_SMALL = 0.91524386085622595963
M_BIG = 1.0429148214667440929
# the RK4 coefficient with the largest sup norm in the suite, and the
# four-term coefficient the refined positivity patch was measured on
WIDE_A = FourierSeries(2.0, (0.5, 0.2), (0.1,), period=0.8)
FOUR_TERM_A = FourierSeries(2.0, (0.5, 0.3), (0.0, 0.4))


def full_values(table):
    """The whole N x N table, sampled ROW_BLOCK rows at a time as the CLI does."""
    nodes = np.arange(table.n_grid)
    return np.vstack([kernel_values(table, nodes[s:s + ROW_BLOCK], nodes)
                      for s in range(0, table.n_grid, ROW_BLOCK)])


def dense_quadrature(table):
    """h (G + h/12 I) from the sampled table."""
    h = table.period / table.n_grid
    return h * (full_values(table) + (h / 12.0) * np.eye(table.n_grid))


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
    # the dense form is h (G + h/12 I) of the sampled table, bit for bit
    dense = coarsen(table, 1)
    assert np.array_equal(kernel_quadrature(dense).matrix, dense_quadrature(table))


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
    # the generators are shared by every operator call; an in-place edit
    # would silently desynchronise them from m and M
    rk4 = build_green_table(FourierSeries(1.0, (0.3,)), 32)
    arrays = [unit_table.kernel.profile, unit_table.kernel.eigenvalues,
              rk4.kernel.basis, rk4.kernel.coef,
              kernel_quadrature(coarsen(unit_table, 4)).matrix]
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
    holders = (table, table.kernel, table.quadrature)
    arrays = [v for obj in holders for v in vars(obj).values() if isinstance(v, np.ndarray)]
    assert arrays
    assert max(arr.size for arr in arrays) <= 64 * n_grid


@pytest.mark.parametrize("n_grid", [64, 256, 1024])
@pytest.mark.parametrize("coef", [Constant(1.0), Constant(4.0, period=0.7),
                                  FourierSeries(1.0, (0.3,)), FOUR_TERM_A],
                         ids=["a=1", "a=4,T=0.7", "a=1+0.3cos", "four-term"])
def test_generators_bit_equal_dense_build(coef, n_grid):
    # against the dense N x N build the tables once stored: every sample,
    # m, M, the positivity report, and every coarsening
    table = build_green_table(coef, n_grid)
    period = coef.period
    if table.k is not None:
        values = oracles.dense_circulant_table(table.k, period, n_grid)
        h_fine = period / (FINE_FACTOR * n_grid)

        def patch(idx_t, idx_s):
            return _ghat(np.abs(idx_t[:, None] * h_fine - idx_s[None, :] * h_fine),
                         table.k, period)
    else:
        basis = _rk4_basis(coef, n_grid)
        nodes = np.arange(0, FINE_FACTOR * n_grid, FINE_FACTOR)
        values = oracles.kernel_from_basis_products(basis, nodes, nodes)

        def patch(idx_t, idx_s):
            return oracles.kernel_from_basis_products(basis, idx_t, idx_s)

    assert np.array_equal(full_values(table), values)
    m, big, holds, min_value, argmin = oracles.dense_positivity(
        values, patch, period, FINE_FACTOR, rk4=table.k is None)
    assert (table.m, table.M) == (m, big)
    rep = table.positivity
    assert (rep.holds, rep.min_value, rep.argmin) == (holds, min_value, argmin)
    for stride in (1, 2, 4):
        coarse = coarsen(table, stride)
        n_coarse = n_grid // stride
        h = period / n_coarse
        sub = values[::stride, ::stride]
        assert np.array_equal(kernel_quadrature(coarse).matrix,
                              h * (sub + (h / 12.0) * np.eye(n_coarse)))
        assert np.array_equal(full_values(coarse), sub)


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
    assert np.max(np.abs(full_values(ref) - full_values(smp))) <= 1e-6
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
    values = full_values(t256)
    assert np.max(np.abs(values - values.T)) <= 1e-12
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
    values = full_values(table)
    assert np.max(np.abs(values - direct) / direct) <= 1e-14
    assert np.array_equal(values, values.T)


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
    values = full_values(table)
    assert np.max(np.abs(values - values.T)) <= 1e-10
    assert values.min() >= table.m - 1e-10
    assert values.max() <= table.M + 1e-10


@pytest.mark.parametrize("period", [1.0, 0.7])
def test_coarsened_closed_form_table_is_the_coarse_table(period):
    # the grids nest, so every 4th node of the N=1024 circulant is the N=256 one
    fine = build_green_table(Constant(1.0, period=period), 1024)
    direct = build_green_table(Constant(1.0, period=period), 256)
    coarse = coarsen(fine, 4)
    assert coarse.n_grid == 256
    assert np.array_equal(full_values(coarse), full_values(direct))
    assert np.array_equal(kernel_quadrature(coarse).matrix,
                          kernel_quadrature(coarsen(direct, 1)).matrix)
    assert not kernel_quadrature(coarse).matrix.flags.writeable


def test_coarsened_rk4_table_subsamples_the_fine_one():
    fine = build_green_table(FourierSeries(1.0, (0.3,)), 512)
    coarse = coarsen(fine, 2)
    h = fine.period / 256
    sub = full_values(fine)[::2, ::2]
    assert np.array_equal(full_values(coarse), sub)
    assert np.array_equal(kernel_quadrature(coarse).matrix, h * (sub + (h / 12.0) * np.eye(256)))
    # the cone constants keep reading the fine table's extrema
    assert (coarse.m, coarse.M, coarse.positivity) == (fine.m, fine.M, fine.positivity)
    assert coarse.monodromy is fine.monodromy


def test_coarsen_stride(unit_table):
    # stride 1 is the dense form of the table itself
    dense = coarsen(unit_table, 1)
    assert dense.n_grid == unit_table.n_grid
    assert np.array_equal(kernel_quadrature(dense).matrix, dense_quadrature(unit_table))
    assert (dense.m, dense.M, dense.positivity) == (unit_table.m, unit_table.M,
                                                   unit_table.positivity)
    for bad in (3, 0, 32):  # 256 % 3 != 0; 0 is no stride; 256/32 = 8 < 16 nodes
        with pytest.raises(DomainError):
            coarsen(unit_table, bad)


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
    # positive; one that does not may still be positive
    if not torres_positive(coef):
        return
    for n_grid in (64, 256):
        assert build_green_table(coef, n_grid).positive


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
    # max a far above pi^2 but int a < 4/T: the p = 1 branch certifies it
    spike = Samples(np.concatenate([[60.0], np.zeros(63)]))
    assert spike.values.max() > math.pi ** 2
    assert spike.values.mean() < 4.0
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
        assert table.positivity.min_value < 1e-4
