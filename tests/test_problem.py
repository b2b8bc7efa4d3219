import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pericone import (
    PRESETS,
    Constant,
    DomainError,
    FourierSeries,
    HypothesisError,
    PowerLawRadial,
    Problem,
    Samples,
    SingularityError,
    annulus_extrema,
    compute_constants,
    eta_lower,
    eval_f,
    fhat,
    parse_config,
    thresholds_delta,
)

from pericone.cli import build_tables
from pericone.coefficients import coefficient_extrema, extrema_slack
from pericone.problem import (
    AUDIT_GRID,
    SPLIT_FACTOR,
    U_HI,
    U_LO,
    _critical_point,
    _forcing_bounds,
    _interval_extrema,
    _power_sum,
)

import oracles
from conftest import SUBLINEAR_TERMS, SUPERLINEAR_TERMS, make_problem

BENCH_F = PowerLawRadial((SUPERLINEAR_TERMS, SUPERLINEAR_TERMS))
SUB_F = PowerLawRadial((SUBLINEAR_TERMS, SUBLINEAR_TERMS))


def test_eval_f_point():
    # |(1,1)|_2 = sqrt(2); component value 1/sqrt(2) + 2
    out = eval_f(BENCH_F, np.array([1.0, 1.0]))
    expect = 1.0 / math.sqrt(2.0) + 2.0
    assert np.allclose(out, expect, rtol=0, atol=1e-14)


def test_eval_f_guard():
    with pytest.raises(SingularityError):
        eval_f(BENCH_F, np.zeros(2))


def test_eval_f_scaling_single_term():
    f = PowerLawRadial((((2.0, 1.5),),))
    x = np.array([0.7])
    big = eval_f(f, 4.0 * x)[0]
    assert abs(big - 4.0 ** 1.5 * eval_f(f, x)[0]) <= 1e-12 * big


@pytest.mark.parametrize("terms", [
    ((1.0, -1.0),),
    ((0.5, -2.5), (2.0, -0.5)),
    ((1.0, 2.0), (3.0, 0.5)),
    SUPERLINEAR_TERMS,
    SUBLINEAR_TERMS,
    ((1.5, 0.0), (1.0, 1.0)),
])
def test_dphi_matches_central_difference(terms):
    f = PowerLawRadial((terms,))
    u = np.geomspace(1e-2, 1e2, 41)
    h = 1e-5 * u
    fd = (f.phi(0, u + h) - f.phi(0, u - h)) / (2.0 * h)
    # scale of phi' without cancellation, so a zero of phi' is no special case
    scale = sum(abs(c * p) * u ** (p - 1.0) for c, p in terms)
    assert np.max(np.abs(f.dphi(0, u) - fd) / scale) <= 1e-7


def test_powerlaw_validation():
    with pytest.raises(DomainError):
        PowerLawRadial((((0.0, 1.0),),))  # zero coefficient
    with pytest.raises(DomainError):
        PowerLawRadial((((-1.0, 1.0),),))


def test_annulus_extrema_valley():
    # phi = 1/u + u has min 2 at u = 1; take an annulus that straddles it
    f = PowerLawRadial((((1.0, -1.0), (1.0, 1.0)),))
    m_hat, big_hat = annulus_extrema(f, 2.0, 0.25, 1)
    assert abs(m_hat - 2.0) <= 1e-10
    # endpoints: phi(0.5) = 2.5, phi(2) = 2.5
    assert abs(big_hat - 2.5) <= 1e-10


@pytest.mark.parametrize("terms", [
    SUPERLINEAR_TERMS,
    SUBLINEAR_TERMS,
    ((2.0, -3.0), (0.5, 1.0)),
    ((0.3, -0.2), (1.5, 1.7)),
    ((1e-6, -1.0), (1e6, 0.5)),
])
def test_critical_points_two_term_closed_form(terms):
    # c1 p1 u^p1 + c2 p2 u^p2 = 0 has the single root
    # u = (-c1 p1 / (c2 p2))^(1 / (p2 - p1))
    (c1, p1), (c2, p2) = terms
    expect = (-c1 * p1 / (c2 * p2)) ** (1.0 / (p2 - p1))
    got = _critical_point(terms)
    assert abs(got - expect) <= 1e-14 * expect


@pytest.mark.parametrize("terms", [
    SUPERLINEAR_TERMS,
    SUBLINEAR_TERMS,
    ((2.0, -3.0), (0.5, 1.0)),
    ((0.3, -0.2), (1.5, 1.7)),
    ((1e-6, -1.0), (1e6, 0.5)),
    ((1e-8, -1.0), (1e8, 0.01)),
    ((1.0, -8.0), (1.0, 8.0)),  # sign test values reach 8e160 at both ends
])
def test_critical_points_sign_test_never_overflows(terms):
    # bypass the cache, so the bisection really runs under warnings-as-errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _critical_point.__wrapped__(terms)
    assert got == _critical_point(terms)
    (c1, p1), (c2, p2) = terms
    expect = (-c1 * p1 / (c2 * p2)) ** (1.0 / (p2 - p1))
    assert abs(got - expect) <= 1e-14 * expect


@st.composite
def positive_terms(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    return tuple((10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0)),
                  draw(st.floats(min_value=-4.0, max_value=4.0)))
                 for _ in range(k))


@settings(max_examples=200, deadline=None)
@given(terms=positive_terms())
def test_critical_point_is_the_sign_change(terms):
    # F(u) = u phi'(u) is strictly increasing for positive c: the returned
    # point is the first float where F is nonnegative, and None means F
    # keeps one sign on the whole window
    slope = tuple((c * p, p) for c, p in terms)
    crit = _critical_point(terms)
    if crit is None:
        assert _power_sum(slope, U_LO) >= 0.0 or _power_sum(slope, U_HI) < 0.0
    else:
        assert _power_sum(slope, math.nextafter(crit, 0.0)) < 0.0 <= _power_sum(slope, crit)


def test_annulus_extrema_monotone():
    f = PowerLawRadial((((1.0, 2.0),),))
    sigma, r, n = 0.5, 3.0, 2
    m_hat, big_hat = annulus_extrema(f, r, sigma, n)
    lo = sigma * r / math.sqrt(n)
    assert abs(m_hat - lo ** 2) <= 1e-12
    assert abs(big_hat - r ** 2) <= 1e-12


def test_annulus_extrema_degenerate_interval():
    # sigma = 1, n = 1 pinches the annulus to the single radius r
    f = PowerLawRadial((((1.0, 2.0),),))
    m_hat, big_hat = annulus_extrema(f, 1.5, 1.0, 1)
    assert abs(m_hat - 2.25) <= 1e-12
    assert abs(big_hat - 2.25) <= 1e-12


def test_eta_linear_component():
    # phi = u with n = 1: ratio u / min(u, r) = 1 on the annulus interior
    f = PowerLawRadial((((1.0, 1.0),),))
    assert abs(eta_lower(f, 1.0, 0.5, 1) - 1.0) <= 1e-9


def test_eta_scales_with_coefficient():
    a = eta_lower(BENCH_F, 0.2, 0.8, 2)
    doubled = PowerLawRadial(
        tuple(tuple((2.0 * c, p) for c, p in comp) for comp in BENCH_F.terms))
    b = eta_lower(doubled, 0.2, 0.8, 2)
    assert abs(b - 2.0 * a) <= 1e-12 * abs(b)


def test_eta_singular_small_radius():
    # at tiny radii the 1/u term dominates: min over the annulus of
    # phi(u)/(sqrt(n) u) is at least 1/(sqrt(n) r^2)
    r = 1e-3
    val = eta_lower(BENCH_F, r, 0.8, 2)
    assert val >= 1.0 / (math.sqrt(2.0) * r ** 2)


def test_eta_matches_brute_force():
    # n = 1 has no knee (the whole annulus is the phi/r piece), n = 3 puts
    # most of it below the knee, sigma = 1 pinches the lower piece to a point
    for n, sigma in ((2, 0.87), (1, 0.87), (3, 0.87), (2, 1.0), (1, 1.0)):
        f = PowerLawRadial(BENCH_F.terms[:1] * n)
        for r in (0.01, 0.5, 2.0, 40.0):
            val = eta_lower(f, r, sigma, n)
            ref = oracles.brute_eta(f.terms, r, sigma, n)
            # implementation takes the exact minimum (endpoints and critical
            # points); the sampling reference can only overshoot
            assert val <= ref + 1e-9 * (1.0 + abs(ref)), (n, sigma, r)
            assert val >= ref * (1.0 - 1e-4), (n, sigma, r)


def test_fhat_monotone_powers():
    # superlinear component: running max of u^2 over [1/sqrt(n), theta]
    f = PowerLawRadial((((1.0, 2.0),),))
    for theta in (1.0, 10.0, 100.0):
        got = fhat(f, theta, 1)
        assert abs(got[0] - max(theta, 1.0) ** 2) <= 1e-9 * got[0]


def test_fhat_includes_left_endpoint():
    # the shell starts at 1/sqrt(n); a singular term can dominate there
    got = fhat(BENCH_F, 1.0, 2)[0]
    lo = 1.0 / math.sqrt(2.0)
    expect = max(1.0 / lo + lo ** 2, 1.0 / 1.0 + 1.0)
    assert abs(got - expect) <= 1e-9


def test_fhat_requires_theta_at_least_one():
    with pytest.raises(DomainError):
        fhat(BENCH_F, 0.5, 2)


def test_fhat_nondecreasing_in_theta():
    thetas = [1.0, 3.0, 10.0, 100.0, 1e4]
    vals = [fhat(SUB_F, th, 2)[0] for th in thetas]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_extrema_broadcast_over_radii():
    # an array of radii gives, elementwise, what each radius gives alone
    r = np.array([0.05, 0.7, 3.0, 40.0])
    m_hat, big_hat = annulus_extrema(BENCH_F, r, 0.85, 2)
    eta = eta_lower(BENCH_F, r, 0.85, 2)
    shell = fhat(BENCH_F, r[2:], 2)
    assert m_hat.shape == big_hat.shape == eta.shape == r.shape
    assert shell.shape == (2, 2)
    for k, rk in enumerate(r):
        assert (m_hat[k], big_hat[k]) == annulus_extrema(BENCH_F, rk, 0.85, 2)
        assert eta[k] == eta_lower(BENCH_F, rk, 0.85, 2)
    for k, th in enumerate(r[2:]):
        assert np.array_equal(shell[:, k], fhat(BENCH_F, th, 2))


@pytest.mark.parametrize("terms, lo, hi", [
    (SUPERLINEAR_TERMS, 0.0, 0.3),  # min at the finite end
    (SUPERLINEAR_TERMS, 0.0, 2.0),  # interior min
    (SUBLINEAR_TERMS, 0.0, 50.0),
    (((2.0, -3.0), (0.5, 1.0), (1.0, 0.3)), 0.0, 10.0),
    (SUPERLINEAR_TERMS, 0.1, math.inf),
    (SUPERLINEAR_TERMS, 5.0, math.inf),
    (((1.0, 2.0),), 0.5, math.inf),
    (((2.0, -3.0), (0.5, 1.0), (1.0, 0.3)), 0.2, math.inf),
])
def test_interval_extrema_open_end(terms, lo, hi):
    # an end at 0 or inf where the sum blows up adds +inf, so the min is the
    # infimum over the half-open interval
    got_min, got_max = _interval_extrema(terms, lo, hi)
    brute = oracles.brute_power_sum_min(terms, lo, hi)
    assert got_max == math.inf
    assert got_min <= brute * (1.0 + 1e-12)
    assert brute - got_min <= 1e-6 * got_min


def test_thresholds_small_radius():
    # n=1, g=1, e=0: B = 2(0+1)/1 = 2; phi = 1/u >= 2 iff u <= 1/2
    prob = Problem(
        n=1, period=1.0,
        a=(Constant(1.0),), g=(Constant(1.0),), e=(Constant(0.0),),
        f=PowerLawRadial((((1.0, -1.0),),)), lam=1.0)
    delta, delta_big = thresholds_delta(prob, 1.0)
    assert delta is not None and abs(delta - 0.5) <= 1e-8
    # 1/u decays, so no large-radius threshold exists
    assert delta_big is None


def test_thresholds_no_singular_component():
    prob = make_problem(1.0, 2.0, 0.05)
    only_growth = Problem(
        n=1, period=1.0,
        a=(Constant(1.0),), g=(Constant(1.0),), e=(Constant(0.0),),
        f=PowerLawRadial((((1.0, 2.0),),)), lam=1.0)
    delta, delta_big = thresholds_delta(only_growth, 1.0)
    assert delta is None
    assert delta_big is not None and delta_big > 0.0
    # the benchmark has both a singular and a growing term per component
    d, dd = thresholds_delta(prob, 0.9)
    assert d is not None and dd is not None


def test_thresholds_mixed_benchmark_oracle():
    # e = -0.1 + 0.2 cos(2 pi t): max |e| = 0.3, min g = 1, so B = 2.6;
    # delta solves 1/u + u^2 = 2.6 on the decreasing side, Delta is the
    # increasing-side root scaled by sqrt(2)/sigma
    prob = make_problem(1.0, 2.0, 0.01,
                        e_spec={"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}})
    sigma = math.cos(0.5)
    delta, delta_big = thresholds_delta(prob, sigma)
    b_const = 2.6
    low_root = oracles.bisect_increasing(
        lambda u: b_const - (1.0 / u + u * u), 1e-6, (0.5) ** (1.0 / 3.0))
    high_root = oracles.bisect_increasing(
        lambda u: (1.0 / u + u * u) - b_const, (0.5) ** (1.0 / 3.0), 10.0)
    assert abs(delta - low_root) <= 1e-6
    assert abs(delta_big - math.sqrt(2.0) * high_root / sigma) <= 1e-5


def _interval_min(terms, lo, hi):
    return _interval_extrema(terms, lo, hi)[0]


def _bisect_reference(prob, sigma):
    """thresholds_delta's answer by the all-component predicate bisection."""
    return oracles.threshold_radii_bisect(prob.f.terms, _forcing_bounds(prob), sigma,
                                          _interval_min, U_LO, U_HI)


@pytest.mark.parametrize("name, lam", [
    (name, lam) for name in sorted(PRESETS) for lam in PRESETS[name].lambdas])
def test_thresholds_match_bisection_on_presets(name, lam):
    prob = parse_config(PRESETS[name].config(lam)).problem
    constants = compute_constants(build_tables(prob, 256), prob)
    assert (constants.delta, constants.Delta) == _bisect_reference(prob, constants.sigma)


THRESHOLD_FAMILIES = {
    "superlinear": SUPERLINEAR_TERMS,
    "sublinear": SUBLINEAR_TERMS,
    "singular only": ((1.0, -1.0),),
    "growth only": ((1.0, 2.0),),
    "three terms": ((2.0, -3.0), (0.5, 1.0), (1.0, 0.3)),
    "steep singular": ((0.5, -2.5), (2.0, 0.1)),
    "with constant": ((1.5, 0.0), (1.0, 1.0), (0.2, -0.5)),
}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", sorted(THRESHOLD_FAMILIES))
def test_thresholds_match_bisection(family, n):
    # components differ by a coefficient scale, so each one's root differs
    # and the min / max over components matters
    terms = THRESHOLD_FAMILIES[family]
    f = PowerLawRadial(tuple(tuple((c * (1.0 + 0.7 * i), p) for c, p in terms)
                             for i in range(n)))
    for e in (Constant(0.0), FourierSeries(-0.1, (0.2,))):
        prob = Problem(n=n, period=1.0, a=(Constant(1.0),) * n,
                       g=(FourierSeries(1.0, (0.4,)),) * n, e=(e,) * n, f=f, lam=1.0)
        for sigma in (0.3, 0.9, 1.0):
            assert thresholds_delta(prob, sigma) == _bisect_reference(prob, sigma), \
                (e, sigma)


@pytest.mark.parametrize("terms, expect_delta, expect_big", [
    # phi(U_LO) = 1e-5 < B = 2: no small-radius threshold, no growth term
    (((1e-25, -1.0),), None, None),
    # phi >= 20 > B everywhere: delta = inf and R'' at the bottom of the window
    (((10.0, -1.0), (10.0, 1.0)), math.inf, U_LO),
    # phi(U_HI) ~ 1e-20 < B: the growth term never catches up
    (((1.0, -1.0), (1e-50, 1.0)), 0.5, None),
])
def test_threshold_edge_cases(terms, expect_delta, expect_big):
    prob = Problem(n=1, period=1.0, a=(Constant(1.0),), g=(Constant(1.0),),
                   e=(Constant(0.0),), f=PowerLawRadial((terms,)), lam=1.0)
    sigma = 0.9
    delta, delta_big = thresholds_delta(prob, sigma)
    assert (delta, delta_big) == _bisect_reference(prob, sigma)
    if expect_delta is None or math.isinf(expect_delta):
        assert delta == expect_delta
    else:
        assert abs(delta - expect_delta) <= 1e-15
    assert delta_big == (None if expect_big is None else expect_big / sigma)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0])
def test_problem_rejects_bad_lambda(lam):
    # NaN compares false with everything, so it must fail the check, not pass it
    with pytest.raises(DomainError):
        Problem(n=1, period=1.0, a=(Constant(1.0),), g=(Constant(1.0),),
                e=(Constant(0.0),), f=PowerLawRadial((SUPERLINEAR_TERMS,)), lam=lam)
    # the sweep's step problems skip the audit but not this check
    prob = Problem(n=1, period=1.0, a=(Constant(1.0),), g=(Constant(1.0),),
                   e=(Constant(0.0),), f=PowerLawRadial((SUPERLINEAR_TERMS,)), lam=0.1)
    with pytest.raises(DomainError):
        prob.with_lam(lam)


_NON_FINITE_FIELDS = {
    "Problem.period": lambda v: Problem(
        n=1, period=v, a=(Constant(1.0),), g=(Constant(1.0),), e=(Constant(0.0),),
        f=PowerLawRadial((SUPERLINEAR_TERMS,)), lam=1.0),
    "Constant.value": lambda v: Constant(v),
    "Constant.period": lambda v: Constant(1.0, period=v),
    "FourierSeries.c0": lambda v: FourierSeries(v),
    "FourierSeries.cos": lambda v: FourierSeries(1.0, (0.3, v)),
    "FourierSeries.sin": lambda v: FourierSeries(1.0, (), (v,)),
    "FourierSeries.period": lambda v: FourierSeries(1.0, period=v),
    "Samples.values": lambda v: Samples(np.array([1.0, v, 1.0, 1.0])),
    "Samples.period": lambda v: Samples(np.ones(4), period=v),
    "PowerLawRadial.c": lambda v: PowerLawRadial((((1.0, -1.0), (v, 2.0)),)),
    "PowerLawRadial.p": lambda v: PowerLawRadial((((1.0, -1.0), (1.0, v)),)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field_name", sorted(_NON_FINITE_FIELDS))
def test_constructors_reject_non_finite(field_name, value):
    # NaN compares false with everything, so each check must fail on it
    with pytest.raises(DomainError):
        _NON_FINITE_FIELDS[field_name](value)


def _sampled_problem():
    """n=2 with one coefficient of each form among a, g and e."""
    e_samples = Samples(np.array([0.3, -0.2, 0.1, 0.5, 0.0, -0.1]))
    return Problem(
        n=2, period=1.0,
        a=(Constant(1.0), FourierSeries(1.0, (0.3,))),
        g=(Constant(1.0), FourierSeries(1.5, (0.5,), (0.2,))),
        e=(e_samples, FourierSeries(0.1, (0.2,), (0.1,))),
        f=BENCH_F, lam=0.05)


@pytest.mark.parametrize("n_grid", [64, 256])
def test_grid_samples_equal_eval(n_grid):
    prob = _sampled_problem()
    t = prob.grid(n_grid)
    for name in ("a", "g", "e"):
        vals = getattr(prob, f"{name}_on_grid")(n_grid)
        assert vals.shape == (2, n_grid)
        for i, coef in enumerate(getattr(prob, name)):
            assert vals[i].tobytes() == coef.eval(t).tobytes(), (name, i)
        # derived once per grid size, then handed out as it is
        assert getattr(prob, f"{name}_on_grid")(n_grid) is vals


def test_grid_samples_are_read_only():
    prob = _sampled_problem()
    for vals in (prob.a_on_grid(64), prob.g_on_grid(64), prob.e_on_grid(64)):
        with pytest.raises(ValueError):
            vals[0, 0] = 1.0
        with pytest.raises(ValueError):
            vals *= 2.0


def test_grid_samples_stay_out_of_eq_repr_and_replace():
    # Samples coefficients hold arrays and do not compare; Fourier e here
    e_spec = {"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}}
    sampled, fresh = make_problem(1.0, 2.0, 0.05, e_spec), make_problem(1.0, 2.0, 0.05, e_spec)
    g = sampled.g_on_grid(64)
    sampled.e_on_grid(256)
    assert sampled == fresh
    assert repr(sampled) == repr(fresh)
    moved = replace(sampled, lam=0.07)
    assert moved.lam == 0.07 and moved != sampled
    assert moved == replace(fresh, lam=0.07)
    # a replaced problem derives its own samples
    assert moved.g_on_grid(64) is not g
    assert moved.g_on_grid(64).tobytes() == g.tobytes()


def test_problem_validation():
    with pytest.raises(HypothesisError):
        # g integrates to zero
        Problem(n=1, period=1.0, a=(Constant(1.0),), g=(Constant(0.0),),
                e=(Constant(0.0),), f=PowerLawRadial((((1.0, 1.0),),)), lam=1.0)
    with pytest.raises(HypothesisError):
        # g dips negative
        Problem(n=1, period=1.0, a=(Constant(1.0),),
                g=(FourierSeries(0.5, (1.0,)),),
                e=(Constant(0.0),), f=PowerLawRadial((((1.0, 1.0),),)), lam=1.0)
    with pytest.raises(DomainError):
        # component count mismatch
        Problem(n=2, period=1.0, a=(Constant(1.0),), g=(Constant(1.0),),
                e=(Constant(0.0),), f=BENCH_F, lam=1.0)
    with pytest.raises(DomainError):
        # coefficient period disagrees with the problem period
        Problem(n=1, period=1.0, a=(Constant(1.0, period=2.0),),
                g=(Constant(1.0),), e=(Constant(0.0),),
                f=PowerLawRadial((((1.0, 1.0),),)), lam=1.0)


def test_sign_profile_detection():
    nonneg = make_problem(1.0, 2.0, 0.05)
    assert nonneg.sign_profile == "NonnegativeE"
    mixed = make_problem(1.0, 2.0, 0.05,
                         e_spec={"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}})
    assert mixed.sign_profile == "MixedE"


def _shifted_cosine(c0, amp, m, shift, period=1.0):
    """c0 + amp cos(2 pi m (t - shift)/T) as a FourierSeries."""
    w = 2.0 * math.pi * m / period
    cos = [0.0] * m
    sin = [0.0] * m
    cos[m - 1] = amp * math.cos(w * shift)
    sin[m - 1] = amp * math.sin(w * shift)
    return FourierSeries(c0, tuple(cos), tuple(sin), period=period)


@pytest.mark.parametrize("m", [1, 2])
def test_forcing_bounds_err_on_the_safe_side(m):
    # shifted by half an audit step, every extremum of g and e (spaced
    # T/(2m) apart) falls midway between audit nodes, where sampling
    # misses it by the most
    half_step = 0.5 / AUDIT_GRID
    g = _shifted_cosine(2.0, 1.0, m, half_step)  # exact min 1
    e = _shifted_cosine(0.0, 3.0, m, half_step)  # exact max |e| 3
    prob = Problem(n=1, period=1.0, a=(Constant(1.0),), g=(g,), e=(e,),
                   f=PowerLawRadial((((1.0, 2.0),),)), lam=1.0)
    g_lo, _ = coefficient_extrema(g, AUDIT_GRID)
    e_lo, e_hi = coefficient_extrema(e, AUDIT_GRID)
    # the sampled extrema sit on the unsafe side ...
    assert g_lo > 1.0 and max(-e_lo, e_hi) < 3.0
    # ... the stored bounds on the safe side, by no more than the slack
    assert prob.g_min[0] <= 1.0
    assert prob.g_min[0] >= g_lo - extrema_slack(g, AUDIT_GRID)
    assert prob.e_abs_max[0] >= 3.0
    assert prob.e_abs_max[0] <= max(-e_lo, e_hi) + extrema_slack(e, AUDIT_GRID)
    (bound,) = _forcing_bounds(prob)
    assert bound >= (3.0 + 1.0) / (SPLIT_FACTOR * 1.0)


def test_extrema_slack_zero_for_exact_forms():
    assert extrema_slack(Constant(2.0)) == 0.0
    assert extrema_slack(Samples(np.array([1.0, 2.0, 0.5, 1.5]))) == 0.0
    # K = (2 pi)^2 (0.3 + 0.4) + (4 pi)^2 * 0.1 for h = 1/64
    slack = extrema_slack(FourierSeries(1.0, (0.3, 0.1), (0.4,)), 64)
    curvature = (2.0 * math.pi) ** 2 * 0.7 + (4.0 * math.pi) ** 2 * 0.1
    assert abs(slack - curvature / 64 ** 2 / 8.0) <= 1e-15 * slack


def test_mixed_profile_requires_strictly_positive_g():
    with pytest.raises(HypothesisError):
        Problem(n=1, period=1.0, a=(Constant(1.0),),
                g=(FourierSeries(1.0, (1.0,)),),  # touches zero
                e=(Constant(-0.1),),
                f=PowerLawRadial((((1.0, 1.0),),)), lam=1.0)


@st.composite
def random_terms(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    terms = []
    for _ in range(k):
        c = draw(st.floats(min_value=0.1, max_value=5.0))
        p = draw(st.floats(min_value=-2.0, max_value=3.0))
        terms.append((c, p))
    return tuple(terms)


@settings(max_examples=25, deadline=None)
@given(terms=random_terms(),
       r=st.floats(min_value=0.01, max_value=100.0),
       sigma=st.floats(min_value=0.1, max_value=0.95))
def test_extrema_bracket_samples(terms, r, sigma):
    f = PowerLawRadial((terms,))
    n = 2
    m_hat, big_hat = annulus_extrema(f, r, sigma, n)
    ref_min, ref_max = oracles.brute_annulus_extrema((terms,), r, sigma, n,
                                                     samples=4000)
    slack = 1e-9 * (1.0 + abs(ref_max))
    assert m_hat <= ref_min + slack
    assert big_hat >= ref_max - slack


@settings(max_examples=25, deadline=None)
@given(terms=random_terms(), r=st.floats(min_value=0.05, max_value=50.0))
def test_eta_is_a_lower_bound(terms, r):
    f = PowerLawRadial((terms,))
    sigma, n = 0.7, 2
    val = eta_lower(f, r, sigma, n)
    ref = oracles.brute_eta((terms,), r, sigma, n, samples=4000)
    assert val <= ref + 1e-9 * (1.0 + abs(ref))


@settings(max_examples=30, deadline=None)
@given(
    u=st.floats(min_value=1e-4, max_value=1e4),
    c=st.floats(min_value=0.1, max_value=4.0),
    p=st.floats(min_value=-1.5, max_value=2.5),
)
def test_phi_matches_direct_sum(u, c, p):
    f = PowerLawRadial((((c, p), (1.0, 0.0)),))
    assert abs(f.phi(0, u) - (c * u ** p + 1.0)) <= 1e-12 * (1.0 + c * u ** p)
