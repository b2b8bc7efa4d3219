import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pericone import (
    Constant,
    DomainError,
    FourierSeries,
    HypothesisError,
    PowerLawRadial,
    Problem,
    Samples,
    SingularityError,
    annulus_extrema,
    eta_lower,
    eval_f,
    fhat,
    thresholds_delta,
)

from pericone.coefficients import coefficient_extrema, extrema_slack
from pericone.problem import (
    AUDIT_GRID,
    SPLIT_FACTOR,
    _critical_points,
    _forcing_bounds,
    _interval_extrema,
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
    (got,) = _critical_points(terms)
    assert abs(got - expect) <= 1e-12 * expect


@pytest.mark.parametrize("terms", [
    SUPERLINEAR_TERMS,
    SUBLINEAR_TERMS,
    ((2.0, -3.0), (0.5, 1.0)),
    ((0.3, -0.2), (1.5, 1.7)),
    ((1e-6, -1.0), (1e6, 0.5)),
    ((1e-8, -1.0), (1e8, 0.01)),
    ((1.0, -8.0), (1.0, 8.0)),  # scan values reach 8e160 at both ends
])
def test_critical_points_sign_test_never_overflows(terms):
    # bypass the cache, so the scan really runs under warnings-as-errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = _critical_points.__wrapped__(terms)
    assert roots == _critical_points(terms)
    (c1, p1), (c2, p2) = terms
    expect = (-c1 * p1 / (c2 * p2)) ** (1.0 / (p2 - p1))
    assert len(roots) == 1
    assert abs(roots[0] - expect) <= 1e-12 * expect


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
