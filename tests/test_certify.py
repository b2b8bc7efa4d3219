import json
import math
from dataclasses import replace

import numpy as np
import pytest

import pericone.certify as certify_mod
from pericone import (
    PRESETS,
    Constant,
    DomainError,
    PowerLawRadial,
    Problem,
    Scan,
    annuli_from_scan,
    annulus_extrema,
    classify_regime,
    compute_constants,
    default_r_grid,
    discretize,
    existence_report,
    eta_lower,
    find_solutions,
    lambda_rays,
    parse_config,
    radius_bounds,
    scan_radii,
    symmetric_config,
)
from pericone.benchmarks import MIXED_E
from pericone.cli import main

import oracles
from conftest import (
    SUBLINEAR_TERMS,
    SUPERLINEAR_TERMS,
    make_problem,
)


def one_component_problem(terms, lam):
    return Problem(n=1, period=1.0, a=(Constant(1.0),), g=(Constant(1.0),),
                   e=(Constant(0.0),), f=PowerLawRadial((terms,)), lam=lam)


def at(prob, cc, r, kind):
    """(margin, holds) of a kind ("expansion" or "compression") at the single
    radius r."""
    scan = scan_radii(prob, cc, [r])
    e_ok, c_ok = oracles.certified(scan)
    holds = e_ok if kind == "expansion" else c_ok
    return float(getattr(scan, kind)[0]), bool(holds[0])


def test_expansion_small_radius_superlinear(superlinear_small):
    prob, cc = superlinear_small
    prob = replace(prob, lam=1.0)
    margin, holds = at(prob, cc, 0.05, "expansion")
    # the radial-ratio margin
    eta = eta_lower(prob.f, np.array([0.05]), cc.sigma, prob.n)[0]
    assert margin == prob.lam * cc.Gamma * eta - 1.0
    assert holds


def test_expansion_margin_tends_to_minus_one(superlinear_small):
    prob, cc = superlinear_small
    margin, holds = at(replace(prob, lam=1e-12), cc, 0.5, "expansion")
    assert not holds
    assert abs(margin + 1.0) <= 1e-6


def test_expansion_linear_threshold():
    # f = u with n = 1 has eta = 1, so expansion holds exactly when
    # lam * Gamma > 1
    prob = one_component_problem(((1.0, 1.0),), 1.0)
    cc = compute_constants(discretize(prob, 256), prob)
    lam_star = 1.0 / cc.Gamma
    assert at(replace(prob, lam=1.05 * lam_star), cc, 1.0, "expansion")[1]
    assert not at(replace(prob, lam=0.95 * lam_star), cc, 1.0, "expansion")[1]


def test_compression_small_lambda(superlinear_small):
    prob, cc = superlinear_small
    small = replace(prob, lam=0.01)
    margin, holds = at(small, cc, 1.0, "compression")
    assert holds
    # the annulus-max margin
    big_hat = annulus_extrema(prob.f, np.array([1.0]), cc.sigma, prob.n)[1][0]
    e_term = float((cc.M * cc.int_abs_e).sum())
    assert margin == (1.0 - small.lam * (cc.C_hat * big_hat + e_term)) / 1.0


def test_compression_fails_everywhere_at_huge_lambda(superlinear_small):
    prob, cc = superlinear_small
    big = replace(prob, lam=1e9)
    for r in (1e-3, 1.0, 1e3):
        scan = scan_radii(big, cc, [r])
        assert not oracles.certified(scan)[1][0]
        assert scan.compression[0] <= 0.0
    assert existence_report(big, cc, default_r_grid()) == []


def test_margin_monotonicity_in_lambda(superlinear_small):
    prob, cc = superlinear_small
    lams = [0.01, 0.1, 1.0]
    exp = [at(replace(prob, lam=l), cc, 0.2, "expansion")[0] for l in lams]
    comp = [at(replace(prob, lam=l), cc, 0.2, "compression")[0] for l in lams]
    assert exp[0] < exp[1] < exp[2]
    assert comp[0] > comp[1] > comp[2]


def test_compression_ray_end_pivot(superlinear_small):
    # criterion 9's pivot: just below the compression ray's end the
    # compression certifies, just above it the margin goes negative
    prob, cc = superlinear_small
    for r in (0.5, 1.0, 4.0):
        bound = lambda_rays(cc, radius_bounds(prob, cc, [r]))[1][0]
        below = scan_radii(replace(prob, lam=0.99 * bound), cc, [r])
        above = scan_radii(replace(prob, lam=1.01 * bound), cc, [r])
        assert oracles.certified(below)[1][0] and below.compression[0] > 0.0
        assert above.compression[0] < 0.0


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_lambda_rays_agree_with_the_scan(bench_disc, name):
    # every preset problem on the default grid: a margin is on the side its
    # ray says just inside and just outside each finite positive ray end
    preset = PRESETS[name]
    checked = 0
    for lam in preset.lambdas:
        prob = parse_config(preset.config(lam)).problem
        cc = compute_constants(bench_disc, prob)
        bounds = radius_bounds(prob, cc, default_r_grid())
        for kind, ends, sign in zip(("expansion", "compression"),
                                    lambda_rays(cc, bounds), (1.0, -1.0)):
            for k in np.flatnonzero(np.isfinite(ends) & (ends > 0.0)):
                one = replace(bounds, r=bounds.r[k:k + 1], eta=bounds.eta[k:k + 1],
                              big_hat=bounds.big_hat[k:k + 1])
                for step in (1.0 - 1e-9, 1.0 + 1e-9):
                    margin = getattr(scan_radii(replace(prob, lam=ends[k] * step), cc, one),
                                     kind)[0]
                    assert np.sign(margin) == sign * np.sign(step - 1.0), (lam, kind, k)
                    checked += 1
    assert checked > 0


def test_two_annuli_superlinear(superlinear_small):
    prob, cc = superlinear_small
    annuli = existence_report(prob, cc, default_r_grid())
    assert [a.annulus_id for a in annuli] == ["A1", "A2"]
    assert annuli[0].orientation == "expansion_inner"
    assert annuli[1].orientation == "compression_inner"
    assert annuli[0].r_out < annuli[1].r_in  # disjoint
    lo, hi = oracles.constant_solution_norms(SUPERLINEAR_TERMS, prob.lam)
    assert annuli[0].r_in < lo < annuli[0].r_out
    assert annuli[1].r_in < hi < annuli[1].r_out
    for a in annuli:
        assert "solution norm in" in a.predicted


def test_single_annulus_sublinear(bench_disc):
    for lam in (0.1, 1.0, 10.0):
        prob = make_problem(0.5, 0.5, lam)
        cc = compute_constants(bench_disc, prob)
        annuli = existence_report(prob, cc, default_r_grid())
        assert len(annuli) == 1
        (norm,) = oracles.constant_solution_norms(SUBLINEAR_TERMS, lam)
        assert annuli[0].r_in < norm < annuli[0].r_out


def test_classify_superlinear(superlinear_small):
    rep = classify_regime(superlinear_small[0])
    assert rep.regime == "Superlinear"
    assert rep.singular_at_zero and rep.singular_all_components
    assert rep.clause == "two solutions for all sufficiently small lambda > 0"


def test_classify_sublinear_nonneg():
    rep = classify_regime(make_problem(0.5, 0.5, 1.0))
    assert rep.regime == "Sublinear"
    assert rep.clause == "one solution for every lambda > 0"


def test_classify_sublinear_mixed():
    prob = make_problem(0.5, 0.5, 8.0,
                        e_spec={"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}})
    rep = classify_regime(prob)
    assert rep.regime == "Sublinear"
    assert "implementation-derived threshold" in rep.clause


def test_classify_neither():
    prob = one_component_problem(((1.0, 1.0),), 1.0)
    rep = classify_regime(prob)
    assert rep.regime == "Neither"
    assert not rep.singular_at_zero
    assert rep.clause == "no covered clause"


def test_classify_partial_singularity_notes():
    f = PowerLawRadial((((1.0, -1.0), (1.0, 2.0)), ((1.0, 2.0),)))
    prob = Problem(n=2, period=1.0,
                   a=(Constant(1.0), Constant(1.0)),
                   g=(Constant(1.0), Constant(1.0)),
                   e=(Constant(0.0), Constant(0.0)),
                   f=f, lam=0.05)
    rep = classify_regime(prob)
    assert rep.singular_at_zero
    assert not rep.singular_all_components
    assert rep.note != ""


@pytest.mark.parametrize("rmin, rmax", [(1e-3, 1e3), (1e-8, 1e8)])
def test_annulus_max_holds_wherever_the_shell_ratio_route_did(bench_disc, rmin, rmax):
    # the reason there is no shell-ratio route: wherever its margin was
    # positive inside its gate, annulus-max certifies too.  The four presets
    # and seeded (alpha, beta, e) families, over lambda 1e-4 .. 1e4
    rng = np.random.default_rng(32)
    families = [(p.alpha, p.beta, p.e_spec) for p in PRESETS.values()]
    families += [(float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.1, 3.0)), e_spec)
                 for e_spec in (None, MIXED_E, {"constant": 0.05}) for _ in range(2)]
    r = default_r_grid(rmin, rmax)
    held = 0
    for alpha, beta, e_spec in families:
        prob = make_problem(alpha, beta, 1.0, e_spec=e_spec)
        cc = compute_constants(bench_disc, prob)
        bounds = radius_bounds(prob, cc, r)
        for lam in np.geomspace(1e-4, 1e4, 17):
            step = replace(prob, lam=float(lam))
            margin, gate = oracles.shell_ratio_reference(step, cc, r)
            shell = (margin > 0.0) & gate
            assert np.all(oracles.certified(scan_radii(step, cc, bounds))[1][shell]), \
                (alpha, beta, e_spec, lam)
            held += int(shell.sum())
    assert held > 0


# every certified annulus must contain a solver fixed point strictly inside it
SOUNDNESS_SUITE = (
    ("superlinear lam=0.05", symmetric_config(1.0, 2.0, 0.05)),
    ("sublinear lam=0.1", symmetric_config(0.5, 0.5, 0.1)),
    ("sublinear lam=1", symmetric_config(0.5, 0.5, 1.0)),
    ("sublinear lam=10", symmetric_config(0.5, 0.5, 10.0)),
    ("mixed superlinear lam=0.01", symmetric_config(1.0, 2.0, 0.01, MIXED_E)),
)


def test_certified_annuli_contain_solver_fixed_points(bench_disc):
    # the whole point of the certificates: every annulus they emit must
    # hold an actual fixed point of the discrete operator
    for name, cfg in SOUNDNESS_SUITE:
        prob = parse_config(cfg).problem
        cc = compute_constants(bench_disc, prob)
        report = find_solutions(prob, bench_disc, cc)
        assert report.annuli, name
        norms = [s.norm for s in report.solutions]
        for ann in report.annuli:
            assert any(ann.r_in < nm < ann.r_out for nm in norms), (name, ann)


def test_expansion_ray_threshold_pivots_expansion(bench_disc):
    # the large-lambda threshold: the least expansion ray end beyond Delta
    prob = make_problem(0.5, 0.5, 1.0,
                        e_spec={"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}})
    cc = compute_constants(bench_disc, prob)
    grid = default_r_grid()
    thr = lambda_rays(cc, radius_bounds(prob, cc, grid))[0][grid > cc.Delta].min()
    assert math.isfinite(thr) and thr > 0.0
    outer = [r for r in grid if r > cc.Delta]
    holds_above = any(
        at(replace(prob, lam=1.2 * thr), cc, r, "expansion")[1] for r in outer)
    holds_below = any(
        at(replace(prob, lam=0.8 * thr), cc, r, "expansion")[1] for r in outer)
    assert holds_above
    assert not holds_below


def test_certify_reads_the_threshold_from_its_radius_bounds(tmp_path, monkeypatch):
    # cor2a at lambda = 8: report.json's threshold is 1/(Gamma max eta_r over
    # the default radii above Delta), bit for bit, and certify evaluates
    # eta_r once, for the radius bounds its scan and threshold share
    calls = []
    real = certify_mod.eta_lower

    def count(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(certify_mod, "eta_lower", count)
    cfg = PRESETS["cor2a"].config(8.0)
    path = tmp_path / "cor2a.json"
    path.write_text(json.dumps(cfg))
    assert main(["certify", "--config", str(path), "--out", str(tmp_path / "c")]) == 0
    assert len(calls) == 1
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    consts = report["constants"]
    prob = parse_config(cfg).problem
    r = default_r_grid()
    outer = r[r > consts["Delta"]]
    eta = real(prob.f, outer, consts["sigma"], prob.n)
    assert report["large_lambda_threshold"]["value"] == 1.0 / (consts["Gamma"] * eta.max())


@pytest.mark.parametrize("alpha, beta, lam, e_spec", [
    (1.0, 2.0, 0.05, None),  # cor1b
    (0.5, 0.5, 1.0, None),  # cor1a
    (1.0, 2.0, 0.01, MIXED_E),  # superlinear, sign-changing e
])
def test_scan_matches_per_radius_scans(bench_disc, alpha, beta, lam, e_spec):
    # the masks of the array scan couple no radii: a full grid gives, bit for
    # bit, what each radius gives on its own
    prob = make_problem(alpha, beta, lam, e_spec=e_spec)
    cc = compute_constants(bench_disc, prob)
    grid = default_r_grid()
    full = scan_radii(prob, cc, grid)
    singles = [scan_radii(prob, cc, [r]) for r in grid]
    assert np.array_equal(full.r, grid)
    for kind in ("expansion", "compression"):
        assert np.array_equal(getattr(full, kind),
                              [getattr(s, kind)[0] for s in singles]), kind
    assert np.array_equal(full.domain_ok, [s.domain_ok[0] for s in singles])


@pytest.mark.parametrize("grid", [
    [1.0, 0.5],  # unsorted
    [0.5, 1.0, 1.0],  # repeated
    [0.0, 1.0],  # non-positive
    [-1.0, 1.0],
    [0.5, math.nan],
])
def test_scan_rejects_bad_grid(superlinear_small, grid):
    prob, cc = superlinear_small
    with pytest.raises(DomainError):
        scan_radii(prob, cc, grid)


def test_scan_from_radius_bounds_matches_the_grid_scan(bench_disc):
    # sign-changing e: the bounds built once serve every lambda, bit for bit,
    # for lambda 0.5 to 10, over which the forcing share lam sum M_i int|e_i|
    # of the compression margin grows past r at the small radii
    prob = make_problem(0.5, 0.5, 1.0, e_spec=MIXED_E)
    cc = compute_constants(bench_disc, prob)
    grid = default_r_grid()
    bounds = radius_bounds(prob, cc, grid)
    assert len(bounds) == grid.size
    for lam in (0.5, 1.0, 4.0, 10.0):
        step = replace(prob, lam=lam)
        once, fresh = scan_radii(step, cc, bounds), scan_radii(step, cc, grid)
        assert np.array_equal(once.r, fresh.r)
        assert np.array_equal(once.domain_ok, fresh.domain_ok), lam
        for kind in ("expansion", "compression"):
            assert np.array_equal(getattr(once, kind), getattr(fresh, kind)), (lam, kind)


def random_scan(rng, r, shift):
    """Random margins for both kinds and a random gate: labels E, C and EC
    at random."""
    return Scan(r=r, expansion=rng.normal(shift, 1.0, r.size),
                compression=rng.normal(shift, 1.0, r.size),
                domain_ok=rng.random(r.size) < 0.8)


def labels(scan):
    """The labeled radii's (E, C) flags, in radius order."""
    e_ok, c_ok = oracles.certified(scan)
    return [(bool(e), bool(c)) for e, c in zip(e_ok, c_ok) if e or c]


def test_pairing_matches_the_loop_on_random_labels(superlinear_small):
    prob, cc = superlinear_small
    rng = np.random.default_rng(20)
    r = default_r_grid(1e-2, 1e2, 11)
    ec_pairs = 0
    for _ in range(300):
        scan = random_scan(rng, r, rng.uniform(-2.5, 0.5))
        got = annuli_from_scan(prob, cc, scan)
        assert [vars(a) for a in got] == oracles.annuli_from_scan_loop(prob, cc, scan)
        flags = labels(scan)
        ec_pairs += sum(a == b == (True, True) for a, b in zip(flags, flags[1:]))
    assert ec_pairs > 0


@pytest.mark.parametrize("labeled", [[], [7]])
def test_pairing_without_a_pair(superlinear_small, labeled):
    # no labeled radius, or a single one: no annulus either way
    prob, cc = superlinear_small
    r = default_r_grid(1e-2, 1e2, 11)
    expansion, compression = np.full(r.size, -1.0), np.full(r.size, -1.0)
    for k in labeled:
        expansion[k] = compression[k] = 1.0
    scan = Scan(r=r, expansion=expansion, compression=compression,
                domain_ok=np.ones(r.size, dtype=bool))
    assert len(labels(scan)) == len(labeled)
    assert annuli_from_scan(prob, cc, scan) == []
    assert oracles.annuli_from_scan_loop(prob, cc, scan) == []


def test_pairing_matches_the_loop_with_forcing_regions(bench_disc, superlinear_small):
    # sign-changing e: pairs that straddle delta or Delta are rejected; the
    # e = 0 problem with the same constants counts them all
    prob = make_problem(1.0, 2.0, 0.01, e_spec=MIXED_E)
    cc = compute_constants(bench_disc, prob)
    free = superlinear_small[0]
    r = default_r_grid(1e-2, 1e2, 11)
    assert r[0] < cc.delta < cc.Delta < r[-1]
    rng = np.random.default_rng(21)
    kept = counted = 0
    for _ in range(300):
        scan = random_scan(rng, r, rng.uniform(-2.5, 0.5))
        got = [vars(a) for a in annuli_from_scan(prob, cc, scan)]
        assert got == oracles.annuli_from_scan_loop(prob, cc, scan)
        kept += len(got)
        counted += len(oracles.annuli_from_scan_loop(free, cc, scan))
    assert 0 < kept < counted
