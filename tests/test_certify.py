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
    classify_regime,
    compute_constants,
    default_r_grid,
    discretize,
    existence_report,
    find_solutions,
    lambda0_bound,
    large_lambda_threshold,
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
    """(route, margin, holds) of a kind's route at the single radius r."""
    route, margin, holds = scan_radii(prob, cc, [r]).chosen(kind)
    return route, float(margin[0]), bool(holds[0])


def test_expansion_small_radius_superlinear(superlinear_small):
    prob, cc = superlinear_small
    prob = replace(prob, lam=1.0)
    route, _, holds = at(prob, cc, 0.05, "expansion")
    assert route == "radial-ratio"
    assert holds


def test_expansion_margin_tends_to_minus_one(superlinear_small):
    prob, cc = superlinear_small
    _, margin, holds = at(replace(prob, lam=1e-12), cc, 0.5, "expansion")
    assert not holds
    assert abs(margin + 1.0) <= 1e-6


def test_expansion_linear_threshold():
    # f = u with n = 1 has eta = 1, so expansion holds exactly when
    # lam * Gamma > 1
    prob = one_component_problem(((1.0, 1.0),), 1.0)
    cc = compute_constants(discretize(prob, 256), prob)
    lam_star = 1.0 / cc.Gamma
    assert at(replace(prob, lam=1.05 * lam_star), cc, 1.0, "expansion")[2]
    assert not at(replace(prob, lam=0.95 * lam_star), cc, 1.0, "expansion")[2]


def test_compression_small_lambda(superlinear_small):
    prob, cc = superlinear_small
    route, _, holds = at(replace(prob, lam=0.01), cc, 1.0, "compression")
    assert holds
    assert route == "annulus-max"


def test_compression_fails_everywhere_at_huge_lambda(superlinear_small):
    prob, cc = superlinear_small
    big = replace(prob, lam=1e9)
    for r in (1e-3, 1.0, 1e3):
        scan = scan_radii(big, cc, [r])
        assert not scan.chosen("compression")[2][0]
        assert scan.margins["annulus-max"][0] <= 0.0
    assert existence_report(big, cc, default_r_grid()) == []


def test_margin_monotonicity_in_lambda(superlinear_small):
    prob, cc = superlinear_small
    lams = [0.01, 0.1, 1.0]
    exp = [at(replace(prob, lam=l), cc, 0.2, "expansion")[1] for l in lams]
    comp = [at(replace(prob, lam=l), cc, 0.2, "compression")[1] for l in lams]
    assert exp[0] < exp[1] < exp[2]
    assert comp[0] > comp[1] > comp[2]


def test_lambda0_bound_pivot(superlinear_small):
    # criterion 9's pivot: just below the bound the annulus-max route
    # certifies, just above it that route's margin goes negative
    prob, cc = superlinear_small
    for r in (0.5, 1.0, 4.0):
        bound = lambda0_bound(prob, cc, r)
        below = scan_radii(replace(prob, lam=0.99 * bound), cc, [r])
        above = scan_radii(replace(prob, lam=1.01 * bound), cc, [r])
        assert below.chosen("compression")[2][0] and below.margins["annulus-max"][0] > 0.0
        assert above.margins["annulus-max"][0] < 0.0


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
            assert np.all(scan_radii(step, cc, bounds).holds("annulus-max")[shell]), \
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


def test_large_lambda_threshold_pivots_expansion(bench_disc):
    prob = make_problem(0.5, 0.5, 1.0,
                        e_spec={"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}})
    cc = compute_constants(bench_disc, prob)
    grid = default_r_grid()
    thr = large_lambda_threshold(cc, radius_bounds(prob, cc, grid))
    assert thr is not None and thr > 0.0
    outer = [r for r in grid if r > cc.Delta]
    holds_above = any(
        at(replace(prob, lam=1.2 * thr), cc, r, "expansion")[2] for r in outer)
    holds_below = any(
        at(replace(prob, lam=0.8 * thr), cc, r, "expansion")[2] for r in outer)
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
    assert sorted(full.margins) == ["annulus-max", "radial-ratio"]
    for route in full.margins:
        assert np.array_equal(full.margins[route],
                              [s.margins[route][0] for s in singles]), route
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
        for route in fresh.margins:
            assert np.array_equal(once.margins[route], fresh.margins[route]), (lam, route)


ROUTE_NAMES = ("radial-ratio", "annulus-max")


def random_scan(rng, r, shift):
    """Random margins for both routes and a random gate: labels E, C and EC
    at random."""
    return Scan(r=r,
                margins={route: rng.normal(shift, 1.0, r.size) for route in ROUTE_NAMES},
                domain_ok=rng.random(r.size) < 0.8)


def labels(scan):
    """The labeled radii's (E, C) flags, in radius order."""
    e_ok, c_ok = scan.chosen("expansion")[2], scan.chosen("compression")[2]
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
    margins = {route: np.full(r.size, -1.0) for route in ROUTE_NAMES}
    for k in labeled:
        margins["radial-ratio"][k] = margins["annulus-max"][k] = 1.0
    scan = Scan(r=r, margins=margins, domain_ok=np.ones(r.size, dtype=bool))
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
