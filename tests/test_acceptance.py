"""Acceptance gate: twelve numbered criteria, one printed line each.

Run under pytest (each criterion is a test) or directly with
`python3 tests/test_acceptance.py` to see the full PASS/FAIL listing.
Tolerances are pinned in the assertions, not configurable.
"""

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from pericone import (
    Constant,
    FourierSeries,
    annulus_extrema,
    apply_T,
    build_green_table,
    compute_constants,
    cone_membership,
    default_r_grid,
    discretize,
    eta_lower,
    existence_report,
    fhat,
    find_solutions,
    kernel_values,
    lambda_rays,
    parse_config,
    radius_bounds,
    scan_radii,
    solve_linear_periodic,
    symmetric_config,
)
from pericone.cli import EXIT_FOUND, EXIT_NOTHING, main as cli_main

import oracles
from conftest import (
    SUBLINEAR_TERMS,
    SUPERLINEAR_TERMS,
    kernel_cone_points,
    smooth_cone_points,
)

MIXED_E_SPEC = {"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}}

_CACHE = {}


def _disc():
    """The a = 1 discretization of the symmetric n=2 problems at N=256."""
    if "disc" not in _CACHE:
        _CACHE["disc"] = discretize(_problem(1.0, 2.0, 0.05), 256)
    return _CACHE["disc"]


def _full_values(table):
    """The whole N x N kernel table, sampled from the generators."""
    nodes = np.arange(table.n_grid)
    return kernel_values(table, nodes, nodes)


def _problem(alpha, beta, lam, e_spec=None):
    return parse_config(symmetric_config(alpha, beta, lam, e_spec=e_spec)).problem


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_closed_form_table():
    table = _disc().tables[0]
    m_exact = math.sin(1.0) / (2.0 * (1.0 - math.cos(1.0)))
    big_exact = 1.0 / (2.0 * math.sin(0.5))
    values = _full_values(table)
    sym = float(np.max(np.abs(values - values.T)))
    ok = (abs(table.m - m_exact) <= 1e-12
          and abs(table.M - big_exact) <= 1e-12
          and sym <= 1e-12
          and values.min() >= m_exact - 1e-12
          and values.max() <= big_exact + 1e-12)
    _report(1, ok, f"k=T=1 kernel extrema to 1e-12, symmetry {sym:.2e}, "
                   "all values inside [m, M]")


def test_criterion_02_linear_oracle():
    scale = 1.0 / (1.0 - 4.0 * math.pi ** 2)
    errs = []
    for n in (64, 128, 256):
        table = build_green_table(Constant(1.0), n)
        x = solve_linear_periodic(table, FourierSeries(0.0, (1.0,)))
        exact = scale * np.cos(2.0 * math.pi * x.grid_t)
        errs.append(float(np.max(np.abs(x.values[0] - exact))))
    order = math.log(errs[0] / errs[2]) / (2.0 * math.log(4.0))
    ok = order >= 1.9 and errs[2] <= 1e-4
    _report(2, ok, f"x''+x=cos(2 pi t): order {order:.2f} (>=1.9), "
                   f"sup error at N=256 {errs[2]:.2e} (<=1e-4)")


def test_criterion_03_two_path_agreement():
    # a = 1 + 1e-9 cos has a mode, so it takes the RK4 path, against the
    # closed form of a = 1
    ref = _disc().tables[0]
    rk4 = build_green_table(FourierSeries(1.0, (1e-9,)), 256)
    dev = float(np.max(np.abs(_full_values(ref) - _full_values(rk4))))
    ok = ref.k is not None and rk4.k is None and dev <= 1e-6
    _report(3, ok, f"RK4 kernel of a = 1 + 1e-9 cos vs closed form of a = 1 {dev:.2e} (<=1e-6)")


def test_criterion_04_cone_invariance():
    prob = _problem(1.0, 2.0, 0.05)
    disc = _disc()
    cc = compute_constants(disc, prob)
    rng = np.random.default_rng(404)
    pts = smooth_cone_points(prob, 256, cc.sigma, 50, rng)
    pts += kernel_cone_points(prob, disc, 50, rng)
    worst = math.inf
    for x in pts:
        out = apply_T(prob, disc, x)
        worst = min(worst, cone_membership(out, cc.sigma).margin)
    ok = worst >= -1e-10
    _report(4, ok, f"100 cone points: worst output margin {worst:.2e} (>=-1e-10)")


def test_criterion_05_constants():
    cc = compute_constants(_disc(), _problem(1.0, 2.0, 0.05))
    ok = (abs(cc.sigma - 0.8775825619) <= 1e-4
          and abs(cc.Gamma - 0.40159) <= 1e-4
          and abs(cc.C_hat - 2.08583) <= 1e-4)
    _report(5, ok, f"sigma={cc.sigma:.10f}, Gamma={cc.Gamma:.5f}, "
                   f"C_hat={cc.C_hat:.5f} match references to 1e-4")


def test_criterion_06_operator_estimates():
    disc = _disc()
    rng = np.random.default_rng(606)
    worst_low, worst_high = math.inf, math.inf
    for alpha, beta, lam in ((1.0, 2.0, 0.05), (0.5, 0.5, 1.0)):
        prob = _problem(alpha, beta, lam)
        cc = compute_constants(disc, prob)
        for r in (0.5, 2.0):
            eta = eta_lower(prob.f, r, cc.sigma, prob.n)
            _, big_hat = annulus_extrema(prob.f, r, cc.sigma, prob.n)
            low = prob.lam * cc.Gamma * eta * r
            high = prob.lam * (cc.C_hat * big_hat
                               + float((cc.M * cc.int_abs_e).sum()))
            pts = smooth_cone_points(prob, 256, cc.sigma, 15, rng, norm=r)
            pts += kernel_cone_points(prob, disc, 10, rng, norm=r)
            for x in pts:
                out = apply_T(prob, disc, x)
                slack = 1e-8 * (1.0 + x.norm)
                worst_low = min(worst_low, out.norm - (low - slack))
                worst_high = min(worst_high, (high + slack) - out.norm)
    ok = worst_low >= 0.0 and worst_high >= 0.0
    _report(6, ok, "100 annulus points x 2 benchmarks: lower/upper operator "
                   f"estimates hold (worst slacks {worst_low:.2e}, {worst_high:.2e})")


def test_criterion_07_two_solutions_superlinear():
    prob = _problem(1.0, 2.0, 0.05)
    disc = _disc()
    cc = compute_constants(disc, prob)
    report = find_solutions(prob, disc, cc)
    lo, hi = oracles.constant_solution_norms(SUPERLINEAR_TERMS, 0.05)
    got = sorted(s.norm for s in report.solutions)
    annuli = report.annuli
    ok = (len(got) == 2
          and abs(got[0] - lo) <= 1e-8
          and abs(got[1] - hi) <= 1e-8
          and len(annuli) == 2
          and annuli[0].r_out < annuli[1].r_in
          and annuli[0].r_in < got[0] < annuli[0].r_out
          and annuli[1].r_in < got[1] < annuli[1].r_out)
    _report(7, ok, f"superlinear lam=0.05: two solutions {got[0]:.10f}, "
                   f"{got[1]:.10f} match cubic roots to 1e-8 in disjoint annuli"
            if len(got) == 2 else f"expected 2 solutions, got {len(got)}")


def test_criterion_08_sublinear_existence():
    disc = _disc()
    ok = True
    details = []
    for lam in (0.1, 1.0, 10.0):
        prob = _problem(0.5, 0.5, lam)
        cc = compute_constants(disc, prob)
        report = find_solutions(prob, disc, cc)
        (expect,) = oracles.constant_solution_norms(SUBLINEAR_TERMS, lam)
        good = (len(report.solutions) == 1
                and abs(report.solutions[0].norm - expect) <= 1e-8
                and report.annuli[0].r_in < report.solutions[0].norm
                < report.annuli[0].r_out)
        ok = ok and good
        details.append(f"lam={lam:g}: {report.solutions[0].norm:.8f}"
                       if report.solutions else f"lam={lam:g}: none")
    _report(8, ok, "sublinear oracle match to 1e-8 inside certified annuli ("
            + "; ".join(details) + ")")


def test_criterion_09_lambda0_pivot():
    from dataclasses import replace

    prob = _problem(1.0, 2.0, 0.05)
    cc = compute_constants(_disc(), prob)
    r = 1.0
    bound = float(lambda_rays(cc, radius_bounds(prob, cc, [r]))[1][0])
    below = scan_radii(replace(prob, lam=0.99 * bound), cc, [r])
    above = scan_radii(replace(prob, lam=1.01 * bound), cc, [r])
    ok = bool(oracles.certified(below)[1][0]) and above.compression[0] < 0.0
    _report(9, ok, f"compression ray end lambda0(r=1)={bound:.6f}: compression "
                   "holds at 0.99x, annulus-max margin negative at 1.01x")


def test_criterion_10_mixed_sign_run():
    disc = _disc()
    prob = _problem(1.0, 2.0, 0.01, e_spec=MIXED_E_SPEC)
    cc = compute_constants(disc, prob)
    report = find_solutions(prob, disc, cc)
    invariants = all(
        s.fp_residual <= 1e-8 and s.ode_residual <= 1e-6
        and s.positive_min > 0.0 and cone_membership(s.x, cc.sigma).member
        for s in report.solutions)
    ok = (cc.delta is not None and cc.Delta is not None
          and len(report.solutions) == 2 and invariants)
    # a radius window with no certificates must yield an explicit gap
    # (empty annuli), never a nonexistence claim
    gap = existence_report(prob, cc, np.geomspace(0.5, 5.0, 25))
    ok = ok and gap == []
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(
            symmetric_config(1.0, 2.0, 0.01, e_spec=MIXED_E_SPEC)))
        rc = cli_main(["certify", "--config", str(cfg), "--out", tmp,
                       "--rmin", "0.5", "--rmax", "5", "--per-decade", "25"])
        blob = json.loads((Path(tmp) / "report.json").read_text())
        ok = (ok and rc == EXIT_NOTHING and blob["annuli"] == []
              and "not evidence of non-existence" in blob["note"])
    _report(10, ok, f"mixed e: delta={cc.delta:.6f}, Delta={cc.Delta:.6f}, "
                    "two verified solutions, certificate gap reported explicitly")


def test_criterion_11_fhat_limits():
    thetas = (10.0, 100.0, 1000.0, 10000.0)
    sub = [max(fhat(_problem(0.5, 0.5, 1.0).f, th, 2)) / th for th in thetas]
    sup = [max(fhat(_problem(1.0, 2.0, 1.0).f, th, 2)) / th for th in thetas]
    ok = (all(a > b for a, b in zip(sub, sub[1:]))
          and all(a < b for a, b in zip(sup, sup[1:]))
          and sub[-1] < sub[0] / 10.0 and sup[-1] > 100.0 * sup[0])
    _report(11, ok, f"fhat(theta)/theta falls {sub[0]:.3g}->{sub[-1]:.3g} "
                    f"(beta=0.5) and grows {sup[0]:.3g}->{sup[-1]:.3g} (beta=2)")


def test_criterion_12_determinism():
    cfg_doc = symmetric_config(1.0, 2.0, 0.05)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(cfg_doc))
        outs = []
        for sub in ("one", "two"):
            rc = cli_main(["solve", "--config", str(cfg),
                           "--out", str(Path(tmp) / sub)])
            assert rc == EXIT_FOUND
            outs.append(Path(tmp) / sub)
        names = sorted(p.name for p in outs[0].iterdir())
        same = (names == sorted(p.name for p in outs[1].iterdir())
                and all((outs[0] / nm).read_bytes() == (outs[1] / nm).read_bytes()
                        for nm in names))
    _report(12, same, f"repeated cmd_solve byte-identical across {len(names)} files")


if __name__ == "__main__":
    failures = 0
    for num in range(1, 13):
        fn = next(v for k, v in sorted(globals().items())
                  if k.startswith(f"test_criterion_{num:02d}"))
        try:
            fn()
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
