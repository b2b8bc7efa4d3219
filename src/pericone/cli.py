"""Command line front end.

Subcommands: green (kernel tables, positivity scan and Torres' analytic
criterion), certify (certificate scan and existence report), solve (find the
positive periodic solutions), sweep (lambda continuation to CSV), reproduce
(built-in benchmark scenarios with pass/fail clauses).

All numeric output is printed with 17 significant digits and no environment
state is consulted, so identical invocations produce byte-identical files.
Exit codes: 0 found/success, 1 clean "nothing certified/found" or a failed
reproduce clause, 2 numeric failure, 3 input/config error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .benchmarks import PRESETS
from .certify import (
    annuli_from_scan,
    classify_regime,
    default_r_grid,
    large_lambda_threshold,
    scan_radii,
)
from .cone import compute_constants
from .config import load_config_file, parse_config, serialize_problem
from .errors import ConfigError, HypothesisError, PericoneError
from .greens import ROW_BLOCK, build_green_table, kernel_values, torres_positive
from .solver import ODE_TOL, continue_lambda, find_solutions

__all__ = ["build_tables", "main"]

EXIT_FOUND = 0
EXIT_NOTHING = 1
EXIT_NUMERIC = 2
EXIT_INPUT = 3

DISCLAIMER = ("failure to certify is not evidence of non-existence; "
              "the certificates are conservative sufficient conditions")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _bool(b) -> str:
    return "true" if b else "false"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _write_chunks(path: Path, chunks):
    """Write the strings of an iterable one after another, as they come."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(chunks)
    print(f"wrote {path}")


def _write_text(path: Path, text: str):
    _write_chunks(path, (text,))


def _write_json(path: Path, doc):
    _write_text(path, json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n")


def _load(args):
    return parse_config(load_config_file(args.config))


def build_tables(problem, n_grid):
    """One Green table per component; components with the same a share one table.

    Coefficients are keyed by their config form, because dataclass equality
    fails on the arrays of Samples.
    """
    built = {}
    tables = []
    for spec, coef in zip(serialize_problem(problem)["a"], problem.a):
        key = json.dumps(spec, sort_keys=True)
        if key not in built:
            built[key] = build_green_table(coef, n_grid)
        tables.append(built[key])
    return tables


def _require(ok: bool, flag: str, message: str):
    """Reject a bad flag value; conditions are written so that NaN fails them."""
    if not ok:
        raise ConfigError(flag, message)


def _ode_tol(args) -> float:
    _require(0.0 < args.ode_tol < math.inf, "--ode-tol", "must be positive and finite")
    return args.ode_tol


def _green_rows(table):
    """green_i.csv as one chunk per kernel row, sampled ROW_BLOCK rows at a time."""
    t = [_fmt(v) for v in table.grid_t]
    nodes = np.arange(table.n_grid)
    yield "t,s,G\n"
    for start in range(0, table.n_grid, ROW_BLOCK):
        rows = nodes[start:start + ROW_BLOCK]
        for p, row in zip(rows, kernel_values(table, rows, nodes).tolist()):
            yield "".join(f"{t[p]},{tq},{_fmt(g)}\n" for tq, g in zip(t, row))


def cmd_green(args) -> int:
    parsed = _load(args)
    problem, n_grid = parsed.problem, parsed.n_grid
    out = Path(args.out)
    reports = []
    for i, (table, coef) in enumerate(zip(build_tables(problem, n_grid), problem.a)):
        pos = table.positivity
        _write_chunks(out / f"green_{i}.csv", _green_rows(table))
        reports.append({
            "component": i,
            "m": table.m,
            "M": table.M,
            "positive": table.positive,
            "min_value": pos.min_value,
            "argmin_t": pos.argmin[0],
            "argmin_s": pos.argmin[1],
            "holds": pos.holds,
            "torres_criterion": torres_positive(coef),
        })
        print(f"component {i}: m={_fmt(table.m)} M={_fmt(table.M)} "
              f"positive={_bool(table.positive)}")
    _write_json(out / "positivity.json", {"n_grid": n_grid, "components": reports})
    return EXIT_FOUND


def cmd_certify(args) -> int:
    _require(0.0 < args.rmin < args.rmax < math.inf, "--rmin/--rmax",
             "need 0 < rmin < rmax < inf")
    _require(args.per_decade >= 2, "--per-decade", "need at least 2 radii per decade")
    parsed = _load(args)
    problem, n_grid = parsed.problem, parsed.n_grid
    out = Path(args.out)
    r_grid = default_r_grid(args.rmin, args.rmax, args.per_decade)

    tables = build_tables(problem, n_grid)
    constants = compute_constants(tables, problem)
    scan = scan_radii(problem, constants, r_grid)
    annuli = annuli_from_scan(problem, constants, scan)
    regime = classify_regime(problem)

    _, exp_margin, _ = scan.chosen("expansion")
    _, comp_margin, _ = scan.chosen("compression")
    lines = ["r,expansion_margin,compression_margin,domain_ok"]
    lines.extend(f"{_fmt(r)},{_fmt(em)},{_fmt(cm)},{_bool(ok)}" for r, em, cm, ok in
                 zip(scan.r, exp_margin, comp_margin, scan.domain_ok["radial-ratio"]))
    _write_text(out / "certificates.csv", "\n".join(lines) + "\n")

    report = {
        "constants": dataclasses.asdict(constants),
        "annuli": [{
            "id": a.annulus_id,
            "r_in": a.r_in,
            "r_out": a.r_out,
            "orientation": a.orientation,
            "predicted": a.predicted,
            "inner_route": a.inner_route,
            "inner_margin": a.inner_margin,
            "outer_route": a.outer_route,
            "outer_margin": a.outer_margin,
        } for a in annuli],
        "regime": dataclasses.asdict(regime),
        "note": DISCLAIMER,
    }
    if problem.sign_profile == "MixedE" and regime.regime == "Sublinear":
        thr = large_lambda_threshold(problem, constants, r_grid)
        report["large_lambda_threshold"] = {
            "value": thr,
            "label": "implementation-derived, not a closed-form constant",
        }
    _write_json(out / "report.json", report)

    for a in annuli:
        print(f"{a.annulus_id}: {a.orientation} r_in={_fmt(a.r_in)} "
              f"r_out={_fmt(a.r_out)} ({a.predicted})")
    print(f"regime: {regime.regime}, clause: {regime.clause}")
    print(f"note: {DISCLAIMER}")
    return EXIT_FOUND if annuli else EXIT_NOTHING


def cmd_solve(args) -> int:
    ode_tol = _ode_tol(args)
    parsed = _load(args)
    problem, n_grid = parsed.problem, parsed.n_grid
    out = Path(args.out)
    tables = build_tables(problem, n_grid)
    constants = compute_constants(tables, problem)
    report = find_solutions(problem, tables, constants, ode_tol)

    header = "t," + ",".join(f"x_{i + 1}" for i in range(problem.n))
    # one %-format per row, the t column formatted once for every file;
    # "%.17g" % v is format(v, ".17g"), as _fmt writes it
    t = ["%.17g" % v for v in tables[0].grid_t.tolist()]
    row = ",".join(["%s"] + ["%.17g"] * problem.n)
    for j, sol in enumerate(report.solutions, start=1):
        lines = [header, *(row % vals for vals in zip(t, *sol.x.values.tolist()))]
        _write_text(out / f"solution_{j}.csv", "\n".join(lines) + "\n")

    summary = ["norm,fp_residual,ode_residual,cone_margin"]
    summary.extend(
        f"{_fmt(s.norm)},{_fmt(s.fp_residual)},{_fmt(s.ode_residual)},{_fmt(s.cone_margin)}"
        for s in report.solutions
    )
    _write_text(out / "solutions_summary.csv", "\n".join(summary) + "\n")

    for note in report.notes:
        print(f"note: {note}")
    for s in report.solutions:
        print(f"solution: norm={_fmt(s.norm)} annulus={s.annulus_id} "
              f"fp_residual={_fmt(s.fp_residual)} ode_residual={_fmt(s.ode_residual)}")
    if not report.solutions:
        print("no solutions found; " + DISCLAIMER)
    return EXIT_FOUND if report.solutions else EXIT_NOTHING


def cmd_sweep(args) -> int:
    _require(0.0 < args.lmin <= args.lmax < math.inf, "--lmin/--lmax",
             "need 0 < lmin <= lmax < inf")
    _require(args.steps >= 0, "--steps", "must be nonnegative")
    ode_tol = _ode_tol(args)
    parsed = _load(args)
    problem, n_grid = parsed.problem, parsed.n_grid
    out = Path(args.out)

    header = "lambda,branch_id,norm,ode_residual"
    if args.steps == 0:
        _write_text(out / "branches.csv", header + "\n")
        return EXIT_FOUND

    tables = build_tables(problem, n_grid)
    constants = compute_constants(tables, problem)
    res = continue_lambda(problem, tables, args.lmin, args.lmax, args.steps,
                          constants, ode_tol)

    lines = [header]
    lines.extend(f"{_fmt(row.lam)},{row.branch_id},{_fmt(row.norm)},{_fmt(row.ode_residual)}"
                 for row in res.rows)
    _write_text(out / "branches.csv", "\n".join(lines) + "\n")
    for note in res.notes:
        print(f"note: {note}")
    return EXIT_FOUND if res.rows else EXIT_NOTHING


def cmd_reproduce(args) -> int:
    preset = PRESETS[args.name]
    out = Path(args.out) if args.out else None
    print(f"{preset.name}: {preset.description}")
    print(f"clause: {preset.clause}")

    results = []
    all_pass = True
    for lam in preset.lambdas:
        parsed = parse_config(preset.config(lam))
        problem, n_grid = parsed.problem, parsed.n_grid
        tables = build_tables(problem, n_grid)
        constants = compute_constants(tables, problem)
        report = find_solutions(problem, tables, constants, preset.ode_tol)
        count = len(report.solutions)
        ok = count >= preset.expected_count
        all_pass = all_pass and ok
        norms = "/".join(_fmt(s.norm) for s in report.solutions) or "-"
        print(f"{preset.name} lambda={lam:g}: found {count} solution(s), "
              f"expected >= {preset.expected_count}, norms {norms}: "
              f"{'PASS' if ok else 'FAIL'}")
        if len(report.annuli) < preset.expected_count:
            print(f"certificate gap at lambda={lam:g}: only {len(report.annuli)} "
                  f"annuli certified; {DISCLAIMER}")
        for note in report.notes:
            print(f"note: {note}")
        results.append({
            "lambda": lam,
            "found": count,
            "expected": preset.expected_count,
            "norms": [s.norm for s in report.solutions],
            "annuli": len(report.annuli),
            "pass": ok,
        })
    if out is not None:
        _write_json(out / f"reproduce_{preset.name}.json", {
            "preset": preset.name,
            "clause": preset.clause,
            "results": results,
        })
    return EXIT_FOUND if all_pass else EXIT_NOTHING


# built once per process: set_defaults(func=cmd_*) binds the commands as they
# are when the parser is first built, so patching a cmd_* afterwards has no
# effect (no test patches one)
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pericone",
        description="periodic Green tables, cone certificates, and positive "
                    "periodic solutions of singular second-order systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_green = sub.add_parser("green", help="tabulate kernels and check positivity")
    p_green.add_argument("--config", required=True, help="problem config (JSON)")
    p_green.add_argument("--out", default=".", help="output directory")
    p_green.set_defaults(func=cmd_green)

    p_cert = sub.add_parser("certify", help="scan radii and report certified annuli")
    p_cert.add_argument("--config", required=True)
    p_cert.add_argument("--out", default=".")
    p_cert.add_argument("--rmin", type=float, default=1e-3)
    p_cert.add_argument("--rmax", type=float, default=1e3)
    p_cert.add_argument("--per-decade", type=int, default=61, dest="per_decade")
    p_cert.set_defaults(func=cmd_certify)

    p_solve = sub.add_parser("solve", help="find positive periodic solutions")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=".")
    p_solve.add_argument("--ode-tol", type=float, default=ODE_TOL, dest="ode_tol")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="lambda continuation, branch CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=".")
    p_sweep.add_argument("--lmin", type=float, required=True)
    p_sweep.add_argument("--lmax", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--ode-tol", type=float, default=ODE_TOL, dest="ode_tol")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="run a built-in benchmark scenario")
    p_rep.add_argument("name", choices=sorted(PRESETS))
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, HypothesisError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (np.linalg.LinAlgError, PericoneError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
