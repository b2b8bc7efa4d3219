"""Command line front end.

Subcommands: green (kernel tables, positivity scan and Torres' analytic
criterion), certify (certificate scan and existence report), solve (find the
positive periodic solutions), sweep (lambda continuation to CSV), reproduce
(built-in benchmark scenarios, all by default, with pass/fail clauses).

All numeric output is printed with 17 significant digits and no environment
state is consulted, so identical invocations produce byte-identical files.
Exit codes: 0 found/success, 1 clean "nothing certified/found" or a failed
reproduce clause, 2 numeric failure, 3 input/config or usage error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from .benchmarks import PRESETS
from .certify import (
    annuli_from_scan,
    classify_regime,
    default_r_grid,
    lambda_rays,
    radius_bounds,
    scan_radii,
)
from .cone import compute_constants
from .config import load_config_file, parse_config
from .errors import ConfigError, HypothesisError, PericoneError
from .greens import build_green_table  # noqa: F401  the benchmark's tracer wraps it here
from .greens import SCAN_ROWS, kernel_values, torres_positive
from .operator import discretize
from .solver import ODE_TOL, continue_lambda, find_solutions

__all__ = ["main"]

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


def _setup(parsed):
    """The problem of a parsed config and its discretization."""
    return parsed.problem, discretize(parsed.problem, parsed.n_grid)


def _require(ok: bool, flag: str, message: str):
    """Reject a bad flag value; conditions are written so that NaN fails them."""
    if not ok:
        raise ConfigError(flag, message)


def _ode_tol(args) -> float:
    _require(0.0 < args.ode_tol < math.inf, "--ode-tol", "must be positive and finite")
    return args.ode_tol


def _green_rows(table):
    """green_i.csv as one chunk per kernel row, sampled a scan block of rows at a time."""
    t = [_fmt(v) for v in table.grid_t]
    nodes = np.arange(table.n_grid)
    yield "t,s,G\n"
    for start in range(0, table.n_grid, SCAN_ROWS):
        rows = nodes[start:start + SCAN_ROWS]
        for p, row in zip(rows, kernel_values(table, rows, nodes).tolist()):
            yield "".join(f"{t[p]},{tq},{_fmt(g)}\n" for tq, g in zip(t, row))


def cmd_green(args) -> int:
    parsed = _load(args)
    problem, disc = _setup(parsed)
    out = Path(args.out)
    reports = []
    for i, (k, coef) in enumerate(zip(disc.index, problem.a)):
        table = disc.tables[k]
        path = out / f"green_{i}.csv"
        if (first := disc.index.index(k)) == i:
            _write_chunks(path, _green_rows(table))
        else:  # a table shared with an earlier component: copy that file's bytes
            shutil.copyfile(out / f"green_{first}.csv", path)
            print(f"wrote {path}")
        reports.append({
            "component": i,
            "m": table.m,
            "M": table.M,
            "positive": table.positive,
            "argmin_t": table.argmin[0],
            "argmin_s": table.argmin[1],
            "torres_criterion": torres_positive(coef),
        })
        print(f"component {i}: m={_fmt(table.m)} M={_fmt(table.M)} "
              f"positive={_bool(table.positive)}")
    _write_json(out / "positivity.json", {"n_grid": parsed.n_grid, "components": reports})
    return EXIT_FOUND


def cmd_certify(args) -> int:
    _require(0.0 < args.rmin < args.rmax < math.inf, "--rmin/--rmax",
             "need 0 < rmin < rmax < inf")
    _require(args.per_decade >= 2, "--per-decade", "need at least 2 radii per decade")
    problem, disc = _setup(_load(args))
    out = Path(args.out)
    r_grid = default_r_grid(args.rmin, args.rmax, args.per_decade)

    constants = compute_constants(disc, problem)
    bounds = radius_bounds(problem, constants, r_grid)
    scan = scan_radii(problem, constants, bounds)
    annuli = annuli_from_scan(problem, constants, scan)
    regime = classify_regime(problem)

    lines = ["r,expansion_margin,compression_margin,domain_ok"]
    lines.extend(f"{_fmt(r)},{_fmt(em)},{_fmt(cm)},{_bool(ok)}" for r, em, cm, ok in
                 zip(scan.r, scan.expansion, scan.compression, scan.domain_ok))
    _write_text(out / "certificates.csv", "\n".join(lines) + "\n")

    report = {
        "constants": dataclasses.asdict(constants),
        "annuli": [{("id" if k == "annulus_id" else k): v
                    for k, v in dataclasses.asdict(a).items()} for a in annuli],
        "regime": dataclasses.asdict(regime),
        "note": DISCLAIMER,
    }
    if problem.sign_profile == "MixedE" and regime.regime == "Sublinear":
        # the least lambda above which expansion holds at a radius beyond
        # Delta; None for no finite Delta, no radius beyond it, or eta_r = 0
        # at every such radius
        beyond = bounds.r > (math.inf if constants.Delta is None else constants.Delta)
        thr = float(lambda_rays(constants, bounds)[0][beyond].min(initial=math.inf))
        report["large_lambda_threshold"] = {
            "value": thr if thr < math.inf else None,
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
    problem, disc = _setup(_load(args))
    out = Path(args.out)
    constants = compute_constants(disc, problem)
    report = find_solutions(problem, disc, constants, ode_tol)

    header = "t," + ",".join(f"x_{i + 1}" for i in range(problem.n))
    # one %-format per row, the t column formatted once for every file;
    # "%.17g" % v is format(v, ".17g"), as _fmt writes it
    t = ["%.17g" % v for v in disc.tables[0].grid_t.tolist()]
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
    out = Path(args.out)

    header = "lambda,branch_id,annulus_id,norm,fp_residual,ode_residual"
    if args.steps == 0:
        _write_text(out / "branches.csv", header + "\n")
        return EXIT_FOUND

    problem, disc = _setup(parsed)
    constants = compute_constants(disc, problem)
    res = continue_lambda(problem, disc, args.lmin, args.lmax, args.steps,
                          constants, ode_tol)

    lines = [header]
    lines.extend(f"{_fmt(row.lam)},{row.branch_id},{row.annulus_id},{_fmt(row.norm)},"
                 f"{_fmt(row.fp_residual)},{_fmt(row.ode_residual)}" for row in res.rows)
    _write_text(out / "branches.csv", "\n".join(lines) + "\n")
    for note in res.notes:
        print(f"note: {note}")
    return EXIT_FOUND if res.rows else EXIT_NOTHING


def cmd_reproduce(args) -> int:
    # names are checked here: Python 3.11 rejects an empty nargs="*" list against choices
    unknown = [name for name in args.names if name not in PRESETS]
    _require(not unknown, "name", f"unknown preset(s) {', '.join(unknown)}; "
             f"choose from {', '.join(sorted(PRESETS))}")
    out = Path(args.out) if args.out else None
    verdicts = ["", "scenario,lambda,found,expected,verdict"]
    all_pass = True
    for preset in (PRESETS[name] for name in args.names or sorted(PRESETS)):
        print(f"{preset.name}: {preset.description}")
        clause = classify_regime(parse_config(preset.config(preset.lambdas[0])).problem).clause
        print(f"clause: {clause}")
        results = []
        for lam in preset.lambdas:
            problem, disc = _setup(parse_config(preset.config(lam)))
            constants = compute_constants(disc, problem)
            report = find_solutions(problem, disc, constants, preset.ode_tol)
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
            results.append({"lambda": lam, "found": count, "expected": preset.expected_count,
                            "norms": [s.norm for s in report.solutions],
                            "annuli": len(report.annuli), "pass": ok})
            verdicts.append(f"{preset.name},{_fmt(lam)},{count},{preset.expected_count},"
                            f"{'pass' if ok else 'fail'}")
        if out is not None:
            _write_json(out / f"reproduce_{preset.name}.json", {
                "preset": preset.name,
                "clause": clause,
                "results": results,
            })
    print("\n".join(verdicts))
    return EXIT_FOUND if all_pass else EXIT_NOTHING


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is bad input: exit code 3, not 2
        self.print_usage(sys.stderr)
        raise ConfigError(self.prog, message)


# built once per process: set_defaults(func=cmd_*) binds the commands as they
# are when the parser is first built, so patching a cmd_* afterwards has no
# effect (no test patches one)
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pericone",
        description="periodic Green tables, cone certificates, and positive "
                    "periodic solutions of singular second-order systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="problem config (JSON)")
    common.add_argument("--out", default=".", help="output directory")
    ode = argparse.ArgumentParser(add_help=False)
    ode.add_argument("--ode-tol", type=float, default=ODE_TOL, dest="ode_tol")

    p_green = sub.add_parser("green", parents=[common],
                             help="tabulate kernels and check positivity")
    p_green.set_defaults(func=cmd_green)

    p_cert = sub.add_parser("certify", parents=[common],
                            help="scan radii and report certified annuli")
    p_cert.add_argument("--rmin", type=float, default=1e-3)
    p_cert.add_argument("--rmax", type=float, default=1e3)
    p_cert.add_argument("--per-decade", type=int, default=61, dest="per_decade")
    p_cert.set_defaults(func=cmd_certify)

    p_solve = sub.add_parser("solve", parents=[common, ode],
                             help="find positive periodic solutions")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", parents=[common, ode],
                             help="lambda continuation, branch CSV")
    p_sweep.add_argument("--lmin", type=float, required=True)
    p_sweep.add_argument("--lmax", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="run built-in benchmark scenarios")
    p_rep.add_argument("names", nargs="*", metavar="name",
                       help=f"scenarios to run (default: all of {', '.join(sorted(PRESETS))})")
    p_rep.add_argument("--out", default=None, help="write reproduce_<name>.json here")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, HypothesisError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (np.linalg.LinAlgError, PericoneError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
