#!/usr/bin/env python3
"""pericone benchmark: closed-loop passes over a workload's problem list.

    python3 perfbench/run.py --workload presets|sweep|fine_grid|all \
        --seed N --seconds S --trace 0|1

Run from the repository root (any checkout holding ``src/pericone``).  Each
pass runs the workload's whole problem list once, in a fresh interpreter
(``passrun.py``), with the problem order shuffled by the seed; passes run one
after another until ``--seconds`` have gone by, so a run always holds whole
passes.  BLAS threads are pinned to the CPUs this process may use.

Every output is checked: problem counts against the regime clause, norms of
the e=0 constant-coefficient problems against ``oracle.py``, and the output
files of each problem byte for byte across the passes of the run.

End-to-end metrics (``--trace 0``), from untraced passes; problem times and
rates are calibrated against a fixed kernel run between problems (see
CAL_REF_S):

- setup_s: launch of a pass's interpreter to the start of its first problem
  (imports, config files, parse_config); median over passes, raw seconds.
- problems_per_s: problems in a pass over the median pass wall time.
- problem_s_p50: median wall time of one problem (a solve, or a whole sweep).
- problem_s_tail: the highest problem time with at least ten problems above
  it, never below the median; the report records its percentile and the
  sample count.
- peak_rss_mb: peak RSS of a pass process; median over passes.
- solutions_verified: solutions the CLI reported per pass.
- ok_share: operations that did not fail over operations attempted, i.e.
  1 - failed_share (printed as well).  An operation is a problem, or one
  lambda step of a sweep.

``--trace 1`` alternates untraced and traced passes (``spans.py``) and reports
the per-layer metrics of the traced ones, as medians over passes of per-pass
values, plus the tracing overhead against the untraced ones.  The last
stdout line is the JSON result; the full report (environment, every pass,
per-problem outcomes, failure reasons, changes against the seed-commit
ledger ``seed_ledger.json``) goes to
``.perfbench_out/<workload>-seed<N>-trace<T>.json`` and the spans of the last
traced pass to ``.perfbench_out/spans-<workload>-seed<N>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
LAMBDA_RTOL = 1e-12

# Problem times and rates are in calibrated seconds (s_ref): divided
# (multiplied) by the run's slowdown, the median time of passrun's calibration
# kernel over CAL_REF_S.  A shared 2-vCPU virtual machine can run ~1.6x slower for
# minutes at a time; the kernel slows down with the program, so the ratio
# holds still where raw times do not.  Setup time (interpreter start, imports)
# does not follow the kernel and stays in raw seconds.  Raw values are in the
# report.
CAL_REF_S = 0.035

END_TO_END_UNITS = {
    "setup_s": "s",
    "problems_per_s": "1/s_ref",
    "problem_s_p50": "s_ref",
    "problem_s_tail": "s_ref",
    "peak_rss_mb": "MiB",
    "solutions_verified": "count",
    "ok_share": "share",
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _llc() -> str | None:
    """Size of the highest-level cache of CPU 0, as the kernel reports it."""
    best = None
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level >= best[0]:
            best = (level, f"L{level} {size}")
    return best[1] if best else None


def _source_id() -> dict:
    """Commit when the checkout is a git repository, and a hash of the sources."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pericone").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _run_child(argv, env, deadline) -> subprocess.CompletedProcess:
    timeout = max(deadline - _now(), 1.0)
    return subprocess.run([sys.executable, str(HERE / "passrun.py"), *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)


class HarnessError(RuntimeError):
    """The benchmark itself could not run a pass; no result is printed."""


def run_passes(workload: str, seed: int, seconds: float, trace: bool, work: Path,
               env: dict, n_problems: int, started: float) -> list:
    """Whole passes for about ``seconds``; a traced run alternates plain and traced.

    A further pass starts only while half a pass still fits before the end of
    the measuring time, so a run ends within half a pass of ``seconds``.
    """
    hard_deadline = started + RUN_LIMIT_S
    measure_until = _now() + seconds
    passes = []
    while True:
        k = len(passes)
        traced = trace and k % 2 == 1
        order = list(range(n_problems))
        random.Random(f"{seed}:{k}").shuffle(order)
        pass_dir = work / f"pass{k}"
        result = work / f"pass{k}.json"
        argv = ["--workload", workload, "--order", ",".join(map(str, order)),
                "--work", str(pass_dir), "--result", str(result)]
        if traced:
            argv.append("--trace")
        launch = _now()
        try:
            proc = _run_child(argv, env, hard_deadline)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"pass {k} did not end within the run limit") from exc
        end = _now()
        if proc.returncode != 0:
            raise HarnessError(f"pass {k} exited with {proc.returncode}:\n{proc.stderr}")
        res = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        shutil.rmtree(pass_dir, ignore_errors=True)
        res.update(launch=launch, end_wall=end, traced=traced)
        passes.append(res)
        typical = statistics.median(p["end_wall"] - p["launch"] for p in passes)
        if len(passes) >= 2 and _now() + typical / 2.0 > measure_until:
            return passes


def _problem_outcome(rec: dict, lambdas: list):
    """(operations, failed operations, failure reasons, wrong outputs, solutions).

    An operation is the problem itself, or one lambda step of a sweep.  It
    fails on an exception, exit code 2 or 3, fewer solutions than the regime
    clause promises, or a norm the oracle rejects; the last is also a wrong
    output.
    """
    ops = len(lambdas) if rec["kind"] == "sweep" else 1
    if rec["error"] is not None or rec["rc"] not in (0, 1):
        return ops, ops, [rec["error"] or f"exit code {rec['rc']}"], [], 0
    ref = oracle.params(rec["config"])
    notes = "; ".join(rec["drop_notes"])
    if rec["kind"] == "solve":
        steps = [(rec["config"]["lambda"], rec["norms"])]
    else:
        steps = [(lam, []) for lam in lambdas]
        for lam, norm in rec["rows"]:
            k = next((k for k, ref_lam in enumerate(lambdas)
                      if abs(lam - ref_lam) <= LAMBDA_RTOL * ref_lam), None)
            if k is None:
                msg = f"row at lambda={lam!r} is off the requested grid"
                return ops, ops, [msg], [msg], 0
            steps[k][1].append(norm)
    failed, reasons, wrong = 0, [], []
    for lam, norms in steps:
        why = []
        if len(norms) < rec["expected"]:
            why.append(f"lambda={lam:.6g}: found {len(norms)} < expected {rec['expected']}"
                       + (f" ({notes})" if notes else ""))
        if ref is not None:
            a, g, terms, n = ref
            bad = oracle.mismatches(norms, oracle.constant_norms(a, g, terms, n, lam))
            if bad:
                wrong.append(f"lambda={lam:.6g}: norms {bad} match no constant solution")
                why.append(wrong[-1])
        failed += bool(why)
        reasons.extend(why)
    return ops, failed, reasons, wrong, sum(len(norms) for _, norms in steps)


def check(passes: list) -> dict:
    """Outcome checks of every problem in every pass, plus cross-pass byte identity."""
    lambdas = workloads.sweep_lambdas()
    attempted = failed = 0
    reasons, wrong, verified = {}, [], []
    digests = {}
    for p, res in enumerate(passes):
        pass_verified = 0
        for rec in res["problems"]:
            ops, bad_ops, why, bad, sols = _problem_outcome(rec, lambdas)
            digest = hashlib.sha256(json.dumps(rec["hashes"], sort_keys=True).encode()).hexdigest()
            if digests.setdefault(rec["pid"], digest) != digest:
                bad_ops = ops
                bad = bad + [f"output bytes of pass {p} differ from the first pass"]
                why = why + bad[-1:]
            attempted += ops
            failed += bad_ops
            pass_verified += sols
            for reason in why:
                counts = reasons.setdefault(rec["pid"], {})
                counts[reason] = counts.get(reason, 0) + 1
            wrong.extend(f"{rec['pid']}: {msg}" for msg in bad)
            rec["outcome"] = {"found": sols, "failed_ops": bad_ops, "ops": ops}
        verified.append(pass_verified)
        if not res["restored"]:
            wrong.append(f"pass {p}: a wrapped attribute was not restored")
    return {"attempted": attempted, "failed": failed, "reasons": reasons,
            "wrong": sorted(set(wrong)), "verified": verified}


def tail(samples: list) -> tuple:
    """(value, percentile) of the highest sample with at least ten samples above it.

    Never below the median: with fewer than about twenty samples that sample
    would sit under it, and the median is reported instead, as percentile 50.
    """
    ordered = sorted(samples)
    rank = len(ordered) - 10
    median = statistics.median(ordered)
    if rank < 1 or ordered[rank - 1] < median:
        return median, 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(passes: list, outcome: dict) -> tuple:
    plain = [p for p in passes if not p["traced"]]
    walls = [rec["wall_s"] for p in plain for rec in p["problems"]]
    tail_value, tail_pct = tail(walls)
    # pass wall time, launch to exit, without the calibration runs
    pass_s = statistics.median(p["end_wall"] - p["launch"] - sum(p["cal_s"]) for p in plain)
    slowdown = statistics.median(c for p in plain for c in p["cal_s"]) / CAL_REF_S
    raw = {"problems_per_s": len(plain[0]["problems"]) / pass_s,
           "problem_s_p50": statistics.median(walls), "problem_s_tail": tail_value}
    metrics = {
        "setup_s": statistics.median(p["first_start"] - p["launch"] for p in plain),
        "problems_per_s": raw["problems_per_s"] * slowdown,
        "problem_s_p50": raw["problem_s_p50"] / slowdown,
        "problem_s_tail": tail_value / slowdown,
        "peak_rss_mb": statistics.median(p["maxrss_mb"] for p in plain),
        "solutions_verified": statistics.median(outcome["verified"]),
        "ok_share": (outcome["attempted"] - outcome["failed"]) / outcome["attempted"],
    }
    info = {"tail_percentile": tail_pct, "tail_samples": len(walls),
            "tail_samples_beyond": sum(w > tail_value for w in walls),
            "passes": len(plain), "slowdown": slowdown, "raw": raw,
            "failed_share": outcome["failed"] / outcome["attempted"]}
    return metrics, info


# name: (unit, (field, span names...)) read from one traced pass's span
# summary.  Times are self time (span minus its direct children) except the
# stage totals certify.scan_s, solver.picard_s and solver.verify_s, which are
# inclusive.  kernel_quadrature lives in greens but is the operator's Nystrom
# matrix, rebuilt on every apply_T and Jacobian, hence the operator.* names.
PER_LAYER = {
    "problem.eta_lower_s": ("s", ("self_s", "problem.eta_lower")),
    "problem.eta_lower_calls": ("count", ("calls", "problem.eta_lower")),
    "problem.annulus_extrema_s": ("s", ("self_s", "problem.annulus_extrema")),
    "problem.thresholds_s": ("s", ("self_s", "problem.thresholds_delta")),
    "certify.scan_s": ("s", ("incl_s", "certify.scan_radii")),
    "certify.radii": ("count", ("note", "certify.scan_radii")),
    "certify.annuli": ("count", ("note", "certify.annuli_from_scan")),
    "solver.newton_s": ("s", ("self_s", "solver.newton_refine")),
    "solver.newton_calls": ("count", ("calls", "solver.newton_refine")),
    "operator.apply_T_s": ("s", ("self_s", "operator.apply_T")),
    "operator.apply_T_calls": ("count", ("calls", "operator.apply_T")),
    "operator.quadrature_s": ("s", ("self_s", "greens.kernel_quadrature")),
    "operator.quadrature_builds": ("count", ("calls", "greens.kernel_quadrature")),
    "operator.quadrature_bytes": ("B_computed", ("note", "greens.kernel_quadrature")),
    "greens.build_s": ("s", ("self_s", "greens.build_green_table")),
    "greens.tables_built": ("count", ("calls", "greens.build_green_table")),
    "greens.rk4_tables": ("count", ("note", "greens.build_green_table")),
    "solver.picard_s": ("s", ("incl_s", "solver.picard_solve")),
    "solver.picard_calls": ("count", ("calls", "solver.picard_solve")),
    "solver.verify_s": ("s", ("incl_s", "solver._verify_candidate")),
    "config.parse_s": ("s", ("self_s", "config.parse_config", "config.load_config_file")),
    "cone.constants_s": ("s", ("self_s", "cone.compute_constants")),
    "cli.self_s": ("s", ("self_s", "cli.main")),
}
DERIVED_UNITS = {
    "solver.newton_iters": "count",
    "solver.jacobian_bytes": "B_computed",
    "solver.lu_flops": "flop_computed",
    "solver.picard_converged": "ratio",
    "solver.verified_ratio": "ratio",
    "cli.bytes_written": "B",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _layer_values(res: dict) -> dict:
    summary = res["summary"]
    names = summary["names"]

    def read(field, *span_names):
        return sum(names.get(n, {}).get(field, 0) for n in span_names)

    vals = {name: read(*how) for name, (_, how) in PER_LAYER.items()}
    picard = read("calls", "solver.picard_solve")
    seeds = read("calls", "solver.newton_refine")
    wall = sum(rec["wall_s"] for rec in res["problems"])
    vals.update({
        "solver.newton_iters": summary["newton_steps"],
        "solver.jacobian_bytes": summary["jacobian_bytes"],
        "solver.lu_flops": summary["lu_flops"],
        "solver.picard_converged": read("note", "solver.picard_solve") / picard if picard else 0.0,
        "solver.verified_ratio": read("note", "solver._verify_candidate") / seeds if seeds else 0.0,
        "cli.bytes_written": sum(rec["bytes"] for rec in res["problems"]),
        "trace.coverage": sum(summary["layers"].values()) / wall,
    })
    return vals


def per_layer(passes: list) -> tuple:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows = [_layer_values(p) for p in traced]
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    traced_wall = statistics.median(sum(r["wall_s"] for r in p["problems"]) for p in traced)
    plain_wall = statistics.median(sum(r["wall_s"] for r in p["problems"]) for p in plain)
    metrics["trace.overhead"] = (traced_wall - plain_wall) / plain_wall
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    units.update(DERIVED_UNITS)
    layers = {layer: statistics.median(p["summary"]["layers"][layer] for p in traced)
              for layer in traced[0]["summary"]["layers"]}
    info = {"traced_passes": len(traced), "plain_passes": len(plain),
            "layer_self_s": layers, "missing_wraps": traced[0]["missing_wraps"]}
    return metrics, units, info


def _ledger_changes(workload: str, first_pass: dict) -> list:
    path = HERE / "seed_ledger.json"
    ledger = json.loads(path.read_text(encoding="utf-8"))["workloads"][workload]["problems"]
    changes = []
    for rec in first_pass["problems"]:
        seed = ledger.get(rec["pid"])
        now = rec["outcome"]
        if seed is None:
            changes.append(f"{rec['pid']}: not in the seed ledger")
        elif (seed["found"], seed["failed_ops"]) != (now["found"], now["failed_ops"]):
            changes.append(f"{rec['pid']}: found {now['found']}, failed ops "
                           f"{now['failed_ops']} (seed commit: {seed['found']}, "
                           f"{seed['failed_ops']})")
    return changes


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env_block: dict,
                 env: dict, started: float) -> dict:
    work = OUT / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        n_problems = _count_problems(workload, work, env, started)
        passes = run_passes(workload, seed, seconds, trace, work, env, n_problems, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome = check(passes)
    e2e, e2e_info = end_to_end(passes, outcome)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": {**env_block, **passes[0]["env"], "seed": seed},
              "end_to_end": e2e, "end_to_end_info": e2e_info,
              "attempted": outcome["attempted"], "failed": outcome["failed"],
              "failure_reasons": outcome["reasons"], "wrong_outputs": outcome["wrong"],
              "ledger_changes": _ledger_changes(workload, passes[0]),
              "passes": [{"traced": p["traced"], "setup_s": p["first_start"] - p["launch"],
                          "problems": [rec["pid"] for rec in p["problems"]],
                          "problem_wall_s": [rec["wall_s"] for rec in p["problems"]],
                          "cal_s": p["cal_s"],
                          "maxrss_mb": p["maxrss_mb"]} for p in passes],
              "problems": [{k: rec[k] for k in ("pid", "wall_s", "rc", "outcome", "bytes")}
                           for rec in passes[0]["problems"]]}
    if trace:
        layer, units, layer_info = per_layer(passes)
        report.update(per_layer=layer, per_layer_units=units, per_layer_info=layer_info)
        last = [p for p in passes if p["traced"]][-1]
        (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps({
            "fields": ["id", "name", "start", "end", "parent", "problem", "note"],
            "problems": [rec["pid"] for rec in last["problems"]],
            "spans": last["spans"]}), encoding="utf-8")
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    return report


def _count_problems(workload: str, work: Path, env: dict, started: float) -> int:
    """Warm-up: import the package once (bytecode, page cache) and size the workload."""
    proc = _run_child(["--workload", workload, "--work", str(work), "--result",
                       str(work / "warmup.json"), "--warmup"], env, started + RUN_LIMIT_S)
    if proc.returncode != 0:
        raise HarnessError(f"warm-up failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads((work / "warmup.json").read_text(encoding="utf-8"))["problems"]


def _print_report(report: dict):
    w = report["workload"]
    env = report["env"]
    print(f"== {w} (seed {report['seed']}, {report['seconds']} s, trace {report['trace']})")
    print("env: " + json.dumps(env, sort_keys=True))
    info = report["end_to_end_info"]
    for name, value in report["end_to_end"].items():
        print(f"{w} {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"{w} failed_share = {info['failed_share']:.6g} share "
          f"({report['failed']} of {report['attempted']} operations)")
    print(f"{w} tail = p{info['tail_percentile']:g} of {info['tail_samples']} problems "
          f"({info['tail_samples_beyond']} beyond), {info['passes']} untraced passes")
    print(f"{w} slowdown = {info['slowdown']:.4g} (calibration median / {CAL_REF_S} s); raw "
          + ", ".join(f"{k} = {v:.6g}" for k, v in info["raw"].items()))
    if "per_layer" in report:
        units = report["per_layer_units"]
        for name, value in report["per_layer"].items():
            print(f"{w} {name} = {value:.6g} {units[name]}")
        print(f"{w} layer self s per pass: " + json.dumps(
            {k: round(v, 4) for k, v in report["per_layer_info"]["layer_self_s"].items()}))
    for pid, reasons in report["failure_reasons"].items():
        for reason, count in reasons.items():
            print(f"{w} failed: {pid}: {reason} (x{count})")
    for msg in report["wrong_outputs"]:
        print(f"{w} WRONG: {msg}")
    for msg in report["ledger_changes"]:
        print(f"{w} ledger change: {msg}")


def _result_line(reports: list, trace: bool) -> dict:
    metrics = {}
    for rep in reports:
        prefix = "" if len(reports) == 1 else rep["workload"] + "."
        if trace:
            vals, units = rep["per_layer"], rep["per_layer_units"]
        else:
            vals, units = rep["end_to_end"], END_TO_END_UNITS
        for name, value in vals.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    return {"correct": all(not rep["wrong_outputs"] for rep in reports),
            "attempted": sum(rep["attempted"] for rep in reports),
            "failed": sum(rep["failed"] for rep in reports),
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run raises SystemExit, on which subprocess.run kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "pericone" / "__init__.py").is_file():
        print(f"no pericone sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    started = _now()
    OUT.mkdir(exist_ok=True)
    threads = _cpus()
    env = _child_env(threads)
    env_block = {**_source_id(), "nproc": threads, "blas_threads_requested": threads,
                 "cpu_model": _cpu_model(), "llc": _llc()}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for name in names:
            run_started = started if len(names) == 1 else _now()
            reports.append(run_workload(name, args.seed, args.seconds, bool(args.trace),
                                        env_block, env, run_started))
            _print_report(reports[-1])
    except HarnessError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(_result_line(reports, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
