"""One pass of a workload, in a fresh interpreter started by run.py.

Imports the package, writes every problem's config file, parses each one,
then runs the problems one after another through ``pericone.cli.main`` in
this process, in the order given.  Each problem's wall time is taken around
the CLI call only; its output files are read, hashed and measured after the
clock stops.  The result, with the spans of a traced pass, is written once to
the ``--result`` file when the pass ends.

    python3 perfbench/passrun.py --workload presets --order 3,0,... \
        --work DIR --result FILE [--trace]
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _now() -> float:
    # the same clock run.py reads before launching this interpreter
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _read_outputs(kind: str, out: Path) -> dict:
    """Solution norms (and sweep rows), per-file hashes, bytes written."""
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    hashes = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
              for p in files}
    norms, rows = [], []
    if kind == "solve" and (out / "solutions_summary.csv").is_file():
        with open(out / "solutions_summary.csv", newline="") as fh:
            norms = [float(r["norm"]) for r in csv.DictReader(fh)]
    if kind == "sweep" and (out / "branches.csv").is_file():
        with open(out / "branches.csv", newline="") as fh:
            rows = [[float(r["lambda"]), float(r["norm"])] for r in csv.DictReader(fh)]
    return {"hashes": hashes, "bytes": sum(p.stat().st_size for p in files),
            "norms": norms, "rows": rows}


def _calibrate(matrix, rhs) -> float:
    """Seconds for a fixed mix of interpreter, numpy-scalar and small-LU work.

    Run between problems; run.py divides timings by the run's median of it,
    so a machine that slows down for minutes does not read as a slower program.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += (i * 7) % 13
    x = 0.5
    for _ in range(6_000):
        x = float(np.power(x + 0.5, 0.5))
    for _ in range(12):
        np.linalg.solve(matrix, rhs)
    return time.perf_counter() - t0


def _drop_notes(text: str) -> list:
    return [line[len("note: "):] for line in text.splitlines()
            if line.startswith("note: ") and ("dropped" in line or "failed" in line)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--order", default="")
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--warmup", action="store_true",
                    help="import the package and exit (fills bytecode and page caches)")
    args = ap.parse_args()

    import numpy as np

    import pericone.cli
    from pericone.config import load_config_file, parse_config

    import blas
    import workloads

    problems = workloads.build(args.workload)
    if args.warmup:
        Path(args.result).write_text(json.dumps({"problems": len(problems)}), encoding="utf-8")
        return 0

    order = [int(k) for k in args.order.split(",")] if args.order else range(len(problems))
    work = Path(args.work)
    jobs = []
    for k in order:
        prob = problems[k]
        base = work / f"p{k}"
        base.mkdir(parents=True, exist_ok=True)
        cfg = base / "config.json"
        cfg.write_text(json.dumps(prob.config, indent=1) + "\n", encoding="utf-8")
        parse_config(load_config_file(str(cfg)))
        argv = [prob.kind, "--config", str(cfg), "--out", str(base / "out"), *prob.args]
        jobs.append((prob, argv, base / "out"))

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    cal_matrix = np.random.default_rng(0).standard_normal((256, 256)) + 256.0 * np.eye(256)
    cal_rhs = np.ones(256)
    records, cal = [], []
    first_start = _now()
    try:
        for slot, (prob, argv, out) in enumerate(jobs):
            cal.append(_calibrate(cal_matrix, cal_rhs))
            if tracer is not None:
                tracer.problem = slot
            buf = io.StringIO()
            error = None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    rc = pericone.cli.main(argv)
            except Exception as exc:  # recorded as a failed operation, reason kept
                rc, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            text = buf.getvalue()
            rec = {"pid": prob.pid, "kind": prob.kind, "config": prob.config,
                   "expected": prob.expected, "rc": rc, "error": error,
                   "wall_s": wall, "drop_notes": _drop_notes(text)}
            if rc not in (0, 1, None):
                rec["error"] = text.strip().splitlines()[-1] if text.strip() else f"exit {rc}"
            rec.update(_read_outputs(prob.kind, out))
            records.append(rec)
        cal.append(_calibrate(cal_matrix, cal_rhs))
    finally:
        restored = tracer.restore() if tracer is not None else True

    result = {
        "first_start": first_start,
        "problems": records,
        "cal_s": cal,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "restored": restored,
        "env": {"python": sys.version.split()[0], "numpy": np.__version__, **blas.info()},
    }
    if tracer is not None:
        result["missing_wraps"] = tracer.missing
        result["summary"] = spans.summarize(tracer.spans)
        result["spans"] = tracer.spans
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
