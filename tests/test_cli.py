import csv
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import pericone.cli as cli_mod
from pericone import (
    Constant,
    GridFunction,
    Solution,
    SolveReport,
    build_green_table,
    green_constant,
    symmetric_config,
)
from pericone.cli import EXIT_FOUND, EXIT_INPUT, EXIT_NOTHING, EXIT_NUMERIC, main

import oracles
from conftest import SUBLINEAR_TERMS, SUPERLINEAR_TERMS

MIXED_E_SPEC = {"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}}


def write_cfg(tmp_path, cfg, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_green_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, symmetric_config(1.0, 2.0, 0.05, n_grid=20))
    rc = main(["green", "--config", cfg, "--out", str(tmp_path / "g")])
    assert rc == EXIT_FOUND
    rows = read_csv(tmp_path / "g" / "green_0.csv")
    assert len(rows) == 400
    hit = [r for r in rows
           if abs(float(r["t"]) - 0.3) < 1e-9 and abs(float(r["s"]) - 0.3) < 1e-9]
    assert len(hit) == 1
    assert abs(float(hit[0]["G"]) - green_constant(1.0, 1.0, 0.3, 0.3)) <= 1e-12
    pos = json.loads((tmp_path / "g" / "positivity.json").read_text())
    assert all(entry["positive"] for entry in pos["components"])
    # a = 1 < pi^2: the analytic criterion agrees with the scan
    assert all(entry["torres_criterion"] is True for entry in pos["components"])
    out = capsys.readouterr().out
    assert "positive=true" in out


def test_green_resonant_exit(tmp_path):
    cfg = symmetric_config(1.0, 2.0, 0.05, n_grid=64)
    cfg["a"] = [{"constant": (2.0 * math.pi) ** 2}] * 2
    rc = main(["green", "--config", write_cfg(tmp_path, cfg),
               "--out", str(tmp_path / "g")])
    assert rc == EXIT_NUMERIC


def test_malformed_config_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "T": 1.0}')
    rc = main(["certify", "--config", str(path), "--out", str(tmp_path / "c")])
    assert rc == EXIT_INPUT
    err = capsys.readouterr().err
    assert "lambda" in err  # names the missing field


def test_missing_file_exit(tmp_path):
    rc = main(["solve", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "s")])
    assert rc == EXIT_INPUT


def test_certify_two_annuli(tmp_path):
    cfg = write_cfg(tmp_path, symmetric_config(1.0, 2.0, 0.05))
    rc = main(["certify", "--config", cfg, "--out", str(tmp_path / "c")])
    assert rc == EXIT_FOUND
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert [a["id"] for a in report["annuli"]] == ["A1", "A2"]
    assert report["regime"]["regime"] == "Superlinear"
    # e = 0: g f / 2 + e >= 0 at every radius, so no thresholds are computed
    assert report["constants"]["delta"] is None
    assert report["constants"]["Delta"] is None
    assert "not evidence of non-existence" in report["note"]
    rows = read_csv(tmp_path / "c" / "certificates.csv")
    assert len(rows) == 361  # default radius grid, 61 per decade over 6 decades
    assert set(rows[0]) == {"r", "expansion_margin", "compression_margin", "domain_ok"}


def test_certify_nothing_exit(tmp_path):
    cfg = write_cfg(tmp_path, symmetric_config(1.0, 2.0, 10.0))
    rc = main(["certify", "--config", cfg, "--out", str(tmp_path / "c")])
    assert rc == EXIT_NOTHING
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert report["annuli"] == []


def test_solve_writes_solutions(tmp_path):
    cfg = write_cfg(tmp_path, symmetric_config(0.5, 0.5, 1.0))
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "s")])
    assert rc == EXIT_FOUND
    (norm,) = oracles.constant_solution_norms(SUBLINEAR_TERMS, 1.0)
    rows = read_csv(tmp_path / "s" / "solution_1.csv")
    assert len(rows) == 256
    c = norm / 2.0
    for row in rows[:: 32]:
        assert abs(float(row["x_1"]) - c) <= 1e-8
        assert abs(float(row["x_2"]) - c) <= 1e-8
    summary = read_csv(tmp_path / "s" / "solutions_summary.csv")
    assert len(summary) == 1
    assert abs(float(summary[0]["norm"]) - norm) <= 1e-8


def test_solve_determinism(tmp_path):
    cfg = write_cfg(tmp_path, symmetric_config(1.0, 2.0, 0.05))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s1")]) == EXIT_FOUND
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s2")]) == EXIT_FOUND
    for name in ("solution_1.csv", "solution_2.csv", "solutions_summary.csv"):
        a = (tmp_path / "s1" / name).read_bytes()
        b = (tmp_path / "s2" / name).read_bytes()
        assert a == b, name


def test_solve_nothing_exit(tmp_path):
    cfg = write_cfg(tmp_path, symmetric_config(1.0, 2.0, 1.0))
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "s")])
    assert rc == EXIT_NOTHING


def test_sweep_single_branch(tmp_path):
    cfg = write_cfg(tmp_path, symmetric_config(0.5, 0.5, 1.0))
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "w"),
               "--lmin", "0.1", "--lmax", "10", "--steps", "4"])
    assert rc == EXIT_FOUND
    rows = read_csv(tmp_path / "w" / "branches.csv")
    assert len(rows) == 4
    assert {r["branch_id"] for r in rows} == {"b1"}
    norms = [float(r["norm"]) for r in rows]
    assert norms == sorted(norms)


def test_sweep_zero_steps(tmp_path):
    cfg = write_cfg(tmp_path, symmetric_config(0.5, 0.5, 1.0))
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "w"),
               "--lmin", "0.1", "--lmax", "10", "--steps", "0"])
    assert rc == EXIT_FOUND
    text = (tmp_path / "w" / "branches.csv").read_text()
    assert text == "lambda,branch_id,norm,ode_residual\n"


def test_sweep_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, symmetric_config(0.5, 0.5, 1.0))
    for run in ("w1", "w2"):
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / run),
                   "--lmin", "0.1", "--lmax", "10", "--steps", "6"])
        assert rc == EXIT_FOUND
    a = (tmp_path / "w1" / "branches.csv").read_bytes()
    b = (tmp_path / "w2" / "branches.csv").read_bytes()
    assert a == b
    assert len(read_csv(tmp_path / "w1" / "branches.csv")) == 6


@pytest.mark.parametrize("argv", [
    ["solve", "--ode-tol", "nan"],
    ["solve", "--ode-tol", "0"],
    ["solve", "--ode-tol", "-1"],
    ["certify", "--rmin", "nan"],
    ["certify", "--rmax", "inf"],
    ["sweep", "--lmin", "nan", "--lmax", "1", "--steps", "2"],
])
def test_bad_numeric_flag_exit(tmp_path, argv):
    cfg = write_cfg(tmp_path, symmetric_config(0.5, 0.5, 1.0))
    out = tmp_path / "o"
    rc = main([argv[0], "--config", cfg, "--out", str(out), *argv[1:]])
    assert rc == EXIT_INPUT
    assert not out.exists()


def test_non_finite_config_exit(tmp_path):
    cfg = symmetric_config(0.5, 0.5, 1.0)
    cfg["e"] = [{"constant": math.nan}] * 2
    out = tmp_path / "c"
    rc = main(["certify", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc == EXIT_INPUT
    assert not out.exists()


def test_reproduce_superlinear_preset(tmp_path, capsys):
    rc = main(["reproduce", "cor1b", "--out", str(tmp_path)])
    assert rc == EXIT_FOUND
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    blob = json.loads((tmp_path / "reproduce_cor1b.json").read_text())
    assert blob["preset"] == "cor1b"
    assert all(run["pass"] for run in blob["results"])
    assert all(run["found"] >= 2 for run in blob["results"])


def test_reproduce_mixed_preset(capsys):
    rc = main(["reproduce", "cor2b"])
    assert rc == EXIT_FOUND
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_mixed_config_end_to_end(tmp_path):
    cfg = symmetric_config(1.0, 2.0, 0.01, e_spec=MIXED_E_SPEC)
    path = write_cfg(tmp_path, cfg)
    rc = main(["certify", "--config", path, "--out", str(tmp_path / "c")])
    assert rc == EXIT_FOUND
    report = json.loads((tmp_path / "c" / "report.json").read_text())
    assert report["constants"]["delta"] is not None
    assert report["constants"]["Delta"] is not None
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "s")])
    assert rc == EXIT_FOUND
    summary = read_csv(tmp_path / "s" / "solutions_summary.csv")
    assert len(summary) == 2


def test_seventeen_digit_formatting(tmp_path):
    cfg = write_cfg(tmp_path, symmetric_config(0.5, 0.5, 1.0))
    main(["solve", "--config", cfg, "--out", str(tmp_path / "s")])
    rows = read_csv(tmp_path / "s" / "solutions_summary.csv")
    norm = float(rows[0]["norm"])
    # parsing the printed value back must be lossless
    assert rows[0]["norm"] == f"{norm:.17g}"


def test_solution_csv_matches_per_value_formatting(tmp_path, monkeypatch):
    # the row-at-a-time writer must give the bytes format(v, ".17g") gives per value
    n_grid = 64
    rng = np.random.default_rng(3)
    values = np.stack([10.0 ** rng.uniform(-300.0, 300.0, n_grid),
                       rng.integers(-2 ** 53, 2 ** 53, n_grid).astype(float)])
    values[0, :5] = [5e-324, 2.2250738585072014e-308 / 3.0, 1.7976931348623157e308,
                     0.0, 1.0 / 3.0]
    values[1, :4] = [1.0, -0.0, 2.0 ** 60, -7.0]
    # a second solution: the t column, formatted once, goes into every file
    sols = [Solution(x=GridFunction(2, n_grid, 1.0, vals), lam=1.0, norm=1.0,
                     fp_residual=0.0, ode_residual=0.0, cone_margin=0.0,
                     positive_min=0.0, annulus_id=f"A{k}")
            for k, vals in enumerate((values, values[::-1] / 3.0), start=1)]
    monkeypatch.setattr(cli_mod, "find_solutions",
                        lambda *args: SolveReport(solutions=sols, annuli=[], notes=[]))
    cfg = write_cfg(tmp_path, symmetric_config(0.5, 0.5, 1.0, n_grid=n_grid))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == EXIT_FOUND
    t = build_green_table(Constant(1.0), n_grid).grid_t
    for k, sol in enumerate(sols, start=1):
        vals = sol.x.values
        expect = ["t,x_1,x_2"] + [
            ",".join(format(float(v), ".17g") for v in (t[p], vals[0, p], vals[1, p]))
            for p in range(n_grid)
        ]
        written = (tmp_path / "s" / f"solution_{k}.csv").read_bytes()
        assert written == ("\n".join(expect) + "\n").encode()


def test_sweep_script_shares_one_table(monkeypatch, capsys):
    # the symmetric system has one coefficient, so the script tabulates one kernel
    path = Path(__file__).resolve().parents[1] / "scripts" / "sweep_branches.py"
    spec = importlib.util.spec_from_file_location("sweep_branches", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    real = script.continue_lambda
    seen = []

    def capture(problem, tables, *args, **kwargs):
        seen.append(tables)
        return real(problem, tables, *args, **kwargs)

    monkeypatch.setattr(script, "continue_lambda", capture)
    monkeypatch.setattr(sys, "argv", ["sweep_branches.py", "--steps", "2", "--n-grid", "64"])
    assert script.run() == 0
    (tables,) = seen
    assert len(tables) == 2 and tables[0] is tables[1]
    assert capsys.readouterr().out.startswith("lambda,branch_id,")
