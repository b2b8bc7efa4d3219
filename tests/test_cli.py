import csv
import dataclasses
import json
import math

import numpy as np
import pytest

import pericone.cli as cli_mod
import pericone.operator as operator_mod
from pericone import (
    PRESETS,
    Constant,
    GridFunction,
    Solution,
    SolveReport,
    build_green_table,
    symmetric_config,
)
from pericone.cli import EXIT_FOUND, EXIT_INPUT, EXIT_NOTHING, EXIT_NUMERIC, main

import oracles
from conftest import SUBLINEAR_TERMS

SWEEP_HEADER = "lambda,branch_id,annulus_id,norm,fp_residual,ode_residual"
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
    # the diagonal of the a = 1 kernel: the oracle profile at separation 0
    assert abs(float(hit[0]["G"]) - oracles.ghat(0.0, 1.0, 1.0)) <= 1e-12
    pos = json.loads((tmp_path / "g" / "positivity.json").read_text())
    # one record per component, each key once: m is the minimum and
    # positive the verdict, with no second copy of either
    keys = {"component", "m", "M", "positive", "argmin_t", "argmin_s", "torres_criterion"}
    assert [set(entry) for entry in pos["components"]] == [keys, keys]
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
    # the orientation fixes each end's route, so no route key is written
    assert set(report["annuli"][0]) == {"id", "r_in", "r_out", "orientation", "predicted",
                                        "inner_margin", "outer_margin"}
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
    assert text == SWEEP_HEADER + "\n"


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


def test_gibbs_negative_samples_g_exit(tmp_path, capsys):
    # the trigonometric interpolant of a 0/1 square wave rings below zero
    # between the nodes, so g fails the audit although its samples do not
    cfg = symmetric_config(1.0, 2.0, 0.05)
    cfg["g"] = [{"samples": [1.0] * 32 + [0.0] * 32}, {"constant": 1.0}]
    out = tmp_path / "s"
    rc = main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert rc == EXIT_INPUT
    assert "g[0]" in capsys.readouterr().err
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


def _verdict_rows(out):
    """The scenario,lambda,found,expected,verdict rows that reproduce prints last."""
    lines = out.splitlines()
    header = lines.index("scenario,lambda,found,expected,verdict")
    return [line.split(",") for line in lines[header + 1:]]


def test_reproduce_runs_every_preset_by_default(tmp_path, capsys):
    rc = main(["reproduce", "--out", str(tmp_path / "all")])
    assert rc == EXIT_FOUND
    rows = _verdict_rows(capsys.readouterr().out)
    expect = [(name, lam) for name in sorted(PRESETS) for lam in PRESETS[name].lambdas]
    assert len(rows) == len(expect) == 8
    assert [(r[0], float(r[1])) for r in rows] == expect
    assert all(r[4] == "pass" for r in rows)
    # each file is the one a single-name run writes
    for name in sorted(PRESETS):
        assert main(["reproduce", name, "--out", str(tmp_path / name)]) == EXIT_FOUND
        single = (tmp_path / name / f"reproduce_{name}.json").read_bytes()
        assert (tmp_path / "all" / f"reproduce_{name}.json").read_bytes() == single


def test_reproduce_named_presets_in_order(capsys):
    assert main(["reproduce", "cor2b", "cor1b"]) == EXIT_FOUND
    rows = _verdict_rows(capsys.readouterr().out)
    assert [(r[0], float(r[1])) for r in rows] == [("cor2b", 0.01), ("cor1b", 0.05),
                                                  ("cor1b", 0.02)]


def test_reproduce_failed_preset_exit(monkeypatch, capsys):
    # cor1a has one solution per lambda; asking for two makes every lambda fail
    monkeypatch.setitem(PRESETS, "cor1a",
                        dataclasses.replace(PRESETS["cor1a"], expected_count=2))
    assert main(["reproduce", "cor1a", "cor2b"]) == EXIT_NOTHING
    verdicts = {(r[0], r[4]) for r in _verdict_rows(capsys.readouterr().out)}
    assert verdicts == {("cor1a", "fail"), ("cor2b", "pass")}


def test_reproduce_unknown_preset_exit(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["reproduce", "cor1b", "nope", "--out", str(out)]) == EXIT_INPUT
    assert "nope" in capsys.readouterr().err
    assert not out.exists()  # names are checked before any preset runs


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["sweep", "--config", "prob.json", "--lmin", "a", "--lmax", "1", "--steps", "1"],
    ["reproduce", "nope"],
    ["nope"],
])
def test_usage_error_exit(argv, capsys):
    assert main(argv) == EXIT_INPUT
    assert "input error: " in capsys.readouterr().err


def test_help_exit():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "--help"])
    assert exc.value.code == 0


def test_sweep_zero_steps_builds_no_table(tmp_path):
    # a resonant a makes every Green table fail, so --steps 0 must write the
    # header before any table is built
    cfg = symmetric_config(1.0, 2.0, 0.05, n_grid=64)
    cfg["a"] = [{"constant": (2.0 * math.pi) ** 2}] * 2
    rc = main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "w"),
               "--lmin", "0.1", "--lmax", "1", "--steps", "0"])
    assert rc == EXIT_FOUND
    text = (tmp_path / "w" / "branches.csv").read_text()
    assert text == SWEEP_HEADER + "\n"


@pytest.mark.parametrize("a_specs, distinct", [
    ([{"constant": 1.0}] * 2, 1),
    ([{"constant": 1.0}, {"fourier": {"c0": 1.0, "cos": [0.3], "sin": []}}], 2),
])
def test_green_formats_each_table_once(tmp_path, monkeypatch, a_specs, distinct):
    real = cli_mod._green_rows
    formatted = []

    def count(table):
        formatted.append(table)
        return real(table)

    monkeypatch.setattr(cli_mod, "_green_rows", count)
    cfg = symmetric_config(1.0, 2.0, 0.05, n_grid=32)
    cfg["a"] = a_specs
    out = tmp_path / "g"
    assert main(["green", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_FOUND
    assert len(formatted) == distinct
    first, second = ((out / f"green_{i}.csv").read_bytes() for i in range(2))
    assert (first == second) == (distinct == 1)
    assert len(second.splitlines()) == 1 + 32 * 32


@pytest.mark.parametrize("command", ["green", "certify"])
def test_green_and_certify_build_no_base_matrix(tmp_path, monkeypatch, command):
    # only a solve needs Newton's collocation matrices, and it builds them
    def forbidden(*args):
        raise AssertionError("collocation matrix built")

    monkeypatch.setattr(operator_mod, "collocation_matrix", forbidden)
    cfg = write_cfg(tmp_path, symmetric_config(1.0, 2.0, 0.05, n_grid=32))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_FOUND


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
    sols = [Solution(x=GridFunction(vals, 1.0), lam=1.0, norm=1.0,
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


def test_sweep_writes_the_continuation_rows(tmp_path, monkeypatch):
    # the symmetric system has one coefficient, so the sweep tabulates one
    # kernel, and branches.csv holds the rows continue_lambda returns, every
    # float at 17 digits
    real = cli_mod.continue_lambda
    seen = []

    def capture(problem, disc, *args, **kwargs):
        res = real(problem, disc, *args, **kwargs)
        seen.append((disc, res))
        return res

    monkeypatch.setattr(cli_mod, "continue_lambda", capture)
    cfg = write_cfg(tmp_path, symmetric_config(1.0, 2.0, 0.01))
    rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "w"),
               "--lmin", "0.01", "--lmax", "0.3", "--steps", "6"])
    assert rc == EXIT_FOUND
    ((disc, res),) = seen
    assert len(disc.tables) == 1 and disc.index == (0, 0)
    text = (tmp_path / "w" / "branches.csv").read_text()
    assert text.splitlines()[0] == SWEEP_HEADER
    rows = read_csv(tmp_path / "w" / "branches.csv")
    assert len(rows) == len(res.rows) > 6
    for written, row in zip(rows, res.rows):
        assert written == {
            "lambda": format(row.lam, ".17g"),
            "branch_id": row.branch_id,
            "annulus_id": row.annulus_id,
            "norm": format(row.norm, ".17g"),
            "fp_residual": format(row.fp_residual, ".17g"),
            "ode_residual": format(row.ode_residual, ".17g"),
        }
