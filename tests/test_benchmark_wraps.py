"""The benchmark's tracer wraps package attributes by name; a deletion that
would leave one unresolved fails here before the benchmark runs."""
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import pericone.cli
from pericone import Constant, FourierSeries, build_green_table, symmetric_config


def _load_spans():
    """perfbench/spans.py as a module, loaded by path and never installed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("mod_name,attr", [(m, a) for m, a, _ in SPANS.WRAPS])
def test_every_tracer_wrap_resolves(mod_name, attr):
    assert callable(getattr(importlib.import_module(mod_name), attr, None))


def test_rk4_flag_reads_the_table_kind():
    assert SPANS._rk4_flag((), build_green_table(Constant(1.0), 16)) == 0
    assert SPANS._rk4_flag((), build_green_table(FourierSeries(1.0, (0.3,)), 16)) == 1


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["sweep", "--lmin", "0.01", "--lmax", "0.3", "--steps", "3"],
], ids=["solve", "sweep"])
def test_traced_commands_complete(tmp_path, argv):
    # a traced solve and sweep, as the benchmark's traced passes run them:
    # every wrap resolves, every note reads its arguments, and the
    # originals come back.  a = 1 + 0.3 cos, so Newton takes steps, each
    # newton_refine on n * M = 2 * 32 unknowns
    cfg = symmetric_config(1.0, 2.0, 0.05, n_grid=256)
    cfg["a"] = [{"fourier": {"c0": 1.0, "cos": [0.3], "sin": []}}] * 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        # through the module attribute, as the pass does, so main is traced too
        rc = pericone.cli.main([argv[0], "--config", str(path), "--out", str(tmp_path / "out"),
                                *argv[1:]])
    finally:
        assert tracer.restore()
    assert rc == 0 and tracer.missing == []
    assert any(span[1] == "cli.main" for span in tracer.spans)
    notes = [span[6] for span in tracer.spans if span[1] == "solver.newton_refine"]
    assert notes and set(notes) == {2 * 32}
    summary = SPANS.summarize(tracer.spans)
    assert summary["newton_steps"] > 0
