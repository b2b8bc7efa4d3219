"""The benchmark's tracer wraps package attributes by name; a deletion that
would leave one unresolved fails here before the benchmark runs."""
import importlib
import importlib.util
from pathlib import Path

import pytest

from pericone import Constant, FourierSeries, build_green_table


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
