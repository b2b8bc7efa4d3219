import json
import math

import pytest

from pericone import (
    ConfigError,
    Constant,
    HypothesisError,
    Samples,
    load_config_file,
    parse_config,
    symmetric_config,
)


def test_parse_benchmark_config():
    cfg = symmetric_config(1.0, 2.0, 0.05)
    parsed = parse_config(cfg)
    prob = parsed.problem
    assert prob.n == 2
    assert prob.period == 1.0
    assert prob.lam == 0.05
    assert parsed.n_grid == 256
    assert prob.a[0] == Constant(1.0)


def test_coefficient_forms():
    cfg = symmetric_config(1.0, 2.0, 0.05)
    cfg["a"] = [{"samples": [1.0, 1.0, 1.0, 1.0]}, {"constant": 1.0}]
    prob = parse_config(cfg).problem
    # four equal samples and the constant are one coefficient
    assert prob.a[0] == prob.a[1] == Samples([1.0, 1.0, 1.0, 1.0]) == Constant(1.0)


def test_missing_field_names_the_path():
    with pytest.raises(ConfigError) as exc:
        parse_config({"n": 2})
    assert "T" in str(exc.value)


def test_bad_term_rejected():
    cfg = symmetric_config(1.0, 2.0, 0.05)
    cfg["f"][0][0]["c"] = -1.0
    with pytest.raises(ConfigError) as exc:
        parse_config(cfg)
    assert "f" in str(exc.value)


def test_unknown_key_rejected():
    cfg = symmetric_config(1.0, 2.0, 0.05)
    cfg["extra"] = 1
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_bool_is_not_a_number():
    cfg = symmetric_config(1.0, 2.0, 0.05)
    cfg["lambda"] = True
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_odd_grid_rejected():
    cfg = symmetric_config(1.0, 2.0, 0.05)
    cfg["N"] = 33
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_negative_g_rejected_at_parse():
    # structural problems become ConfigError, a violated standing hypothesis
    # keeps its own type; the CLI maps both to the input-error exit code
    cfg = symmetric_config(1.0, 2.0, 0.05)
    cfg["g"] = [{"constant": -1.0}, {"constant": 1.0}]
    with pytest.raises(HypothesisError):
        parse_config(cfg)


def test_e_defaults_to_zero():
    cfg = symmetric_config(1.0, 2.0, 0.05)
    del cfg["e"]
    prob = parse_config(cfg).problem
    assert all(c == Constant(0.0) for c in prob.e)


def test_load_config_file(tmp_path):
    cfg = symmetric_config(0.5, 0.5, 1.0)
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(cfg))
    assert load_config_file(str(path)) == cfg
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))


def _set_path(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("path,value", [
    (("lambda",), math.nan),
    (("T",), math.inf),
    (("f", 0, 0, "c"), math.nan),
    (("f", 0, 0, "p"), math.nan),
    (("a", 0), {"constant": math.nan}),
    (("e", 1), {"constant": math.nan}),
    (("g", 0), {"fourier": {"c0": 1.0, "cos": [math.inf], "sin": []}}),
    (("a", 1), {"samples": [1.0, -math.inf, 1.0, 1.0]}),
    (("lambda",), 10 ** 400),
])
def test_non_finite_number_rejected(path, value):
    # json.loads reads NaN and Infinity literals; they must not reach Problem
    cfg = json.loads(json.dumps(symmetric_config(1.0, 2.0, 0.05)))
    _set_path(cfg, path, value)
    with pytest.raises(ConfigError) as exc:
        parse_config(json.loads(json.dumps(cfg)))
    assert "finite" in str(exc.value)
