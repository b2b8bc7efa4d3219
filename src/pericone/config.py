"""Problem configs: JSON documents in, validated Problem objects out.

Shape:
    {
      "n": 2, "T": 1.0, "lambda": 0.05, "N": 256,
      "a": [{"constant": 1.0}, ...],
      "g": [{"constant": 1.0}, ...],
      "e": [{"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}}, ...],
      "f": [[{"c": 1.0, "p": -1.0}, {"c": 1.0, "p": 2.0}], ...]
    }

Coefficient forms: {"constant": v}, {"fourier": {c0, cos, sin}},
{"samples": [...]}, the last read as the trigonometric interpolant of values
on a uniform grid over one period.  "e" may be omitted and defaults to
zero per component.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .coefficients import Constant, FourierSeries, PeriodicCoefficient, Samples
from .errors import ConfigError, DomainError
from .problem import PowerLawRadial, Problem

__all__ = ["ParsedConfig", "parse_config", "load_config_file"]

DEFAULT_N_GRID = 256
_TOP_KEYS = {"n", "T", "lambda", "N", "a", "g", "e", "f"}


@dataclass
class ParsedConfig:
    problem: Problem
    n_grid: int


def _finite(val, where) -> float:
    """val as a float; json also reads NaN, Infinity and huge integers, rejected here."""
    if not isinstance(val, bool) and isinstance(val, (int, float)):
        try:
            out = float(val)
        except OverflowError:
            out = math.inf
        if math.isfinite(out):
            return out
    raise ConfigError(where, f"expected a finite number, got {val!r}")


def _num(doc, key, where, default=None, required=True):
    if key not in doc:
        if required:
            raise ConfigError(where + key, "missing required field")
        return default
    return _finite(doc[key], where + key)


def _num_list(raw, where):
    if not isinstance(raw, list):
        raise ConfigError(where, f"expected a list of numbers, got {raw!r}")
    return [_finite(val, f"{where}[{idx}]") for idx, val in enumerate(raw)]


def _parse_coefficient(spec, period: float, where: str) -> PeriodicCoefficient:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(
            where, "expected exactly one of {'constant': v}, {'fourier': {...}}, {'samples': [...]}"
        )
    (form, body), = spec.items()
    try:
        if form == "constant":
            return Constant(value=_finite(body, where + ".constant"), period=period)
        if form == "fourier":
            if not isinstance(body, dict):
                raise ConfigError(where + ".fourier", "expected an object")
            unknown = set(body) - {"c0", "cos", "sin"}
            if unknown:
                raise ConfigError(where + ".fourier", f"unknown keys {sorted(unknown)}")
            c0 = _num(body, "c0", where + ".fourier.", default=0.0, required=False)
            cos = _num_list(body.get("cos", []), where + ".fourier.cos")
            sin = _num_list(body.get("sin", []), where + ".fourier.sin")
            return FourierSeries(c0=c0, cos_coeffs=tuple(cos), sin_coeffs=tuple(sin),
                                 period=period)
        if form == "samples":
            vals = _num_list(body, where + ".samples")
            return Samples(vals, period)
    except DomainError as exc:
        raise ConfigError(where, str(exc)) from exc
    raise ConfigError(where, f"unknown coefficient form {form!r}")


def _parse_terms(raw, where: str):
    if not isinstance(raw, list) or not raw:
        raise ConfigError(where, "expected a nonempty list of {c, p} terms")
    terms = []
    for idx, item in enumerate(raw):
        spot = f"{where}[{idx}]"
        if not isinstance(item, dict) or set(item) != {"c", "p"}:
            raise ConfigError(spot, "expected an object with exactly the keys c and p")
        c = _num(item, "c", spot + ".")
        p = _num(item, "p", spot + ".")
        if c <= 0.0:
            raise ConfigError(spot + ".c", "coefficient must be positive")
        terms.append((c, p))
    return tuple(terms)


def parse_config(doc) -> ParsedConfig:
    """Validate a config document and build the Problem it describes."""
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError("<root>", f"unknown keys {sorted(unknown)}")

    n_raw = doc.get("n")
    if not isinstance(n_raw, int) or isinstance(n_raw, bool) or n_raw < 1:
        raise ConfigError("n", f"expected a positive integer, got {n_raw!r}")
    n = n_raw
    period = _num(doc, "T", "")
    if period <= 0.0:
        raise ConfigError("T", "period must be positive")
    lam = _num(doc, "lambda", "")
    if lam < 0.0:
        raise ConfigError("lambda", "lambda must be nonnegative")
    n_grid_raw = doc.get("N", DEFAULT_N_GRID)
    if not isinstance(n_grid_raw, int) or isinstance(n_grid_raw, bool):
        raise ConfigError("N", f"expected an integer, got {n_grid_raw!r}")
    if n_grid_raw < 16 or n_grid_raw % 2 != 0:
        raise ConfigError("N", "grid size must be even and at least 16")

    def coef_list(key, required=True):
        raw = doc.get(key)
        if raw is None:
            if required:
                raise ConfigError(key, "missing required field")
            return tuple(Constant(value=0.0, period=period) for _ in range(n))
        if not isinstance(raw, list) or len(raw) != n:
            raise ConfigError(key, f"expected a list of {n} coefficient specs")
        return tuple(
            _parse_coefficient(spec, period, f"{key}[{i}]") for i, spec in enumerate(raw)
        )

    a = coef_list("a")
    g = coef_list("g")
    e = coef_list("e", required=False)

    f_raw = doc.get("f")
    if not isinstance(f_raw, list) or len(f_raw) != n:
        raise ConfigError("f", f"expected a list of {n} term lists")
    terms = tuple(_parse_terms(comp, f"f[{i}]") for i, comp in enumerate(f_raw))

    try:
        f = PowerLawRadial(terms=terms)
        problem = Problem(n=n, period=period, a=a, g=g, e=e, f=f, lam=lam)
    except DomainError as exc:
        raise ConfigError("<problem>", str(exc)) from exc
    return ParsedConfig(problem=problem, n_grid=n_grid_raw)


def load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"invalid JSON: {exc}") from exc
