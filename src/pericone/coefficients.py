"""T-periodic scalar coefficients.

Three concrete forms cover every coefficient in the problem class:

* ``Constant`` -- a(t) = v for all t,
* ``FourierSeries`` -- truncated real Fourier series on [0, T],
* ``Samples`` -- values on a uniform grid, linearly interpolated with
  periodic wrap-around.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "Constant",
    "FourierSeries",
    "Samples",
    "PeriodicCoefficient",
]


def _check(period, values) -> None:
    """A positive finite period and finite values; written so that NaN fails."""
    if not 0.0 < period < math.inf:
        raise DomainError("period must be positive and finite")
    if not np.all(np.isfinite(values)):
        raise DomainError("coefficient values must be finite")


@dataclass
class Constant:
    """Coefficient identically equal to ``value``."""

    value: float
    period: float = 1.0

    def __post_init__(self):
        _check(self.period, self.value)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, self.value)


@dataclass
class FourierSeries:
    """c0 + sum_m cos_coeffs[m-1]*cos(2*pi*m*t/T) + sin_coeffs[m-1]*sin(2*pi*m*t/T)."""

    c0: float
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()
    period: float = 1.0

    def __post_init__(self):
        self.cos_coeffs = tuple(float(c) for c in self.cos_coeffs)
        self.sin_coeffs = tuple(float(c) for c in self.sin_coeffs)
        _check(self.period, (self.c0, *self.cos_coeffs, *self.sin_coeffs))

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        w = 2.0 * np.pi / self.period
        out = np.full_like(t, self.c0)
        for m, c in enumerate(self.cos_coeffs, start=1):
            out += c * np.cos(m * w * t)
        for m, c in enumerate(self.sin_coeffs, start=1):
            out += c * np.sin(m * w * t)
        return out


@dataclass
class Samples:
    """Values at t_j = j*T/len(values), linearly interpolated, periodic."""

    values: np.ndarray
    period: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 4:
            raise DomainError("samples need at least 4 values")
        _check(self.period, self.values)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        n = self.values.size
        pos = (t / self.period) * n
        j = np.floor(pos).astype(int)
        frac = pos - j
        j = np.mod(j, n)
        jn = np.mod(j + 1, n)
        return (1.0 - frac) * self.values[j] + frac * self.values[jn]


PeriodicCoefficient = Constant | FourierSeries | Samples


def coefficient_extrema(coef: PeriodicCoefficient, n_audit: int = 4096):
    """(min, max) of a coefficient over one period.

    Sampled on a fine audit grid; for the Samples form the sample nodes
    themselves are included, which makes the result exact for the piecewise
    linear interpolant.
    """
    t = np.linspace(0.0, coef.period, n_audit, endpoint=False)
    vals = coef.eval(t)
    if isinstance(coef, Samples):
        vals = np.concatenate([vals, coef.values])
    return float(vals.min()), float(vals.max())


def extrema_slack(coef: PeriodicCoefficient, n_audit: int = 4096) -> float:
    """How far the extrema of ``coefficient_extrema`` may sit inside the true ones.

    A true extremum is a critical point within h/2 of an audit node, h = T/n_audit,
    so it differs from the sampled one by at most K h^2/8 with K >= max |a''|.
    For a Fourier series K = sum_m (m w)^2 (|cos_m| + |sin_m|); Constant and
    Samples are exact on the audit grid and get 0.
    """
    if not isinstance(coef, FourierSeries):
        return 0.0
    w = 2.0 * math.pi / coef.period
    curvature = sum((m * w) ** 2 * abs(c) for m, c in enumerate(coef.cos_coeffs, start=1))
    curvature += sum((m * w) ** 2 * abs(c) for m, c in enumerate(coef.sin_coeffs, start=1))
    h = coef.period / n_audit
    return curvature * h * h / 8.0
