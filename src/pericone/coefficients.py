"""T-periodic scalar coefficients.

Three concrete forms cover every coefficient in the problem class:

* ``Constant`` -- a(t) = v for all t,
* ``FourierSeries`` -- truncated real Fourier series on [0, T],
* ``Samples`` -- values on a uniform grid, read as their trigonometric
  interpolant: a ``FourierSeries`` built from the values.

So every non-constant coefficient is a trigonometric polynomial, evaluated,
bounded and averaged one way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


class Samples(FourierSeries):
    """The trigonometric interpolant of values at t_j = j*T/M, M = len(values).

    Its coefficients are rfft(values)/M, every bin doubled except the Nyquist
    cosine of an even M; the Nyquist sine vanishes on the nodes and is
    dropped.  Compares by those coefficients, like any FourierSeries.
    """

    def __init__(self, values, period: float = 1.0):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size < 4:
            raise DomainError("samples need at least 4 values")
        _check(period, vals)
        spec = np.fft.rfft(vals) / vals.size
        paired = (vals.size + 1) // 2
        spec[1:paired] *= 2.0
        super().__init__(float(spec[0].real), spec.real[1:], -spec.imag[1:paired], period)


PeriodicCoefficient = Constant | FourierSeries


def coefficient_mean(coef: PeriodicCoefficient) -> float:
    """Exact mean of a coefficient over one period."""
    return float(coef.value) if isinstance(coef, Constant) else coef.c0


def coefficient_extrema(coef: PeriodicCoefficient, n_audit: int = 4096):
    """(min, max) of a coefficient over one period, sampled on a fine audit grid;
    ``extrema_slack`` bounds how far inside the true extrema they may sit."""
    t = np.linspace(0.0, coef.period, n_audit, endpoint=False)
    vals = coef.eval(t)
    return float(vals.min()), float(vals.max())


def extrema_slack(coef: PeriodicCoefficient, n_audit: int = 4096) -> float:
    """How far the extrema of ``coefficient_extrema`` may sit inside the true ones.

    A true extremum is a critical point within h/2 of an audit node, h = T/n_audit,
    so it differs from the sampled one by at most K h^2/8 with K >= max |a''|.
    For a Fourier series K = sum_m (m w)^2 (|cos_m| + |sin_m|); a Constant is
    exact on the audit grid and gets 0.
    """
    if not isinstance(coef, FourierSeries):
        return 0.0
    w = 2.0 * math.pi / coef.period
    curvature = sum((m * w) ** 2 * abs(c) for m, c in enumerate(coef.cos_coeffs, start=1))
    curvature += sum((m * w) ** 2 * abs(c) for m, c in enumerate(coef.sin_coeffs, start=1))
    h = coef.period / n_audit
    return curvature * h * h / 8.0
