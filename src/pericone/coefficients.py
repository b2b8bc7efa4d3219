"""T-periodic scalar coefficients.

Three concrete forms cover every coefficient in the problem class:

* ``Constant`` -- a(t) = v for all t,
* ``FourierSeries`` -- truncated real Fourier series on [0, T],
* ``Samples`` -- values on a uniform grid, linearly interpolated with
  periodic wrap-around.

``constant_k2(k, T)`` is the named constructor for the constant coefficient
k^2 restricted to the window 0 < k < pi/T in which the periodic kernel of
x'' + k^2 x has one sign.
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
    "constant_k2",
]


@dataclass
class Constant:
    """Coefficient identically equal to ``value``."""

    value: float
    period: float = 1.0

    def __post_init__(self):
        if not (self.period > 0):
            raise DomainError("period must be positive")

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
        if not (self.period > 0):
            raise DomainError("period must be positive")
        self.cos_coeffs = tuple(float(c) for c in self.cos_coeffs)
        self.sin_coeffs = tuple(float(c) for c in self.sin_coeffs)

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
        if not (self.period > 0):
            raise DomainError("period must be positive")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 4:
            raise DomainError("samples need at least 4 values")

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


def constant_k2(k: float, period: float) -> Constant:
    """Constant coefficient k^2 with the one-signed-kernel window enforced."""
    if not (0.0 < k < math.pi / period):
        raise DomainError(f"need 0 < k < pi/T, got k={k}, T={period}")
    return Constant(value=k * k, period=period)


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
