"""T-periodic scalar coefficients.

Three concrete forms cover every coefficient in the problem class:

* ``Constant`` -- a(t) = v for all t,
* ``FourierSeries`` -- truncated real Fourier series on [0, T],
* ``Samples`` -- values on a uniform grid, read as their trigonometric
  interpolant: a ``FourierSeries`` built from the values.

So every non-constant coefficient is a trigonometric polynomial, sampled,
bounded and averaged one way: every sample the package takes is on a
uniform grid of one period, one inverse real FFT (``on_grid``).
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

    def on_grid(self, n_grid: int) -> np.ndarray:
        """The values at t_j = j*T/n_grid, j < n_grid."""
        return np.full(n_grid, float(self.value))


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

    def on_grid(self, n_grid: int) -> np.ndarray:
        """The values at t_j = j*T/n_grid, j < n_grid: one zero-padded inverse
        real FFT.  Mode m lands in bin k = m mod n_grid, or in n_grid - k,
        its sine negated, when that is the bin it aliases to on these nodes;
        bins 0 and n_grid/2 take the whole cosine, a sine vanishing there."""
        m = np.arange(1, max(len(self.cos_coeffs), len(self.sin_coeffs)) + 1)
        cos, sin = np.zeros(m.size), np.zeros(m.size)
        cos[:len(self.cos_coeffs)] = self.cos_coeffs
        sin[:len(self.sin_coeffs)] = self.sin_coeffs
        k = m % n_grid
        mirrored = 2 * k > n_grid
        k = np.where(mirrored, n_grid - k, k)
        half = 0.5 * (cos - 1j * np.where(mirrored, -sin, sin))
        spec = np.zeros(n_grid // 2 + 1, dtype=complex)
        spec[0] = self.c0
        np.add.at(spec, k, np.where((k == 0) | (2 * k == n_grid), cos, half))
        return np.fft.irfft(spec, n_grid, norm="forward")


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
    vals = coef.on_grid(n_audit)
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
