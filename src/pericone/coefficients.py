"""T-periodic scalar coefficients.

Every coefficient in the problem class is one type, ``FourierSeries``: a
truncated real Fourier series on [0, T], with no trailing zero modes.  Two
constructors build one from other data:

* ``Constant(v)`` -- a(t) = v for all t, a series without modes,
* ``Samples(values)`` -- values on a uniform grid, read as their
  trigonometric interpolant.

So a coefficient is read by its value, whatever form it was given in: the
same function compares equal, and every sample the package takes is on a
uniform grid of one period, one inverse real FFT (``on_grid``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import DomainError

__all__ = ["Constant", "FourierSeries", "Samples"]


def _check(period, values) -> None:
    """A positive finite period and finite values; written so that NaN fails."""
    if not 0.0 < period < math.inf:
        raise DomainError("period must be positive and finite")
    if not np.all(np.isfinite(values)):
        raise DomainError("coefficient values must be finite")


def _trimmed(coeffs) -> tuple:
    """The coefficients as floats, trailing zeros dropped."""
    out = [float(c) for c in coeffs]
    while out and out[-1] == 0.0:
        out.pop()
    return tuple(out)


@dataclass
class FourierSeries:
    """c0 + sum_m cos_coeffs[m-1]*cos(2*pi*m*t/T) + sin_coeffs[m-1]*sin(2*pi*m*t/T)."""

    c0: float
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()
    period: float = 1.0

    def __post_init__(self):
        self.c0 = float(self.c0)
        self.cos_coeffs = _trimmed(self.cos_coeffs)
        self.sin_coeffs = _trimmed(self.sin_coeffs)
        _check(self.period, (self.c0, *self.cos_coeffs, *self.sin_coeffs))

    @property
    def is_constant(self) -> bool:
        """True for a series without modes: a(t) = c0."""
        return not (self.cos_coeffs or self.sin_coeffs)

    def on_grid(self, n_grid: int) -> np.ndarray:
        """The values at t_j = j*T/n_grid, j < n_grid: one zero-padded inverse
        real FFT.  Mode m lands in bin k = m mod n_grid, or in n_grid - k,
        its sine negated, when that is the bin it aliases to on these nodes;
        bins 0 and n_grid/2 take the whole cosine, a sine vanishing there."""
        if self.is_constant:
            return np.full(n_grid, self.c0)
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


def Constant(value: float, period: float = 1.0) -> FourierSeries:
    """The coefficient identically equal to ``value``: a series without modes."""
    return FourierSeries(value, period=period)


def Samples(values, period: float = 1.0) -> FourierSeries:
    """The trigonometric interpolant of values at t_j = j*T/M, M = len(values).

    Its coefficients are rfft(values)/M, every bin doubled except the Nyquist
    cosine of an even M; the Nyquist sine vanishes on the nodes and is
    dropped.  Like any FourierSeries it compares by those coefficients, so
    M equal values give Constant(value).
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < 4:
        raise DomainError("samples need at least 4 values")
    _check(period, vals)
    spec = np.fft.rfft(vals) / vals.size
    paired = (vals.size + 1) // 2
    spec[1:paired] *= 2.0
    return FourierSeries(spec[0].real, spec.real[1:], -spec.imag[1:paired], period)


def coefficient_extrema(coef: FourierSeries, n_audit: int = 4096):
    """(min, max) of a coefficient over one period, sampled on a fine audit grid;
    ``extrema_slack`` bounds how far inside the true extrema they may sit."""
    vals = coef.on_grid(n_audit)
    return float(vals.min()), float(vals.max())


def extrema_slack(coef: FourierSeries, n_audit: int = 4096) -> float:
    """How far the extrema of ``coefficient_extrema`` may sit inside the true ones.

    A true extremum is a critical point within h/2 of an audit node, h = T/n_audit,
    so it differs from the sampled one by at most K h^2/8 with K >= max |a''|.
    K = sum_m (m w)^2 (|cos_m| + |sin_m|), so a series without modes is exact
    on the audit grid and gets 0.
    """
    w = 2.0 * math.pi / coef.period
    curvature = sum((m * w) ** 2 * abs(c) for m, c in enumerate(coef.cos_coeffs, start=1))
    curvature += sum((m * w) ** 2 * abs(c) for m, c in enumerate(coef.sin_coeffs, start=1))
    h = coef.period / n_audit
    return curvature * h * h / 8.0


def sup_bound(coef: FourierSeries) -> float:
    """max |a| at most: |c0| + sum_m |(cos_m, sin_m)|, from the modes alone."""
    modes = zip_longest(coef.cos_coeffs, coef.sin_coeffs, fillvalue=0.0)
    return abs(coef.c0) + sum(math.hypot(c, s) for c, s in modes)
