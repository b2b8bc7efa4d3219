"""Compression/expansion certificates on annuli and existence reports.

Each certificate is a sufficient condition evaluated with computed constants,
so a positive margin proves the corresponding operator estimate on the
boundary sphere of radius r.  Failure to certify is NOT evidence of
non-existence; the conditions are conservative.

One certificate per kind, each named in the docs by what it measures:
  - expansion ("radial-ratio"): f_j(x) >= eta_r |x|_1 on the annulus forces
    ||T x|| >= lam * Gamma * eta_r * ||x||; holds iff lam*Gamma*eta_r > 1.
  - compression ("annulus-max"): ||T x|| <= lam*(C_hat*M_hat_r + sum M_i
    int|e_i|); holds iff that bound is below r.

There is no shell route, ||T x|| <= lam*C_hat*eps_r*||x|| + ||x||/2 with
eps_r = max_i fhat_i(r)/r on r > max(1/sigma, 2*lam*sum M_i int|e_i|):
annulus-max dominates it.  The annulus sigma*r <= |x|_1 <= r lies inside
the shell 1 <= |x|_1 <= r, so M_hat_r <= r*eps_r, and the domain gives
lam*sum M_i int|e_i| < r/2; so lam*C_hat*eps_r < 1/2 forces a positive
annulus-max margin; its forcing gate, r > Delta, lies inside annulus-max's.

The scan is array work over the whole radius grid, in two parts.  The
lambda-free part (``radius_bounds``) holds the grid, eta_r and M_hat_r:
exact extrema from problem.py, evaluated once per distinct component
profile.  The per-lambda part (``scan_radii``) is the two margins, each
affine in lambda, and the one domain gate they share.  A lambda sweep
builds the first part once.  Being affine, each margin is positive on a
lambda-ray at each radius; ``lambda_rays`` reads both ray ends from the
lambda-free part, and the large-lambda threshold of ``certify`` is the
least expansion end above Delta.

With a sign-changing e the estimates are only valid on radial ranges where
the forcing split stays nonnegative: below delta or above Delta.  Certified
annuli additionally require the whole closed annulus inside one allowed
region.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import ConeConstants
from .errors import DomainError
from .problem import Problem, annulus_extrema, eta_lower
from .problem import fhat  # noqa: F401  the benchmark's tracer wraps it here

__all__ = [
    "CertifiedAnnulus",
    "RadiusBounds",
    "RegimeReport",
    "Scan",
    "lambda_rays",
    "radius_bounds",
    "scan_radii",
    "annuli_from_scan",
    "existence_report",
    "classify_regime",
    "default_r_grid",
]


def default_r_grid(rmin: float = 1e-3, rmax: float = 1e3, per_decade: int = 61) -> np.ndarray:
    """Logarithmic radius grid over [rmin, rmax], per_decade radii per decade
    counting both ends (61 gives the 361 radii of the default [1e-3, 1e3])."""
    count = max(2, int(round(math.log10(rmax / rmin) * (per_decade - 1))) + 1)
    return np.geomspace(rmin, rmax, count)


@dataclass(frozen=True)
class Scan:
    """Both margins at every radius of ``r`` (ascending), and the one domain
    gate they share: a kind certifies where its margin is positive inside
    the gate."""

    r: np.ndarray
    expansion: np.ndarray  # lam * Gamma * eta_r - 1
    compression: np.ndarray  # (r - lam * (C_hat * M_hat_r + sum M_i int|e_i|)) / r
    domain_ok: np.ndarray  # bool over r: inside the allowed forcing regions


def _e_term(constants: ConeConstants) -> float:
    """sum_i M_i int|e_i|, the forcing share of the compression bound."""
    return float((constants.M * constants.int_abs_e).sum())


def _forcing_window(constants: ConeConstants) -> tuple:
    """(delta, Delta), a missing one read as a bound no radius passes: the
    allowed regions of a sign-changing e are r < delta and r > Delta."""
    return (-math.inf if constants.delta is None else constants.delta,
            math.inf if constants.Delta is None else constants.Delta)


@dataclass(frozen=True)
class RadiusBounds:
    """The lambda-free part of a scan over the ascending radius grid ``r``:
    eta_r and M_hat_r.  len() is the number of radii."""

    r: np.ndarray
    eta: np.ndarray
    big_hat: np.ndarray

    def __len__(self) -> int:
        return self.r.size


def radius_bounds(problem: Problem, constants: ConeConstants, r_grid) -> RadiusBounds:
    """The radius bounds of a scan over an ascending grid of positive radii.

    They depend on the nonlinearity, n and sigma but not on lam, so a lambda
    sweep builds them once; each bound is evaluated once per profile.
    """
    r = np.array(r_grid, dtype=float)
    if r.ndim != 1 or not np.all(r > 0.0):
        raise DomainError("r_grid must be a list of positive radii")
    if not np.all(np.diff(r) > 0.0):
        raise DomainError("r_grid must be sorted ascending without repeats")
    sigma, n, f = constants.sigma, problem.n, problem.f
    return RadiusBounds(r=r, eta=eta_lower(f, r, sigma, n),
                        big_hat=annulus_extrema(f, r, sigma, n)[1])


def scan_radii(problem: Problem, constants: ConeConstants, radii) -> Scan:
    """Both margins and their domain gate over ``radii``: an ascending grid
    of positive radii, or the ``RadiusBounds`` already built from one."""
    bounds = radii if isinstance(radii, RadiusBounds) else radius_bounds(problem, constants, radii)
    r, lam = bounds.r, problem.lam
    domain_ok = np.ones(r.shape, dtype=bool)
    if problem.sign_profile == "MixedE":
        delta, delta_big = _forcing_window(constants)
        domain_ok = (r < delta) | (r > delta_big)
    bound = lam * (constants.C_hat * bounds.big_hat + _e_term(constants))
    return Scan(r=r, expansion=lam * constants.Gamma * bounds.eta - 1.0,
                compression=(r - bound) / r, domain_ok=domain_ok)


def lambda_rays(constants: ConeConstants, bounds: RadiusBounds):
    """(expand_above, compress_below) over the radii of ``bounds``: at r the
    expansion margin is positive for lam > 1/(Gamma eta_r), +inf where
    eta_r = 0, and the compression margin for lam < r/(C_hat M_hat_r +
    sum M_i int|e_i|).  The domain gate does not depend on lam."""
    with np.errstate(divide="ignore"):
        expand_above = 1.0 / (constants.Gamma * bounds.eta)
    return expand_above, bounds.r / (constants.C_hat * bounds.big_hat + _e_term(constants))


@dataclass
class CertifiedAnnulus:
    annulus_id: str
    r_in: float
    r_out: float
    orientation: str  # "expansion_inner" | "compression_inner"
    predicted: str
    inner_margin: float  # the margin of the kind that orientation puts at each end
    outer_margin: float


def annuli_from_scan(problem: Problem, constants: ConeConstants, scan: Scan):
    """Certified annuli from adjacent expansion/compression radii in a scan.

    Each radius gets a label E, C, or EC (both margins positive inside the
    domain gate).  Every adjacent pair of labeled radii that can be read as
    expansion-then-compression or compression-then-expansion yields one
    annulus; a both-certified radius takes whichever role its neighbor does
    not, and an EC/EC pair defaults to expansion at the inner radius.  With
    a sign-changing e the whole closed annulus must lie in one allowed
    region.  The pairing is array work over all adjacent pairs; only the
    emitted annuli are visited one by one.
    """
    e_ok = (scan.expansion > 0.0) & scan.domain_ok
    c_ok = (scan.compression > 0.0) & scan.domain_ok
    labeled = np.flatnonzero(e_ok | c_ok)
    inner, outer = labeled[:-1], labeled[1:]
    exp_inner = e_ok[inner] & c_ok[outer]
    keep = exp_inner | (c_ok[inner] & e_ok[outer])
    if problem.sign_profile == "MixedE":
        delta, delta_big = _forcing_window(constants)
        keep &= (scan.r[outer] < delta) | (scan.r[inner] > delta_big)

    annuli = []
    for k in np.flatnonzero(keep):
        i, j = inner[k], outer[k]
        r1, r2 = float(scan.r[i]), float(scan.r[j])
        first, second = ((scan.expansion, scan.compression) if exp_inner[k]
                         else (scan.compression, scan.expansion))
        annuli.append(CertifiedAnnulus(
            annulus_id=f"A{len(annuli) + 1}",
            r_in=r1,
            r_out=r2,
            orientation="expansion_inner" if exp_inner[k] else "compression_inner",
            predicted=f"solution norm in ({r1:.6g}, {r2:.6g})",
            inner_margin=float(first[i]),
            outer_margin=float(second[j]),
        ))
    return annuli


def existence_report(problem: Problem, constants: ConeConstants, radii):
    """Scan ``radii`` (a radius grid or its ``RadiusBounds``) and return the
    certified annuli (see annuli_from_scan)."""
    return annuli_from_scan(problem, constants, scan_radii(problem, constants, radii))


@dataclass
class RegimeReport:
    regime: str  # "Sublinear" | "Superlinear" | "Neither"
    singular_at_zero: bool
    singular_all_components: bool
    clause: str
    note: str = ""


def classify_regime(problem: Problem) -> RegimeReport:
    """Growth/singularity classification and the predicted solution count.

    Sublinear: every component's top exponent is below 1 (ratio to |x| dies
    at infinity).  Superlinear: every component's top exponent exceeds 1.
    The strong singularity flag (every component blows up at zero) is what
    the two-solution and every-lambda clauses need; the weaker any-component
    reading is reported in the note but not used for clause selection.
    """
    f = problem.f
    max_p = [float(f.powers(i).max()) for i in range(f.n_components)]
    min_p = [float(f.powers(i).min()) for i in range(f.n_components)]
    if all(p < 1.0 for p in max_p):
        regime = "Sublinear"
    elif all(p > 1.0 for p in max_p):
        regime = "Superlinear"
    else:
        regime = "Neither"
    singular_any = any(p < 0.0 for p in min_p)
    singular_all = all(p < 0.0 for p in min_p)
    mixed = problem.sign_profile == "MixedE"

    if singular_all and regime == "Sublinear":
        if mixed:
            clause = "one solution for every lambda above an implementation-derived threshold"
        else:
            clause = "one solution for every lambda > 0"
    elif singular_all and regime == "Superlinear":
        clause = "two solutions for all sufficiently small lambda > 0"
    elif singular_all or regime == "Superlinear":
        clause = "one solution for all sufficiently small lambda > 0"
    else:
        clause = "no covered clause"

    note = ""
    if singular_any and not singular_all:
        note = ("only some components blow up at zero; clause selection uses the "
                "all-components reading and makes no multiplicity claim here")
    return RegimeReport(
        regime=regime,
        singular_at_zero=singular_any,
        singular_all_components=singular_all,
        clause=clause,
        note=note,
    )

