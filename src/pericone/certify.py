"""Compression/expansion certificates on annuli and existence reports.

Each certificate is a sufficient condition evaluated with computed constants,
so a positive margin proves the corresponding operator estimate on the
boundary sphere of radius r.  Failure to certify is NOT evidence of
non-existence; the conditions are conservative.

Routes, named by what they measure:
  - "radial-ratio" (expansion): f_j(x) >= eta_r |x|_1 on the annulus forces
    ||T x|| >= lam * Gamma * eta_r * ||x||; holds iff lam*Gamma*eta_r > 1.
  - "annulus-max" (compression): ||T x|| <= lam*(C_hat*M_hat_r + sum M_i
    int|e_i|); holds iff that bound is below r.
  - "shell-ratio" (compression): for r > max(1/sigma, 2*lam*sum M_i int|e_i|),
    ||T x|| <= lam*C_hat*eps_r*||x|| + ||x||/2 with eps_r = max_i fhat_i(r)/r;
    holds iff lam*C_hat*eps_r < 1/2.

With a sign-changing e the estimates are only valid on radial ranges where
the forcing split stays nonnegative: below delta or above Delta for
"radial-ratio" and "annulus-max", strictly above Delta for "shell-ratio".
Certified annuli additionally require the whole closed annulus inside one
allowed region.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cone import ConeConstants
from .errors import DomainError
from .problem import Problem, annulus_extrema, eta_lower, fhat

__all__ = [
    "Certificate",
    "CertifiedAnnulus",
    "RegimeReport",
    "certify_expansion",
    "certify_compression",
    "lambda0_bound",
    "scan_radii",
    "annuli_from_scan",
    "existence_report",
    "classify_regime",
    "large_lambda_threshold",
    "default_r_grid",
]


def default_r_grid(rmin: float = 1e-3, rmax: float = 1e3, per_decade: int = 61) -> np.ndarray:
    """Logarithmic radius grid over [rmin, rmax], per_decade radii per decade
    counting both ends (61 gives the 361 radii of the default [1e-3, 1e3])."""
    count = max(2, int(round(math.log10(rmax / rmin) * (per_decade - 1))) + 1)
    return np.geomspace(rmin, rmax, count)


@dataclass
class Certificate:
    """Every route's margin and domain gate at radius r; ``route`` is the one used."""

    r: float
    kind: str  # "expansion" | "compression"
    route: str
    margins: dict
    route_domain_ok: dict

    @property
    def margin(self) -> float:
        return self.margins[self.route]

    @property
    def domain_ok(self) -> bool:
        return self.route_domain_ok[self.route]

    @property
    def holds(self) -> bool:
        return self.margin > 0.0 and self.domain_ok


def _region_ok(r: float, constants: ConeConstants, allow_small: bool) -> bool:
    """Radial-range gate for sign-changing e: r < delta (if allowed) or r > Delta."""
    small = (
        allow_small
        and constants.delta is not None
        and r < constants.delta
    )
    large = constants.Delta is not None and r > constants.Delta
    return small or large


def certify_expansion(problem: Problem, constants: ConeConstants, r: float) -> Certificate:
    """Expansion on the sphere of radius r via the radial-ratio estimate."""
    if r <= 0.0:
        raise DomainError("r must be positive")
    eta = eta_lower(problem.f, r, constants.sigma, problem.n)
    margin = problem.lam * constants.Gamma * eta - 1.0
    if problem.sign_profile == "MixedE":
        domain_ok = _region_ok(r, constants, allow_small=True)
    else:
        domain_ok = True
    return Certificate(
        r=r,
        kind="expansion",
        route="radial-ratio",
        margins={"radial-ratio": float(margin)},
        route_domain_ok={"radial-ratio": domain_ok},
    )


def certify_compression(problem: Problem, constants: ConeConstants, r: float) -> Certificate:
    """Compression on the sphere of radius r; two routes, best usable one wins."""
    if r <= 0.0:
        raise DomainError("r must be positive")
    lam = problem.lam
    e_term = float((constants.M * constants.int_abs_e).sum())

    _, big_hat = annulus_extrema(problem.f, r, constants.sigma, problem.n)
    bound = lam * (constants.C_hat * big_hat + e_term)
    margin_am = (r - bound) / r

    req = max(1.0 / constants.sigma, 2.0 * lam * e_term)
    if r > req:
        eps = float((fhat(problem.f, r, problem.n) / r).max())
        margin_sr = 0.5 - lam * constants.C_hat * eps
    else:
        margin_sr = -math.inf

    mixed = problem.sign_profile == "MixedE"
    dom_am = _region_ok(r, constants, allow_small=True) if mixed else True
    dom_sr = _region_ok(r, constants, allow_small=False) if mixed else True

    margins = {"annulus-max": float(margin_am), "shell-ratio": float(margin_sr)}
    domains = {"annulus-max": dom_am, "shell-ratio": dom_sr}

    usable = [name for name in margins if margins[name] > 0.0 and domains[name]]
    if usable:
        route = max(usable, key=lambda name: margins[name])
    else:
        route = max(margins, key=lambda name: margins[name])
    return Certificate(
        r=r,
        kind="compression",
        route=route,
        margins=margins,
        route_domain_ok=domains,
    )


def lambda0_bound(problem: Problem, constants: ConeConstants, r: float) -> float:
    """Largest lambda below which annulus-max compression holds at radius r."""
    if r <= 0.0:
        raise DomainError("r must be positive")
    _, big_hat = annulus_extrema(problem.f, r, constants.sigma, problem.n)
    e_term = float((constants.M * constants.int_abs_e).sum())
    return r / (constants.C_hat * big_hat + e_term)


@dataclass
class CertifiedAnnulus:
    annulus_id: str
    r_in: float
    r_out: float
    orientation: str  # "expansion_inner" | "compression_inner"
    predicted: str
    inner: Certificate
    outer: Certificate


def scan_radii(problem: Problem, constants: ConeConstants, r_grid):
    """Both certificates at every radius, ascending; the raw material for reports."""
    rows = []
    last = -math.inf
    for r in r_grid:
        r = float(r)
        if r <= last:
            raise DomainError("r_grid must be sorted ascending without repeats")
        last = r
        rows.append((r, certify_expansion(problem, constants, r),
                     certify_compression(problem, constants, r)))
    return rows


def _annulus_region_ok(problem: Problem, constants: ConeConstants,
                       r_in: float, r_out: float) -> bool:
    """Whole closed annulus inside one allowed radial region (sign-changing e)."""
    if problem.sign_profile != "MixedE":
        return True
    below = constants.delta is not None and r_out < constants.delta
    above = constants.Delta is not None and r_in > constants.Delta
    return below or above


def annuli_from_scan(problem: Problem, constants: ConeConstants, rows):
    """Certified annuli from adjacent expansion/compression radii in a scan.

    Each radius gets a label E, C, or EC (both margins positive with their
    domain gates).  Every adjacent pair of labeled radii that can be read as
    expansion-then-compression or compression-then-expansion yields one
    annulus; a both-certified radius takes whichever role its neighbor does
    not, and an EC/EC pair defaults to expansion at the inner radius.
    """
    labeled = []
    for r, exp_cert, comp_cert in rows:
        e_ok = exp_cert.holds
        c_ok = comp_cert.holds
        if e_ok or c_ok:
            labeled.append((r, e_ok, c_ok, exp_cert, comp_cert))

    annuli = []
    for (r1, e1, c1, exp1, comp1), (r2, e2, c2, exp2, comp2) in zip(labeled, labeled[1:]):
        exp_inner = e1 and c2
        comp_inner = c1 and e2
        if exp_inner and comp_inner:
            # both-certified on both ends; default orientation
            comp_inner = False
        if not (exp_inner or comp_inner):
            continue
        if not _annulus_region_ok(problem, constants, r1, r2):
            continue
        orientation = "expansion_inner" if exp_inner else "compression_inner"
        inner = exp1 if exp_inner else comp1
        outer = comp2 if exp_inner else exp2
        annuli.append(CertifiedAnnulus(
            annulus_id=f"A{len(annuli) + 1}",
            r_in=r1,
            r_out=r2,
            orientation=orientation,
            predicted=f"solution norm in ({r1:.6g}, {r2:.6g})",
            inner=inner,
            outer=outer,
        ))
    return annuli


def existence_report(problem: Problem, constants: ConeConstants, r_grid):
    """Scan the radius grid and return the certified annuli (see annuli_from_scan)."""
    return annuli_from_scan(problem, constants, scan_radii(problem, constants, r_grid))


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


def large_lambda_threshold(problem: Problem, constants: ConeConstants, r_grid=None):
    """Implementation-derived lambda threshold for expansion beyond Delta.

    Smallest lambda making the radial-ratio margin positive at some grid
    radius above Delta: 1 / (Gamma * max eta_r over those radii).  None when
    no grid radius lies above Delta.  This is a computed quantity, not a
    closed-form constant.
    """
    if constants.Delta is None or not math.isfinite(constants.Delta):
        return None
    if r_grid is None:
        r_grid = default_r_grid()
    best_eta = 0.0
    for r in r_grid:
        if float(r) > constants.Delta:
            best_eta = max(best_eta, eta_lower(problem.f, float(r), constants.sigma, problem.n))
    if best_eta <= 0.0:
        return None
    return 1.0 / (constants.Gamma * best_eta)
