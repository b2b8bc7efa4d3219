"""Independent check of reported solution norms, written without the package.

For constant coefficients a_i = a, g_i = g, e = 0 and one radial profile
phi(u) = sum c u^p shared by all n components, the constant vector
x_i(t) = c is a periodic solution exactly when a c = lam g phi(sqrt(n) c).
Its product sup norm is n c.  The roots are found by a sign scan on a
logarithmic grid plus bisection; every norm the CLI reports for such a
problem must equal one of n c to ``RTOL``.
"""
from __future__ import annotations

import functools
import math

RTOL = 1e-8


def _constant(spec):
    if isinstance(spec, dict) and set(spec) == {"constant"}:
        return float(spec["constant"])
    return None


def params(config: dict):
    """(a, g, terms, n) when the config has the constant-solution oracle, else None."""
    n = config["n"]
    a = {_constant(s) for s in config["a"]}
    g = {_constant(s) for s in config["g"]}
    e = {_constant(s) for s in config.get("e", [{"constant": 0.0}] * n)}
    f = {tuple((t["c"], t["p"]) for t in comp) for comp in config["f"]}
    if len(a) != 1 or None in a or len(g) != 1 or None in g:
        return None
    if e != {0.0} or len(f) != 1:
        return None
    return a.pop(), g.pop(), f.pop(), n


@functools.lru_cache(maxsize=None)
def constant_norms(a: float, g: float, terms, n: int, lam: float,
                   lo: float = 1e-12, hi: float = 1e12, samples: int = 4096) -> list:
    """Sorted norms n c of all constant solutions with c in [lo, hi]."""

    def resid(c):
        return a * c - lam * g * sum(k * (math.sqrt(n) * c) ** p for k, p in terms)

    step = math.log(hi / lo) / (samples - 1)
    grid = [lo * math.exp(j * step) for j in range(samples)]
    vals = [resid(c) for c in grid]
    roots = []
    for x0, x1, f0, f1 in zip(grid, grid[1:], vals, vals[1:]):
        if f0 == 0.0:
            roots.append(x0)
            continue
        if f1 == 0.0 or f0 * f1 > 0.0:
            continue
        for _ in range(200):
            mid = 0.5 * (x0 + x1)
            if mid in (x0, x1):
                break
            fm = resid(mid)
            if (fm < 0.0) == (f0 < 0.0):
                x0, f0 = mid, fm
            else:
                x1 = mid
        roots.append(0.5 * (x0 + x1))
    return tuple(n * c for c in sorted(roots))


def mismatches(norms, oracle_norms) -> list:
    """Reported norms that match no oracle norm to RTOL."""
    return [x for x in norms
            if not any(abs(x - ref) <= RTOL * ref for ref in oracle_norms)]
