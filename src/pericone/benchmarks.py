"""Built-in two-component benchmark scenarios: the `reproduce` presets and
the symmetric config family they are drawn from.

All presets share a_i = 1 (constant, inside the kernel positivity window for
T = 1), g_i = 1, and the radial nonlinearity u^-alpha + u^beta in both
components.  The cor1* presets keep e = 0; the cor2* presets use the
sign-changing forcing e_i(t) = -0.1 + 0.2 cos(2 pi t), which satisfies the
strict-positivity requirement on g.

Expected solution counts come from the regime classification: sublinear
singular problems carry one solution per lambda (every lambda when e >= 0,
large lambda otherwise), superlinear singular ones carry two for small
lambda.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ReproducePreset", "PRESETS", "symmetric_config"]

MIXED_E = {"fourier": {"c0": -0.1, "cos": [0.2], "sin": []}}


def symmetric_config(alpha: float, beta: float, lam: float,
                     e_spec=None, n_grid: int = 256) -> dict:
    """n=2 benchmark config: x_i'' + x_i = lam (f(x) + e_i), f(u)=u^-alpha+u^beta."""
    if e_spec is None:
        e_spec = {"constant": 0.0}
    term_list = [{"c": 1.0, "p": -alpha}, {"c": 1.0, "p": beta}]
    return {
        "n": 2,
        "T": 1.0,
        "lambda": lam,
        "N": n_grid,
        "a": [{"constant": 1.0}, {"constant": 1.0}],
        "g": [{"constant": 1.0}, {"constant": 1.0}],
        "e": [dict(e_spec), dict(e_spec)],
        "f": [list(term_list), list(term_list)],
    }


@dataclass
class ReproducePreset:
    name: str
    description: str
    alpha: float
    beta: float
    e_spec: dict | None
    lambdas: tuple
    expected_count: int
    ode_tol: float = 1e-6

    def config(self, lam: float, n_grid: int = 256) -> dict:
        return symmetric_config(self.alpha, self.beta, lam, self.e_spec, n_grid)


PRESETS = {
    "cor1a": ReproducePreset(
        name="cor1a",
        description="sublinear singular, e >= 0: one solution at every lambda",
        alpha=0.5,
        beta=0.5,
        e_spec=None,
        lambdas=(0.1, 1.0, 10.0),
        expected_count=1,
    ),
    "cor1b": ReproducePreset(
        name="cor1b",
        description="superlinear singular, e >= 0: two solutions for small lambda",
        alpha=1.0,
        beta=2.0,
        e_spec=None,
        lambdas=(0.05, 0.02),
        expected_count=2,
    ),
    "cor2a": ReproducePreset(
        name="cor2a",
        description="sublinear singular, sign-changing e: one solution for large lambda",
        alpha=0.5,
        beta=0.5,
        e_spec=MIXED_E,
        lambdas=(8.0, 10.0),
        expected_count=1,
    ),
    "cor2b": ReproducePreset(
        name="cor2b",
        description="superlinear singular, sign-changing e: two solutions for small lambda",
        alpha=1.0,
        beta=2.0,
        e_spec=MIXED_E,
        lambdas=(0.01,),
        expected_count=2,
    ),
}
