import math

import numpy as np
import pytest

from pericone import (
    Constant,
    GridFunction,
    build_green_table,
    coarsen,
    compute_constants,
    kernel_quadrature,
    parse_config,
    symmetric_config,
)

# the two benchmark nonlinearity families, one (c, p) list per component
SUPERLINEAR_TERMS = ((1.0, -1.0), (1.0, 2.0))
SUBLINEAR_TERMS = ((1.0, -0.5), (1.0, 0.5))


@pytest.fixture(scope="session")
def unit_table():
    """k=1, T=1 table at the default grid; shared by most tests."""
    return build_green_table(Constant(1.0), 256)


@pytest.fixture(scope="session")
def bench_tables(unit_table):
    return [unit_table, unit_table]


@pytest.fixture(scope="session")
def dense_bench_tables(unit_table):
    """The unit table in dense form, which exact N x N Newton steps factor."""
    dense = coarsen(unit_table, 1)
    return [dense, dense]


def make_problem(alpha, beta, lam, e_spec=None, n_grid=256):
    cfg = symmetric_config(alpha, beta, lam, e_spec=e_spec, n_grid=n_grid)
    return parse_config(cfg).problem


@pytest.fixture(scope="session")
def superlinear_small(bench_tables):
    """alpha=1, beta=2, lam=0.05: the two-solution workhorse."""
    prob = make_problem(1.0, 2.0, 0.05)
    return prob, compute_constants(bench_tables, prob)


@pytest.fixture(scope="session")
def sublinear_unit(bench_tables):
    prob = make_problem(0.5, 0.5, 1.0)
    return prob, compute_constants(bench_tables, prob)


def smooth_cone_points(problem, n_grid, sigma, count, rng, norm=None):
    """Random cosine-profile functions that sit safely inside the cone.

    Each component is beta_i + alpha_i * (1 + cos(2 pi (t - phase)/T)) / 2,
    so min_t sum x_i >= sum beta_i while the norm is at most
    sum (beta_i + alpha_i); choosing sum beta_i = 1.05 * sigma/(1-sigma) *
    sum alpha_i makes membership hold with slack for any grid.
    """
    t = np.arange(n_grid) * (problem.period / n_grid)
    pts = []
    for _ in range(count):
        amps = rng.uniform(0.1, 1.0, size=problem.n)
        phases = rng.uniform(0.0, problem.period, size=problem.n)
        base_total = 1.05 * sigma / (1.0 - sigma) * amps.sum()
        weights = rng.uniform(0.2, 1.0, size=problem.n)
        bases = base_total * weights / weights.sum()
        vals = np.stack([
            b + a * 0.5 * (1.0 + np.cos(2.0 * math.pi * (t - ph) / problem.period))
            for b, a, ph in zip(bases, amps, phases)
        ])
        x = GridFunction(problem.n, n_grid, problem.period, vals)
        if norm is not None:
            x = GridFunction(problem.n, n_grid, problem.period,
                             vals * (norm / x.norm))
        pts.append(x)
    return pts


def kernel_cone_points(problem, tables, count, rng, norm=None):
    """Cone points produced the physical way: push nonnegative densities
    through the kernel quadrature.  Rougher profiles than the cosine family."""
    quads = [kernel_quadrature(tb) for tb in tables]
    n_grid = tables[0].n_grid
    pts = []
    for _ in range(count):
        w = rng.uniform(0.0, 1.0, size=(problem.n, n_grid)) ** 2 + 1e-3
        vals = np.stack([q @ wi for q, wi in zip(quads, w)])
        x = GridFunction(problem.n, n_grid, problem.period, vals)
        if norm is not None:
            x = GridFunction(problem.n, n_grid, problem.period,
                             vals * (norm / x.norm))
        pts.append(x)
    return pts
