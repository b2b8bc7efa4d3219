#!/usr/bin/env python3
"""Sweep lambda for one of the symmetric benchmark families and print the
branch table as CSV on stdout.

Examples:
    python3 scripts/sweep_branches.py --alpha 1 --beta 2 --lmin 0.01 --lmax 0.5 --steps 12
    python3 scripts/sweep_branches.py --alpha 0.5 --beta 0.5 --mixed-e --lmin 1 --lmax 20 --steps 8

The superlinear family shows the two-branch pair collapsing at the fold;
the sublinear one a single branch with norm increasing in lambda.
"""

import argparse
import sys

from pericone import (
    compute_constants,
    continue_lambda,
    parse_config,
    symmetric_config,
)
from pericone.benchmarks import MIXED_E
from pericone.cli import build_tables


def run():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--alpha", type=float, default=1.0, help="singular exponent")
    ap.add_argument("--beta", type=float, default=2.0, help="growth exponent")
    ap.add_argument("--mixed-e", action="store_true",
                    help="use the sign-changing forcing benchmark")
    ap.add_argument("--lmin", type=float, default=0.01)
    ap.add_argument("--lmax", type=float, default=0.5)
    ap.add_argument("--steps", type=int, default=12)
    ap.add_argument("--n-grid", type=int, default=256)
    args = ap.parse_args()

    e_spec = MIXED_E if args.mixed_e else None
    cfg = symmetric_config(args.alpha, args.beta, args.lmin,
                           e_spec=e_spec, n_grid=args.n_grid)
    parsed = parse_config(cfg)
    tables = build_tables(parsed.problem, parsed.n_grid)
    constants = compute_constants(tables, parsed.problem)

    table = continue_lambda(parsed.problem, tables, args.lmin, args.lmax,
                            args.steps, constants=constants)
    print("lambda,branch_id,annulus_id,norm,fp_residual,ode_residual")
    for row in table.rows:
        print(f"{row.lam:.17g},{row.branch_id},{row.annulus_id},"
              f"{row.norm:.17g},{row.fp_residual:.3e},{row.ode_residual:.3e}")
    for note in table.notes:
        print(f"# {note}", file=sys.stderr)
    return 0 if table.rows else 1


if __name__ == "__main__":
    sys.exit(run())
