#!/usr/bin/env python3
"""Search parity-check tuples under each objective and print the tradeoff.

Shows the achieved (r_max, t_min) per objective next to the two known
endpoints: identical matrices minimize leakage (r_max = m, t_min = 0) and
jointly independent matrices maximize linkage resistance (r_max = L m,
t_min = m, reachable only when u m <= n).

    python scripts/design_tradeoff.py --u 3 --m 4 --n 12 --L 2
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from biosketch.harness import assumption_warnings
from biosketch.multisys import design_search


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--u", type=int, default=3)
    ap.add_argument("--m", type=int, default=4)
    ap.add_argument("--n", type=int, default=12)
    ap.add_argument("--L", type=int, default=2)
    ap.add_argument("--restarts", type=int, default=4)
    ap.add_argument("--lam", type=float, default=None,
                    help="weight on r_max for the weighted objective (default 1/m)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"u={args.u} m={args.m} n={args.n} L={args.L} "
          f"(independence feasible: {args.u * args.m <= args.n})")
    print(f"{'objective':<12} {'r_max':>6} {'t_min':>6}")
    with assumption_warnings() as notes:
        for objective in ("min_rmax", "max_tmin", "weighted"):
            rng = np.random.default_rng(args.seed)
            _, report = design_search(args.u, args.m, args.n, args.L,
                                      objective=objective, rng=rng,
                                      restarts=args.restarts, lam=args.lam)
            print(f"{objective:<12} {report.r_max:>6d} {report.t_min:>6d}")
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
