#!/usr/bin/env python3
"""Sweep the decision threshold and compare empirical FRR/FAR to the bounds.

Writes one CSV row per tau with both empirical rates, their confidence
intervals, and the closed-form bounds for the same parameters.

    python scripts/far_tau_sweep.py --n 20 --m 10 --p 0.03 --alpha 0.03 \
        --trials 200000 --out sweep.csv
"""

from __future__ import annotations

import argparse
import csv
import sys

from biosketch.biomodel import composite_crossover
from biosketch.codes import far_bound, frr_bound
from biosketch.harness import CodeSpec, ExperimentConfig, RunPlan, estimate_far, estimate_frr


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--m", type=int, default=10)
    ap.add_argument("--p", type=float, default=0.01, help="enrollment crossover")
    ap.add_argument("--alpha", type=float, default=0.01, help="probe crossover")
    # defaults satisfy the operating regime 0.5 > tau > p, m/n > h_b(tau)
    ap.add_argument("--taus", type=float, nargs="+",
                    default=[0.04, 0.06, 0.08, 0.1])
    ap.add_argument("--trials", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--code-seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = ap.parse_args()

    spec = CodeSpec(kind="random", n=args.n, m=args.m, seed=args.code_seed)
    rate = (args.n - args.m) / args.n
    p_eff = composite_crossover(args.p, args.alpha)
    rows = []
    plan = None  # one code and coset table for every tau and both rates
    for tau in args.taus:
        base = dict(scheme="SS", keyed=True, tau=tau, code=spec, trials=args.trials,
                    seed=args.seed, enroll_noise=(args.p,), probe_noise=(args.alpha,))
        frr_config = ExperimentConfig(experiment_id="sweep", metric="frr", **base)
        plan = plan or RunPlan(frr_config)
        frr = estimate_frr(frr_config, plan)
        far = estimate_far(ExperimentConfig(experiment_id="sweep", metric="far", **base), plan)
        rows.append({
            "tau": tau,
            "frr": frr.p_hat, "frr_lo": frr.ci_low, "frr_hi": frr.ci_high,
            "frr_bound": frr_bound(args.n, p_eff, tau, rate),
            "far": far.p_hat, "far_lo": far.ci_low, "far_hi": far.ci_high,
            "far_bound": far_bound(args.n, args.m, tau),
        })

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    if args.out:
        out.close()
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
