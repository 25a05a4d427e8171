#!/usr/bin/env python3
"""Run the four three-system linkage scenarios and print SAR vs references.

Scenario: systems 1 and 2 fully compromised, target key exposed, noiseless
enrollment.  example1 (xor-dependent target) and example2 (identical
matrices) admit the certain rank-linked attack; example3 (independent) and
example4 (shared half) use coset sampling, floored at 2^-t.

    python scripts/linkage_examples.py --m 8 --trials 100000
"""

from __future__ import annotations

import argparse
import sys

from biosketch.harness import CodeSpec, ExperimentConfig, RunPlan, estimate_far, estimate_sar
from biosketch.multisys import rank_profiles, sar_lower_bound

ATTACK_FOR = {
    "example1": "rank-linked",
    "example2": "rank-linked",
    "example3": "coset-sampling",
    "example4": "coset-sampling",
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=8)
    ap.add_argument("--tau", type=float, default=0.05)
    ap.add_argument("--alpha", type=float, default=0.02)
    ap.add_argument("--trials", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'preset':<10} {'attack':<15} {'residual t':>10} {'2^-t':>8} "
          f"{'SAR':>9} {'CI':>21} {'FAR':>9}")
    tables = {}  # one coset table per distinct parity check across the presets
    for name, attack in ATTACK_FOR.items():
        spec = CodeSpec(kind="preset", name=name, m=args.m, seed=args.seed)
        base = dict(scheme="SS", keyed=True, tau=args.tau, code=spec,
                    trials=args.trials, seed=args.seed,
                    enroll_noise=(0.0,) * 3, probe_noise=(args.alpha,) * 3, target=3)
        sar_config = ExperimentConfig(experiment_id=name, metric="sar", attack=attack,
                                      exposed_S=(1, 2), exposed_K=(1, 2, 3), **base)
        plan = RunPlan(sar_config, tables)
        (sar,) = estimate_sar(sar_config, plan)
        (far,) = estimate_far(ExperimentConfig(experiment_id=name, metric="far", **base), plan)
        report = rank_profiles([system.code for system in plan.systems], L=2)
        t = report.t_profile[((1, 2), 3)]
        print(f"{name:<10} {attack:<15} {t:>10d} {sar_lower_bound(t):>8.4f} "
              f"{sar.p_hat:>9.5f} [{sar.ci_low:.5f}, {sar.ci_high:.5f}] {far.p_hat:>9.5f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
