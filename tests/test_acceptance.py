"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Monte Carlo criteria use fixed master seeds; tolerances are the stated
ones (CI slack for empirical rates, 1e-9 for exact enumeration).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np
import pytest

from biosketch.codes import (
    build_coset_table,
    far_bound,
    hamming_code,
    kl_bern,
    make_code_from_H,
    random_code,
)
from biosketch.gf2 import BitMatrix, sample_full_rank, stacked_rank
from biosketch.harness import (
    CodeSpec,
    ExperimentConfig,
    equivalence_report,
    estimate_far,
    estimate_frr,
    estimate_sar,
)
from biosketch.leakage import (
    exact_mutual_info,
    exact_single_system_leakage,
)
from biosketch.multisys import linkage_preset, rank_profiles
from biosketch.schemes import Scheme, SystemParams
from oracles import (
    check_syndrome_uniformity,
    exhaustive_min_weights,
    exhaustive_min_weights_chunked,
    frr_breakdown,
)


@contextmanager
def criterion(num: int, desc: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:2d}: {desc}")
        raise
    print(f"PASS criterion {num:2d}: {desc} ({time.monotonic() - start:.1f}s)")


def config(**kw) -> ExperimentConfig:
    base = dict(experiment_id="acc", metric="far", scheme="SS", keyed=True, tau=0.1,
                code=CodeSpec(kind="random", n=20, m=10, seed=20), trials=10_000,
                seed=1000, enroll_noise=(0.0,), probe_noise=(0.0,))
    base.update(kw)
    return ExperimentConfig(**base)


def test_criterion_01_fc_ss_equivalence():
    with criterion(1, "FC/SS equivalence: coupled decisions identical, CIs overlap"):
        start = time.monotonic()
        shared = dict(metric="frr", keyed=True, tau=0.2, code=CodeSpec(kind="hamming", r=4),
                      enroll_noise=(0.03,), probe_noise=(0.03,), trials=100_000, seed=1001)
        fc = config(scheme="FC", experiment_id="acc1-fc", **shared)
        ss = config(scheme="SS", experiment_id="acc1-ss", **shared)
        rep = equivalence_report(fc, ss, sar_trials=10_000)
        assert rep.coupled_trials == 100_000
        assert rep.coupled_agreement == 1.0, "legitimate-path decisions must agree on 100%"
        assert rep.frr_ci_overlap, "FRR CIs must overlap between schemes"
        assert rep.far_ci_overlap, "FAR CIs must overlap between schemes"
        assert rep.storage_bits == {"FC": 15, "SS": 4}
        assert time.monotonic() - start < 60.0, "runtime budget 1 min"


def test_criterion_02_far_bound():
    with criterion(2, "FAR bound: 1e6 uninformed attacks under 2^-(m - n h_b(tau))"):
        start = time.monotonic()
        c = config(tau=0.05, trials=1_000_000, seed=1002)
        (est,) = estimate_far(c)
        bound = far_bound(20, 10, 0.05)
        assert bound == pytest.approx(0.0518, abs=2e-3)
        assert est.ci_low <= bound, f"empirical {est.p_hat} exceeds bound {bound} beyond CI"
        assert time.monotonic() - start < 120.0, "runtime budget 2 min"


def test_criterion_03_frr_dominant_term():
    with criterion(3, "FRR dominant term + separately measured decoding error"):
        c = config(metric="frr", code=CodeSpec(kind="random", n=24, m=12, seed=21),
                   tau=0.25, enroll_noise=(0.0,), probe_noise=(0.02,),
                   trials=200_000, seed=1003)
        # the coset table must agree with a full 2^24 minimum-weight scan
        (code,) = c.code.build()
        table = build_coset_table(code)
        oracle = exhaustive_min_weights_chunked(code.H)
        assert np.array_equal(oracle, table.weights.astype(np.int64)), \
            "table not oracle-verified"
        b = frr_breakdown(c)
        # a rejection needs a heavy error pattern or a decoding error
        assert b.frr.hits <= b.weight_excess.hits + b.decode_error.hits
        hoeffding = 2.0 ** (-24 * kl_bern(0.25, 0.02))
        assert b.weight_excess.ci_low <= hoeffding, \
            "threshold-excess rate exceeds the Chernoff term beyond CI"
        assert b.frr.p_hat <= hoeffding + b.decode_error.p_hat + \
            (b.frr.ci_high - b.frr.p_hat) + (b.decode_error.ci_high - b.decode_error.p_hat)
        print(f"    decode-error fraction: {b.decode_error.p_hat:.2e} "
              f"(CI {b.decode_error.ci_low:.2e}..{b.decode_error.ci_high:.2e}); "
              f"FRR: {b.frr.p_hat:.2e}")


def test_criterion_04_stored_attack_all_variants():
    with criterion(4, "stored-data attack: hits == trials for all four variants"):
        for scheme in ("FC", "SS"):
            for keyed in (True, False):
                (est,) = estimate_sar(config(
                    metric="sar", attack="stored", scheme=scheme, keyed=keyed,
                    exposed_S=(1,), trials=10_000, seed=1004))
                assert est.hits == est.trials == 10_000, (scheme, keyed)


def test_criterion_05_two_factor_security():
    with criterion(5, "two-factor security: single-factor SAR CIs overlap FAR CI"):
        trials = 1_000_000
        (far,) = estimate_far(config(tau=0.05, trials=trials, seed=1005))
        (key_only,) = estimate_sar(config(metric="sar", attack="biometric+key", tau=0.05,
                                          exposed_K=(1,), trials=trials, seed=1006))
        (bio_only,) = estimate_sar(config(metric="sar", attack="biometric+key", tau=0.05,
                                          exposed_bio=(1,), trials=trials, seed=1007))
        assert far.overlaps(key_only), (far, key_only)
        assert far.overlaps(bio_only), (far, bio_only)


def test_criterion_06_exact_single_system_leakage():
    with criterion(6, "exact leakage by enumeration at [6,3]: 0 / 0 / m / m"):
        start = time.monotonic()
        code = random_code(6, 3, np.random.default_rng(22))
        for scheme in (Scheme.FUZZY_COMMITMENT, Scheme.SECURE_SKETCH):
            two = SystemParams(scheme=scheme, keyed=True, tau=0.2, code=code)
            assert exact_single_system_leakage(two, "S").bits_leaked == pytest.approx(0.0, abs=1e-9)
            assert exact_single_system_leakage(two, "K").bits_leaked == pytest.approx(0.0, abs=1e-9)
            assert exact_single_system_leakage(two, "S,K").bits_leaked == pytest.approx(3.0, abs=1e-9)
            keyless = SystemParams(scheme=scheme, keyed=False, tau=0.2, code=code)
            assert exact_single_system_leakage(keyless, "S").bits_leaked == pytest.approx(3.0, abs=1e-9)
        assert time.monotonic() - start < 1.0, "runtime budget 1 s"


def test_criterion_07_syndrome_uniformity():
    with criterion(7, "joint syndrome uniformity: every conditional exactly 2^-m"):
        rng = np.random.default_rng(23)
        big = sample_full_rank(9, 12, rng)
        H = BitMatrix(4, 12, big.row_bits[:4])
        Ht = BitMatrix(5, 12, big.row_bits[4:])
        rep = check_syndrome_uniformity(H, Ht)  # raises on any unequal cell
        assert rep.conditional == 2.0 ** -4
        assert rep.cell_count == 2 ** (12 - 4 - 5)


def test_criterion_08_multi_system_leakage():
    with criterion(8, "multi-enrollment leakage: rank at zero noise, below rank when noisy"):
        rng = np.random.default_rng(24)
        big = sample_full_rank(6, 8, rng)
        H1 = BitMatrix(4, 8, big.row_bits[:4])
        H2 = BitMatrix(4, 8, big.row_bits[2:])   # overlapping row spaces
        r = stacked_rank([H1, H2])
        noiseless = exact_mutual_info([H1, H2], [0.0, 0.0], 8)
        assert noiseless.bits_leaked == pytest.approx(r, abs=1e-9)
        noisy = exact_mutual_info([H1, H2], [0.2, 0.2], 8)
        assert noisy.bits_leaked < r - 1e-6, "noisy leakage must fall strictly below rank"
        empty = exact_mutual_info([], [], 8)
        assert empty.bits_leaked == 0.0


def test_criterion_09_linkage_examples():
    with criterion(9, "linkage scenarios: dependent certainty, independent FAR, coset floor"):
        # fully rank-dependent target: certainty over 1e4 trials
        ex1 = config(metric="sar", attack="rank-linked",
                     code=CodeSpec(kind="preset", name="example1", m=8, seed=25),
                     tau=0.05, enroll_noise=(0.0,) * 3, probe_noise=(0.02,) * 3,
                     exposed_S=(1, 2), exposed_K=(1, 2, 3), target=3,
                     trials=10_000, seed=1008)
        (est1,) = estimate_sar(ex1)
        assert est1.hits == est1.trials == 10_000

        # jointly independent matrices: coset sampling = FAR level
        shared = dict(tau=0.05, enroll_noise=(0.0,) * 3, probe_noise=(0.02,) * 3,
                      trials=200_000)
        ex3_code = CodeSpec(kind="preset", name="example3", m=8, seed=26)
        (sar3,) = estimate_sar(config(metric="sar", attack="coset-sampling", code=ex3_code,
                                      exposed_S=(1, 2), exposed_K=(1, 2, 3), target=3,
                                      seed=1009, **shared))
        (far3,) = estimate_far(config(metric="far", code=ex3_code, target=3,
                                      seed=1010, **shared))
        assert sar3.overlaps(far3), (sar3, far3)

        # partial dependence: success floor 2^-(m/2)
        ex4 = config(metric="sar", attack="coset-sampling",
                     code=CodeSpec(kind="preset", name="example4", m=8, seed=27),
                     tau=0.05, enroll_noise=(0.0,) * 3, probe_noise=(0.02,) * 3,
                     exposed_S=(1, 2), exposed_K=(1, 2, 3), target=3,
                     trials=100_000, seed=1011)
        (est4,) = estimate_sar(ex4)
        slack = est4.ci_high - est4.ci_low
        assert est4.p_hat >= 2.0 ** -4 - slack, (est4.p_hat, slack)


def test_criterion_10_substitute_enrollment():
    with criterion(10, "ground-truth + target-key attack beats 1 - FRR"):
        c = config(metric="sar", attack="substitute", tau=0.2,
                   enroll_noise=(0.05,), probe_noise=(0.05,),
                   exposed_bio=(0,), exposed_K=(1,), trials=100_000, seed=1012)
        (sar,) = estimate_sar(c)
        (frr,) = estimate_frr(config(metric="frr", tau=0.2, enroll_noise=(0.05,),
                                     probe_noise=(0.05,), trials=100_000, seed=1013))
        slack = (sar.ci_high - sar.ci_low) + (frr.ci_high - frr.ci_low)
        assert sar.p_hat >= 1.0 - frr.p_hat - slack, (sar.p_hat, frr.p_hat)


def test_criterion_11_coset_leader_oracle():
    with criterion(11, "coset leaders match 2^n exhaustive search for all test codes"):
        rng = np.random.default_rng(28)
        test_set = [
            hamming_code(2),
            hamming_code(3),
            hamming_code(4),
            make_code_from_H(BitMatrix.from01_rows(["11"])),
            random_code(16, 8, rng),
            random_code(12, 5, rng),
            random_code(10, 4, rng),
        ]
        for code in test_set:
            table = build_coset_table(code)
            oracle = exhaustive_min_weights(code.H)
            assert list(table.weights) == oracle, f"[{code.n},{code.k}] weights differ"


def test_criterion_12_design_measures():
    with criterion(12, "design endpoints: (m, 0), (2m, m), (3m/2, m/2) at u=3, n=3m"):
        m = 8
        rng = np.random.default_rng(29)
        identical = rank_profiles(linkage_preset("example2", m, 3 * m, rng), L=2)
        assert (identical.r_max, identical.t_min) == (m, 0)
        independent = rank_profiles(linkage_preset("example3", m, 3 * m, rng), L=2)
        assert (independent.r_max, independent.t_min) == (2 * m, m)
        partial = rank_profiles(linkage_preset("example4", m, 3 * m, rng), L=2)
        assert (partial.r_max, partial.t_min) == (3 * m // 2, m // 2)
