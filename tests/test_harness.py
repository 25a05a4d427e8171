from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from biosketch.codes import build_coset_table, hamming_code, random_code
from biosketch.gf2 import BitVec, save_matrix
from biosketch.harness import (
    CodeSpec,
    ExperimentConfig,
    RateEstimate,
    _BatchSystem,
    equivalence_report,
    estimate_far,
    estimate_frr,
    estimate_sar,
    frr_breakdown,
    rows_to_csv,
    run_config,
    wilson_interval,
)
from biosketch.schemes import (
    EnrollmentRecord,
    Scheme,
    SystemParams,
    authenticate,
)


def cfg(**kw) -> ExperimentConfig:
    base = dict(experiment_id="t", metric="far", scheme="SS", keyed=True, tau=0.1,
                code=CodeSpec(kind="random", n=10, m=5, seed=1), trials=10_000, seed=7,
                enroll_noise=(0.1,), probe_noise=(0.1,))
    base.update(kw)
    return ExperimentConfig(**base)


class TestWilson:
    @pytest.mark.parametrize("hits,trials", [(0, 100), (1, 100), (50, 100), (100, 100)])
    def test_interval_sandwiches_p_hat(self, hits, trials):
        lo, hi = wilson_interval(hits, trials)
        p = hits / trials
        assert 0.0 <= lo <= p <= hi <= 1.0

    def test_shrinks_with_trials(self):
        w1 = wilson_interval(10, 100)
        w2 = wilson_interval(1000, 10_000)
        assert (w2[1] - w2[0]) < (w1[1] - w1[0])

    def test_rate_estimate(self):
        est = RateEstimate.from_counts(25, 100)
        assert est.p_hat == 0.25
        assert est.overlaps(RateEstimate.from_counts(26, 100))
        assert not est.overlaps(RateEstimate.from_counts(90, 100))


class TestCodeSpec:
    def test_hamming(self):
        (code,) = CodeSpec(kind="hamming", r=4).build()
        assert (code.n, code.m) == (15, 4)

    def test_random_deterministic(self):
        spec = CodeSpec(kind="random", n=12, m=5, seed=3)
        (a,) = spec.build()
        (b,) = spec.build()
        assert a.H == b.H

    def test_file(self, tmp_path):
        code = random_code(8, 3, np.random.default_rng(170))
        path = tmp_path / "h.txt"
        save_matrix(path, code.H)
        (loaded,) = CodeSpec(kind="file", path=str(path)).build()
        assert loaded.H == code.H

    def test_preset(self):
        codes = CodeSpec(kind="preset", name="example2", m=4, seed=2).build()
        assert len(codes) == 3
        assert codes[0].H == codes[1].H == codes[2].H
        assert codes[0].n == 12

    def test_dict_roundtrip(self):
        spec = CodeSpec(kind="random", n=12, m=5, seed=3)
        assert CodeSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError):
            CodeSpec.from_dict({"kind": "random", "bogus": 1})


class TestExperimentConfig:
    def test_json_roundtrip_bit_identical(self):
        c = cfg(metric="sar", attack="stored", exposed_S=(1,), tau=0.125,
                enroll_noise=(0.03,), probe_noise=(0.017,))
        assert ExperimentConfig.from_json(c.to_json()) == c
        assert ExperimentConfig.from_json(c.to_json()).to_json() == c.to_json()

    def test_tau_sweep_roundtrip(self):
        c = cfg(tau=(0.1, 0.2, 0.3))
        assert ExperimentConfig.from_json(c.to_json()) == c

    def test_unknown_field_rejected(self):
        blob = json.loads(cfg().to_json())
        blob["typo_field"] = 1
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_json(json.dumps(blob))

    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(metric="sar", attack=None)
        with pytest.raises(ValueError):
            cfg(metric="nope")
        with pytest.raises(ValueError):
            cfg(target=2)
        with pytest.raises(ValueError):
            cfg(scheme="XX")

    @pytest.mark.parametrize("field,ids", [("exposed_S", (0,)), ("exposed_S", (2,)),
                                           ("exposed_K", (1, 0)), ("exposed_K", (-1,))])
    def test_exposed_system_ids_in_1_to_u(self, field, ids):
        # id 0 used to index systems[-1]
        with pytest.raises(ValueError, match=f"{field} ids must be in 1..1"):
            cfg(metric="sar", attack="coset-sampling", **{field: ids})

    def test_exposed_bio_ids_in_0_to_u(self):
        assert cfg(metric="sar", attack="substitute", exposed_bio=(0, 1)).exposed_bio == (0, 1)
        with pytest.raises(ValueError, match="exposed_bio ids must be in 0..1"):
            cfg(metric="sar", attack="substitute", exposed_bio=(2,))

    @pytest.mark.parametrize("field", ["enroll_noise", "probe_noise"])
    @pytest.mark.parametrize("p", [0.5, 0.7, -0.01])
    def test_noise_in_half_open_unit_half(self, field, p):
        with pytest.raises(ValueError, match=f"{field} must lie in"):
            cfg(**{field: (p,)})

    @pytest.mark.parametrize("field,value", [("trials", "100"), ("trials", 1.5),
                                             ("seed", "7"), ("seed", None), ("trials", True)])
    def test_trials_and_seed_are_ints(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            cfg(**{field: value})

    def test_string_trials_in_json_is_a_value_error(self):
        blob = json.loads(cfg().to_json())
        blob["trials"] = "100"
        with pytest.raises(ValueError, match="trials must be an integer"):
            ExperimentConfig.from_json(json.dumps(blob))

    @pytest.mark.parametrize("tau", [0.0, 0.5, (0.1, 0.6), "0.1"])
    def test_tau_in_open_unit_half(self, tau):
        with pytest.raises(ValueError, match="tau must be in"):
            cfg(tau=tau)

    def test_missing_field_in_json_is_a_value_error(self):
        blob = json.loads(cfg().to_json())
        del blob["tau"]
        with pytest.raises(ValueError, match="tau"):
            ExperimentConfig.from_json(json.dumps(blob))


class TestBatchAgreesWithRecordApi:
    """The vectorized kernel must reproduce schemes.authenticate exactly."""

    @pytest.mark.parametrize("scheme", [Scheme.FUZZY_COMMITMENT, Scheme.SECURE_SKETCH])
    @pytest.mark.parametrize("keyed", [True, False])
    def test_decode_weights_match(self, scheme, keyed):
        code = random_code(12, 5, np.random.default_rng(171))
        params = SystemParams(scheme=scheme, keyed=keyed, tau=0.2, code=code)
        table = build_coset_table(code)
        sysb = _BatchSystem(code, scheme, keyed, table)
        rng = np.random.default_rng(172)
        t = 200
        A = rng.integers(0, 2, size=(t, 12), dtype=np.uint8)
        D = rng.integers(0, 2, size=(t, 12), dtype=np.uint8)
        enrolled = sysb.enroll_batch(A, rng)
        L = enrolled["K"]
        batch_weights = sysb.decode_weights(D, L, enrolled["S"])
        for i in range(t):
            rec = EnrollmentRecord(
                params=params,
                S=BitVec.from_numpy(enrolled["S"][i]),
                K=BitVec.from_numpy(enrolled["K"][i]) if keyed
                else BitVec.zeros(params.key_len),
                Z=None)
            decision = authenticate(rec, BitVec.from_numpy(D[i]),
                                    BitVec.from_numpy(L[i]), table)
            assert decision.weight == batch_weights[i]
            assert decision.accepted == (batch_weights[i] <= params.threshold)


class TestEstimateFrr:
    def test_zero_noise_never_rejects(self):
        est = estimate_frr(cfg(metric="frr", enroll_noise=(0.0,), probe_noise=(0.0,),
                               trials=5_000))
        assert est.hits == 0

    def test_huge_tau_accepts_nearly_all(self):
        est = estimate_frr(cfg(metric="frr", tau=0.49, enroll_noise=(0.0,),
                               probe_noise=(0.05,), trials=5_000))
        assert est.p_hat < 0.001

    def test_deterministic(self):
        c = cfg(metric="frr", trials=20_000)
        assert estimate_frr(c) == estimate_frr(c)

    def test_breakdown_decomposition(self):
        # rejection implies threshold excess or a decoding mismatch
        c = cfg(metric="frr", code=CodeSpec(kind="random", n=16, m=8, seed=4),
                tau=0.15, enroll_noise=(0.05,), probe_noise=(0.05,), trials=20_000)
        b = frr_breakdown(c)
        assert b.frr.hits <= b.weight_excess.hits + b.decode_error.hits

    @pytest.mark.parametrize("extra", [
        {},
        {"scheme": "FC", "keyed": False},
        {"scheme": "FC", "code": CodeSpec(kind="hamming", r=4), "tau": 0.2},
        {"keyed": False, "enroll_noise": (0.0,), "probe_noise": (0.05,)},
        # two full batches and a partial one
        {"trials": 70_000, "seed": 21},
    ])
    def test_estimate_equals_breakdown_frr(self, extra):
        c = cfg(metric="frr", **{"trials": 20_000, **extra})
        assert estimate_frr(c) == frr_breakdown(c).frr

    def test_matches_per_record_loop(self):
        c = cfg(metric="frr", code=CodeSpec(kind="hamming", r=3), tau=0.15,
                enroll_noise=(0.05,), probe_noise=(0.08,), trials=30_000)
        est = estimate_frr(c)
        # independent per-record implementation of the same experiment
        from biosketch.biomodel import sample_enrollments, sample_probe, sample_world
        from biosketch.schemes import enroll
        code = hamming_code(3)
        params = SystemParams(scheme=Scheme.SECURE_SKETCH, keyed=True, tau=0.15, code=code)
        table = build_coset_table(code)
        rng = np.random.default_rng(173)
        trials = 30_000
        rejects = 0
        for _ in range(trials):
            world = sample_world(7, [0.05], [0.08], rng)
            (a,) = sample_enrollments(world, rng)
            rec = enroll(params, a, rng)
            b = sample_probe(world, 1, rng)
            rejects += not authenticate(rec, b, rec.K, table).accepted
        assert est.overlaps(RateEstimate.from_counts(rejects, trials))


class TestEstimateFar:
    def test_tiny_tau_hits_two_to_minus_m(self):
        est = estimate_far(cfg(tau=0.01, trials=100_000))
        expected = 2.0 ** -5
        assert est.ci_low <= expected <= est.ci_high

    def test_fc_and_ss_overlap(self):
        fc = estimate_far(cfg(scheme="FC", trials=50_000))
        ss = estimate_far(cfg(scheme="SS", trials=50_000, seed=8))
        assert fc.overlaps(ss)

    def test_keyless_same_distribution(self):
        keyed = estimate_far(cfg(trials=50_000))
        keyless = estimate_far(cfg(keyed=False, trials=50_000, seed=9))
        assert keyed.overlaps(keyless)


class TestEstimateSar:
    def test_stored_always_succeeds(self):
        for scheme in ("FC", "SS"):
            for keyed in (True, False):
                est = estimate_sar(cfg(metric="sar", attack="stored", scheme=scheme,
                                       keyed=keyed, exposed_S=(1,), trials=2_000))
                assert est.hits == est.trials == 2_000

    def test_uninformed_matches_far(self):
        # both estimate the same quantity, computable exactly for this code
        (code,) = cfg().code.build()
        table = build_coset_table(code)
        truth = float(np.mean(table.weights <= 1))  # threshold floor(0.1 * 10) = 1
        far = estimate_far(cfg(trials=200_000))
        sar = estimate_sar(cfg(metric="sar", attack="uninformed", trials=200_000))
        assert far.ci_low <= truth <= far.ci_high
        assert sar.ci_low <= truth <= sar.ci_high

    def test_biometric_and_key_full_exposure(self):
        est = estimate_sar(cfg(metric="sar", attack="biometric+key",
                               exposed_K=(1,), exposed_bio=(1,), trials=2_000))
        assert est.hits == 2_000

    def test_single_factor_is_far_level(self):
        far = estimate_far(cfg(trials=50_000))
        key_only = estimate_sar(cfg(metric="sar", attack="biometric+key",
                                    exposed_K=(1,), trials=50_000))
        bio_only = estimate_sar(cfg(metric="sar", attack="biometric+key",
                                    exposed_bio=(1,), trials=50_000))
        assert far.overlaps(key_only)
        assert far.overlaps(bio_only)

    def test_scenario_validation(self):
        with pytest.raises(ValueError, match="stored"):
            estimate_sar(cfg(metric="sar", attack="stored"))
        with pytest.raises(ValueError, match="biometric"):
            estimate_sar(cfg(metric="sar", attack="biometric+key"))
        with pytest.raises(ValueError, match="donor"):
            estimate_sar(cfg(metric="sar", attack="substitute"))
        with pytest.raises(ValueError, match="fully compromised"):
            estimate_sar(cfg(metric="sar", attack="rank-linked", exposed_K=(1,)))

    def test_substitute_with_ground_truth(self):
        c = cfg(metric="sar", attack="substitute", exposed_bio=(0,), exposed_K=(1,),
                code=CodeSpec(kind="random", n=16, m=8, seed=5), tau=0.2,
                enroll_noise=(0.05,), probe_noise=(0.05,), trials=20_000)
        sar = estimate_sar(c)
        frr = estimate_frr(dataclasses.replace(c, metric="frr", attack=None))
        assert sar.p_hat >= 1.0 - frr.p_hat - 0.02

    def test_rank_linked_example1(self):
        c = cfg(metric="sar", attack="rank-linked",
                code=CodeSpec(kind="preset", name="example1", m=4, seed=6),
                enroll_noise=(0.0, 0.0, 0.0), probe_noise=(0.05,) * 3,
                exposed_S=(1, 2), exposed_K=(1, 2, 3), target=3, trials=2_000)
        est = estimate_sar(c)
        assert est.hits == 2_000

    def test_rank_linked_example1_fc_scheme(self):
        c = cfg(metric="sar", attack="rank-linked", scheme="FC",
                code=CodeSpec(kind="preset", name="example1", m=4, seed=6),
                enroll_noise=(0.0, 0.0, 0.0), probe_noise=(0.05,) * 3,
                exposed_S=(1, 2), exposed_K=(1, 2, 3), target=3, trials=2_000)
        est = estimate_sar(c)
        assert est.hits == 2_000

    def test_rank_linked_rejects_independent_target(self):
        c = cfg(metric="sar", attack="rank-linked",
                code=CodeSpec(kind="preset", name="example3", m=4, seed=6),
                enroll_noise=(0.0, 0.0, 0.0), probe_noise=(0.05,) * 3,
                exposed_S=(1, 2), exposed_K=(1, 2, 3), target=3, trials=100)
        with pytest.raises(ValueError, match="not rank-dependent"):
            estimate_sar(c)

    def test_coset_sampling_example4_floor(self):
        m = 8
        c = cfg(metric="sar", attack="coset-sampling",
                code=CodeSpec(kind="preset", name="example4", m=m, seed=7),
                tau=0.05, enroll_noise=(0.0,) * 3, probe_noise=(0.02,) * 3,
                exposed_S=(1, 2), exposed_K=(1, 2, 3), target=3, trials=50_000)
        est = estimate_sar(c)
        assert est.ci_low >= 2.0 ** -(m // 2) - 0.01

    def test_matches_per_record_attack_constructor(self):
        # vectorized coset sampling vs adversary.attack_coset_sampling
        from biosketch.adversary import CompromiseSet, attack_coset_sampling, expose
        from biosketch.biomodel import sample_enrollments, sample_world
        from biosketch.schemes import enroll
        m = 4
        c = cfg(metric="sar", attack="coset-sampling",
                code=CodeSpec(kind="preset", name="example4", m=m, seed=8),
                tau=0.1, enroll_noise=(0.0,) * 3, probe_noise=(0.05,) * 3,
                exposed_S=(1, 2), exposed_K=(1, 2, 3), target=3, trials=20_000)
        vec = estimate_sar(c)
        codes = c.code.build()
        params = [SystemParams(scheme=Scheme.SECURE_SKETCH, keyed=True, tau=0.1, code=x)
                  for x in codes]
        table = build_coset_table(codes[2])
        comp = CompromiseSet(3, frozenset({1, 2}), frozenset({1, 2, 3}), frozenset())
        rng = np.random.default_rng(174)
        trials = 6_000
        hits = 0
        for _ in range(trials):
            world = sample_world(12, [0.0] * 3, [0.05] * 3, rng)
            enr = sample_enrollments(world, rng)
            records = [enroll(p, a, rng) for p, a in zip(params, enr)]
            view = expose(records, world.A0, enr, comp)
            atk = attack_coset_sampling(view, 3, rng)
            hits += authenticate(records[2], atk.C, atk.J, table).accepted
        assert vec.overlaps(RateEstimate.from_counts(hits, trials))


class TestTradeoffMonotonicity:
    def test_tau_sweep(self):
        taus = (0.05, 0.1, 0.2, 0.3)
        frrs = [estimate_frr(cfg(metric="frr", tau=t, enroll_noise=(0.1,),
                                 probe_noise=(0.1,), trials=20_000)).hits for t in taus]
        fars = [estimate_far(cfg(tau=t, trials=20_000)).hits for t in taus]
        assert all(a >= b for a, b in zip(frrs, frrs[1:]))
        assert all(a <= b for a, b in zip(fars, fars[1:]))


class TestBoundConsistency:
    def test_frr_under_dominant_term(self):
        # [15,11] at low noise: rejections need a heavy pattern or a decode error
        from biosketch.codes import kl_bern
        c = cfg(metric="frr", code=CodeSpec(kind="hamming", r=4), tau=0.2,
                enroll_noise=(0.01,), probe_noise=(0.01,), trials=50_000)
        b = frr_breakdown(c)
        from biosketch.biomodel import composite_crossover
        hoeffding = 2.0 ** (-15 * kl_bern(0.2, composite_crossover(0.01, 0.01)))
        assert b.frr.p_hat <= hoeffding + b.decode_error.p_hat + \
            (b.frr.ci_high - b.frr.p_hat)

    def test_far_sweep_respects_bound(self):
        from biosketch.codes import far_bound
        violations = 0
        points = 0
        for tau in (0.01, 0.03, 0.05, 0.08):
            for seed in (1, 2):
                c = cfg(code=CodeSpec(kind="random", n=20, m=10, seed=seed),
                        tau=tau, trials=50_000, seed=seed)
                est = estimate_far(c)
                points += 1
                if est.ci_low > far_bound(20, 10, tau):
                    violations += 1
        assert violations == 0


class TestEquivalence:
    def test_report(self):
        shared = dict(metric="frr", keyed=True, tau=0.2,
                      code=CodeSpec(kind="hamming", r=4),
                      enroll_noise=(0.03,), probe_noise=(0.03,), trials=20_000, seed=11)
        fc = cfg(scheme="FC", experiment_id="fc", **shared)
        ss = cfg(scheme="SS", experiment_id="ss", **shared)
        rep = equivalence_report(fc, ss, sar_trials=2_000)
        assert rep.coupled_agreement == 1.0
        assert rep.frr_ci_overlap and rep.far_ci_overlap
        assert rep.sar_stored_fc.p_hat == 1.0 and rep.sar_stored_ss.p_hat == 1.0
        assert rep.sar_key_only_fc.overlaps(rep.far_fc)
        assert rep.sar_bio_only_ss.overlaps(rep.far_ss)
        assert rep.storage_bits == {"FC": 15, "SS": 4}
        assert rep.key_bits == {"FC": 15, "SS": 4}
        blob = json.loads(rep.to_json())
        assert blob["coupled_agreement"] == 1.0

    @pytest.mark.parametrize("code,digest", [
        (CodeSpec(kind="random", n=12, m=6, seed=12),
         "95366db87528337de04bfd007f0e860542ee6baf8dc609d97ee9bb3a97d83f7d"),
        (CodeSpec(kind="hamming", r=3),
         "8595ef0e6497a5d5a0a7f73db4d1738bbc88f3b53383c3c4832ac11f32b0f226"),
    ])
    def test_schemes_share_one_table(self, monkeypatch, code, digest):
        import biosketch.harness as harness
        builds = []

        def counting_build(c):
            builds.append(c)
            return build_coset_table(c)

        monkeypatch.setattr(harness, "build_coset_table", counting_build)
        shared = dict(metric="frr", keyed=True, tau=0.2, code=code,
                      enroll_noise=(0.03,), probe_noise=(0.03,), trials=3_000, seed=13)
        rep = equivalence_report(cfg(scheme="FC", experiment_id="fc", **shared),
                                 cfg(scheme="SS", experiment_id="ss", **shared),
                                 sar_trials=1_000)
        assert len(builds) == 1
        # the report recorded when each scheme built its own table
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == digest

    def test_keyless_biometric_exposure_is_certain(self):
        shared = dict(metric="frr", keyed=False, tau=0.1,
                      code=CodeSpec(kind="random", n=12, m=6, seed=12),
                      enroll_noise=(0.05,), probe_noise=(0.05,), trials=4_000, seed=13)
        fc = cfg(scheme="FC", experiment_id="fc0", **shared)
        ss = cfg(scheme="SS", experiment_id="ss0", **shared)
        rep = equivalence_report(fc, ss, sar_trials=2_000)
        # keyless: an exposed enrollment biometric replays exactly
        assert rep.sar_bio_only_fc.p_hat == 1.0
        assert rep.sar_bio_only_ss.p_hat == 1.0
        assert rep.key_bits == {"FC": 0, "SS": 0}

    def test_mismatched_configs_rejected(self):
        fc = cfg(scheme="FC", metric="frr", tau=0.2)
        ss = cfg(scheme="SS", metric="frr", tau=0.3)
        with pytest.raises(ValueError, match="tau"):
            equivalence_report(fc, ss)


class TestRunExperiment:
    def test_bounds_only_run(self):
        result = run_config(cfg(trials=0))
        (row,) = result.rows
        assert row.p_hat is None and row.bound is not None
        text = rows_to_csv(result.rows)
        assert ",,,," in text  # empty estimate cells

    def test_tau_sweep_rows(self):
        result = run_config(cfg(tau=(0.05, 0.1, 0.2), trials=0))
        assert len(result.rows) == 3
        assert len({r.experiment_id for r in result.rows}) == 3

    @pytest.mark.parametrize("metric,extra,tables", [
        ("far", {}, 1),
        ("frr", {}, 1),
        ("sar", {"attack": "coset-sampling", "target": 3, "exposed_S": (1, 2),
                 "exposed_K": (1, 2, 3), "enroll_noise": (0.0,) * 3,
                 "probe_noise": (0.02,) * 3,
                 "code": CodeSpec(kind="preset", name="example4", m=4, seed=5)}, 3),
        # three systems with one parity check share one table
        ("sar", {"attack": "uninformed", "enroll_noise": (0.0,) * 3,
                 "probe_noise": (0.02,) * 3,
                 "code": CodeSpec(kind="preset", name="example2", m=4, seed=5)}, 1),
    ])
    def test_tau_sweep_builds_once_and_matches_single_runs(self, monkeypatch, metric, extra,
                                                           tables):
        import biosketch.harness as harness
        builds = []

        def counting_build(code):
            builds.append(code)
            return build_coset_table(code)

        monkeypatch.setattr(harness, "build_coset_table", counting_build)
        taus = (0.05, 0.1, 0.2)
        sweep = run_config(cfg(metric=metric, tau=taus, trials=3_000, **extra))
        assert len(builds) == len({code.H for code in builds}) == tables
        for row, tau in zip(sweep.rows, taus):
            (single,) = run_config(cfg(metric=metric, tau=tau, trials=3_000, **extra)).rows
            assert row == dataclasses.replace(single, experiment_id=f"t@tau={tau!r}")

    def test_warning_capture(self):
        # tau <= p violates the operating assumptions
        result = run_config(cfg(metric="frr", tau=0.05, enroll_noise=(0.2,),
                                probe_noise=(0.2,), trials=0))
        assert result.warnings

    def test_bad_config_file(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(ValueError):
            ExperimentConfig.from_json((tmp_path / "bad.json").read_text())
