from __future__ import annotations

import json

import numpy as np
import pytest

from biosketch.codes import hamming_code, random_code
from biosketch.gf2 import BitMatrix, rank, sample_full_rank, stacked_rank
from biosketch.leakage import (
    LeakageReport,
    _mi_from_joint,
    _single_system_joint,
    exact_mutual_info,
    exact_single_system_fits,
    exact_single_system_leakage,
    leakage_rank_bound,
    single_system_leakage,
)
from biosketch.multisys import linkage_preset
from biosketch.schemes import Scheme, SystemParams
from oracles import (
    brute_force_enrollment_mi,
    check_syndrome_uniformity,
    dict_single_system_joint,
)

FC = Scheme.FUZZY_COMMITMENT
SS = Scheme.SECURE_SKETCH


def params_for(code, scheme, keyed):
    return SystemParams(scheme=scheme, keyed=keyed, tau=0.2, code=code)


class TestClosedFormSingleSystem:
    @pytest.mark.parametrize("scheme", [FC, SS])
    def test_two_factor_rows(self, scheme):
        code = hamming_code(3)
        p = params_for(code, scheme, keyed=True)
        assert single_system_leakage(p, "S").bits_leaked == 0.0
        assert single_system_leakage(p, "K").bits_leaked == 0.0
        assert single_system_leakage(p, "S,K").bits_leaked == 3.0

    @pytest.mark.parametrize("scheme", [FC, SS])
    def test_keyless_rows(self, scheme):
        code = hamming_code(3)
        p = params_for(code, scheme, keyed=False)
        assert single_system_leakage(p, "S").bits_leaked == 3.0
        assert single_system_leakage(p, ("S", "K")).bits_leaked == 3.0

    def test_query_validation(self):
        p = params_for(hamming_code(3), SS, True)
        with pytest.raises(ValueError):
            single_system_leakage(p, "Z")
        with pytest.raises(ValueError):
            single_system_leakage(p, ("S", "S"))

    def test_json_shape(self):
        p = params_for(hamming_code(3), SS, True)
        blob = json.loads(single_system_leakage(p, "S").to_json())
        assert set(blob) == {"method", "bits_leaked", "bound", "params"}
        assert blob["method"] == "rank-formula"


@pytest.fixture(scope="module")
def code63():
    return random_code(6, 3, np.random.default_rng(150))


class TestExactSingleSystem:
    """Enumeration vs the closed form, for every variant and query."""

    @pytest.mark.parametrize("scheme", [FC, SS])
    @pytest.mark.parametrize("keyed", [True, False])
    @pytest.mark.parametrize("query", ["S", "K", "S,K"])
    def test_matches_closed_form(self, code63, scheme, keyed, query):
        p = params_for(code63, scheme, keyed)
        exact = exact_single_system_leakage(p, query)
        closed = single_system_leakage(p, query)
        assert exact.bits_leaked == pytest.approx(closed.bits_leaked, abs=1e-9)
        assert exact.method == "exact-enumeration"

    @pytest.mark.parametrize("n,m", [(5, 2), (6, 3), (7, 3)])
    @pytest.mark.parametrize("scheme", [FC, SS])
    @pytest.mark.parametrize("keyed", [True, False])
    @pytest.mark.parametrize("query", ["S", "K", "S,K"])
    def test_equals_dict_reference(self, n, m, scheme, keyed, query):
        p = params_for(random_code(n, m, np.random.default_rng(160 + n)), scheme, keyed)
        parts = tuple(query.split(","))
        reference = dict_single_system_joint(p, parts)
        assert np.array_equal(_single_system_joint(p, parts), reference)
        assert exact_single_system_leakage(p, query).bits_leaked == _mi_from_joint(reference)

    def test_guard(self):
        big = random_code(12, 3, np.random.default_rng(151))
        with pytest.raises(ValueError, match="too large"):
            exact_single_system_leakage(params_for(big, SS, True), "S")

    def test_guard_counts_enumerated_bits(self):
        # FC keyed enumerates n + k + n bits, SS keyed n + m
        fc10 = params_for(random_code(10, 4, np.random.default_rng(153)), FC, True)
        assert not exact_single_system_fits(fc10)
        with pytest.raises(ValueError, match="too large"):
            exact_single_system_leakage(fc10, "S")
        assert exact_single_system_fits(params_for(random_code(7, 3, np.random.default_rng(154)),
                                                   FC, True))
        assert exact_single_system_fits(params_for(random_code(10, 9, np.random.default_rng(155)),
                                                   SS, True))


class TestExactMutualInfo:
    def test_noiseless_equals_stacked_rank(self):
        rng = np.random.default_rng(152)
        # overlapping random matrices at n=8
        big = sample_full_rank(6, 8, rng)
        H1 = BitMatrix(4, 8, big.row_bits[:4])
        H2 = BitMatrix(4, 8, big.row_bits[2:])
        r = stacked_rank([H1, H2])
        rep = exact_mutual_info([H1, H2], [0.0, 0.0], 8)
        assert rep.bits_leaked == pytest.approx(r, abs=1e-9)
        assert rep.bound == r

    def test_no_fully_compromised_system(self):
        rep = exact_mutual_info([], [], 8)
        assert rep.bits_leaked == 0.0 and rep.bound == 0.0

    def test_identical_matrices_leak_single_rank(self):
        rng = np.random.default_rng(153)
        H = sample_full_rank(3, 7, rng)
        rep = exact_mutual_info([H, H], [0.0, 0.0], 7)
        assert rep.bits_leaked == pytest.approx(rank(H), abs=1e-9)

    def test_noisy_single_system_vs_brute_force(self):
        rng = np.random.default_rng(154)
        H = sample_full_rank(3, 6, rng)
        rep = exact_mutual_info([H], [0.2], 6)
        assert rep.bits_leaked < 3.0
        oracle = brute_force_enrollment_mi([H], [0.2], 6)
        assert rep.bits_leaked == pytest.approx(oracle, abs=1e-9)

    def test_noisy_two_systems_vs_brute_force(self):
        rng = np.random.default_rng(155)
        big = sample_full_rank(4, 6, rng)
        H1 = BitMatrix(2, 6, big.row_bits[:2])
        H2 = BitMatrix(3, 6, big.row_bits[1:])
        rep = exact_mutual_info([H1, H2], [0.1, 0.3], 6)
        oracle = brute_force_enrollment_mi([H1, H2], [0.1, 0.3], 6)
        assert rep.bits_leaked == pytest.approx(oracle, abs=1e-9)

    def test_monotone_under_append(self):
        rng = np.random.default_rng(156)
        big = sample_full_rank(5, 7, rng)
        H1 = BitMatrix(3, 7, big.row_bits[:3])
        H2 = BitMatrix(2, 7, big.row_bits[3:])
        base = exact_mutual_info([H1], [0.15], 7).bits_leaked
        extended = exact_mutual_info([H1, H2], [0.15, 0.15], 7).bits_leaked
        assert extended >= base - 1e-12

    def test_noise_never_helps_the_adversary(self):
        rng = np.random.default_rng(157)
        H = sample_full_rank(3, 6, rng)
        noiseless = exact_mutual_info([H, H], [0.0, 0.0], 6).bits_leaked
        for p in (0.05, 0.2, 0.4):
            noisy = exact_mutual_info([H, H], [p, p], 6).bits_leaked
            assert noisy <= noiseless + 1e-12

    def test_masked_extras_change_nothing(self):
        rng = np.random.default_rng(158)
        H = sample_full_rank(2, 4, rng)
        plain = exact_mutual_info([H], [0.2], 4)
        masked = exact_mutual_info([H], [0.2], 4, masked_extra_dims=(2, 3))
        assert masked.bits_leaked == pytest.approx(plain.bits_leaked, abs=1e-9)

    def test_masked_extras_vs_honest_key_enumeration(self):
        rng = np.random.default_rng(159)
        H = sample_full_rank(2, 4, rng)
        Hx = sample_full_rank(2, 4, rng)
        lib = exact_mutual_info([H], [0.25], 4, masked_extra_dims=(2,))
        oracle = brute_force_enrollment_mi([H], [0.25], 4,
                                           masked_H=[Hx], masked_p=[0.1])
        assert lib.bits_leaked == pytest.approx(oracle, abs=1e-9)

    def test_guards(self):
        rng = np.random.default_rng(160)
        H = sample_full_rank(3, 11, rng)
        with pytest.raises(ValueError, match="too large"):
            exact_mutual_info([H], [0.1], 11)
        H4 = [sample_full_rank(2, 6, rng) for _ in range(4)]
        with pytest.raises(ValueError, match="too large"):
            exact_mutual_info(H4, [0.1] * 4, 6)
        with pytest.raises(ValueError):
            exact_mutual_info([sample_full_rank(2, 6, rng)], [0.6], 6)


class TestRankBound:
    def test_identical(self):
        rng = np.random.default_rng(161)
        H = sample_full_rank(4, 10, rng)
        assert leakage_rank_bound([H, H, H]) == 4

    def test_disjoint_independent(self):
        rng = np.random.default_rng(162)
        big = sample_full_rank(9, 12, rng)
        mats = [BitMatrix(3, 12, big.row_bits[i * 3:(i + 1) * 3]) for i in range(3)]
        assert leakage_rank_bound(mats) == 9

    def test_example4_stack(self):
        m = 8
        mats = linkage_preset("example4", m, 3 * m, np.random.default_rng(163))
        assert leakage_rank_bound(list(mats[:2])) == 3 * m // 2
        assert leakage_rank_bound(list(mats)) == 2 * m

    def test_empty(self):
        assert leakage_rank_bound([]) == 0


class TestSyndromeUniformity:
    def test_tiny_identity_pair(self):
        H = BitMatrix.from01_rows(["10"])
        Ht = BitMatrix.from01_rows(["01"])
        rep = check_syndrome_uniformity(H, Ht)
        assert rep.conditional == 0.5
        assert rep.cell_count == 1

    def test_random_independent_pair(self):
        rng = np.random.default_rng(164)
        big = sample_full_rank(5, 6, rng)
        H = BitMatrix(2, 6, big.row_bits[:2])
        Ht = BitMatrix(3, 6, big.row_bits[2:])
        rep = check_syndrome_uniformity(H, Ht)
        assert rep.conditional == 0.25
        assert rep.cell_count == 2  # 2^(6-2-3)

    def test_equal_matrices_rejected_with_certificate(self):
        rng = np.random.default_rng(165)
        H = sample_full_rank(2, 6, rng)
        with pytest.raises(ValueError, match="hypothesis violated"):
            check_syndrome_uniformity(H, H)

    def test_reports_offending_combination(self):
        H = BitMatrix.from01_rows(["1100", "0011"])
        Ht = BitMatrix.from01_rows(["1111"])
        with pytest.raises(ValueError, match=r"combination of stacked rows \[0, 1, 2\]"):
            check_syndrome_uniformity(H, Ht)

    def test_n_guard(self):
        rng = np.random.default_rng(166)
        big = sample_full_rank(4, 14, rng)
        H = BitMatrix(2, 14, big.row_bits[:2])
        Ht = BitMatrix(2, 14, big.row_bits[2:])
        with pytest.raises(ValueError, match="too large"):
            check_syndrome_uniformity(H, Ht)


def test_report_json_roundtrip():
    rep = LeakageReport(bits_leaked=3.0, method="rank-formula", bound=4.0,
                        params={"l": 2})
    blob = json.loads(rep.to_json())
    assert blob == {"method": "rank-formula", "bits_leaked": 3.0, "bound": 4.0,
                    "params": {"l": 2}}
