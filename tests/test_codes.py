from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biosketch import codes
from biosketch.codes import (
    LinearCode,
    OperatingAssumptionWarning,
    binary_entropy,
    build_coset_table,
    error_exponent,
    far_bound,
    frr_bound,
    hamming_code,
    kl_bern,
    make_code_from_H,
    random_code,
    syndrome,
)
from biosketch.gf2 import BitMatrix, BitVec, rank
from oracles import exhaustive_lex_first_leaders, exhaustive_min_weights, syndrome_int


class TestCodeConstruction:
    def test_hamming3_parameters(self):
        code = hamming_code(3)
        assert (code.n, code.k, code.m) == (7, 4, 3)

    def test_hamming2_parameters(self):
        code = hamming_code(2)
        assert (code.n, code.k, code.m) == (3, 1, 2)

    def test_hamming_columns_are_increasing_binary(self):
        code = hamming_code(3)
        for j in range(7):
            assert code.H.col(j).bits == j + 1

    def test_hamming4_weight1_syndromes_distinct(self):
        code = hamming_code(4)
        assert (code.n, code.k, code.m) == (15, 11, 4)
        synds = {syndrome(code, BitVec.unit(15, j)).bits for j in range(15)}
        assert len(synds) == 15 and 0 not in synds

    def test_hamming_rejects_r1(self):
        with pytest.raises(ValueError):
            hamming_code(1)

    def test_repetition_from_H(self):
        code = make_code_from_H(BitMatrix.from01_rows(["11"]))
        assert (code.n, code.k, code.m) == (2, 1, 1)

    def test_random_code_invariants(self):
        rng = np.random.default_rng(31)
        code = random_code(20, 10, rng)
        assert rank(code.H) == 10 and rank(code.G) == 10
        for i in range(code.k):
            assert syndrome(code, code.G.row(i)) == BitVec.zeros(code.m)

    def test_rejects_rank_deficient_H(self):
        with pytest.raises(ValueError):
            make_code_from_H(BitMatrix.from01_rows(["110", "110"]))

    def test_rate(self):
        assert hamming_code(3).rate == pytest.approx(4 / 7)


class TestSyndrome:
    def test_zero_vector(self):
        code = hamming_code(3)
        assert syndrome(code, BitVec.zeros(7)) == BitVec.zeros(3)

    def test_codeword_has_zero_syndrome(self):
        code = hamming_code(3)
        assert syndrome(code, code.G.row(2)) == BitVec.zeros(3)

    def test_unit_vector_reads_column(self):
        code = hamming_code(3)
        assert syndrome(code, BitVec.unit(7, 5)) == code.H.col(5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            syndrome(hamming_code(3), BitVec.zeros(6))


class TestCosetTable:
    def test_hamming_is_perfect(self):
        code = hamming_code(3)
        table = build_coset_table(code)
        assert int(table.weights.max()) == 1
        assert table.weights[0] == 0

    def test_repetition_leaders(self):
        code = make_code_from_H(BitMatrix.from01_rows(["11"]))
        table = build_coset_table(code)
        assert table.leader(BitVec.from01("0")) == BitVec.from01("00")
        assert table.leader(BitVec.from01("1")) == BitVec.from01("10")

    def test_leader_of_zero_syndrome_is_zero(self):
        rng = np.random.default_rng(32)
        table = build_coset_table(random_code(10, 4, rng))
        assert not table.packed_leaders[0].any() and table.weights[0] == 0

    def test_refuses_large_m(self):
        code = hamming_code(3)
        big = LinearCode.__new__(LinearCode)  # dodge validation for the guard test
        object.__setattr__(big, "n", 40)
        object.__setattr__(big, "k", 15)
        object.__setattr__(big, "m", 25)
        object.__setattr__(big, "H", code.H)
        with pytest.raises(ValueError, match="table too large"):
            build_coset_table(big)

    @pytest.mark.parametrize("n,m,seed", [(10, 4, 33), (12, 5, 34), (9, 3, 35)])
    def test_leaders_match_exhaustive_oracle(self, n, m, seed):
        code = random_code(n, m, np.random.default_rng(seed))
        table = build_coset_table(code)
        oracle = exhaustive_min_weights(code.H)
        for s in range(1 << m):
            leader = table.leader(BitVec(m, s))
            assert syndrome_int(code.H, leader.bits) == s
            assert table.weights[s] == oracle[s] == leader.weight

    @pytest.mark.parametrize("n,m,seed", [
        (7, 3, 40), (10, 4, 41), (13, 4, 42),              # scalar fill
        (10, 5, 43), (12, 7, 44), (14, 8, 45), (16, 6, 46),  # breadth-first fill
    ])
    def test_leaders_are_lexicographically_first(self, n, m, seed):
        code = random_code(n, m, np.random.default_rng(seed))
        assert (m <= codes.SCALAR_FILL_MAX_M) == (m <= 4)
        table = build_coset_table(code)
        leaders = exhaustive_lex_first_leaders(code.H)
        assert list(table.weights) == exhaustive_min_weights(code.H)
        for s in range(1 << m):
            assert table.leader(BitVec(m, s)).bits == leaders[s]

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunked_fill_matches_scalar_fill(self, monkeypatch, chunk):
        code = random_code(40, 11, np.random.default_rng(47))
        monkeypatch.setattr(codes, "SCALAR_FILL_MAX_M", 24)
        scalar = build_coset_table(code)
        monkeypatch.setattr(codes, "SCALAR_FILL_MAX_M", 0)
        monkeypatch.setattr(codes, "FILL_CHUNK_CANDIDATES", chunk)
        bfs = build_coset_table(code)
        assert np.array_equal(bfs.weights, scalar.weights)
        assert np.array_equal(bfs.packed_leaders, scalar.packed_leaders)

    def test_breadth_first_fill_on_tiny_codes(self, monkeypatch):
        monkeypatch.setattr(codes, "SCALAR_FILL_MAX_M", 0)
        for code in (hamming_code(2), hamming_code(3),
                     make_code_from_H(BitMatrix.from01_rows(["11"]))):
            table = build_coset_table(code)
            leaders = exhaustive_lex_first_leaders(code.H)
            assert [table.leader(BitVec(code.m, s)).bits
                    for s in range(1 << code.m)] == leaders

    def test_packed_leaders_layout(self):
        code = hamming_code(3)
        table = build_coset_table(code)
        packed = table.packed_leaders
        assert packed.shape == (8, 1) and packed.dtype == np.uint8
        for s in range(8):
            assert int(packed[s, 0]) == table.leader(BitVec(3, s)).bits


class TestDecode:
    def test_zero_syndrome(self):
        code = hamming_code(3)
        table = build_coset_table(code)
        assert table.leader(BitVec.zeros(3)) == BitVec.zeros(7)

    def test_perfect_code_unit_errors(self):
        code = hamming_code(3)
        table = build_coset_table(code)
        for j in range(7):
            s = syndrome(code, BitVec.unit(7, j))
            assert table.leader(s) == BitVec.unit(7, j)

    def test_repetition_weight_one(self):
        code = make_code_from_H(BitMatrix.from01_rows(["11"]))
        table = build_coset_table(code)
        assert table.leader(BitVec.from01("1")).weight == 1

    def test_decode_of_self_difference_is_zero(self):
        rng = np.random.default_rng(36)
        code = random_code(12, 5, rng)
        table = build_coset_table(code)
        a = BitVec(12, int(rng.integers(0, 1 << 12)))
        s = syndrome(code, a ^ a)
        assert table.leader(s).weight == 0

    @given(st.integers(0, 31))
    def test_decoded_leader_lands_in_coset(self, s_bits):
        code = random_code(12, 5, np.random.default_rng(37))
        table = build_coset_table(code)
        s = BitVec(5, s_bits)
        w_hat = table.leader(s)
        assert syndrome(code, w_hat) == s


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_value_at_011(self):
        assert binary_entropy(0.11) == pytest.approx(0.4999, abs=1e-3)

    @given(st.floats(0.0, 1.0))
    def test_symmetry(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    def test_concavity_on_grid(self):
        grid = np.linspace(0.0, 1.0, 21)
        for a in grid:
            for b in grid:
                mid = binary_entropy((a + b) / 2)
                assert mid >= (binary_entropy(a) + binary_entropy(b)) / 2 - 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)


class TestKlBern:
    def test_zero_iff_equal(self):
        assert kl_bern(0.3, 0.3) == 0.0

    def test_value(self):
        assert kl_bern(0.2, 0.1) == pytest.approx(0.0640, abs=1e-3)

    def test_q1_p_half(self):
        assert kl_bern(1.0, 0.5) == pytest.approx(1.0)

    def test_degenerate_reference(self):
        assert kl_bern(0.3, 0.0) == math.inf
        assert kl_bern(1.0, 1.0) == 0.0

    @given(st.floats(0.0, 1.0), st.floats(0.01, 0.99))
    def test_nonnegative(self, q, p):
        d = kl_bern(q, p)
        assert d >= 0.0
        if abs(q - p) > 1e-9:
            assert d > 0.0


def _grid_oracle_exponent(R: float, p: float) -> float:
    # independent coarse-grid minimization of the same objective
    qs = np.linspace(p, 0.5, 400001)
    h = np.zeros_like(qs)
    inner = (qs > 0) & (qs < 1)
    h[inner] = -qs[inner] * np.log2(qs[inner]) - (1 - qs[inner]) * np.log2(1 - qs[inner])
    d = np.zeros_like(qs)
    d[qs > 0] += qs[qs > 0] * np.log2(qs[qs > 0] / p)
    d[qs < 1] += (1 - qs[qs < 1]) * np.log2((1 - qs[qs < 1]) / (1 - p))
    return float(np.min(d + np.maximum(1 - h - R, 0.0)))


class TestErrorExponent:
    def test_reference_point(self):
        # kink of the objective at h_b(q) = 1 - R for p=0.1, R=0.3
        assert error_exponent(0.3, 0.1) == pytest.approx(0.052, abs=2e-3)

    def test_matches_independent_grid(self):
        for R, p in [(0.3, 0.1), (0.2, 0.05), (0.05, 0.2), (0.001, 0.1)]:
            assert error_exponent(R, p) == pytest.approx(_grid_oracle_exponent(R, p), abs=2e-5)

    def test_low_rate_limit_is_cutoff_exponent(self):
        # min_q D(q||p) + 1 - h_b(q) at R -> 0+, attained at q/(1-q) = sqrt(p/(1-p))
        p = 0.1
        q_star = 1.0 / 4.0
        expected = kl_bern(q_star, p) + 1 - binary_entropy(q_star) - 0.001
        assert error_exponent(0.001, p) == pytest.approx(expected, abs=1e-4)

    def test_positive_below_capacity(self):
        assert error_exponent(0.4, 0.1) > 0.0

    def test_capacity_boundary_flagged(self):
        cap = 1.0 - binary_entropy(0.1)
        with pytest.warns(OperatingAssumptionWarning, match="no positive exponent"):
            assert error_exponent(cap, 0.1) == 0.0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            error_exponent(0.3, 0.6)


class TestBounds:
    def test_frr_bound_is_sum_of_terms(self):
        n, p, tau, R = 100, 0.05, 0.2, 0.2
        expected = 2.0 ** (-n * kl_bern(tau, p)) + 2.0 ** (-n * error_exponent(R, p))
        assert frr_bound(n, p, tau, R) == pytest.approx(expected, rel=1e-9)

    def test_frr_bound_clamps_at_tau_equals_p(self):
        with pytest.warns(OperatingAssumptionWarning):
            assert frr_bound(50, 0.1, 0.1, 0.2) == 1.0
        # tau below p
        with pytest.warns(OperatingAssumptionWarning, match="tau > p"):
            frr_bound(20, 0.2, 0.05, 0.5)

    def test_frr_bound_monotone_in_n(self):
        vals = [frr_bound(n, 0.05, 0.2, 0.2) for n in (50, 100, 200, 400)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_far_bound_reference_value(self):
        assert far_bound(20, 10, 0.05) == pytest.approx(0.0518, abs=2e-3)

    def test_far_bound_tau_zero(self):
        assert far_bound(20, 10, 0.0) == pytest.approx(2.0 ** -10)

    def test_far_bound_boundary_clamps(self):
        # m = n h_b(tau) exactly -> bound 1 (and a warning)
        tau = 0.11
        n = 100
        m = n * binary_entropy(tau)
        with pytest.warns(OperatingAssumptionWarning):
            assert far_bound(n, m, tau) == 1.0
        # m/n far below h_b(tau)
        with pytest.warns(OperatingAssumptionWarning, match="m/n"):
            assert far_bound(20, 2, 0.05) == 1.0

    def test_bounds_are_scheme_free(self):
        # identical inputs give identical bounds for FC and SS parameterizations
        assert far_bound(20, 10, 0.05) == far_bound(20, 10, 0.05)
        assert frr_bound(24, 0.02, 0.25, 0.15) == frr_bound(24, 0.02, 0.25, 0.15)
