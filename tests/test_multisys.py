from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biosketch.codes import OperatingAssumptionWarning, make_code_from_H, random_code
from biosketch.gf2 import BitMatrix, rank, stacked_rank
from biosketch.multisys import (
    DesignReport,
    design_search,
    linkage_preset,
    rank_profiles,
    sar_lower_bound,
)
from oracles import span_size_rank


class TestRankProfiles:
    def test_identical_matrices_endpoint(self):
        rng = np.random.default_rng(90)
        mats = linkage_preset("example2", 4, 12, rng)
        report = rank_profiles(mats, L=2)
        assert report.r_max == 4 and report.t_min == 0
        assert all(v == 4 for v in report.r_profile.values())
        assert all(v == 0 for v in report.t_profile.values())

    def test_independent_matrices_endpoint(self):
        rng = np.random.default_rng(91)
        mats = linkage_preset("example3", 4, 12, rng)
        report = rank_profiles(mats, L=2)
        assert report.r_max == 8 and report.t_min == 4
        for subset, r in report.r_profile.items():
            assert r == 8
            for j in range(1, 4):
                expected = 0 if j in subset else 4
                assert report.t_profile[(subset, j)] == expected

    def test_partial_overlap_endpoint(self):
        rng = np.random.default_rng(92)
        m = 8
        mats = linkage_preset("example4", m, 3 * m, rng)
        report = rank_profiles(mats, L=2)
        assert report.r_max == 3 * m // 2 and report.t_min == m // 2

    def test_profiles_match_span_oracle(self):
        rng = np.random.default_rng(93)
        mats = [random_code(10, 3, rng).H for _ in range(3)]
        report = rank_profiles(mats, L=2)
        for subset, r in report.r_profile.items():
            stack = BitMatrix.stack([mats[i - 1] for i in subset])
            assert r == span_size_rank(stack)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ranks_match_span_oracle_for_every_L(self, data):
        # a pool of matrices with arbitrary rows (zero, repeated and dependent
        # rows included), drawn into a tuple that may repeat a matrix
        n = data.draw(st.integers(1, 9), label="n")
        row = st.integers(0, (1 << n) - 1)
        pool = data.draw(st.lists(st.lists(row, min_size=1, max_size=4), min_size=1,
                                  max_size=3), label="pool")
        pool = [BitMatrix.from_rows(rows, cols=n) for rows in pool]
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4),
                          label="picks")
        mats = [pool[i] for i in picks]
        u = len(mats)
        for M in mats:
            assert rank(M) == span_size_rank(M)
        for L in range(1, u + 1):
            report = rank_profiles(mats, L)
            t_outside = []
            for subset in itertools.combinations(range(1, u + 1), L):
                stack = [mats[i - 1] for i in subset]
                r = span_size_rank(BitMatrix.stack(stack))
                assert report.r_profile[subset] == stacked_rank(stack) == r
                for j in range(1, u + 1):
                    t = span_size_rank(BitMatrix.stack(stack + [mats[j - 1]])) - r
                    assert report.t_profile[(subset, j)] == t
                    assert stacked_rank(stack + [mats[j - 1]]) == r + t
                    if j not in subset:
                        t_outside.append(t)
            assert report.r_max == max(report.r_profile.values())
            assert report.t_min == min(t_outside, default=0)

    def test_column_mismatch(self):
        with pytest.raises(ValueError, match="column"):
            rank_profiles([BitMatrix.identity(3), BitMatrix.identity(4)], 1)

    def test_accepts_codes_and_config(self):
        rng = np.random.default_rng(94)
        codes = tuple(random_code(9, 3, rng) for _ in range(2))
        assert rank_profiles(codes, 1) == rank_profiles([c.H for c in codes], 1)

    def test_L_validation(self):
        rng = np.random.default_rng(95)
        mats = [random_code(8, 3, rng).H for _ in range(2)]
        with pytest.raises(ValueError):
            rank_profiles(mats, 0)
        with pytest.raises(ValueError):
            rank_profiles(mats, 3)

    def test_combinatorial_guard(self):
        mats = [BitMatrix.identity(2)] * 40
        with pytest.raises(ValueError, match="guard"):
            rank_profiles(mats, 20)


class TestSarLowerBound:
    def test_values(self):
        assert sar_lower_bound(0) == 1.0
        assert sar_lower_bound(1) == 0.5
        assert sar_lower_bound(4) == 1.0 / 16.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sar_lower_bound(-1)


class TestDesignSearch:
    def test_min_rmax_reaches_identical_endpoint(self):
        rng = np.random.default_rng(96)
        codes, report = design_search(u=3, m=4, n=12, L=2, objective="min_rmax", rng=rng)
        assert report.r_max == 4
        assert all(rank(c.H) == 4 for c in codes)

    def test_max_tmin_reaches_independence(self):
        rng = np.random.default_rng(97)
        codes, report = design_search(u=3, m=4, n=12, L=2, objective="max_tmin", rng=rng)
        assert report.t_min == 4
        assert stacked_rank([c.H for c in codes]) == 12

    def test_max_tmin_infeasible_flagged(self):
        rng = np.random.default_rng(98)
        with pytest.warns(OperatingAssumptionWarning, match="infeasible"):
            codes, report = design_search(u=4, m=4, n=12, L=2, objective="max_tmin",
                                          rng=rng, restarts=2)
        assert report.t_min < 4

    def test_weighted_objective_runs(self):
        rng = np.random.default_rng(99)
        codes, report = design_search(u=3, m=3, n=9, L=2, objective="weighted",
                                      rng=rng, restarts=3)
        assert isinstance(report, DesignReport)
        assert all(rank(c.H) == 3 for c in codes)

    def test_deterministic_given_seed(self):
        a = design_search(3, 3, 9, 2, "weighted", np.random.default_rng(100), restarts=2)
        b = design_search(3, 3, 9, 2, "weighted", np.random.default_rng(100), restarts=2)
        assert [c.H for c in a[0]] == [c.H for c in b[0]]
        assert a[1] == b[1]

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            design_search(3, 3, 9, 2, "maximize_vibes", np.random.default_rng(0))


class TestPresets:
    def test_example1_geometry(self):
        rng = np.random.default_rng(101)
        H1, H2, H3 = linkage_preset("example1", 4, 12, rng)
        assert H3.row_bits == tuple(a ^ b for a, b in zip(H1.row_bits, H2.row_bits))
        assert rank(H3) == 4
        assert stacked_rank([H1, H2, H3]) == stacked_rank([H1, H2]) == 8
        for H in (H1, H2, H3):
            make_code_from_H(H)  # all three are valid parity checks

    def test_example2_identical(self):
        rng = np.random.default_rng(102)
        H1, H2, H3 = linkage_preset("example2", 3, 9, rng)
        assert H1 == H2 == H3

    def test_example3_independent(self):
        rng = np.random.default_rng(103)
        mats = linkage_preset("example3", 3, 9, rng)
        assert stacked_rank(list(mats)) == 9

    def test_example4_shared_block(self):
        rng = np.random.default_rng(104)
        m = 6
        H1, H2, H3 = linkage_preset("example4", m, 3 * m, rng)
        # shared top half
        assert H1.row_bits[: m // 2] == H2.row_bits[: m // 2] == H3.row_bits[: m // 2]
        assert stacked_rank([H1, H2, H3]) == 2 * m

    @pytest.mark.parametrize("name,m,n", [
        ("example1", 8, 12),
        ("example3", 4, 10),
        ("example4", 5, 20),
        ("example4", 4, 6),
        ("nonsense", 4, 12),
    ])
    def test_preset_validation(self, name, m, n):
        with pytest.raises(ValueError):
            linkage_preset(name, m, n, np.random.default_rng(0))
