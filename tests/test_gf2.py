from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biosketch.gf2 import (
    BitMatrix,
    BitVec,
    Gf2Solver,
    InconsistentSystemError,
    mat_mat_mul,
    mat_vec_mul,
    matrix_from_text,
    matrix_to_text,
    nullspace_basis,
    rank,
    residual_rank,
    sample_full_rank,
    solve_any,
    stacked_rank,
    uniform_bitmatrix,
    uniform_bitvec,
)
from oracles import row_basis, span_size_rank, syndrome_int


def hamming3_H() -> BitMatrix:
    # columns are 1..7 in increasing binary order, row i = bit i
    rows = []
    for i in range(3):
        bits = 0
        for j in range(7):
            if ((j + 1) >> i) & 1:
                bits |= 1 << j
        rows.append(bits)
    return BitMatrix(3, 7, tuple(rows))


@st.composite
def bitvecs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    return BitVec(n, draw(st.integers(0, (1 << n) - 1)))


@st.composite
def bitmatrices(draw, max_rows=6, max_cols=10):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    data = tuple(draw(st.integers(0, (1 << cols) - 1)) for _ in range(rows))
    return BitMatrix(rows, cols, data)


class TestBitVec:
    def test_roundtrip_str(self):
        v = BitVec.from01("01101")
        assert v.to01() == "01101"
        assert v.weight == 3
        assert len(v) == 5
        assert v[0] == 0 and v[1] == 1

    def test_xor_group_laws(self):
        a = BitVec.from01("1010")
        b = BitVec.from01("0110")
        z = BitVec.zeros(4)
        assert (a ^ b) ^ a == b
        assert a ^ z == a
        assert a ^ a == z

    def test_numpy_roundtrip(self):
        arr = np.array([1, 0, 0, 1, 1, 0, 1], dtype=np.uint8)
        v = BitVec.from_numpy(arr)
        assert np.array_equal(v.to_numpy(), arr)

    def test_bytes_roundtrip(self):
        v = BitVec.from01("110100101")
        assert BitVec.from_bytes(v.to_bytes(), 9) == v

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BitVec(0, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BitVec.from01("10") ^ BitVec.from01("100")


class TestMatVecMul:
    def test_identity(self):
        M = BitMatrix.identity(2)
        x = BitVec.from01("10")
        assert mat_vec_mul(M, x) == x

    def test_even_parity(self):
        M = BitMatrix.from01_rows(["11"])
        assert mat_vec_mul(M, BitVec.from01("11")) == BitVec.zeros(1)

    def test_hamming_column_read(self):
        H = hamming3_H()
        for j in range(7):
            e = BitVec.unit(7, j)
            assert mat_vec_mul(H, e) == H.col(j)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_vec_mul(BitMatrix.identity(3), BitVec.zeros(2))

    @given(bitmatrices(), st.data())
    def test_linearity(self, M, data):
        x = BitVec(M.cols, data.draw(st.integers(0, (1 << M.cols) - 1)))
        y = BitVec(M.cols, data.draw(st.integers(0, (1 << M.cols) - 1)))
        assert mat_vec_mul(M, x ^ y) == mat_vec_mul(M, x) ^ mat_vec_mul(M, y)


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix.identity(3)) == 3

    def test_duplicate_row(self):
        M = BitMatrix.from01_rows(["1010", "1010", "0110"])
        assert rank(M) == 2

    def test_zero_matrix(self):
        assert rank(BitMatrix.zeros(3, 4)) == 0

    def test_random_full_row_rank_against_span_oracle(self):
        rng = np.random.default_rng(11)
        M = sample_full_rank(4, 8, rng)
        assert rank(M) == 4
        assert span_size_rank(M) == 4

    @given(bitmatrices())
    @settings(max_examples=60)
    def test_matches_span_oracle(self, M):
        assert rank(M) == span_size_rank(M)


class TestStackedResidualRank:
    def test_duplicate_stack(self):
        rng = np.random.default_rng(5)
        H = sample_full_rank(3, 8, rng)
        assert stacked_rank([H, H]) == rank(H)

    def test_jointly_independent(self):
        rng = np.random.default_rng(6)
        big = sample_full_rank(6, 9, rng)
        Ha = BitMatrix(3, 9, big.row_bits[:3])
        Hb = BitMatrix(3, 9, big.row_bits[3:])
        assert stacked_rank([Ha, Hb]) == rank(Ha) + rank(Hb)

    def test_xor_block_adds_nothing(self):
        rng = np.random.default_rng(7)
        H1 = sample_full_rank(3, 10, rng)
        H2 = sample_full_rank(3, 10, rng)
        H3 = BitMatrix(3, 10, tuple(a ^ b for a, b in zip(H1.row_bits, H2.row_bits)))
        assert stacked_rank([H1, H2, H3]) == stacked_rank([H1, H2])

    def test_residual_of_self_is_zero(self):
        rng = np.random.default_rng(8)
        H = sample_full_rank(4, 9, rng)
        assert residual_rank([H], H) == 0

    def test_residual_full_independence(self):
        rng = np.random.default_rng(9)
        big = sample_full_rank(6, 12, rng)
        Ha = BitMatrix(3, 12, big.row_bits[:3])
        Hb = BitMatrix(3, 12, big.row_bits[3:])
        assert residual_rank([Ha], Hb) == rank(Hb)

    def test_partial_overlap_geometry(self):
        # shared top block of m/2 rows; disjoint bottom blocks
        rng = np.random.default_rng(10)
        m, n = 8, 24
        big = sample_full_rank(2 * m, n, rng)
        blocks = [BitMatrix(m // 2, n, big.row_bits[i * (m // 2):(i + 1) * (m // 2)])
                  for i in range(4)]
        Ha, Hb, Hc, Hd = blocks
        H1 = BitMatrix.stack([Ha, Hb])
        H2 = BitMatrix.stack([Ha, Hc])
        H3 = BitMatrix.stack([Ha, Hd])
        stack = [H1, H2]
        assert stacked_rank(stack) == 3 * m // 2
        assert residual_rank(stack, H3) == m // 2
        # oracle cross-check on the full stack
        assert span_size_rank(BitMatrix.stack(stack + [H3])) == 2 * m

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            stacked_rank([BitMatrix.identity(2), BitMatrix.identity(3)])
        with pytest.raises(ValueError):
            residual_rank([BitMatrix.identity(2)], BitMatrix.identity(3))

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=4), st.integers(0, 7))
    def test_residual_plus_stacked_identity(self, stack_rows, extra_row):
        stack = [BitMatrix(1, 3, (r,)) for r in stack_rows]
        Hj = BitMatrix(1, 3, (extra_row,))
        assert residual_rank(stack, Hj) + stacked_rank(stack) == stacked_rank(stack + [Hj])

    @given(st.lists(bitmatrices(max_rows=3, max_cols=6), min_size=1, max_size=3))
    def test_stacked_rank_bounds(self, mats):
        cols = mats[0].cols
        mats = [BitMatrix(m.rows, cols, tuple(r & ((1 << cols) - 1) for r in m.row_bits))
                for m in mats]
        r = stacked_rank(mats)
        assert r <= min(sum(rank(m) for m in mats), cols)


class TestSolveAny:
    def test_identity(self):
        s = BitVec.from01("101")
        assert solve_any(BitMatrix.identity(3), s) == s

    def test_zero_rhs(self):
        rng = np.random.default_rng(12)
        M = sample_full_rank(3, 6, rng)
        assert solve_any(M, BitVec.zeros(3)) == BitVec.zeros(6)

    def test_worked_example(self):
        M = BitMatrix.from01_rows(["110", "011"])
        s = BitVec.from01("10")
        x = solve_any(M, s)
        assert mat_vec_mul(M, x) == s
        assert x == BitVec.from01("100")  # free variables pinned to 0

    def test_inconsistent(self):
        M = BitMatrix.from01_rows(["110", "110"])
        with pytest.raises(InconsistentSystemError):
            solve_any(M, BitVec.from01("10"))

    def test_rhs_length_check(self):
        with pytest.raises(ValueError):
            solve_any(BitMatrix.identity(3), BitVec.zeros(2))

    @given(bitmatrices(), st.data())
    @settings(max_examples=60)
    def test_postcondition_on_consistent_systems(self, M, data):
        x0 = BitVec(M.cols, data.draw(st.integers(0, (1 << M.cols) - 1)))
        s = mat_vec_mul(M, x0)  # consistent by construction
        x = solve_any(M, s)
        assert mat_vec_mul(M, x) == s


class TestSolver:
    def test_particular_matrix_is_linear_solver(self):
        rng = np.random.default_rng(13)
        M = uniform_bitmatrix(4, 7, rng)
        solver = Gf2Solver(M)
        B = solver.particular_matrix()
        for _ in range(20):
            x0 = uniform_bitvec(7, rng)
            s = mat_vec_mul(M, x0)
            assert mat_vec_mul(B, s) == solver.solve(s)
            assert mat_vec_mul(M, mat_vec_mul(B, s)) == s

    def test_kernel_matrix(self):
        M = BitMatrix.from01_rows(["1100", "0110"])
        K = Gf2Solver(M).kernel_matrix()
        assert K is not None and K.rows == 2
        for i in range(K.rows):
            assert mat_vec_mul(M, K.row(i)) == BitVec.zeros(2)
        assert rank(K) == 2

    def test_sample_solution_covers_solution_set(self):
        M = BitMatrix.from01_rows(["110", "011"])
        s = BitVec.from01("10")
        truth = {x for x in range(8) if syndrome_int(M, x) == s.bits}
        rng = np.random.default_rng(14)
        seen = {Gf2Solver(M).sample_solution(s, rng).bits for _ in range(100)}
        assert seen == truth

    def test_consistency_matrix_none_for_full_row_rank(self):
        rng = np.random.default_rng(15)
        assert Gf2Solver(sample_full_rank(3, 6, rng)).consistency_matrix() is None


class TestSampleFullRank:
    def test_square_invertible(self):
        rng = np.random.default_rng(16)
        M = sample_full_rank(5, 5, rng)
        assert rank(M) == 5

    def test_rectangular(self):
        rng = np.random.default_rng(17)
        assert rank(sample_full_rank(3, 7, rng)) == 3

    def test_deterministic_given_seed(self):
        a = sample_full_rank(4, 9, np.random.default_rng(99))
        b = sample_full_rank(4, 9, np.random.default_rng(99))
        assert a == b

    def test_rejects_m_greater_than_n(self):
        with pytest.raises(ValueError):
            sample_full_rank(4, 3, np.random.default_rng(0))

    def test_roughly_uniform_over_1x2(self):
        counts = {1: 0, 2: 0, 3: 0}
        for seed in range(1500):
            M = sample_full_rank(1, 2, np.random.default_rng(seed))
            counts[M.row_bits[0]] += 1
        for c in counts.values():
            assert 380 <= c <= 620


class TestNullspaceBasis:
    def test_systematic_form(self):
        # H = [I_2 | P]
        H = BitMatrix.from01_rows(["1011", "0101"])
        G = nullspace_basis(H)
        assert G.rows == 2 and rank(G) == 2
        zero = BitMatrix.zeros(2, 2)
        assert mat_mat_mul(H, G.transpose()) == zero

    def test_hamming_all_codewords(self):
        H = hamming3_H()
        G = nullspace_basis(H)
        assert G.rows == 4 and rank(G) == 4
        # all 16 codewords have zero syndrome
        for z in range(16):
            cw = 0
            for i in range(4):
                if (z >> i) & 1:
                    cw ^= G.row_bits[i]
            assert syndrome_int(H, cw) == 0

    def test_repetition(self):
        G = nullspace_basis(BitMatrix.from01_rows(["11"]))
        assert G == BitMatrix.from01_rows(["11"])

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError):
            nullspace_basis(BitMatrix.from01_rows(["11", "11"]))

    def test_rejects_square_invertible(self):
        with pytest.raises(ValueError):
            nullspace_basis(BitMatrix.identity(3))


class TestRowBasis:
    def test_preserves_row_space(self):
        rng = np.random.default_rng(18)
        M = uniform_bitmatrix(5, 6, rng)
        B = row_basis(M)
        assert B.rows == rank(M)
        assert stacked_rank([M, B]) == rank(M)


def test_pairwise_syndrome_counts_are_uniform():
    # joint-uniformity, combinatorial form: equal cell counts for independent rows
    rng = np.random.default_rng(19)
    big = sample_full_rank(5, 11, rng)
    H = BitMatrix(2, 11, big.row_bits[:2])
    Ht = BitMatrix(3, 11, big.row_bits[2:])
    counts = np.zeros((4, 8), dtype=np.int64)
    for x in range(1 << 11):
        counts[syndrome_int(H, x), syndrome_int(Ht, x)] += 1
    assert (counts == 1 << (11 - 2 - 3)).all()


class TestTextFormat:
    def test_roundtrip(self):
        rng = np.random.default_rng(20)
        M = uniform_bitmatrix(4, 9, rng)
        assert matrix_from_text(matrix_to_text(M)) == M

    def test_exact_rendering(self):
        M = BitMatrix.from01_rows(["101", "010"])
        assert matrix_to_text(M) == "2 3\n101\n010\n"

    @pytest.mark.parametrize("bad", [
        "",
        "2\n10\n01",
        "2 2\n10",
        "2 2\n10\n011",
        "1 2\n1x",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            matrix_from_text(bad)


def test_file_roundtrip(tmp_path):
    from biosketch.gf2 import load_matrix
    rng = np.random.default_rng(21)
    M = uniform_bitmatrix(3, 5, rng)
    path = tmp_path / "h.txt"
    path.write_text(matrix_to_text(M))
    assert load_matrix(path) == M
