"""Bit-packed linear algebra over GF(2).

Vectors and matrices are stored as Python integers (one int per row,
bit ``j`` = column ``j``), which keeps XOR row operations word-parallel
without committing to a fixed word size.  All values are immutable once
constructed; the external contract is bit-exact behaviour independent
of the packing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class InconsistentSystemError(ValueError):
    """Raised when a linear system M x = s has no solution."""


def _parity(x: int) -> int:
    return x.bit_count() & 1


@dataclass(frozen=True)
class BitVec:
    """A length-``n`` binary vector packed into an int (bit j = coordinate j)."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"BitVec length must be >= 1, got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError("bits out of range for declared length")

    @classmethod
    def zeros(cls, n: int) -> BitVec:
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> BitVec:
        return cls(n, (1 << n) - 1)

    @classmethod
    def unit(cls, n: int, j: int) -> BitVec:
        """Standard basis vector e_j."""
        if not 0 <= j < n:
            raise ValueError("unit index out of range")
        return cls(n, 1 << j)

    @classmethod
    def from01(cls, s: str) -> BitVec:
        """Parse a 0/1 string; leftmost character is coordinate 0."""
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"not a 0/1 string: {s!r}")
        bits = 0
        for j, c in enumerate(s):
            if c == "1":
                bits |= 1 << j
        return cls(len(s), bits)

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> BitVec:
        arr = np.asarray(arr).astype(np.uint8) & 1
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("expected a 1-D nonempty array")
        packed = np.packbits(arr, bitorder="little").tobytes()
        return cls(arr.size, int.from_bytes(packed, "little"))

    def to01(self) -> str:
        return "".join("1" if (self.bits >> j) & 1 else "0" for j in range(self.n))

    def to_numpy(self) -> np.ndarray:
        raw = self.bits.to_bytes((self.n + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                             count=self.n, bitorder="little")

    def to_bytes(self) -> bytes:
        """Pack LSB-first into ceil(n/8) bytes."""
        return self.bits.to_bytes((self.n + 7) // 8, "little")

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> BitVec:
        bits = int.from_bytes(data, "little")
        if bits >> n:
            raise ValueError("stray bits beyond declared length")
        return cls(n, bits)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.n:
            raise IndexError("bit index out of range")
        return (self.bits >> j) & 1

    def __xor__(self, other: BitVec) -> BitVec:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitVec(self.n, self.bits ^ other.bits)


@dataclass(frozen=True)
class BitMatrix:
    """A rows x cols binary matrix; row i packed as an int (bit j = column j)."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be >= 1")
        if len(self.row_bits) != self.rows:
            raise ValueError("row count does not match row data")
        mask = (1 << self.cols) - 1
        if any(r & ~mask for r in self.row_bits):
            raise ValueError("row bits out of range for declared width")

    @classmethod
    def from_rows(cls, rows: Sequence[BitVec | int], cols: int | None = None) -> BitMatrix:
        if not rows:
            raise ValueError("matrix needs at least one row")
        if isinstance(rows[0], BitVec):
            widths = {r.n for r in rows}  # type: ignore[union-attr]
            if len(widths) != 1:
                raise ValueError("rows have differing lengths")
            n = widths.pop()
            if cols is not None and cols != n:
                raise ValueError("cols does not match row lengths")
            return cls(len(rows), n, tuple(r.bits for r in rows))  # type: ignore[union-attr]
        if cols is None:
            raise ValueError("cols required when rows are given as ints")
        return cls(len(rows), cols, tuple(int(r) for r in rows))

    @classmethod
    def from01_rows(cls, lines: Sequence[str]) -> BitMatrix:
        return cls.from_rows([BitVec.from01(s) for s in lines])

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> BitMatrix:
        arr = np.asarray(arr).astype(np.uint8) & 1
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls.from_rows([BitVec.from_numpy(row) for row in arr])

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, n, tuple(1 << j for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> BitMatrix:
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def stack(cls, mats: Sequence[BitMatrix]) -> BitMatrix:
        """Vertical concatenation; all column counts must agree."""
        if not mats:
            raise ValueError("nothing to stack")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValueError("column mismatch in stack")
        rows: list[int] = []
        for m in mats:
            rows.extend(m.row_bits)
        return cls(len(rows), cols, tuple(rows))

    def row(self, i: int) -> BitVec:
        return BitVec(self.cols, self.row_bits[i])

    def col(self, j: int) -> BitVec:
        if not 0 <= j < self.cols:
            raise IndexError("column index out of range")
        bits = 0
        for i, r in enumerate(self.row_bits):
            if (r >> j) & 1:
                bits |= 1 << i
        return BitVec(self.rows, bits)

    def transpose(self) -> BitMatrix:
        out = [0] * self.cols
        for i, r in enumerate(self.row_bits):
            while r:
                low = r & -r
                out[low.bit_length() - 1] |= 1 << i
                r ^= low
        return BitMatrix(self.cols, self.rows, tuple(out))

    def to_numpy(self) -> np.ndarray:
        return np.stack([self.row(i).to_numpy() for i in range(self.rows)])

    def to01_rows(self) -> list[str]:
        return [self.row(i).to01() for i in range(self.rows)]


def mat_vec_mul(M: BitMatrix, x: BitVec) -> BitVec:
    """Product M x over GF(2); result bit i is the parity of AND(row_i, x)."""
    if x.n != M.cols:
        raise ValueError(f"dimension mismatch: matrix has {M.cols} cols, vector length {x.n}")
    bits = 0
    for i, r in enumerate(M.row_bits):
        if _parity(r & x.bits):
            bits |= 1 << i
    return BitVec(M.rows, bits)


def mat_mat_mul(A: BitMatrix, B: BitMatrix) -> BitMatrix:
    """Product A B over GF(2)."""
    if A.cols != B.rows:
        raise ValueError("dimension mismatch in matrix product")
    bt = B.transpose()
    rows = []
    for a in A.row_bits:
        bits = 0
        for j, c in enumerate(bt.row_bits):
            if _parity(a & c):
                bits |= 1 << j
        rows.append(bits)
    return BitMatrix(A.rows, B.cols, tuple(rows))


def _echelon(rows: list[int], cols: int) -> tuple[list[int], list[int], list[int]]:
    """In-place reduced row echelon form with a transform record.

    Returns (reduced rows, pivot column indices, transform rows) where
    transform row i, read as a bit mask over the original rows, satisfies
    transform_i . original = reduced_i.  Pivots are chosen at the lowest
    available column index, and pivot columns are fully cleared above and
    below (RREF), so results are deterministic.
    """
    m = len(rows)
    work = list(rows)
    trans = [1 << i for i in range(m)]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        sel = -1
        for i in range(r, m):
            if (work[i] >> c) & 1:
                sel = i
                break
        if sel < 0:
            continue
        work[r], work[sel] = work[sel], work[r]
        trans[r], trans[sel] = trans[sel], trans[r]
        for i in range(m):
            if i != r and (work[i] >> c) & 1:
                work[i] ^= work[r]
                trans[i] ^= trans[r]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return work, pivots, trans


def reduce_into(basis: dict[int, int], rows: Sequence[int]) -> int:
    """Reduce ``rows`` into an XOR basis keyed by leading bit; count the new rows.

    ``basis`` maps a leading-bit index to the one basis row with that leading
    bit.  Each row is XORed down by the basis rows of its successive leading
    bits; a row that does not reduce to zero joins the basis.  The return
    value is the rank added by ``rows``.
    """
    added = 0
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = row
                added += 1
                break
            row ^= pivot
    return added


def rank(M: BitMatrix) -> int:
    """GF(2) rank: the size of an XOR basis of the rows."""
    return reduce_into({}, M.row_bits)


def stacked_rank(mats: Sequence[BitMatrix]) -> int:
    """Rank of the vertical concatenation of ``mats`` (the collective rank)."""
    return rank(BitMatrix.stack(mats))


def residual_rank(stack: Sequence[BitMatrix], Hj: BitMatrix) -> int:
    """Rank added by ``Hj`` on top of the stacked matrices.

    Equals stacked_rank(stack + [Hj]) - stacked_rank(stack); zero iff the
    row space of Hj lies inside the span of the stack.
    """
    if not stack:
        return rank(Hj)
    if any(m.cols != Hj.cols for m in stack):
        raise ValueError("column mismatch between stack and Hj")
    base = stacked_rank(stack)
    return stacked_rank(list(stack) + [Hj]) - base


class Gf2Solver:
    """Precomputed elimination of a fixed matrix M for repeated solves.

    Exposes the particular solution with free variables set to 0 (a linear
    map of the right-hand side), a consistency test, and a kernel basis,
    so callers can enumerate or sample the full solution set of M x = s.
    """

    def __init__(self, M: BitMatrix):
        self.M = M
        reduced, pivots, trans = _echelon(list(M.row_bits), M.cols)
        self.rank = len(pivots)
        self.pivot_cols = pivots
        self._reduced = reduced
        self._trans = trans
        # rows of the transform beyond the rank must annihilate s for consistency
        self._check_rows = trans[self.rank:]
        kernel: list[int] = []
        pivot_set = set(pivots)
        for free in range(M.cols):
            if free in pivot_set:
                continue
            vec = 1 << free
            for r, pc in enumerate(pivots):
                if (reduced[r] >> free) & 1:
                    vec |= 1 << pc
            kernel.append(vec)
        self.kernel_bits = kernel

    def is_consistent(self, s: BitVec) -> bool:
        if s.n != self.M.rows:
            raise ValueError("right-hand side length mismatch")
        return all(not _parity(row & s.bits) for row in self._check_rows)

    def solve_bits(self, s_bits: int) -> int:
        x = 0
        for r, pc in enumerate(self.pivot_cols):
            if _parity(self._trans[r] & s_bits):
                x |= 1 << pc
        return x

    def solve(self, s: BitVec) -> BitVec:
        """Particular solution of M x = s with free variables set to 0."""
        if not self.is_consistent(s):
            raise InconsistentSystemError("inconsistent system: s outside the column space")
        return BitVec(self.M.cols, self.solve_bits(s.bits))

    def particular_matrix(self) -> BitMatrix:
        """Matrix B with B s = solve(s) for every consistent s (cols x rows)."""
        out = [0] * self.M.cols
        for r, pc in enumerate(self.pivot_cols):
            out[pc] = self._trans[r]
        return BitMatrix(self.M.cols, self.M.rows, tuple(out))

    def consistency_matrix(self) -> BitMatrix | None:
        """Rows that must annihilate s; None when M has full row rank."""
        if not self._check_rows:
            return None
        return BitMatrix(len(self._check_rows), self.M.rows, tuple(self._check_rows))

    def kernel_matrix(self) -> BitMatrix | None:
        """Basis of {x : M x = 0} as rows; None for a trivial kernel."""
        if not self.kernel_bits:
            return None
        return BitMatrix(len(self.kernel_bits), self.M.cols, tuple(self.kernel_bits))

    def sample_solution(self, s: BitVec, rng: np.random.Generator) -> BitVec:
        """Uniform sample from the solution set of M x = s."""
        x = self.solve(s).bits
        for b in self.kernel_bits:
            if rng.integers(0, 2):
                x ^= b
        return BitVec(self.M.cols, x)


def solve_any(M: BitMatrix, s: BitVec) -> BitVec:
    """Some x with M x = s; free variables are set to 0 for determinism.

    Raises InconsistentSystemError when s lies outside the column space.
    """
    if s.n != M.rows:
        raise ValueError(f"dimension mismatch: matrix has {M.rows} rows, rhs length {s.n}")
    return Gf2Solver(M).solve(s)


def nullspace_basis(H: BitMatrix) -> BitMatrix:
    """A k x n basis G of the null space of a full-row-rank m x n matrix H.

    k = n - m, rank(G) = k and H G^T = 0.  Raises when H is not full row
    rank or square-invertible (k = 0).
    """
    solver = Gf2Solver(H)
    if solver.rank != H.rows:
        raise ValueError("H not full row rank")
    kernel = solver.kernel_matrix()
    if kernel is None:
        raise ValueError("trivial null space: H is square and invertible")
    return kernel


def uniform_bitvec(n: int, rng: np.random.Generator) -> BitVec:
    """I.i.d. Bernoulli(0.5) vector of length n."""
    if n < 1:
        raise ValueError("length must be >= 1")
    raw = rng.bytes((n + 7) // 8)
    return BitVec(n, int.from_bytes(raw, "little") & ((1 << n) - 1))


def uniform_bitmatrix(m: int, n: int, rng: np.random.Generator) -> BitMatrix:
    return BitMatrix(m, n, tuple(uniform_bitvec(n, rng).bits for _ in range(m)))


def sample_full_rank(m: int, n: int, rng: np.random.Generator) -> BitMatrix:
    """Uniform full-row-rank m x n matrix by rejection sampling.

    The acceptance probability is bounded below by ~0.288 for every
    m <= n, so the expected number of attempts is < 4.
    """
    if m > n:
        raise ValueError(f"m > n: no full-row-rank {m}x{n} matrix exists")
    while True:
        M = uniform_bitmatrix(m, n, rng)
        if rank(M) == m:
            return M


def matrix_to_text(M: BitMatrix) -> str:
    """Render in the matrix text format: 'm n' header, then m 0/1 rows."""
    return "\n".join([f"{M.rows} {M.cols}"] + M.to01_rows()) + "\n"


def matrix_from_text(text: str) -> BitMatrix:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header line: {lines[0]!r}")
    m, n = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        if len(ln) != n:
            raise ValueError(f"row has length {len(ln)}, expected {n}")
        rows.append(BitVec.from01(ln))
    return BitMatrix.from_rows(rows)


def load_matrix(path) -> BitMatrix:
    with open(path) as fh:
        return matrix_from_text(fh.read())
