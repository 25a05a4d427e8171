"""Binary linear codes, coset-leader decoding, and closed-form rate bounds.

A code is an [n, k] pair (G, H) with m = n - k syndrome bits.  Decoding is
exact minimum-weight syndrome decoding from a prebuilt coset-leader table,
capped at m <= 24 (2^m entries); beyond that the library refuses rather
than silently approximating.

The table holds, for every syndrome, the lexicographically first of its
minimum-weight error patterns, packed LSB-first into ceil(n/8) bytes.  It
is filled breadth first with numpy: the weight-w leaders are the
weight-(w-1) leaders plus one column of H past their last position, and
the first candidate to reach an unfilled syndrome wins.  Codes with
m <= 4 use a scalar enumeration instead, which is faster on such tiny
tables.  At n = 63 a build took about 0.02 s at m = 14, 0.08 s at m = 16
and 0.7-0.8 s at m = 20 (under 80 MB peak RSS) on a 2-core x86 VM.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gf2 import (
    BitMatrix,
    BitVec,
    mat_mat_mul,
    mat_vec_mul,
    nullspace_basis,
    rank,
    sample_full_rank,
)

COSET_TABLE_MAX_M = 24
# codes with m up to this use the scalar fill, which is faster on tiny tables
SCALAR_FILL_MAX_M = 4
# candidates per chunk of the breadth-first fill (~40 MB of temporaries)
FILL_CHUNK_CANDIDATES = 1 << 20

_LOG2E = math.log2(math.e)


class OperatingAssumptionWarning(UserWarning):
    """A bound was evaluated outside its stated operating assumptions."""


@dataclass(frozen=True)
class LinearCode:
    """An [n, k] binary linear code with paired generator and parity check."""

    n: int
    k: int
    m: int
    G: BitMatrix
    H: BitMatrix

    def __post_init__(self):
        if self.m != self.n - self.k:
            raise ValueError("m must equal n - k")
        if self.H.rows != self.m or self.H.cols != self.n:
            raise ValueError("H has wrong shape")
        if self.G.rows != self.k or self.G.cols != self.n:
            raise ValueError("G has wrong shape")
        if rank(self.H) != self.m:
            raise ValueError("H is rank deficient")
        if rank(self.G) != self.k:
            raise ValueError("G is rank deficient")
        if mat_mat_mul(self.H, self.G.transpose()) != BitMatrix.zeros(self.m, self.k):
            raise ValueError("H G^T != 0")

    @property
    def rate(self) -> float:
        return self.k / self.n


def make_code_from_H(H: BitMatrix) -> LinearCode:
    """Build the [n, n-m] code whose parity check is the full-row-rank H."""
    if rank(H) != H.rows:
        raise ValueError("H is rank deficient")
    if H.rows >= H.cols:
        raise ValueError("code dimension would be zero")
    G = nullspace_basis(H)
    return LinearCode(n=H.cols, k=H.cols - H.rows, m=H.rows, G=G, H=H)


def hamming_code(r: int) -> LinearCode:
    """The [2^r - 1, 2^r - 1 - r] Hamming code.

    Column j of H is the binary representation of j + 1, so weight-1 errors
    map to distinct syndromes.
    """
    if r < 2:
        raise ValueError("hamming_code requires r >= 2")
    n = (1 << r) - 1
    rows = []
    for i in range(r):
        bits = 0
        for j in range(n):
            if ((j + 1) >> i) & 1:
                bits |= 1 << j
        rows.append(bits)
    return make_code_from_H(BitMatrix(r, n, tuple(rows)))


def random_code(n: int, m: int, rng: np.random.Generator) -> LinearCode:
    """An [n, n-m] code with a uniformly sampled full-row-rank parity check."""
    return make_code_from_H(sample_full_rank(m, n, rng))


def syndrome(code: LinearCode, x: BitVec) -> BitVec:
    """The length-m syndrome H x."""
    if x.n != code.n:
        raise ValueError(f"length mismatch: expected {code.n}, got {x.n}")
    return mat_vec_mul(code.H, x)


class CosetLeaderTable:
    """Minimum-weight coset leaders for all 2^m syndromes.

    The syndrome's packed integer value is its row index.  ``weights`` holds
    each leader's weight (uint8) and ``packed_leaders`` the leaders packed
    LSB-first, shape (2^m, ceil(n/8)) uint8.  Read-only once built; safe to
    share across threads.
    """

    def __init__(self, n: int, m: int, packed_leaders: np.ndarray, weights: np.ndarray):
        self.n = n
        self.m = m
        self.packed_leaders = packed_leaders
        self.weights = weights

    def leader(self, s: BitVec) -> BitVec:
        if s.n != self.m:
            raise ValueError(f"syndrome length mismatch: expected {self.m}, got {s.n}")
        return BitVec(self.n, int.from_bytes(self.packed_leaders[s.bits].tobytes(), "little"))

    def weight(self, s: BitVec) -> int:
        if s.n != self.m:
            raise ValueError(f"syndrome length mismatch: expected {self.m}, got {s.n}")
        return int(self.weights[s.bits])


def build_coset_table(code: LinearCode) -> CosetLeaderTable:
    """Fill all 2^m coset leaders, lightest first.

    Each syndrome gets the lexicographically first of its minimum-weight
    error patterns (positions as a sorted tuple), so ties resolve
    deterministically.  Codes with m <= SCALAR_FILL_MAX_M use a scalar
    enumeration, larger ones the breadth-first numpy fill.
    """
    m, n = code.m, code.n
    if m > COSET_TABLE_MAX_M:
        raise ValueError(f"table too large: m={m} exceeds {COSET_TABLE_MAX_M}")
    col_synd = code.H.transpose().row_bits  # column j of H as an m-bit int
    fill = _scalar_fill if m <= SCALAR_FILL_MAX_M else _breadth_first_fill
    packed, weights = fill(n, m, col_synd)
    return CosetLeaderTable(n, m, packed, weights)


def _scalar_fill(n: int, m: int, col_synd: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate patterns by weight, positions in lexicographic order; first hit wins."""
    size = 1 << m
    leaders = [0] * size
    weights = [-1] * size
    weights[0] = 0
    filled = 1
    for w in range(1, n + 1):
        if filled == size:
            break
        for positions in itertools.combinations(range(n), w):
            s = 0
            pat = 0
            for j in positions:
                s ^= col_synd[j]
                pat |= 1 << j
            if weights[s] < 0:
                weights[s] = w
                leaders[s] = pat
                filled += 1
                if filled == size:
                    break
    if filled != size:
        raise AssertionError("parity check not full row rank: unreachable syndromes")
    nbytes = (n + 7) // 8
    raw = b"".join(x.to_bytes(nbytes, "little") for x in leaders)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(size, nbytes)
    return packed, np.array(weights, dtype=np.uint8)


def _breadth_first_fill(n: int, m: int, col_synd: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Fill weight w from the weight-(w-1) leaders, one level at a time.

    The weight-w candidates are each weight-(w-1) leader L plus one column
    j > max(L), walked in (rank of L, j) order, which is lexicographic
    order.  The first candidate to reach a still-unfilled syndrome is its
    leader.  This keeps the lexicographically-first tie-break because the
    prefix of a lexicographically-first leader is itself the
    lexicographically-first leader of its own syndrome.  The frontier is
    walked in chunks of about FILL_CHUNK_CANDIDATES candidates, so memory
    stays bounded.
    """
    size = 1 << m
    cols = np.array(col_synd, dtype=np.int32)
    weights = np.full(size, -1, dtype=np.int16)
    weights[0] = 0
    packed = np.zeros((size, (n + 7) // 8), dtype=np.uint8)
    # the frontier: weight-(w-1) leaders in lexicographic order, as their
    # syndromes and last (largest) positions
    front_s = np.zeros(1, dtype=np.int32)
    front_last = np.full(1, -1, dtype=np.int32)
    filled = 1
    rows_per_chunk = max(1, FILL_CHUNK_CANDIDATES // n)
    for w in range(1, n + 1):
        if filled == size or front_s.size == 0:
            break
        next_s, next_last = [], []
        for lo in range(0, front_s.size, rows_per_chunk):
            par_s = front_s[lo:lo + rows_per_chunk]
            par_last = front_last[lo:lo + rows_per_chunk]
            counts = n - 1 - par_last
            parent = np.repeat(np.arange(par_s.size), counts)
            starts = np.cumsum(counts) - counts
            j = np.arange(parent.size) - (starts - par_last - 1)[parent]
            cand = par_s[parent] ^ cols[j]
            fresh = np.flatnonzero(weights[cand] < 0)
            _, first = np.unique(cand[fresh], return_index=True)
            keep = fresh[np.sort(first)]
            s_new, j_new, p_new = cand[keep], j[keep], par_s[parent[keep]]
            weights[s_new] = w
            rows = packed[p_new]
            rows[np.arange(keep.size), j_new >> 3] |= (1 << (j_new & 7)).astype(np.uint8)
            packed[s_new] = rows
            next_s.append(s_new)
            next_last.append(j_new.astype(np.int32))
            filled += keep.size
            if filled == size:
                break
        front_s = np.concatenate(next_s)
        front_last = np.concatenate(next_last)
    if filled != size:
        raise AssertionError("parity check not full row rank: unreachable syndromes")
    return packed, weights.astype(np.uint8)


def binary_entropy(p: float) -> float:
    """h_b(p) = -p log2 p - (1-p) log2 (1-p), in bits; 0 at the endpoints."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def kl_bern(q: float, p: float) -> float:
    """D(q||p) between Bernoulli distributions, in bits.

    Nonnegative, zero iff q == p.  A degenerate reference p in {0, 1} with
    q != p yields an explicit math.inf.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q out of range: {q}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p out of range: {p}")
    if p in (0.0, 1.0):
        return 0.0 if q == p else math.inf
    out = 0.0
    if q > 0.0:
        out += q * math.log2(q / p)
    if q < 1.0:
        out += (1.0 - q) * math.log2((1.0 - q) / (1.0 - p))
    return out


def _h_arr(q: np.ndarray) -> np.ndarray:
    out = np.zeros_like(q)
    inner = (q > 0) & (q < 1)
    qi = q[inner]
    out[inner] = -qi * np.log2(qi) - (1 - qi) * np.log2(1 - qi)
    return out


def _kl_arr(q: np.ndarray, p: float) -> np.ndarray:
    out = np.zeros_like(q)
    pos = q > 0
    out[pos] += q[pos] * np.log2(q[pos] / p)
    lt1 = q < 1
    out[lt1] += (1 - q[lt1]) * np.log2((1 - q[lt1]) / (1 - p))
    return out


ERROR_EXPONENT_GRID_STEP = 1e-4


def error_exponent(R: float, p: float) -> float:
    """E(R) = min_q ( D(q||p) + max{1 - h_b(q) - R, 0} ) for a BSC(p).

    Minimized over q in [p, 0.5] on a grid of step <= 1e-4 followed by
    golden-section refinement.  Strictly positive below capacity; at or
    above capacity returns 0.0 and emits an OperatingAssumptionWarning.
    """
    if not 0.0 < p < 0.5:
        raise ValueError(f"p must be in (0, 0.5): {p}")
    if R <= 0.0:
        raise ValueError(f"rate must be positive: {R}")
    capacity = 1.0 - binary_entropy(p)
    if R >= capacity:
        warnings.warn("no positive exponent: rate at or above capacity",
                      OperatingAssumptionWarning, stacklevel=2)
        return 0.0

    def f(q: float) -> float:
        return kl_bern(q, p) + max(1.0 - binary_entropy(q) - R, 0.0)

    npts = max(int(math.ceil((0.5 - p) / ERROR_EXPONENT_GRID_STEP)) + 1, 2)
    qs = np.linspace(p, 0.5, npts)
    vals = _kl_arr(qs, p) + np.maximum(1.0 - _h_arr(qs) - R, 0.0)
    i = int(np.argmin(vals))
    lo = qs[max(i - 1, 0)]
    hi = qs[min(i + 1, npts - 1)]
    # golden-section refinement on the bracketing interval
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return min(f((a + b) / 2.0), float(vals[i]))


def frr_bound(n: int, p: float, tau: float, R: float) -> float:
    """Upper bound 2^{-n D(tau||p)} + 2^{-n E(R)} on the false rejection rate.

    The sub-exponential slack of the decoding-error term is dropped, and
    that term assumes a code family attaining the random-coding exponent;
    for a concrete code the harness measures the decoding-error fraction
    separately.  The result is clamped to 1.  Violated operating
    assumptions (0.5 > tau > p, R < 1 - h_b(tau)) are reported as warnings
    but the value is still computed.
    """
    if not (0.5 > tau > p):
        warnings.warn(f"operating assumption violated: need 0.5 > tau > p, "
                      f"got tau={tau}, p={p}", OperatingAssumptionWarning, stacklevel=2)
    if R >= 1.0 - binary_entropy(tau):
        warnings.warn(f"operating assumption violated: need R < 1 - h_b(tau), "
                      f"got R={R}, tau={tau}", OperatingAssumptionWarning, stacklevel=2)
    hoeffding = 2.0 ** (-n * kl_bern(tau, p))  # inf divergence maps to 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OperatingAssumptionWarning)
        exponent = error_exponent(R, p) if 0.0 < p < 0.5 else math.inf
    decoding = 2.0 ** (-n * exponent)
    return min(1.0, hoeffding + decoding)


def far_bound(n: int, m: int, tau: float) -> float:
    """Upper bound 2^{-(m - n h_b(tau))} on the false acceptance rate.

    Requires m/n > h_b(tau) and tau < 0.5 to be meaningful; violations are
    reported as warnings and the value is clamped to 1.
    """
    if tau >= 0.5 or m / n <= binary_entropy(tau):
        warnings.warn(f"operating assumption violated: need m/n > h_b(tau) and "
                      f"tau < 0.5, got m/n={m / n}, tau={tau}",
                      OperatingAssumptionWarning, stacklevel=2)
    return min(1.0, 2.0 ** (-(m - n * binary_entropy(tau))))


def operating_assumption_violations(n: int, m: int, tau: float, p: float) -> list[str]:
    """Check the operating regime m/n > h_b(tau) > h_b(p) with tau > p."""
    out = []
    if not (0.5 > tau > p):
        out.append(f"need 0.5 > tau > p, got tau={tau}, p={p}")
    if m / n <= binary_entropy(tau):
        out.append(f"need m/n > h_b(tau), got m/n={m / n:.4f}, h_b(tau)={binary_entropy(tau):.4f}")
    return out
