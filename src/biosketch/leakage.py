"""Exact and rank-based privacy-leakage computation.

Leakage is mutual information in bits (log base 2 throughout) between
exposed data and a biometric.  Small instances are computed by exact
enumeration of the joint distribution; otherwise only the collective
rank bound is reported, never an extrapolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .gf2 import BitMatrix, Gf2Solver, stacked_rank
from .schemes import Scheme, SystemParams

EXACT_MAX_N = 10
# 2^20 enumerated cases (FC keyed n=8, m=4, all three queries) take ~0.9 s and
# ~0.35 GB peak RSS on a 2-core x86 VM, most of it the dense S,K joint table
# (2^n rows, up to 2^(n + key length) columns); at 2^26 (FC keyed n=10, m=4)
# that table alone would hold 2^30 entries, 8 GB
EXACT_MAX_ENUM_BITS = 20
EXACT_MAX_SYSTEMS = 3
EXACT_MAX_TABLE_BITS = 26
UNIFORMITY_MAX_N = 12

LEAKAGE_QUERIES = ("S", "K", "S,K")


@dataclass(frozen=True)
class LeakageReport:
    bits_leaked: float | None  # None when only a bound can be reported
    method: str  # "exact-enumeration" | "rank-formula"
    bound: float | None = None
    params: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"method": self.method, "bits_leaked": self.bits_leaked,
                           "bound": self.bound, "params": self.params}, sort_keys=True)


def _entropy_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).ravel()
    nz = p > 0.0
    return float(-np.sum(p[nz] * np.log2(p[nz])))


def _mi_from_joint(joint: np.ndarray) -> float:
    """I(row variable; column variable) of a joint probability table."""
    joint = np.asarray(joint, dtype=float)
    hx = _entropy_bits(joint.sum(axis=1))
    hy = _entropy_bits(joint.sum(axis=0))
    hxy = _entropy_bits(joint)
    return max(hx + hy - hxy, 0.0)


def _normalize_query(query) -> tuple[str, ...]:
    if isinstance(query, str):
        parts = tuple(s.strip() for s in query.split(","))
    else:
        parts = tuple(query)
    if not parts or any(p not in ("S", "K") for p in parts) or len(set(parts)) != len(parts):
        raise ValueError(f"query must name S, K, or both, got {query!r}")
    return parts


def single_system_leakage(params: SystemParams, query="S") -> LeakageReport:
    """Closed-form leakage of the enrollment biometric from S, K, or both.

    Two-factor systems leak nothing from either factor alone and exactly m
    bits from the pair; keyless systems leak m bits from S alone.
    """
    parts = _normalize_query(query)
    if not params.keyed:
        bits = float(params.m) if "S" in parts else 0.0
    else:
        bits = float(params.m) if set(parts) == {"S", "K"} else 0.0
    return LeakageReport(bits_leaked=bits, method="rank-formula",
                         params={"scheme": params.scheme.value, "keyed": params.keyed,
                                 "n": params.n, "m": params.m, "query": ",".join(parts)})


def exact_single_system_fits(params: SystemParams) -> bool:
    """The exact-enumeration guard: n <= 10 and at most 2^20 (A, Z, K) cases.

    The enumerated bits are n for A, k for the FC codeword selector Z and
    the key length when keyed: n + k + n for FC keyed, n + m for SS keyed.
    """
    bits = params.n + (params.code.k if params.scheme is Scheme.FUZZY_COMMITMENT else 0)
    if params.keyed:
        bits += params.key_len
    return params.n <= EXACT_MAX_N and bits <= EXACT_MAX_ENUM_BITS


def exact_single_system_leakage(params: SystemParams, query="S") -> LeakageReport:
    """The same quantity as single_system_leakage, by exact enumeration.

    Enumerates (A, K[, Z]) for the scheme at hand; refuses instances that
    fail exact_single_system_fits.
    """
    parts = _normalize_query(query)
    if not exact_single_system_fits(params):
        raise ValueError("instance too large for exact oracle")
    return LeakageReport(bits_leaked=_mi_from_joint(_single_system_joint(params, parts)),
                         method="exact-enumeration",
                         params={"scheme": params.scheme.value, "keyed": params.keyed,
                                 "n": params.n, "m": params.m, "query": ",".join(parts)})


def _single_system_joint(params: SystemParams, parts: tuple[str, ...]) -> np.ndarray:
    """Joint table of A (rows) and the observed parts (columns, sorted values).

    Every cell of the (A, Z, K) grid (Z only for FC, K only when keyed) has
    probability 2^-(n + k + key length), so entry (a, observation) is a
    count, taken with one integer bincount over the cell index
    a * |observations| + column, times that weight.
    """
    code = params.code
    n, k = code.n, code.k
    fc = params.scheme is Scheme.FUZZY_COMMITMENT
    width = params.key_len  # S and K have the same width in both schemes
    key_bits = width if params.keyed else 0
    a = np.arange(1 << n, dtype=np.int64)
    kk = np.arange(1 << key_bits, dtype=np.int64)
    if fc:
        Gt = code.G.to_numpy().astype(np.int64)  # k x n; codeword = z @ G
        codewords = _indices(_all_bits(k) @ Gt % 2) if k else np.zeros(1, dtype=np.int64)
        s = a[:, None, None] ^ codewords[None, :, None] ^ kk[None, None, :]
    else:
        synd = _indices(_all_bits(n) @ code.H.to_numpy().T.astype(np.int64) % 2)
        s = synd[:, None, None] ^ kk[None, None, :]
    obs = np.zeros(1, dtype=np.int64)
    for part in parts:
        obs = (obs << width) | (s if part == "S" else kk)
    obs = np.broadcast_to(obs, s.shape).reshape(1 << n, -1)
    obs_values, col = np.unique(obs, return_inverse=True)
    cells = col.reshape(obs.shape) + a[:, None] * obs_values.size
    counts = np.bincount(cells.ravel(), minlength=(1 << n) * obs_values.size)
    weight = 2.0 ** -(n + (k if fc else 0) + key_bits)
    return counts.reshape(1 << n, obs_values.size) * weight


def _all_bits(n: int) -> np.ndarray:
    """All 2^n bit patterns as a (2^n, n) 0/1 array, LSB first."""
    x = np.arange(1 << n, dtype=np.int64)
    return ((x[:, None] >> np.arange(n)) & 1).astype(np.int64)


def _indices(bits: np.ndarray) -> np.ndarray:
    return bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))


def _coset_weight_table(H: BitMatrix, p: float, n: int) -> np.ndarray:
    """q[d] = P[H E = d] for E ~ i.i.d. Bernoulli(p)."""
    bits = _all_bits(n)
    idx = _indices(bits @ H.to_numpy().T.astype(np.int64) % 2)
    w = bits.sum(axis=1)
    probs = np.power(p, w) * np.power(1.0 - p, n - w)
    return np.bincount(idx, weights=probs, minlength=1 << H.rows)


def exact_mutual_info(H_list: Sequence[BitMatrix], p_list: Sequence[float], n: int,
                      masked_extra_dims: Sequence[int] = ()) -> LeakageReport:
    """Exact I(A0; H_1 A_1, ..., H_l A_l) under BSC enrollment channels.

    Sums the joint distribution directly: per-system coset probability
    tables conditioned on the ground truth, accumulated over all 2^n
    ground-truth values in index order.  ``masked_extra_dims`` appends
    observations that are one-time-padded by fresh uniform keys (the
    partially compromised systems); padding makes them exactly uniform and
    independent, which is how they enter the joint.

    Guarded to n <= 10, at most 3 systems, and a 2^26 joint table.
    """
    H_list = list(H_list)
    p_list = list(p_list)
    if len(H_list) != len(p_list):
        raise ValueError("need one noise parameter per matrix")
    if any(not 0.0 <= p < 0.5 for p in p_list):
        raise ValueError("enrollment noise must be in [0, 0.5)")
    l = len(H_list)
    params = {"l": l, "n": n, "p": p_list, "masked_dims": list(masked_extra_dims)}
    if l == 0:
        return LeakageReport(0.0, "exact-enumeration", bound=0.0, params=params)
    if any(M.cols != n for M in H_list):
        raise ValueError("matrix column count must equal n")
    m_total = sum(M.rows for M in H_list)
    if n > EXACT_MAX_N or l > EXACT_MAX_SYSTEMS \
            or n + m_total + sum(masked_extra_dims) > EXACT_MAX_TABLE_BITS:
        raise ValueError("instance too large for exact oracle")
    bound = float(stacked_rank(H_list))
    qs = [_coset_weight_table(M, p, n) for M, p in zip(H_list, p_list)]
    h_given_a0 = sum(_entropy_bits(q) for q in qs)
    bits = _all_bits(n)
    synd = [_indices(bits @ M.to_numpy().T.astype(np.int64) % 2) for M in H_list]
    sizes = [1 << M.rows for M in H_list]
    joint = np.zeros(sizes, dtype=float)
    arangexor = [np.arange(s, dtype=np.int64) for s in sizes]
    p_a0 = 2.0 ** -n
    for a0 in range(1 << n):
        shifted = [q[ax ^ int(s[a0])] for q, ax, s in zip(qs, arangexor, synd)]
        prod = shifted[0]
        for extra in shifted[1:]:
            prod = np.multiply.outer(prod, extra)
        joint += p_a0 * prod
    h_joint = _entropy_bits(joint)
    # one-time-padded extras are exactly uniform and independent: they add
    # d bits to both H(V) and H(V | A0), cancelling in the difference
    for d in masked_extra_dims:
        h_joint += d
        h_given_a0 += d
    return LeakageReport(bits_leaked=max(h_joint - h_given_a0, 0.0),
                         method="exact-enumeration", bound=bound, params=params)


def leakage_rank_bound(H_list: Sequence[BitMatrix]) -> int:
    """Collective rank of the fully compromised parity checks.

    Upper-bounds the ground-truth leakage; exact when enrollment is
    noiseless.
    """
    if not H_list:
        return 0
    return stacked_rank(list(H_list))


@dataclass(frozen=True)
class UniformityReport:
    n: int
    m: int
    m_tilde: int
    cell_count: int
    conditional: float


def check_syndrome_uniformity(H: BitMatrix, H_tilde: BitMatrix) -> UniformityReport:
    """Exhaustively verify joint syndrome uniformity for independent rows.

    Enumerates all 2^n vectors and checks every (s, s~) cell holds exactly
    2^{n-m-m~} of them, i.e. every conditional equals 2^-m.  Raises when
    the rows of H and H~ are linearly dependent, reporting an offending
    combination.
    """
    if H.cols != H_tilde.cols:
        raise ValueError("column counts differ")
    n = H.cols
    if n > UNIFORMITY_MAX_N:
        raise ValueError(f"n too large for exhaustive check (max {UNIFORMITY_MAX_N})")
    m, mt = H.rows, H_tilde.rows
    stacked = BitMatrix.stack([H, H_tilde])
    if stacked_rank([stacked]) != m + mt:
        kern = Gf2Solver(stacked.transpose()).kernel_matrix()
        assert kern is not None
        combo = [i for i in range(m + mt) if kern.row(0)[i]]
        raise ValueError("hypothesis violated: rows are linearly dependent; "
                         f"offending combination of stacked rows {combo}")
    if m + mt > n:
        raise ValueError("hypothesis violated: more rows than dimensions")
    bits = _all_bits(n)
    idx_h = _indices(bits @ H.to_numpy().T.astype(np.int64) % 2)
    idx_t = _indices(bits @ H_tilde.to_numpy().T.astype(np.int64) % 2)
    counts = np.zeros((1 << m, 1 << mt), dtype=np.int64)
    np.add.at(counts, (idx_h, idx_t), 1)
    expected = 1 << (n - m - mt)
    if not (counts == expected).all():
        bad = np.argwhere(counts != expected)[0]
        raise AssertionError(f"uniformity violated at cell {tuple(bad)}")
    return UniformityReport(n=n, m=m, m_tilde=mt, cell_count=expected,
                            conditional=2.0 ** -m)
