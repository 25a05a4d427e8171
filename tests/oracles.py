"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately dumb: span enumeration for ranks,
full 2^n scans for coset leaders and syndrome counting, and direct
joint-distribution summation for mutual information.  None of it shares
code paths with the library routines it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from biosketch.gf2 import BitMatrix
from biosketch.schemes import Scheme, SystemParams


def span_size_rank(M: BitMatrix) -> int:
    """Rank via the size of the row span: |span| = 2^rank."""
    span = {0}
    for r in M.row_bits:
        span |= {v ^ r for v in span}
    return int(math.log2(len(span)))


def syndrome_int(M: BitMatrix, x_bits: int) -> int:
    s = 0
    for i, row in enumerate(M.row_bits):
        if (row & x_bits).bit_count() & 1:
            s |= 1 << i
    return s


def exhaustive_min_weights(H: BitMatrix) -> list[int]:
    """Minimum coset weight for every syndrome, by scanning all 2^n vectors."""
    n, m = H.cols, H.rows
    best = [n + 1] * (1 << m)
    for x in range(1 << n):
        s = syndrome_int(H, x)
        w = x.bit_count()
        if w < best[s]:
            best[s] = w
    return best


def exhaustive_lex_first_leaders(H: BitMatrix) -> list[int]:
    """Per syndrome, the lexicographically first minimum-weight pattern.

    Scans all 2^n vectors and ranks each by (weight, sorted positions), so
    the result does not depend on any enumeration order.
    """
    n, m = H.cols, H.rows
    best: list[tuple | None] = [None] * (1 << m)
    for x in range(1 << n):
        s = syndrome_int(H, x)
        key = (x.bit_count(), tuple(j for j in range(n) if (x >> j) & 1))
        if best[s] is None or key < best[s][0]:
            best[s] = (key, x)
    return [entry[1] for entry in best]


def exhaustive_min_weights_chunked(H: BitMatrix, chunk_bits: int = 22) -> np.ndarray:
    """Same scan as exhaustive_min_weights, vectorized for larger n (n <= 64)."""
    n, m = H.cols, H.rows
    best = np.full(1 << m, n + 1, dtype=np.int64)
    row_masks = np.array(H.row_bits, dtype=np.uint64)
    chunk = 1 << chunk_bits
    for start in range(0, 1 << n, chunk):
        x = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint64)
        idx = np.zeros(x.shape, dtype=np.int64)
        for j, mask in enumerate(row_masks):
            idx |= (np.bitwise_count(x & mask) & np.uint64(1)).astype(np.int64) << j
        np.minimum.at(best, idx, np.bitwise_count(x).astype(np.int64))
    return best


def joint_syndrome_counts(H: BitMatrix, Ht: BitMatrix) -> np.ndarray:
    """Exact counts of (H x, Ht x) over all 2^n vectors x."""
    n = H.cols
    counts = np.zeros((1 << H.rows, 1 << Ht.rows), dtype=np.int64)
    for x in range(1 << n):
        counts[syndrome_int(H, x), syndrome_int(Ht, x)] += 1
    return counts


def mi_bits_from_joint(joint: np.ndarray) -> float:
    """I(X;Y) in bits from a joint probability table (axis 0 = X)."""
    joint = np.asarray(joint, dtype=float)
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    mask = joint > 0
    ratio = np.where(mask, joint / (px @ py), 1.0)
    return float(np.sum(np.where(mask, joint * np.log2(ratio), 0.0)))


def brute_force_enrollment_mi(
    H_list: list[BitMatrix], p_list: list[float], n: int,
    masked_H: list[BitMatrix] | None = None,
    masked_p: list[float] | None = None,
) -> float:
    """I(A0; H_1 A_1, ..., H_l A_l [, masked syndromes]) by full enumeration.

    Enumerates the ground truth, every per-system noise vector, and every
    masking key (masked syndromes are observed XORed with a fresh uniform
    key), accumulating the exact joint distribution.  Exponential in
    everything; keep the instances tiny.
    """
    masked_H = masked_H or []
    masked_p = masked_p or []
    mats = list(H_list) + list(masked_H)
    ps = list(p_list) + list(masked_p)
    dims = [1 << M.rows for M in mats]
    total = int(np.prod(dims)) if dims else 1
    joint = np.zeros((1 << n, total), dtype=float)
    noise_w = [weight_distribution(n, p) for p in ps]
    p_a0 = 2.0 ** -n
    n_plain = len(H_list)
    mask_dims = dims[n_plain:]
    mask_total = int(np.prod(mask_dims)) if mask_dims else 1
    for a0 in range(1 << n):
        for errs in itertools.product(range(1 << n), repeat=len(mats)):
            w = p_a0
            for i, e in enumerate(errs):
                w *= noise_w[i][e]
            if w == 0.0:
                continue
            synds = [syndrome_int(M, a0 ^ e) for M, e in zip(mats, errs)]
            if mask_dims:
                w_k = w / mask_total
                for ks in itertools.product(*(range(d) for d in mask_dims)):
                    col = 0
                    for i in range(n_plain):
                        col = col * dims[i] + synds[i]
                    for i, k in enumerate(ks):
                        col = col * mask_dims[i] + (synds[n_plain + i] ^ k)
                    joint[a0, col] += w_k
            else:
                col = 0
                for i, s in enumerate(synds):
                    col = col * dims[i] + s
                joint[a0, col] += w
    return mi_bits_from_joint(joint)


def weight_distribution(n: int, p: float) -> np.ndarray:
    """P[e] for e in 0..2^n-1 under i.i.d. Bernoulli(p) bits."""
    out = np.empty(1 << n)
    for e in range(1 << n):
        w = bin(e).count("1")
        out[e] = p ** w * (1 - p) ** (n - w)
    return out


def _all_bits(n: int) -> np.ndarray:
    x = np.arange(1 << n, dtype=np.int64)
    return ((x[:, None] >> np.arange(n)) & 1).astype(np.int64)


def _indices(bits: np.ndarray) -> np.ndarray:
    return bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))


def dict_single_system_joint(params: SystemParams, parts: tuple[str, ...]) -> np.ndarray:
    """Joint table of A and the observed parts, summed case by case in a dict.

    Loops over every (A, Z, K) case, adds its dyadic weight to the
    (a, observation) entry, then lays the entries out with the observed
    values as sorted columns.  The reference for the exact single-system
    leakage enumeration.
    """
    code = params.code
    n, m, k = code.n, code.m, code.k
    Ht = code.H.to_numpy().T.astype(np.int64)
    Gt = code.G.to_numpy().astype(np.int64)  # k x n; codeword = z @ G
    synd_idx = _indices(_all_bits(n) @ Ht % 2)
    key_len = params.key_len
    key_space = 1 << (key_len if params.keyed else 0)

    def observed(s_int, k_int):
        out = 0
        for part in parts:
            val = s_int if part == "S" else k_int
            width = (n if params.scheme is Scheme.FUZZY_COMMITMENT else m) if part == "S" \
                else key_len
            out = (out << width) | val
        return out

    joint: dict[tuple[int, int], float] = {}
    if params.scheme is Scheme.SECURE_SKETCH:
        weight = 2.0 ** -(n + (key_len if params.keyed else 0))
        for a in range(1 << n):
            for kk in range(key_space):
                s_int = int(synd_idx[a]) ^ kk
                key = (a, observed(s_int, kk))
                joint[key] = joint.get(key, 0.0) + weight
    else:
        cw_idx = _indices(_all_bits(k) @ Gt % 2) if k else np.zeros(1, dtype=np.int64)
        weight = 2.0 ** -(n + k + (key_len if params.keyed else 0))
        for a in range(1 << n):
            for z in range(1 << k):
                base = a ^ int(cw_idx[z])
                for kk in range(key_space):
                    key = (a, observed(base ^ kk, kk))
                    joint[key] = joint.get(key, 0.0) + weight
    obs_values = sorted({obs for _, obs in joint})
    obs_pos = {v: i for i, v in enumerate(obs_values)}
    table = np.zeros((1 << n, len(obs_values)))
    for (a, obs), w in sorted(joint.items()):
        table[a, obs_pos[obs]] += w
    return table
