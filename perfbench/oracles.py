"""Exact reference values for the benchmark's output checks.

Everything here is computed from 0/1 parity-check arrays with numpy and
plain integers; none of it calls into the biosketch package.  Bit
conventions: bit j of a length-n vector is column j, bit i of a syndrome
is row i of H.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

WILSON_Z = 4.0  # wide on purpose: a false alarm needs a ~4-sigma excursion


def wilson_interval(hits: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def threshold(tau: float, n: int) -> int:
    """Acceptance threshold floor(tau n), guarded against float artifacts."""
    return math.floor(tau * n + 1e-9)


def composite_crossover(p1: float, p2: float) -> float:
    """Crossover of two cascaded binary symmetric channels."""
    return p1 * (1 - p2) + p2 * (1 - p1)


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def to_ints(bits: np.ndarray) -> list[int]:
    """Rows of a 0/1 array as integers, column j at bit j."""
    return [int("".join("1" if b else "0" for b in row[::-1]), 2) for row in bits]


def rank(bits: np.ndarray) -> int:
    """GF(2) rank by elimination on the highest set bit."""
    pivots: dict[int, int] = {}
    for r in to_ints(bits):
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)


def nullspace(A: np.ndarray) -> list[np.ndarray]:
    """A basis of {x : A x = 0} from the reduced row echelon form of A."""
    A = np.array(A, dtype=np.uint8) & 1
    rows, n = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == rows:
            break
        hit = np.nonzero(A[r:, c])[0]
        if hit.size == 0:
            continue
        p = r + int(hit[0])
        A[[r, p]] = A[[p, r]]
        others = np.nonzero(A[:, c])[0]
        A[others[others != r]] ^= A[r]
        pivots.append(c)
        r += 1
    basis = []
    for free in sorted(set(range(n)) - set(pivots)):
        x = np.zeros(n, dtype=np.uint8)
        x[free] = 1
        for i, c in enumerate(pivots):
            x[c] = A[i, free]
        basis.append(x)
    return basis


def syndrome_index(H: np.ndarray, x: np.ndarray) -> int:
    s = (H.astype(np.int64) @ x.astype(np.int64)) & 1
    return int(s @ (1 << np.arange(H.shape[0], dtype=np.int64)))


def min_weights(H: np.ndarray) -> np.ndarray:
    """Minimum coset-leader weight of every syndrome, by breadth-first fill.

    The weight-w syndromes are the weight-(w-1) frontier XOR a column of H
    that no lighter pattern reached.
    """
    m = H.shape[0]
    cols = np.unique((H.astype(np.int64) << np.arange(m, dtype=np.int64)[:, None]).sum(axis=0))
    weights = np.full(1 << m, -1, dtype=np.int16)
    weights[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    w = 0
    while frontier.size:
        w += 1
        for col in cols:  # one column at a time keeps memory at O(2^m)
            cand = frontier ^ col
            weights[cand[weights[cand] < 0]] = w
        frontier = np.flatnonzero(weights == w)
    if (weights < 0).any():
        raise ValueError("H is not full row rank")
    return weights


def syndrome_distribution(H: np.ndarray, p: float) -> np.ndarray:
    """P[H E = s] for E ~ BSC(p)^n, for every syndrome s.

    MacWilliams identity: the characteristic function of H E at y is
    (1-2p)^wt(H^T y); a Walsh-Hadamard transform inverts it in O(m 2^m).
    """
    m, n = H.shape
    if n > 64:
        raise ValueError("rows must fit in 64 bits")
    span = np.zeros(1 << m, dtype=np.uint64)  # span[y] = H^T y as an n-bit word
    for i, row in enumerate(to_ints(H)):
        span[1 << i:2 << i] = span[:1 << i] ^ np.uint64(row)
    f = (1.0 - 2.0 * p) ** np.bitwise_count(span).astype(np.float64)
    for i in range(m):
        f = f.reshape(-1, 2, 1 << i)
        f = np.stack((f[:, 0] + f[:, 1], f[:, 0] - f[:, 1]), axis=1)
    return f.reshape(-1) / (1 << m)


def exact_frr(H: np.ndarray, p: float, thr: int) -> float:
    """Legitimate rejection rate: mass of syndromes decoded above thr."""
    return float(syndrome_distribution(H, p)[min_weights(H) > thr].sum())


def exact_far(H: np.ndarray, thr: int) -> float:
    """Uninformed-attack acceptance rate: the decoding syndrome is uniform."""
    return float(np.mean(min_weights(H) <= thr))


def far_bound(n: int, m: int, tau: float) -> float:
    return min(1.0, 2.0 ** (-(m - n * binary_entropy(tau))))


def coset_sampling_rate(known: list[np.ndarray], target: np.ndarray,
                        thr: int) -> tuple[float, int]:
    """Exact success rate of coset sampling and the residual rank t.

    With noiseless enrollment the attacker's error against the target is
    uniform on ker([known]), so the target's decoding syndrome is uniform
    on the t-dimensional image H_target ker([known]).
    """
    images = [syndrome_index(target, x) for x in nullspace(np.vstack(known))]
    span = {0}
    for v in images:
        if v not in span:
            span |= {s ^ v for s in span}
    t = int(math.log2(len(span)))
    weights = min_weights(target)
    return sum(int(weights[s] <= thr) for s in span) / len(span), t


def rank_profiles(mats: list[np.ndarray], L: int) -> dict:
    """Collective ranks r of every size-L subset and residual ranks t."""
    u = len(mats)
    r_profile, t_profile = {}, {}
    for subset in itertools.combinations(range(1, u + 1), L):
        stack = [mats[i - 1] for i in subset]
        r = rank(np.vstack(stack))
        r_profile[",".join(map(str, subset))] = r
        for j in range(1, u + 1):
            key = ",".join(map(str, subset)) + f"|{j}"
            t_profile[key] = rank(np.vstack(stack + [mats[j - 1]])) - r
    outside = [t for k, t in t_profile.items()
               if k.split("|")[1] not in k.split("|")[0].split(",")]
    return {"r_profile": r_profile, "t_profile": t_profile,
            "r_max": max(r_profile.values()), "t_min": min(outside, default=0)}
