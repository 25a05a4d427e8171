"""Multi-enrollment rank profiles, design measures, and code-tuple search.

For a tuple of parity-check matrices, the collective rank r_l of a
compromised subset is its noiseless privacy leakage, and the residual
rank t_{l,j} of a target system over that subset lower-bounds linkage
resistance (success rate of coset sampling is at least 2^-t).  The
pessimistic measures r_max / t_min summarize a design over all subsets
of a given size.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codes import LinearCode, OperatingAssumptionWarning, make_code_from_H
from .gf2 import BitMatrix, rank, reduce_into, sample_full_rank, stacked_rank, uniform_bitvec

RANK_PROFILE_GUARD = 10 ** 6


@dataclass(frozen=True)
class DesignReport:
    """Collective/residual rank profiles over all size-L subsets."""

    L: int
    r_profile: dict[tuple[int, ...], int]
    t_profile: dict[tuple[tuple[int, ...], int], int]
    r_max: int
    t_min: int


def rank_profiles(config: Sequence[LinearCode | BitMatrix], L: int) -> DesignReport:
    """Enumerate all size-L subsets and fill the rank profiles.

    ``config`` is a sequence of codes or parity-check matrices, one per system.
    Subsets are 1-based sorted index tuples in lexicographic order; t_min
    only ranges over targets outside the subset.  Each subset's rows are
    reduced once into an XOR basis (``gf2.reduce_into``); r_l is its size,
    and t_{l,j} is the rank target j's rows add to a copy of it (0 for a
    target inside the subset).
    """
    mats = [item.H if isinstance(item, LinearCode) else item for item in config]
    u = len(mats)
    if not 1 <= L <= u:
        raise ValueError(f"L must be in [1, {u}], got {L}")
    if len({M.cols for M in mats}) != 1:
        raise ValueError("column mismatch in stack")
    n_subsets = math.comb(u, L)
    if n_subsets * u > RANK_PROFILE_GUARD:
        raise ValueError(f"combinatorial guard exceeded: {n_subsets} subsets x {u} systems")
    r_profile: dict[tuple[int, ...], int] = {}
    t_profile: dict[tuple[tuple[int, ...], int], int] = {}
    t_min = None
    for subset in itertools.combinations(range(1, u + 1), L):
        basis: dict[int, int] = {}
        r_profile[subset] = sum(reduce_into(basis, mats[i - 1].row_bits) for i in subset)
        for j in range(1, u + 1):
            t = 0 if j in subset else reduce_into(dict(basis), mats[j - 1].row_bits)
            t_profile[(subset, j)] = t
            if j not in subset and (t_min is None or t < t_min):
                t_min = t
    return DesignReport(L=L, r_profile=r_profile, t_profile=t_profile,
                        r_max=max(r_profile.values()),
                        t_min=t_min if t_min is not None else 0)


def sar_lower_bound(t: int) -> float:
    """2^-t: coset-sampling success floor at residual rank t (noiseless)."""
    if t < 0:
        raise ValueError("residual rank cannot be negative")
    return 2.0 ** -t


OBJECTIVES = ("min_rmax", "max_tmin", "weighted")

DESIGN_PLATEAU = 200


def _objective_score(report: DesignReport, objective: str, lam: float) -> float:
    if objective == "min_rmax":
        return -float(report.r_max)
    if objective == "max_tmin":
        return float(report.t_min)
    return float(report.t_min) - lam * float(report.r_max)


def _initial_tuple(kind: str, u: int, m: int, n: int,
                   rng: np.random.Generator) -> list[BitMatrix]:
    if kind == "identical":
        H = sample_full_rank(m, n, rng)
        return [H] * u
    if kind == "independent" and u * m <= n:
        big = sample_full_rank(u * m, n, rng)
        return [BitMatrix(m, n, big.row_bits[i * m:(i + 1) * m]) for i in range(u)]
    return [sample_full_rank(m, n, rng) for _ in range(u)]


def design_search(u: int, m: int, n: int, L: int, objective: str,
                  rng: np.random.Generator, restarts: int = 4,
                  lam: float | None = None) -> tuple[tuple[LinearCode, ...], DesignReport]:
    """Randomized local search over full-rank parity-check tuples.

    Each restart hill-climbs from a starting tuple (the first two restarts
    seed the known endpoint designs: identical matrices and, when u m <= n,
    jointly independent ones) by replacing one uniformly chosen row of one
    matrix with a fresh random row, accepting strict objective
    improvements, and stopping after 200 proposals without progress.  The
    best tuple across restarts wins; ties resolve to the earliest restart.
    """
    if m >= n:
        raise ValueError("need m < n")
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if lam is None:
        lam = 1.0 / m
    if objective == "max_tmin" and u * m > n:
        warnings.warn(f"full independence infeasible: u*m = {u * m} > n = {n}; "
                      f"t_min = m is unreachable", OperatingAssumptionWarning, stacklevel=2)
    seeds = rng.integers(0, 2 ** 63 - 1, size=max(restarts, 1))
    init_kinds = ["identical", "independent"] + ["random"] * max(restarts - 2, 0)
    best: tuple[float, int, list[BitMatrix], DesignReport] | None = None
    t_max_possible = float(m)
    for r_idx in range(max(restarts, 1)):
        sub_rng = np.random.default_rng(np.random.SeedSequence(int(seeds[r_idx])))
        mats = _initial_tuple(init_kinds[r_idx], u, m, n, sub_rng)
        report = rank_profiles(mats, L)
        score = _objective_score(report, objective, lam)
        stale = 0
        while stale < DESIGN_PLATEAU:
            if objective == "max_tmin" and score >= t_max_possible:
                break  # global optimum reached
            if objective == "min_rmax" and score >= -float(m):
                break
            mi = int(sub_rng.integers(0, u))
            ri = int(sub_rng.integers(0, m))
            new_row = uniform_bitvec(n, sub_rng).bits
            rows = list(mats[mi].row_bits)
            rows[ri] = new_row
            candidate = BitMatrix(m, n, tuple(rows))
            if rank(candidate) != m:
                stale += 1
                continue
            trial = list(mats)
            trial[mi] = candidate
            trial_report = rank_profiles(trial, L)
            trial_score = _objective_score(trial_report, objective, lam)
            if trial_score > score:
                mats, report, score = trial, trial_report, trial_score
                stale = 0
            else:
                stale += 1
        if best is None or (score, -r_idx) > (best[0], -best[1]):
            best = (score, r_idx, mats, report)
    assert best is not None
    codes = tuple(make_code_from_H(H) for H in best[2])
    return codes, best[3]


PRESET_NAMES = ("example1", "example2", "example3", "example4")


def linkage_preset(name: str, m: int, n: int,
                   rng: np.random.Generator) -> tuple[BitMatrix, BitMatrix, BitMatrix]:
    """Three-system parity-check geometries used by the linkage scenarios.

    example1: H3 = H1 xor H2 (fully rank-dependent target).
    example2: identical matrices.
    example3: jointly independent rows (needs 3m <= n).
    example4: shared m/2-row top block, independent bottom blocks
              (needs m even and 2m <= n); residual rank m/2.
    """
    if name == "example1":
        if 2 * m > n:
            raise ValueError("example1 needs 2m <= n")
        while True:
            H1 = sample_full_rank(m, n, rng)
            H2 = sample_full_rank(m, n, rng)
            H3 = BitMatrix(m, n, tuple(a ^ b for a, b in zip(H1.row_bits, H2.row_bits)))
            if rank(H3) == m and stacked_rank([H1, H2]) == 2 * m:
                return H1, H2, H3
    if name == "example2":
        H = sample_full_rank(m, n, rng)
        return H, H, H
    if name == "example3":
        if 3 * m > n:
            raise ValueError("example3 needs 3m <= n for joint independence")
        big = sample_full_rank(3 * m, n, rng)
        return tuple(BitMatrix(m, n, big.row_bits[i * m:(i + 1) * m])  # type: ignore[return-value]
                     for i in range(3))
    if name == "example4":
        if m % 2:
            raise ValueError("example4 needs even m")
        if 2 * m > n:
            raise ValueError("example4 needs 2m <= n")
        half = m // 2
        big = sample_full_rank(2 * m, n, rng)
        blocks = [BitMatrix(half, n, big.row_bits[i * half:(i + 1) * half]) for i in range(4)]
        a, b, c, d = blocks
        return (BitMatrix.stack([a, b]), BitMatrix.stack([a, c]), BitMatrix.stack([a, d]))
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
