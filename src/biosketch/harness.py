"""Seeded Monte Carlo estimation of FRR/FAR/SAR and experiment plumbing.

Trials run in fixed-size batches; each batch draws from an independent
substream keyed by (master seed, role, batch index), so serial and
batch-parallel executions are bit-identical and aggregation is a plain
order-independent count.  Batch kernels vectorize the exact scheme
algebra over numpy bit arrays; the per-record API in `schemes` and
`adversary` is the reference implementation they are tested against.

Neither the draws nor the attacks depend on tau.  An estimator runs its
batches once, counts the decoded weights into one histogram and returns
one estimate per tau of the config; `_rates_per_tau` is where the
acceptance threshold is applied.

`run_config` turns a validated config into result rows: it builds the
codes of its systems (`ExperimentConfig.build_codes`) and their coset
tables once, makes one estimator call for all tau rows, and gathers
every operating-assumption warning of the run through
`assumption_warnings`, the one capture path.  `rows_to_csv` and
`summary_json` are the only writers of a run's CSV and summary bytes.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .adversary import ATTACK_TAGS
from .biomodel import composite_crossover
from .codes import (
    CosetLeaderTable,
    LinearCode,
    OperatingAssumptionWarning,
    build_coset_table,
    far_bound,
    frr_bound,
    hamming_code,
    make_code_from_H,
    random_code,
)
from .gf2 import BitMatrix, Gf2Solver, load_matrix, residual_rank
from .multisys import PRESET_NAMES, linkage_preset, sar_lower_bound
from .schemes import Scheme, accept_threshold

BATCH_TRIALS = 1 << 15
WILSON_Z = 1.959963984540054  # 95% two-sided

_ROLE_FRR = 1
_ROLE_FAR = 2
_ROLE_SAR = 3
_ROLE_EQUIV = 4


def wilson_interval(hits: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """95% Wilson score interval; good coverage for small p."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    # clamp so the interval always sandwiches the point estimate
    return min(max(center - half, 0.0), p), max(min(center + half, 1.0), p)


@dataclass(frozen=True)
class RateEstimate:
    trials: int
    hits: int
    p_hat: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, hits: int, trials: int) -> RateEstimate:
        lo, hi = wilson_interval(hits, trials)
        return cls(trials=trials, hits=hits, p_hat=hits / trials, ci_low=lo, ci_high=hi)

    def overlaps(self, other: RateEstimate) -> bool:
        return self.ci_low <= other.ci_high and other.ci_low <= self.ci_high


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


@dataclass(frozen=True)
class CodeSpec:
    """How to obtain the parity-check matrices for an experiment.

    kinds: "hamming" (r), "random" (n, m, seed), "file" (path, matrix text
    format), "preset" (name example1..example4, m, optional n = 3m, seed).
    Presets build the three-system linkage geometries.
    """

    kind: str
    r: int | None = None
    n: int | None = None
    m: int | None = None
    seed: int | None = None
    path: str | None = None
    name: str | None = None

    def __post_init__(self):
        for key in ("r", "n", "m", "seed"):
            val = getattr(self, key)
            if val is not None and not _is_int(val):
                raise ValueError(f"code {key} must be an integer, got {val!r}")
        for key, least in (("r", 2), ("n", 1), ("m", 1)):
            val = getattr(self, key)
            if val is not None and val < least:
                raise ValueError(f"code {key} must be >= {least}, got {val}")
        if self.path is not None and not isinstance(self.path, str):
            raise ValueError(f"code path must be a string, got {self.path!r}")
        if self.kind == "hamming":
            if self.r is None:
                raise ValueError("hamming code needs r")
        elif self.kind == "random":
            if self.n is None or self.m is None:
                raise ValueError("random code needs n and m")
        elif self.kind == "file":
            if not self.path:
                raise ValueError("file code needs path")
        elif self.kind == "preset":
            if self.name not in PRESET_NAMES:
                raise ValueError(f"unknown preset {self.name!r}")
            if self.m is None:
                raise ValueError("preset needs m")
        else:
            raise ValueError(f"unknown code kind {self.kind!r}")

    def build(self) -> tuple[LinearCode, ...]:
        if self.kind == "hamming":
            return (hamming_code(self.r),)
        if self.kind == "file":
            return (make_code_from_H(load_matrix(self.path)),)
        rng = np.random.default_rng(np.random.SeedSequence((0xC0DE, self.seed or 0)))
        if self.kind == "random":
            return (random_code(self.n, self.m, rng),)
        n = self.n if self.n is not None else 3 * self.m
        mats = linkage_preset(self.name, self.m, n, rng)
        return tuple(make_code_from_H(H) for H in mats)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for key in ("r", "n", "m", "seed", "path", "name"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out

    @classmethod
    def from_dict(cls, data: dict) -> CodeSpec:
        allowed = {"kind", "r", "n", "m", "seed", "path", "name"}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown code fields: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: system parameters, scenario, trials, and master seed.

    ``tau`` may be a tuple to request a sweep (one output row per value).
    Systems are numbered 1..u with u = len(enroll_noise); non-preset code
    specs are replicated across systems.  ``exposed_bio`` uses 0 for the
    ground-truth biometric.  Construction validates every field, so a bad
    config fails here with a ValueError rather than inside a run.
    """

    experiment_id: str
    metric: str
    scheme: str
    keyed: bool
    tau: float | tuple[float, ...]
    code: CodeSpec
    trials: int = 100_000
    seed: int = 0
    enroll_noise: tuple[float, ...] = (0.0,)
    probe_noise: tuple[float, ...] = (0.0,)
    attack: str | None = None
    target: int = 1
    exposed_S: tuple[int, ...] = ()
    exposed_K: tuple[int, ...] = ()
    exposed_bio: tuple[int, ...] = ()

    def __post_init__(self):
        if not isinstance(self.experiment_id, str):
            raise ValueError(f"experiment_id must be a string, got {self.experiment_id!r}")
        if self.metric not in ("frr", "far", "sar"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.scheme not in ("FC", "SS"):
            raise ValueError(f"scheme must be FC or SS, got {self.scheme!r}")
        if not isinstance(self.keyed, bool):
            raise ValueError(f"keyed must be true or false, got {self.keyed!r}")
        if self.metric == "sar" and self.attack not in ATTACK_TAGS:
            raise ValueError(f"sar metric needs an attack tag from {ATTACK_TAGS}")
        for key in ("trials", "seed", "target"):
            if not _is_int(getattr(self, key)):
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        for tau in self.tau_values():
            if not _is_real(tau) or not 0.0 < tau < 0.5:
                raise ValueError(f"tau must be in (0, 0.5), got {tau!r}")
        if len(self.enroll_noise) != len(self.probe_noise):
            raise ValueError("noise lists must have equal length")
        for key in ("enroll_noise", "probe_noise"):
            for p in getattr(self, key):
                if not _is_real(p) or not 0.0 <= p < 0.5:
                    raise ValueError(f"{key} must lie in [0, 0.5), got {p!r}")
        if not 1 <= self.target <= self.u:
            raise ValueError("target system out of range")
        for key, low in (("exposed_S", 1), ("exposed_K", 1), ("exposed_bio", 0)):
            for i in getattr(self, key):
                if not _is_int(i) or not low <= i <= self.u:
                    raise ValueError(f"{key} ids must be in {low}..{self.u}, got {i!r}")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")

    @property
    def u(self) -> int:
        return len(self.enroll_noise)

    def tau_values(self) -> tuple[float, ...]:
        return self.tau if isinstance(self.tau, tuple) else (self.tau,)

    def scalar_tau(self) -> float:
        if isinstance(self.tau, tuple):
            raise ValueError("tau sweep given where a single value is required")
        return self.tau

    def exposed_keys(self) -> frozenset[int]:
        """Systems whose key the attacker holds; a keyless system's all-zero key is public."""
        public = frozenset() if self.keyed else frozenset(range(1, self.u + 1))
        return frozenset(self.exposed_K) | public

    def fully_compromised(self) -> tuple[int, ...]:
        """Systems with stored data and key both exposed, in ascending order."""
        return tuple(sorted(set(self.exposed_S) & self.exposed_keys()))

    def build_codes(self) -> tuple[LinearCode, ...]:
        """The code of each system 1..u; a single-code spec serves every system."""
        codes = self.code.build()
        if len(codes) == 1 and self.u > 1:
            codes = codes * self.u
        if len(codes) != self.u:
            raise ValueError(f"code spec yields {len(codes)} systems, config declares {self.u}")
        if len({c.n for c in codes}) != 1:
            raise ValueError("all systems must share the block length")
        return codes

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        d["code"] = self.code.to_dict()
        for key in ("tau", "enroll_noise", "probe_noise", "exposed_S", "exposed_K",
                    "exposed_bio"):
            if isinstance(d[key], tuple):
                d[key] = list(d[key])
        return json.dumps(d, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> ExperimentConfig:
        """Parse a config; every malformed input raises ValueError."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        if not isinstance(data.get("code"), dict):
            raise ValueError("config needs a code object")
        data["code"] = CodeSpec.from_dict(data["code"])
        for key in ("enroll_noise", "probe_noise", "exposed_S", "exposed_K", "exposed_bio"):
            if key in data:
                if not isinstance(data[key], list):
                    raise ValueError(f"{key} must be a list")
                data[key] = tuple(data[key])
        if isinstance(data.get("tau"), list):
            data["tau"] = tuple(data["tau"])
        try:
            return cls(**data)
        except TypeError as exc:  # missing required fields
            raise ValueError(str(exc)) from exc


def _batch_rng(seed: int, role: int, batch_idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, role, batch_idx)))


def _batch_sizes(trials: int) -> list[int]:
    out = [BATCH_TRIALS] * (trials // BATCH_TRIALS)
    if trials % BATCH_TRIALS:
        out.append(trials % BATCH_TRIALS)
    return out


def _uniform_bits(rng: np.random.Generator, t: int, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=(t, n), dtype=np.uint8)


def _bern_bits(rng: np.random.Generator, t: int, n: int, p: float) -> np.ndarray:
    if p == 0.0:
        return np.zeros((t, n), dtype=np.uint8)
    return (rng.random((t, n)) < p).astype(np.uint8)


class _BatchSystem:
    """Per-system precomputation for the vectorized kernels.

    Independent of tau: it yields decoded weights, and the caller applies
    the acceptance threshold, so one system serves every row of a tau sweep.
    """

    def __init__(self, code: LinearCode, scheme: Scheme, keyed: bool,
                 table: CosetLeaderTable):
        self.code = code
        self.n, self.m, self.k = code.n, code.m, code.k
        self.scheme = scheme
        self.keyed = keyed
        self.Ht = code.H.to_numpy().T.astype(np.float32)
        self.G = code.G.to_numpy().astype(np.float32)
        self.pows_m = (1 << np.arange(self.m)).astype(np.int64)
        self.weights = table.weights
        self.packed_leaders = table.packed_leaders
        # particular-solution matrix for H x = s, used by keyless SS stored attacks
        self.solve_H = Gf2Solver(code.H).particular_matrix().to_numpy().astype(np.float32)

    def synd_bits(self, x: np.ndarray) -> np.ndarray:
        return (x.astype(np.float32) @ self.Ht).astype(np.int64).astype(np.uint8) & 1

    def codeword(self, z: np.ndarray) -> np.ndarray:
        return (z.astype(np.float32) @ self.G).astype(np.int64).astype(np.uint8) & 1

    def sample_key(self, rng: np.random.Generator, t: int) -> np.ndarray:
        width = self.n if self.scheme is Scheme.FUZZY_COMMITMENT else self.m
        if not self.keyed:
            return np.zeros((t, width), dtype=np.uint8)
        return _uniform_bits(rng, t, width)

    def enroll_batch(self, A: np.ndarray, rng: np.random.Generator) -> dict:
        t = A.shape[0]
        K = self.sample_key(rng, t)
        if self.scheme is Scheme.FUZZY_COMMITMENT:
            Z = _uniform_bits(rng, t, self.k)
            S = A ^ self.codeword(Z) ^ K
        else:
            S = self.synd_bits(A) ^ K
        return {"A": A, "S": S, "K": K}

    def decode_weights(self, D: np.ndarray, L: np.ndarray, S: np.ndarray) -> np.ndarray:
        if self.scheme is Scheme.FUZZY_COMMITMENT:
            q = self.synd_bits(D ^ L ^ S)
        else:
            q = self.synd_bits(D) ^ L ^ S
        idx = q.astype(np.int64) @ self.pows_m
        return self.weights[idx]


def _mul_bits(x: np.ndarray, M_rows_f32: np.ndarray) -> np.ndarray:
    """x (t, a) @ M^T for a binary matrix given as rows (b, a); result (t, b)."""
    return (x.astype(np.float32) @ M_rows_f32.T).astype(np.int64).astype(np.uint8) & 1


class RunPlan:
    """The codes, coset tables and solver maps of one experiment.

    Built once per run and shared by the bound and the estimator; only the
    acceptance threshold floor(tau n) depends on tau.
    Systems with the same parity check share one coset table, also across
    plans that are given the same ``tables`` dict.  Callers that run the
    estimators directly pass one plan to every call on the same codes.
    """

    def __init__(self, config: ExperimentConfig,
                 tables: dict[BitMatrix, CosetLeaderTable] | None = None):
        codes = config.build_codes()
        tables = {} if tables is None else tables
        cache: dict[BitMatrix, _BatchSystem] = {}
        for code in codes:
            if code.H not in cache:
                if code.H not in tables:
                    tables[code.H] = build_coset_table(code)
                cache[code.H] = _BatchSystem(code, Scheme(config.scheme), config.keyed,
                                             tables[code.H])
        self.systems = [cache[code.H] for code in codes]
        self._linkage: dict[tuple, _LinkagePlan] = {}

    def linkage(self, full_ids: tuple[int, ...], target: int) -> _LinkagePlan:
        key = (full_ids, target)
        if key not in self._linkage:
            self._linkage[key] = _LinkagePlan(self.systems, full_ids, target)
        return self._linkage[key]


def _target(config: ExperimentConfig, plan: RunPlan | None) -> _BatchSystem:
    """The target system of a run."""
    if config.trials <= 0:
        raise ValueError("trials must be positive")
    return (plan or RunPlan(config)).systems[config.target - 1]


def _rates_per_tau(config: ExperimentConfig, n: int, batch_weights,
                   count_rejects: bool = False) -> tuple[RateEstimate, ...]:
    """One estimate per tau of the config from the decoded weight of every trial.

    The weights of all batches go into one length-(n+1) histogram; a trial
    is accepted at tau when its weight is at most floor(tau n), so the
    accepted count is the cumulative histogram at that threshold.  Hits
    are acceptances, or rejections with ``count_rejects``.
    """
    histogram = np.zeros(n + 1, dtype=np.int64)
    for weights in batch_weights:
        histogram += np.bincount(weights, minlength=n + 1)
    accepted = np.cumsum(histogram)
    rates = []
    for tau in config.tau_values():
        hits = int(accepted[accept_threshold(tau, n)])
        rates.append(RateEstimate.from_counts(
            config.trials - hits if count_rejects else hits, config.trials))
    return tuple(rates)


def _legit_batches(config: ExperimentConfig, sysj: _BatchSystem):
    """Per batch, fresh (A0, A, B, K) draws: yields (A, B, decoded weight)."""
    p1 = config.enroll_noise[config.target - 1]
    alpha = config.probe_noise[config.target - 1]
    for b_idx, t in enumerate(_batch_sizes(config.trials)):
        rng = _batch_rng(config.seed, _ROLE_FRR, b_idx)
        A0 = _uniform_bits(rng, t, sysj.n)
        A = A0 ^ _bern_bits(rng, t, sysj.n, p1)
        B = A0 ^ _bern_bits(rng, t, sysj.n, alpha)
        enrolled = sysj.enroll_batch(A, rng)
        yield A, B, sysj.decode_weights(B, enrolled["K"], enrolled["S"])


def estimate_frr(config: ExperimentConfig,
                 plan: RunPlan | None = None) -> tuple[RateEstimate, ...]:
    """Fresh (A0, A, B, K) per trial; per tau, the fraction of legitimate rejections.

    One pass over the batches serves every tau of the config.
    """
    sysj = _target(config, plan)
    return _rates_per_tau(config, sysj.n,
                          (weights for _, _, weights in _legit_batches(config, sysj)),
                          count_rejects=True)


def _far_weights(config: ExperimentConfig, sysj: _BatchSystem):
    p1 = config.enroll_noise[config.target - 1]
    for b_idx, t in enumerate(_batch_sizes(config.trials)):
        rng = _batch_rng(config.seed, _ROLE_FAR, b_idx)
        A0 = _uniform_bits(rng, t, sysj.n)
        A = A0 ^ _bern_bits(rng, t, sysj.n, p1)
        enrolled = sysj.enroll_batch(A, rng)
        C = _uniform_bits(rng, t, sysj.n)
        J = sysj.sample_key(rng, t)  # uniform when keyed, zero when keyless
        yield sysj.decode_weights(C, J, enrolled["S"])


def estimate_far(config: ExperimentConfig,
                 plan: RunPlan | None = None) -> tuple[RateEstimate, ...]:
    """Uninformed attack per trial against a fresh enrollment; one estimate per tau.

    One pass over the batches serves every tau of the config.
    """
    sysj = _target(config, plan)
    return _rates_per_tau(config, sysj.n, _far_weights(config, sysj))


class _LinkagePlan:
    """Precomputed linear maps for rank-linked and coset-sampling attacks."""

    def __init__(self, systems: list[_BatchSystem], full_ids: tuple[int, ...], target: int):
        self.full_ids = full_ids
        H_j = systems[target - 1].code.H
        if full_ids:
            stacked = BitMatrix.stack([systems[i - 1].code.H for i in full_ids])
            self.residual = residual_rank([stacked], H_j)
            solver = Gf2Solver(stacked)
            self.solve_T = solver.particular_matrix().to_numpy().astype(np.float32)
            cons = solver.consistency_matrix()
            self.cons = cons.to_numpy().astype(np.float32) if cons is not None else None
            kern = solver.kernel_matrix()
            # stored transposed: Y (t, d) @ kernel (d, n) via _mul_bits(Y, kernel^T)
            self.kernel_t = kern.to_numpy().T.astype(np.float32) if kern is not None else None
            if self.residual == 0:
                row_solver = Gf2Solver(stacked.transpose())
                mj_rows = [row_solver.solve(H_j.row(r)) for r in range(H_j.rows)]
                self.M_j = BitMatrix.from_rows(mj_rows).to_numpy().astype(np.float32)
            else:
                self.M_j = None
            self.solve_Hj = systems[target - 1].solve_H
        else:
            self.residual = H_j.rows
            self.M_j = None
            self.kernel_t = None

    def stack_syndromes(self, systems, enrolled) -> np.ndarray:
        # H_i A_i per fully compromised system; the attacker recovers this
        # from (S_i, K_i) for either scheme (S xor K, resp. H (S xor K))
        return np.concatenate(
            [systems[i - 1].synd_bits(enrolled[i - 1]["A"]) for i in self.full_ids], axis=1)


def _validate_sar_scenario(config: ExperimentConfig) -> dict:
    """Check attack tag vs compromise flags; returns resolved scenario info."""
    tag = config.attack
    j = config.target
    exposed_S = set(config.exposed_S)
    exposed_K = config.exposed_keys()
    exposed_bio = set(config.exposed_bio)
    full = tuple(i for i in config.fully_compromised() if i != j)
    info = {"tag": tag, "j": j, "exposed_S": exposed_S, "exposed_K": exposed_K,
            "exposed_bio": exposed_bio, "full_ids": full}
    if tag == "stored" and j not in exposed_S:
        raise ValueError("'stored' attack requires the target stored data to be exposed")
    if tag == "biometric+key" and j not in exposed_K and not ({0, j} & exposed_bio):
        raise ValueError("'biometric+key' attack requires an exposed factor of the target")
    if tag == "substitute":
        donors = sorted(b for b in exposed_bio if b != j)
        if not donors:
            raise ValueError("'substitute' attack requires an exposed donor biometric")
        info["donor"] = donors[0]  # ground truth preferred, then lowest id
    if tag in ("rank-linked", "coset-sampling") and j not in exposed_K:
        raise ValueError(f"{tag!r} attack requires the target key to be exposed")
    if tag == "rank-linked" and not full:
        raise ValueError("'rank-linked' attack requires a fully compromised system")
    return info


def estimate_sar(config: ExperimentConfig,
                 plan: RunPlan | None = None) -> tuple[RateEstimate, ...]:
    """Run the configured adversary against fresh multi-system enrollments.

    One pass over the batches serves every tau of the config: one estimate
    per tau.
    """
    if config.trials <= 0:
        raise ValueError("trials must be positive")
    plan = plan or RunPlan(config)
    info = _validate_sar_scenario(config)
    linkage = None
    if info["tag"] in ("rank-linked", "coset-sampling"):
        linkage = plan.linkage(info["full_ids"], info["j"])
        if info["tag"] == "rank-linked" and linkage.residual > 0:
            raise ValueError("not rank-dependent: target adds residual rank")
    return _rates_per_tau(config, plan.systems[info["j"] - 1].n,
                          _sar_weights(config, plan.systems, info, linkage))


def _sar_weights(config: ExperimentConfig, systems: list[_BatchSystem], info: dict,
                 linkage: _LinkagePlan | None):
    tag, j = info["tag"], info["j"]
    sysj = systems[j - 1]
    for b_idx, t in enumerate(_batch_sizes(config.trials)):
        rng = _batch_rng(config.seed, _ROLE_SAR, b_idx)
        A0 = _uniform_bits(rng, t, sysj.n)
        enrolled = []
        for i, s in enumerate(systems):
            A_i = A0 ^ _bern_bits(rng, t, s.n, config.enroll_noise[i])
            enrolled.append(s.enroll_batch(A_i, rng))
        C, J = _attack_batch(tag, info, linkage, systems, enrolled, A0, rng, t)
        yield sysj.decode_weights(C, J, enrolled[j - 1]["S"])


def _attack_batch(tag: str, info: dict, plan, systems, enrolled, A0, rng, t) -> tuple:
    j = info["j"]
    sysj = systems[j - 1]
    S_j = enrolled[j - 1]["S"]
    K_j = enrolled[j - 1]["K"]
    zero_key = np.zeros_like(K_j)

    if tag == "uninformed":
        return _uniform_bits(rng, t, sysj.n), sysj.sample_key(rng, t)

    if tag == "stored":
        if sysj.keyed:
            return np.zeros((t, sysj.n), dtype=np.uint8), S_j
        if sysj.scheme is Scheme.SECURE_SKETCH:
            return _mul_bits(S_j, sysj.solve_H), zero_key
        return S_j, zero_key

    if tag == "biometric+key":
        if j in info["exposed_bio"]:
            C = enrolled[j - 1]["A"]
        elif 0 in info["exposed_bio"]:
            C = A0
        else:
            C = _uniform_bits(rng, t, sysj.n)
        J = K_j if j in info["exposed_K"] else sysj.sample_key(rng, t)
        return C, J

    if tag == "substitute":
        donor = info["donor"]
        C = A0 if donor == 0 else enrolled[donor - 1]["A"]
        J = K_j if j in info["exposed_K"] else sysj.sample_key(rng, t)
        return C, J

    if tag == "rank-linked":
        s_stack = plan.stack_syndromes(systems, enrolled)
        target_synd = _mul_bits(s_stack, plan.M_j)
        return _mul_bits(target_synd, plan.solve_Hj), K_j

    if tag == "coset-sampling":
        if not plan.full_ids:
            return _uniform_bits(rng, t, sysj.n), K_j
        s_stack = plan.stack_syndromes(systems, enrolled)
        C = _mul_bits(s_stack, plan.solve_T)
        if plan.kernel_t is not None:
            Y = _uniform_bits(rng, t, plan.kernel_t.shape[1])
            C = C ^ _mul_bits(Y, plan.kernel_t)
        if plan.cons is not None:
            bad = np.any(_mul_bits(s_stack, plan.cons), axis=1)
            if bad.any():
                C = np.where(bad[:, None], _uniform_bits(rng, t, sysj.n), C)
        return C, K_j

    raise ValueError(f"unknown attack tag {tag!r}")


@dataclass(frozen=True)
class EquivalenceReport:
    """Coupled and independent comparisons of matched FC and SS systems."""

    coupled_trials: int
    coupled_agreements: int
    frr_fc: RateEstimate
    frr_ss: RateEstimate
    far_fc: RateEstimate
    far_ss: RateEstimate
    sar_stored_fc: RateEstimate
    sar_stored_ss: RateEstimate
    sar_key_only_fc: RateEstimate
    sar_key_only_ss: RateEstimate
    sar_bio_only_fc: RateEstimate
    sar_bio_only_ss: RateEstimate
    storage_bits: dict
    key_bits: dict

    @property
    def coupled_agreement(self) -> float:
        return self.coupled_agreements / self.coupled_trials

    @property
    def frr_ci_overlap(self) -> bool:
        return self.frr_fc.overlaps(self.frr_ss)

    @property
    def far_ci_overlap(self) -> bool:
        return self.far_fc.overlaps(self.far_ss)

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        d["coupled_agreement"] = self.coupled_agreement
        d["frr_ci_overlap"] = self.frr_ci_overlap
        d["far_ci_overlap"] = self.far_ci_overlap
        return json.dumps(d, sort_keys=True, indent=2)


def equivalence_report(fc_config: ExperimentConfig, ss_config: ExperimentConfig,
                       sar_trials: int = 10_000) -> EquivalenceReport:
    """Couple FC and SS on shared randomness, then compare independent runs.

    The coupled pass feeds identical (A, B) to both schemes (keys and the
    FC codeword selector stay scheme-private) and counts decision
    agreements on the legitimate path; the schemes compute identical
    decoding syndromes, so agreement should be exact.
    """
    if fc_config.scheme != "FC" or ss_config.scheme != "SS":
        raise ValueError("pass an FC config and an SS config, in that order")
    for attr in ("tau", "keyed", "trials", "enroll_noise", "probe_noise", "target"):
        if getattr(fc_config, attr) != getattr(ss_config, attr):
            raise ValueError(f"configs disagree on {attr}")
    tables: dict[BitMatrix, CosetLeaderTable] = {}
    fc_plan, ss_plan = RunPlan(fc_config, tables), RunPlan(ss_config, tables)
    fc_sys = fc_plan.systems[fc_config.target - 1]
    ss_sys = ss_plan.systems[ss_config.target - 1]
    if (fc_sys.n, fc_sys.m) != (ss_sys.n, ss_sys.m):
        raise ValueError("configs disagree on code parameters")
    threshold = accept_threshold(fc_config.scalar_tau(), fc_sys.n)
    p1 = fc_config.enroll_noise[fc_config.target - 1]
    alpha = fc_config.probe_noise[fc_config.target - 1]
    agreements = 0
    for b_idx, t in enumerate(_batch_sizes(fc_config.trials)):
        rng = _batch_rng(fc_config.seed, _ROLE_EQUIV, b_idx)
        A0 = _uniform_bits(rng, t, fc_sys.n)
        A = A0 ^ _bern_bits(rng, t, fc_sys.n, p1)
        B = A0 ^ _bern_bits(rng, t, fc_sys.n, alpha)
        fc_enr = fc_sys.enroll_batch(A, rng)
        ss_enr = ss_sys.enroll_batch(A, rng)
        fc_dec = fc_sys.decode_weights(B, fc_enr["K"], fc_enr["S"]) <= threshold
        ss_dec = ss_sys.decode_weights(B, ss_enr["K"], ss_enr["S"]) <= threshold
        agreements += int(np.sum(fc_dec == ss_dec))

    j = fc_config.target
    attacks = {"stored": {"attack": "stored", "exposed_S": (j,)},
               "key_only": {"attack": "biometric+key", "exposed_K": (j,)},
               "bio_only": {"attack": "biometric+key", "exposed_bio": (j,)}}
    rates = {}  # the config's tau is scalar, so each estimator gives one estimate
    for name, config, plan, seed in (("fc", fc_config, fc_plan, fc_config.seed),
                                     ("ss", ss_config, ss_plan, ss_config.seed + 1)):
        for metric, estimator in (("frr", estimate_frr), ("far", estimate_far)):
            (rates[f"{metric}_{name}"],) = estimator(dataclasses.replace(
                config, metric=metric, attack=None, seed=seed), plan)
        for attack, scenario in attacks.items():
            (rates[f"sar_{attack}_{name}"],) = estimate_sar(dataclasses.replace(
                config, metric="sar", trials=sar_trials, **scenario), plan)
    return EquivalenceReport(
        coupled_trials=fc_config.trials,
        coupled_agreements=agreements,
        storage_bits={"FC": fc_sys.n, "SS": ss_sys.m},
        key_bits={"FC": fc_sys.n if fc_config.keyed else 0,
                  "SS": ss_sys.m if ss_config.keyed else 0},
        **rates,
    )


def _bound_for(config: ExperimentConfig, plan: RunPlan, tau: float) -> float | None:
    """The applicable theoretical reference for the metric at one tau.

    Upper bounds for frr/far and the state-independent attack tags; lower
    bounds (certain or coset floor) for informed attacks.
    """
    systems = plan.systems
    sysj = systems[config.target - 1]
    n, m = sysj.n, sysj.m
    j = config.target
    if config.metric == "frr":
        p = composite_crossover(config.enroll_noise[j - 1], config.probe_noise[j - 1])
        if p == 0.0:
            return 0.0
        return frr_bound(n, p, tau, sysj.code.rate)
    if config.metric == "far":
        return far_bound(n, m, tau)
    tag = config.attack
    if tag in ("uninformed", "biometric+key"):
        return far_bound(n, m, tau)
    if tag == "stored":
        return 1.0
    if tag in ("rank-linked", "coset-sampling"):
        info = _validate_sar_scenario(config)
        return sar_lower_bound(plan.linkage(info["full_ids"], j).residual)
    if tag == "substitute":
        p = composite_crossover(config.enroll_noise[j - 1], config.probe_noise[j - 1])
        if p == 0.0:
            return 1.0
        return 1.0 - frr_bound(n, p, tau, sysj.code.rate)
    return None


_ESTIMATORS = {"frr": estimate_frr, "far": estimate_far, "sar": estimate_sar}


@dataclass(frozen=True)
class ExperimentRow:
    experiment_id: str
    metric: str
    p_hat: float | None
    ci_low: float | None
    ci_high: float | None
    bound: float | None
    trials: int
    seed: int


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ExperimentRow, ...]
    warnings: tuple[str, ...]


CSV_COLUMNS = ("experiment_id", "metric", "p_hat", "ci_low", "ci_high",
               "bound", "trials", "seed")


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row.experiment_id, row.metric,
            "" if row.p_hat is None else repr(row.p_hat),
            "" if row.ci_low is None else repr(row.ci_low),
            "" if row.ci_high is None else repr(row.ci_high),
            "" if row.bound is None else repr(row.bound),
            row.trials, row.seed,
        ])
    return buf.getvalue()


def summary_json(config: ExperimentConfig, result: ExperimentResult) -> str:
    """The summary document of a run: its config, rows and warning notes."""
    return json.dumps({
        "config": json.loads(config.to_json()),
        "rows": [dataclasses.asdict(r) for r in result.rows],
        "warnings": list(result.warnings),
    }, sort_keys=True, indent=2)


@contextlib.contextmanager
def assumption_warnings() -> Iterator[list[str]]:
    """Collect the OperatingAssumptionWarning messages raised in the block.

    Yields a list that, once the block exits, holds each distinct message
    once, in the order it was first raised.
    """
    notes: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", OperatingAssumptionWarning)
        yield notes
    notes.extend(dict.fromkeys(str(w.message) for w in caught
                               if issubclass(w.category, OperatingAssumptionWarning)))


def run_config(config: ExperimentConfig) -> ExperimentResult:
    """Execute the (possibly tau-swept) experiment; collect warning notes.

    trials = 0 requests a bounds-only run.  The codes, coset tables and
    solver maps are built once, and one estimator call gives every tau row.
    """
    plan = RunPlan(config)
    taus = config.tau_values()
    with assumption_warnings() as notes:
        bounds = [_bound_for(config, plan, tau) for tau in taus]
        estimates = _ESTIMATORS[config.metric](config, plan) if config.trials > 0 \
            else (None,) * len(taus)
    rows = []
    for tau, bound, estimate in zip(taus, bounds, estimates):
        rows.append(ExperimentRow(
            experiment_id=config.experiment_id if len(taus) == 1
            else f"{config.experiment_id}@tau={tau!r}",
            metric=config.metric,
            p_hat=None if estimate is None else estimate.p_hat,
            ci_low=None if estimate is None else estimate.ci_low,
            ci_high=None if estimate is None else estimate.ci_high,
            bound=bound, trials=config.trials, seed=config.seed))
    return ExperimentResult(rows=tuple(rows), warnings=tuple(notes))
