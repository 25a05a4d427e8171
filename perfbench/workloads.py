"""The benchmark's four workloads: CLI commands, set-up, and output checks.

Each repetition `rep` of a workload with seed `seed` uses the input seed
`seed * REP_STRIDE + rep` as both the experiment seed and the code seed,
so a run covers several codes and the same seed always gives the same
inputs.  Checks compare every output with an exact value from `oracles`,
computed from the parity-check matrices of the configured codes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from biosketch.codes import build_coset_table
from biosketch.harness import CodeSpec

import oracles

REP_STRIDE = 1000
FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class Command:
    argv: list[str]
    config_text: str  # what the command reads, hashed for provenance
    trials: int       # Monte Carlo trials, or exact-enumeration cases
    check: Callable[[str], list[dict]]  # stdout -> check records with an "ok" key
    code: dict | None = None  # the config's code spec, built in set-up


def input_seed(seed: int, rep: int) -> int:
    return seed * REP_STRIDE + rep


def setup(commands: list[Command]) -> None:
    """Build the commands' codes and one coset table per distinct code."""
    for command in commands:
        if command.code is not None:
            codes = CodeSpec.from_dict(command.code).build()
            for code in {id(c): c for c in codes}.values():
                build_coset_table(code)


def _matrices(spec: dict) -> list[np.ndarray]:
    return [code.H.to_numpy() for code in CodeSpec.from_dict(spec).build()]


def _rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def _simulate(metric: str, cfg: dict, workdir: Path, check) -> Command:
    text = json.dumps(cfg, sort_keys=True)
    path = workdir / f"{cfg['experiment_id']}.json"
    path.write_text(text)
    taus = cfg["tau"] if isinstance(cfg["tau"], list) else [cfg["tau"]]
    return Command(["simulate", metric, "--config", str(path)], text,
                   cfg["trials"] * len(taus), lambda stdout: check(cfg, stdout), cfg["code"])


def _equal(name: str, value, expected, tol: float | None = None) -> dict:
    ok = value == expected if tol is None else abs(value - expected) <= tol
    return {"check": name, "ok": bool(ok), "value": value, "expected": expected}


def _monte_carlo(name: str, row: dict, exact: float, trials: int) -> dict:
    """Passes when the exact rate lies in the z=4 Wilson interval of the estimate."""
    p_hat = float(row["p_hat"])
    lo, hi = oracles.wilson_interval(round(p_hat * trials), trials)
    return {"check": name, "ok": int(row["trials"]) == trials and lo <= exact <= hi,
            "p_hat": p_hat, "exact": exact, "interval": [lo, hi]}


# mc-frr: legitimate rejections, Bernoulli sampling and syndrome products

def _mc_frr(seed: int, workdir: Path) -> list[Command]:
    cfg = {"experiment_id": "mc-frr", "metric": "frr", "scheme": "FC", "keyed": True,
           "tau": 0.034, "code": {"kind": "random", "n": 63, "m": 14, "seed": seed},
           "enroll_noise": [0.008], "probe_noise": [0.008], "trials": 1 << 19, "seed": seed}
    return [_simulate("frr", cfg, workdir, _check_frr)]


def _check_frr(cfg: dict, stdout: str) -> list[dict]:
    (row,) = _rows(stdout)
    (H,) = _matrices(cfg["code"])
    p = oracles.composite_crossover(cfg["enroll_noise"][0], cfg["probe_noise"][0])
    exact = oracles.exact_frr(H, p, oracles.threshold(cfg["tau"], H.shape[1]))
    return [_monte_carlo("frr", row, exact, cfg["trials"])]


# tau-sweep: many coset-table builds, few trials reading them

TAU_SWEEP = [0.01, 0.02, 0.035]  # thresholds 0, 1, 2 at n = 63


def _tau_sweep(seed: int, workdir: Path) -> list[Command]:
    cfg = {"experiment_id": "tau-sweep", "metric": "far", "scheme": "SS", "keyed": True,
           "tau": TAU_SWEEP, "code": {"kind": "random", "n": 63, "m": 14, "seed": seed},
           "enroll_noise": [0.0], "probe_noise": [0.0], "trials": 1 << 15, "seed": seed}
    return [_simulate("far", cfg, workdir, _check_far)]


def _check_far(cfg: dict, stdout: str) -> list[dict]:
    rows = _rows(stdout)
    (H,) = _matrices(cfg["code"])
    m, n = H.shape
    checks = [_equal("rows", len(rows), len(cfg["tau"]))]
    for row, tau in zip(rows, cfg["tau"]):
        checks.append(_equal("row id", row["experiment_id"], f"tau-sweep@tau={tau!r}"))
        exact = oracles.exact_far(H, oracles.threshold(tau, n))
        checks.append(_monte_carlo(f"far tau={tau}", row, exact, cfg["trials"]))
        checks.append(_equal(f"far bound tau={tau}", float(row["bound"]),
                             oracles.far_bound(n, m, tau), FLOAT_TOL))
    return checks


# linkage: multi-system enrollment, GF(2) solver maps, uniform sampling

def _linkage_cfg(name: str, preset: str, attack: str, seed: int) -> dict:
    return {"experiment_id": name, "metric": "sar", "scheme": "SS", "keyed": True,
            "tau": 0.06, "code": {"kind": "preset", "name": preset, "m": 12, "n": 36,
                                  "seed": seed},
            "enroll_noise": [0.0, 0.0, 0.0], "probe_noise": [0.02, 0.02, 0.02],
            "attack": attack, "target": 3, "exposed_S": [1, 2], "exposed_K": [1, 2, 3],
            "trials": 1 << 19, "seed": seed}


def _linkage(seed: int, workdir: Path) -> list[Command]:
    return [
        _simulate("sar", _linkage_cfg("coset-sampling", "example4", "coset-sampling", seed),
                  workdir, _check_coset_sampling),
        _simulate("sar", _linkage_cfg("rank-linked", "example1", "rank-linked", seed),
                  workdir, _check_rank_linked),
    ]


def _check_coset_sampling(cfg: dict, stdout: str) -> list[dict]:
    (row,) = _rows(stdout)
    H1, H2, H3 = _matrices(cfg["code"])
    exact, t = oracles.coset_sampling_rate([H1, H2], H3, oracles.threshold(cfg["tau"], H3.shape[1]))
    return [_equal("residual rank", t, cfg["code"]["m"] // 2),
            _equal("bound", float(row["bound"]), 2.0 ** -t),
            _monte_carlo("sar", row, exact, cfg["trials"])]


def _check_rank_linked(cfg: dict, stdout: str) -> list[dict]:
    (row,) = _rows(stdout)
    H1, H2, H3 = _matrices(cfg["code"])
    residual = oracles.rank(np.vstack([H1, H2, H3])) - oracles.rank(np.vstack([H1, H2]))
    return [_equal("residual rank", residual, 0),
            _equal("bound", float(row["bound"]), 1.0),
            _equal("sar", float(row["p_hat"]), 1.0),
            _equal("trials", int(row["trials"]), cfg["trials"])]


# analysis: pure-Python rank profiles and exact leakage enumeration

DESIGN = {"u": 4, "m": 5, "n": 20, "L": 2}


def _analysis(seed: int, workdir: Path) -> list[Command]:
    design_argv = ["design", *(x for k, v in DESIGN.items() for x in (f"--{k}", str(v))),
                   "--objective", "weighted", "--seed", str(seed)]
    cfg = {"experiment_id": "leakage", "metric": "frr", "scheme": "FC", "keyed": True,
           "tau": 0.1, "code": {"kind": "random", "n": 7, "m": 3, "seed": seed},
           "trials": 0, "seed": seed}
    text = json.dumps(cfg, sort_keys=True)
    path = workdir / "leakage.json"
    path.write_text(text)
    n, k = cfg["code"]["n"], cfg["code"]["n"] - cfg["code"]["m"]
    return [
        Command(design_argv, " ".join(design_argv), 0, _check_design),
        # three queries, each enumerating every (A, Z, K) triple
        Command(["leakage", "--exact", "--config", str(path)], text, 3 << (n + k + n),
                lambda stdout: _check_leakage(cfg, stdout), cfg["code"]),
    ]


def _check_design(stdout: str) -> list[dict]:
    head, _, tail = stdout.partition("\n{")
    report = json.loads("{" + tail)
    lines = [line for line in head.splitlines() if line.strip()]
    mats = []
    while lines:
        rows = int(lines[0].split()[0])
        mats.append(np.array([[c == "1" for c in line] for line in lines[1:1 + rows]],
                             dtype=np.uint8))
        lines = lines[1 + rows:]
    checks = [_equal("matrices", [mat.shape for mat in mats],
                     [(DESIGN["m"], DESIGN["n"])] * DESIGN["u"])]
    checks += [_equal(f"rank H{i + 1}", oracles.rank(mat), DESIGN["m"])
               for i, mat in enumerate(mats)]
    expected = oracles.rank_profiles(mats, DESIGN["L"])
    checks += [_equal(key, report[key], value) for key, value in expected.items()]
    return checks


def _check_leakage(cfg: dict, stdout: str) -> list[dict]:
    reports = json.loads(stdout)
    (H,) = _matrices(cfg["code"])
    # two-factor: either factor alone leaks nothing, the pair leaks rank(H) bits
    expected = {"S": 0.0, "K": 0.0, "S,K": float(oracles.rank(H))}
    checks = [_equal("reports", sorted((r["method"], r["params"]["query"]) for r in reports),
                     sorted((method, q) for q in expected
                            for method in ("exact-enumeration", "rank-formula")))]
    checks += [_equal(f"{r['method']} {r['params']['query']}", r["bits_leaked"],
                      expected[r["params"]["query"]], FLOAT_TOL) for r in reports]
    return checks


# The reference loop (run.HostSpeed) that each workload's run time is
# scaled by: numpy-bound workloads follow the numpy loop, those that run
# mostly pure-Python code (table builds, ranks, enumeration) the Python loop.
REFERENCE_KIND = {"mc-frr": "numpy", "tau-sweep": "python", "linkage": "numpy",
                  "analysis": "python"}

WORKLOADS: dict[str, Callable[[int, Path], list[Command]]] = {
    "mc-frr": _mc_frr,
    "tau-sweep": _tau_sweep,
    "linkage": _linkage,
    "analysis": _analysis,
}
