"""Byte-for-byte pins on what every CLI command prints.

Each case runs one small command and compares the sha256 of its stdout,
its stderr text and its exit code with values recorded from the program.
A change that moves any of them changes a published number, its format
or its warnings, and has to declare that and record the new values.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from biosketch.cli import main

FAR = {"experiment_id": "g-far", "metric": "far", "scheme": "SS", "keyed": True, "tau": 0.1,
       "code": {"kind": "random", "n": 10, "m": 5, "seed": 1},
       "enroll_noise": [0.1], "probe_noise": [0.1], "trials": 5000, "seed": 3}
FRR = {"experiment_id": "g-frr", "metric": "frr", "scheme": "FC", "keyed": True, "tau": 0.1,
       "code": {"kind": "random", "n": 15, "m": 8, "seed": 4},
       "enroll_noise": [0.03], "probe_noise": [0.03], "trials": 40000, "seed": 4}
SWEEP = dict(FAR, experiment_id="g-sweep", tau=[0.05, 0.1, 0.2])
SAR = {"experiment_id": "g-sar", "metric": "sar", "scheme": "SS", "keyed": True, "tau": 0.1,
       "code": {"kind": "preset", "name": "example4", "m": 4, "seed": 5},
       "enroll_noise": [0.0, 0.0, 0.0], "probe_noise": [0.02, 0.02, 0.02],
       "attack": "coset-sampling", "target": 3, "exposed_S": [1, 2], "exposed_K": [1, 2, 3],
       "trials": 3000, "seed": 6}
# tau below the composite crossover: the bounds warn and the command exits 2
VIOLATION = dict(FRR, experiment_id="g-viol", tau=0.05, enroll_noise=[0.2],
                 probe_noise=[0.2], trials=2000)
LEAK = {"experiment_id": "g-leak", "metric": "far", "scheme": "SS", "keyed": True,
        "tau": 0.2, "code": {"kind": "random", "n": 6, "m": 3, "seed": 2},
        "trials": 0, "seed": 5}
LEAK3 = dict(LEAK, experiment_id="g-leak3",
             code={"kind": "preset", "name": "example2", "m": 3, "n": 9, "seed": 2},
             enroll_noise=[0.0, 0.0, 0.0], probe_noise=[0.0, 0.0, 0.0],
             exposed_S=[1, 2], exposed_K=[1, 2])
LINK = dict(SAR, experiment_id="g-link", code={"kind": "random", "n": 12, "m": 4, "seed": 3},
            trials=2000)
# the analysis benchmark's shapes: exact leakage at n=7, m=3 and its design search
LEAK7 = dict(LEAK, experiment_id="g-leak7", code={"kind": "random", "n": 7, "m": 3, "seed": 2})
DESIGN = ["design", "--u", "3", "--m", "3", "--n", "9", "--L", "2", "--seed", "4"]

CASES = {
    "simulate-frr-csv": (["simulate", "frr"], FRR),
    "simulate-frr-json": (["simulate", "frr", "--format", "json"], FRR),
    "simulate-far-csv": (["simulate", "far"], FAR),
    "simulate-far-json": (["simulate", "far", "--format", "json"], FAR),
    "simulate-far-sweep-csv": (["simulate", "far"], SWEEP),
    "simulate-far-sweep-json": (["simulate", "far", "--format", "json"], SWEEP),
    "simulate-frr-sweep-json": (["simulate", "frr", "--format", "json"],
                                dict(FRR, experiment_id="g-frr-sweep", tau=[0.1, 0.15, 0.3])),
    "simulate-sar-csv": (["simulate", "sar"], SAR),
    "simulate-sar-json": (["simulate", "sar", "--format", "json"], SAR),
    "simulate-frr-violation": (["simulate", "frr"], VIOLATION),
    "bounds-csv": (["bounds"], FAR),
    "bounds-json": (["bounds", "--format", "json"], SWEEP),
    "bounds-violation": (["bounds", "--format", "json"], VIOLATION),
    "equiv": (["equiv"], dict(FRR, trials=4000)),
    "equiv-hamming": (["equiv"], dict(FRR, code={"kind": "hamming", "r": 3}, keyed=False,
                                      tau=0.2, trials=4000)),
    "equiv-violation": (["equiv"], VIOLATION),
    "leakage-exact": (["leakage", "--exact"], LEAK),
    "leakage-multi": (["leakage"], LEAK3),
    "leakage-exact-fc-keyed-n7": (["leakage", "--exact"], dict(LEAK7, scheme="FC")),
    "leakage-exact-fc-keyless-n7": (["leakage", "--exact"],
                                    dict(LEAK7, scheme="FC", keyed=False)),
    "leakage-exact-ss-keyless-n7": (["leakage", "--exact"], dict(LEAK7, keyed=False)),
    "linkage-example4": (["linkage", "--preset", "example4", "--m", "4"],
                         dict(LINK, attack="coset-sampling")),
    "linkage-example1-json": (["linkage", "--preset", "example1", "--m", "4", "--format", "json"],
                              dict(LINK, attack="rank-linked")),
    "design": (DESIGN + ["--objective", "weighted"], None),
    # u m > n: maximal linkage resistance is out of reach, and the command says so
    "design-infeasible": (DESIGN[:6] + ["8", "--L", "2", "--seed", "4"], None),
    "design-u4-m5-n20": (["design", "--u", "4", "--m", "5", "--n", "20", "--L", "2",
                          "--objective", "weighted", "--seed", "1000"], None),
}

# case -> (exit code, sha256 of stdout, stderr)
GOLDEN = {
    "bounds-csv": (
        0, "69cfdd5c3a6228d510cd73c8970eb8503b3c2860f7ab64144abddc5857751b5b",
        ""),
    "bounds-json": (
        2, "4753e2e6f1a51bb020c3618271ce966b7070d97be3e773737387f6108f4e962e",
        "warning: operating assumption violated: need m/n > h_b(tau) and tau < 0.5, "
        "got m/n=0.5, tau=0.2\n"),
    "bounds-violation": (
        2, "ae5ba8674170eed01a502ed8f390340d1d7e8874697f06b38cdd2b72cd07d82a",
        "warning: operating assumption violated: need 0.5 > tau > p, "
        "got tau=0.05, p=0.32000000000000006\n"),
    "design": (
        0, "3ed19cd91b8a323c5114f616325ebcfc2a058be3b925e07b56c8c8ee282c85a1",
        ""),
    "design-u4-m5-n20": (
        0, "da5c5c476b67cbbd05177d752059864876d9302c97a38c9d7d48a7ab0df04040",
        ""),
    "design-infeasible": (
        2, "cb7bb9bdec6c31e7b2d8aebfe1064324be51383f66c4f6170fd9177a6627f538",
        "warning: full independence infeasible: u*m = 9 > n = 8; t_min = m is unreachable\n"),
    "equiv": (
        0, "9fee56c75170000b79cd2f8ce19f0f0693d8ee025c9f561dace07ee1d5d37a58",
        ""),
    "equiv-hamming": (
        0, "97db035a84fcffdc910d5b6c0f1f088fb25ea5a62258a1595661fe25d3ef068d",
        ""),
    "equiv-violation": (
        0, "275cd9fabc4083f579bb1975f5427ce374f2ce84a54f43685721307f7c8791af",
        ""),
    "leakage-exact": (
        0, "0ea7bbd93b9d67c97898db68725544a4708950c84054a5c796ea080f7db4d0e4",
        ""),
    "leakage-exact-fc-keyed-n7": (
        0, "125e61ffa0b504d8b25bddb8a7e52c67b45a3127da38cc8fe2402f4725760636",
        ""),
    "leakage-exact-fc-keyless-n7": (
        0, "a46af3642ccf74de76cfe036f3e4d78ddaf99bbdab5221c3f6833a963c583e33",
        ""),
    "leakage-exact-ss-keyless-n7": (
        0, "b96fd1139c44dfc8d6f708f0df4ae39ad6ea9031dc4625f0a30842bf129ec2b0",
        ""),
    "leakage-multi": (
        0, "2bb606b33e71f1fbf8e51fe120b295cb23d1e86fe68535472880112e442e29dc",
        ""),
    "linkage-example1-json": (
        0, "ab094d6adc2847ea44d52d75c2ef1a8cde756b9b277a20ce872572a11d324bdb",
        ""),
    "linkage-example4": (
        0, "a297990f8bd396a71ff2e9ff874872b6bc7912c3838a29c567aa8c9f677212bc",
        ""),
    "simulate-far-csv": (
        0, "8506619a2ad7fb0422001192323c386037ed9c4290cde9fac42c4ab6dc357af7",
        ""),
    "simulate-far-json": (
        0, "4c20ca42084c0bc377419194155e6a0a9ae9ee96bf30d1dd970bf5ec495138b2",
        ""),
    "simulate-far-sweep-csv": (
        2, "860c24e2453a26945f8e30e6ca51b718cad32ffa4bc80000746814981c2d223b",
        "warning: operating assumption violated: need m/n > h_b(tau) and tau < 0.5, "
        "got m/n=0.5, tau=0.2\n"),
    "simulate-far-sweep-json": (
        2, "e3291a5f4980c427ba695e6d8e9b8740d6603d454794f9eebc893858cb9196bf",
        "warning: operating assumption violated: need m/n > h_b(tau) and tau < 0.5, "
        "got m/n=0.5, tau=0.2\n"),
    "simulate-frr-csv": (
        0, "6a7fb8b51ec77f450f7e92889e4207d0040c574acaa9e2cb3bb53755ecd1b39b",
        ""),
    "simulate-frr-json": (
        0, "553887d60c9940f529ff87ea2bbc384d1bbc9cd58d2faff93e4b48b7244bb3b4",
        ""),
    "simulate-frr-sweep-json": (
        2, "7fa1f8f9fcf5da07af8bedcb1d8833ebd152fd97d9c57a45eed420c83effa98b",
        "warning: operating assumption violated: need R < 1 - h_b(tau), "
        "got R=0.4666666666666667, tau=0.15\n"
        "warning: operating assumption violated: need R < 1 - h_b(tau), "
        "got R=0.4666666666666667, tau=0.3\n"),
    "simulate-frr-violation": (
        2, "5297de1853a50f3079b301292a20d4edddb8bdb1f5b238c544213d018ae504ee",
        "warning: operating assumption violated: need 0.5 > tau > p, "
        "got tau=0.05, p=0.32000000000000006\n"),
    "simulate-sar-csv": (
        0, "4a6446e31738ee0a91d39aa0724a456d08c9958ecc0a7d413f06ee1773e20201",
        ""),
    "simulate-sar-json": (
        0, "22a707492b2a90172e13a5489afe90ce28a2a3f1ed2c9e00def3d01ffc4fef6e",
        ""),
}


def run_case(name, tmp_path, capsys) -> tuple[int, str, str]:
    argv, config = CASES[name]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, hashlib.sha256(captured.out.encode()).hexdigest(), captured.err


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_output_is_pinned(name, tmp_path, capsys):
    assert run_case(name, tmp_path, capsys) == GOLDEN[name]
