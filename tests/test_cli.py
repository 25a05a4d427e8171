from __future__ import annotations

import json

import numpy as np
import pytest

from biosketch.cli import main
from biosketch.gf2 import save_matrix
from biosketch.codes import random_code
from biosketch.harness import CodeSpec, ExperimentConfig


@pytest.fixture()
def far_config(tmp_path):
    cfg = ExperimentConfig(
        experiment_id="cli-far", metric="far", scheme="SS", keyed=True, tau=0.1,
        code=CodeSpec(kind="random", n=10, m=5, seed=1), trials=5_000, seed=3,
        enroll_noise=(0.1,), probe_noise=(0.1,))
    path = tmp_path / "far.json"
    path.write_text(cfg.to_json())
    return path


def test_simulate_far_csv(far_config, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["simulate", "far", "--config", str(far_config), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("experiment_id,metric,p_hat")
    assert (out / "cli-far.csv").read_text() == printed
    assert (out / "cli-far.summary.json").exists()


@pytest.mark.parametrize("fmt,printed_file", [
    ("csv", "cli-far.csv"),
    ("json", "cli-far.summary.json"),
])
def test_out_files_equal_stdout_and_repeat(far_config, tmp_path, capsys, fmt, printed_file):
    printed = []
    for run in ("out1", "out2"):
        assert main(["simulate", "far", "--config", str(far_config), "--format", fmt,
                     "--out", str(tmp_path / run)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert (tmp_path / "out1" / printed_file).read_text() == printed[0]
    for name in ("cli-far.csv", "cli-far.summary.json"):
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()
    blob = json.loads((tmp_path / "out1" / "cli-far.summary.json").read_text())
    assert blob["config"]["experiment_id"] == "cli-far"
    assert blob["rows"][0]["metric"] == "far"


@pytest.mark.parametrize("command,out_file", [
    (["equiv"], "cli-far.equiv.json"),
    (["leakage", "--exact"], "cli-far.leakage.json"),
])
def test_out_file_equals_stdout(far_config, tmp_path, capsys, command, out_file):
    assert main(command + ["--config", str(far_config), "--out", str(tmp_path)]) == 0
    assert (tmp_path / out_file).read_text() + "\n" == capsys.readouterr().out


def test_simulate_deterministic(far_config, capsys):
    assert main(["simulate", "far", "--config", str(far_config)]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", "far", "--config", str(far_config)]) == 0
    assert capsys.readouterr().out == first


def test_seed_and_trials_overrides(far_config, capsys):
    assert main(["simulate", "far", "--config", str(far_config),
                 "--trials", "1000", "--seed", "99", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["rows"][0]["trials"] == 1000
    assert blob["rows"][0]["seed"] == 99


def test_matrix_file_override(far_config, tmp_path, capsys):
    code = random_code(8, 4, np.random.default_rng(200))
    mpath = tmp_path / "H.txt"
    save_matrix(mpath, code.H)
    assert main(["simulate", "far", "--config", str(far_config),
                 "--matrix-file", str(mpath), "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["config"]["code"]["kind"] == "file"


def test_bounds_only(far_config, capsys):
    assert main(["bounds", "--config", str(far_config), "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["rows"][0]["p_hat"] is None
    assert blob["rows"][0]["bound"] is not None


def test_exit_code_2_on_assumption_violation(tmp_path, capsys):
    cfg = ExperimentConfig(
        experiment_id="viol", metric="frr", scheme="SS", keyed=True, tau=0.05,
        code=CodeSpec(kind="random", n=10, m=5, seed=1), trials=0, seed=3,
        enroll_noise=(0.2,), probe_noise=(0.2,))
    path = tmp_path / "viol.json"
    path.write_text(cfg.to_json())
    rc = main(["simulate", "frr", "--config", str(path)])
    assert rc == 2
    assert "warning:" in capsys.readouterr().err


def test_equiv(tmp_path, capsys):
    cfg = ExperimentConfig(
        experiment_id="eq", metric="frr", scheme="SS", keyed=True, tau=0.2,
        code=CodeSpec(kind="hamming", r=3), trials=4_000, seed=5,
        enroll_noise=(0.03,), probe_noise=(0.03,))
    path = tmp_path / "eq.json"
    path.write_text(cfg.to_json())
    rc = main(["equiv", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["coupled_agreement"] == 1.0
    assert blob["storage_bits"] == {"FC": 7, "SS": 3}
    assert (tmp_path / "out" / "eq.equiv.json").exists()


def test_leakage_single_system(tmp_path, capsys):
    cfg = ExperimentConfig(
        experiment_id="leak", metric="far", scheme="SS", keyed=True, tau=0.2,
        code=CodeSpec(kind="random", n=6, m=3, seed=2), trials=0, seed=5)
    path = tmp_path / "leak.json"
    path.write_text(cfg.to_json())
    assert main(["leakage", "--config", str(path), "--exact"]) == 0
    reports = json.loads(capsys.readouterr().out)
    closed = {r["params"]["query"]: r["bits_leaked"] for r in reports
              if r["method"] == "rank-formula"}
    assert closed == {"S": 0.0, "K": 0.0, "S,K": 3.0}
    exact = {r["params"]["query"]: r["bits_leaked"] for r in reports
             if r["method"] == "exact-enumeration"}
    assert exact["S,K"] == pytest.approx(3.0, abs=1e-9)


def test_leakage_multi_system(tmp_path, capsys):
    cfg = ExperimentConfig(
        experiment_id="leak3", metric="sar", scheme="SS", keyed=True, tau=0.2,
        code=CodeSpec(kind="preset", name="example2", m=3, n=9, seed=2),
        trials=0, seed=5, attack="uninformed",
        enroll_noise=(0.0, 0.0, 0.0), probe_noise=(0.0, 0.0, 0.0),
        exposed_S=(1, 2), exposed_K=(1, 2))
    path = tmp_path / "leak3.json"
    path.write_text(cfg.to_json())
    assert main(["leakage", "--config", str(path)]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["method"] == "exact-enumeration"
    assert reports[0]["bits_leaked"] == pytest.approx(3.0, abs=1e-9)  # identical H: rank H

def _linkage_config(tmp_path) -> str:
    cfg = ExperimentConfig(
        experiment_id="link1", metric="sar", scheme="SS", keyed=True, tau=0.1,
        code=CodeSpec(kind="random", n=12, m=4, seed=3), trials=2_000, seed=6,
        attack="rank-linked", target=3,
        enroll_noise=(0.0, 0.0, 0.0), probe_noise=(0.05, 0.05, 0.05),
        exposed_S=(1, 2), exposed_K=(1, 2, 3))
    path = tmp_path / "link.json"
    path.write_text(cfg.to_json())
    return str(path)


def test_linkage_preset(tmp_path, capsys):
    rc = main(["linkage", "--config", _linkage_config(tmp_path), "--preset", "example1",
               "--m", "4", "--format", "json"])
    assert rc == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["rows"][0]["p_hat"] == 1.0
    assert blob["rows"][0]["bound"] == 1.0


@pytest.mark.parametrize("m", ["0", "-2"])
def test_linkage_rejects_nonpositive_m(tmp_path, capsys, m):
    rc = main(["linkage", "--config", _linkage_config(tmp_path), "--preset", "example4",
               "--m", m])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == f"error: code m must be >= 1, got {m}\n"


def test_design(tmp_path, capsys):
    out = tmp_path / "design"
    rc = main(["design", "--u", "3", "--m", "3", "--n", "9", "--L", "2",
               "--objective", "max_tmin", "--seed", "4", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("3 9\n")
    report = json.loads((out / "design_report.json").read_text())
    assert report["t_min"] == 3
    matrices = (out / "design_matrices.txt").read_text()
    assert matrices.count("3 9") == 3


def test_leakage_bound_only_when_instance_too_large(tmp_path, capsys):
    # n = 15 is beyond the exact oracle: the report carries the rank bound only
    cfg = ExperimentConfig(
        experiment_id="leakbig", metric="sar", scheme="SS", keyed=True, tau=0.2,
        code=CodeSpec(kind="random", n=15, m=5, seed=9), trials=0, seed=5,
        attack="uninformed", enroll_noise=(0.0, 0.0), probe_noise=(0.0, 0.0),
        exposed_S=(1, 2), exposed_K=(1, 2))
    path = tmp_path / "leakbig.json"
    path.write_text(cfg.to_json())
    assert main(["leakage", "--config", str(path)]) == 0
    reports = json.loads(capsys.readouterr().out)  # valid JSON, no NaN
    (rep,) = reports
    assert rep["method"] == "rank-formula"
    assert rep["bits_leaked"] is None
    assert rep["bound"] == 5.0  # identical matrices: collective rank = rank(H)
    assert "too large" in rep["params"]["note"]


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    assert main(["simulate", "far", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("exposed_S", [0]),
    ("exposed_K", [2]),
    ("exposed_bio", [2]),
    ("enroll_noise", [0.5]),
    ("probe_noise", [0.6]),
    ("trials", "100"),
    ("seed", 1.5),
    ("tau", 0.5),
    ("exposed_S", 1),
    ("code", {"kind": "random", "n": "10", "m": 5}),
])
def test_config_errors_exit_1(far_config, capsys, field, value):
    blob = json.loads(far_config.read_text())
    blob[field] = value
    far_config.write_text(json.dumps(blob))
    assert main(["simulate", "far", "--config", str(far_config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("code,message", [
    ({"kind": "bogus"}, "unknown code kind 'bogus'"),
    ({"kind": "hamming"}, "hamming code needs r"),
    ({"kind": "random", "n": 10}, "random code needs n and m"),
    ({"kind": "file"}, "file code needs path"),
    ({"kind": "preset", "name": "example9", "m": 4}, "unknown preset 'example9'"),
    ({"kind": "preset", "name": "example1"}, "preset needs m"),
    ({"kind": "random", "n": 10, "m": 0}, "code m must be >= 1, got 0"),
    ({"kind": "random", "n": 0, "m": 3}, "code n must be >= 1, got 0"),
    ({"kind": "hamming", "r": 1}, "code r must be >= 2, got 1"),
    ({"kind": "preset", "name": "example4", "m": -4}, "code m must be >= 1, got -4"),
])
def test_code_spec_errors_exit_1(far_config, capsys, code, message):
    with pytest.raises(ValueError, match=message):
        CodeSpec.from_dict(code)  # rejected when the config is read, before any build
    blob = json.loads(far_config.read_text())
    blob["code"] = code
    far_config.write_text(json.dumps(blob))
    assert main(["simulate", "far", "--config", str(far_config)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_missing_field_exits_1(far_config, capsys):
    blob = json.loads(far_config.read_text())
    del blob["code"]
    far_config.write_text(json.dumps(blob))
    assert main(["simulate", "far", "--config", str(far_config)]) == 1
    assert "error:" in capsys.readouterr().err


def test_leakage_exact_skips_instances_over_the_enumeration_guard(tmp_path, capsys,
                                                                   monkeypatch):
    # FC keyed n=10, m=4 enumerates 2^(10+6+10) = 2^26 (A, Z, K) cases
    import biosketch.cli as cli
    import biosketch.leakage as leakage

    def refuse(*args, **kwargs):
        raise AssertionError("enumeration attempted")

    monkeypatch.setattr(cli, "exact_single_system_leakage", refuse)
    monkeypatch.setattr(leakage, "_all_bits", refuse)
    cfg = ExperimentConfig(
        experiment_id="leak26", metric="frr", scheme="FC", keyed=True, tau=0.1,
        code=CodeSpec(kind="random", n=10, m=4, seed=1), trials=0, seed=5)
    path = tmp_path / "leak26.json"
    path.write_text(cfg.to_json())
    assert main(["leakage", "--exact", "--config", str(path)]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["method"] for r in reports] == ["rank-formula"] * 3


def test_leakage_exact_still_enumerates_n7_fc_keyed(tmp_path, capsys):
    # 2^(7+4+7) = 2^18 cases per query, inside the guard
    cfg = ExperimentConfig(
        experiment_id="leak18", metric="frr", scheme="FC", keyed=True, tau=0.1,
        code=CodeSpec(kind="random", n=7, m=3, seed=1), trials=0, seed=5)
    path = tmp_path / "leak18.json"
    path.write_text(cfg.to_json())
    assert main(["leakage", "--exact", "--config", str(path)]) == 0
    reports = json.loads(capsys.readouterr().out)
    exact = {r["params"]["query"]: r["bits_leaked"] for r in reports
             if r["method"] == "exact-enumeration"}
    assert exact == pytest.approx({"S": 0.0, "K": 0.0, "S,K": 3.0}, abs=1e-9)
