from __future__ import annotations

import hashlib
import runpy
import sys
from pathlib import Path

import pytest

from biosketch import harness

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


# sha256 of stdout at the sizes below, and the coset tables the run builds
# (one per distinct parity check)
EXPECTED = {
    "far_tau_sweep.py": ("efa49c81ed15e43489ff54b27797e6b3d3be0f98cf19d73bffd2823b4a9fdfcf", 1),
    "linkage_examples.py": ("e981323cafe3ad7de1652f42378265d432710c7c6d037e76e22b5c77936d5c88", 6),
    "design_tradeoff.py": ("5c9668f860fd996f4f8f05be47a6104d3964cc81d54a2788ffcbaea491677587", 0),
}


@pytest.mark.parametrize("script,args", [
    ("far_tau_sweep.py", ["--n", "12", "--m", "6", "--taus", "0.05", "0.1",
                          "--trials", "2000"]),
    ("linkage_examples.py", ["--m", "4", "--trials", "2000"]),
    ("design_tradeoff.py", ["--u", "3", "--m", "3", "--n", "9", "--restarts", "2"]),
])
def test_script_runs_at_tiny_size(monkeypatch, capsys, script, args):
    digest, tables = EXPECTED[script]
    built = []
    build = harness.build_coset_table

    def counting_build(code):
        built.append(code.H)
        return build(code)

    monkeypatch.setattr(harness, "build_coset_table", counting_build)
    monkeypatch.setattr(sys, "argv", [script, *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exit_info.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    assert len(built) == len(set(built)) == tables
