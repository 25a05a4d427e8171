from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args", [
    ("far_tau_sweep.py", ["--n", "12", "--m", "6", "--taus", "0.05", "0.1",
                          "--trials", "2000"]),
    ("linkage_examples.py", ["--m", "4", "--trials", "2000"]),
    ("design_tradeoff.py", ["--u", "3", "--m", "3", "--n", "9", "--restarts", "2"]),
])
def test_script_runs_at_tiny_size(monkeypatch, capsys, script, args):
    monkeypatch.setattr(sys, "argv", [script, *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out
