"""Smoke tests: each experiment in scripts/ runs end to end at its smallest size."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, expected", [
    ("constant_basin.py", ["--level", "1"],
     ["flow: grad_norm_below after", "verdict morse_bott"]),
    ("identity_spectrum.py", ["--levels", "1", "2"], ["level 1:", "level 2:"]),
    ("chart_audit_torus.py", ["--samples", "4"], ["radius 5.00e-02: c4 = 1.0"]),
])
def test_script_runs(script, args, expected, monkeypatch, capsys):
    main = runpy.run_path(str(SCRIPTS / script))["main"]
    monkeypatch.setattr(sys, "argv", [script, *args])
    main()
    out = capsys.readouterr().out
    for text in expected:
        assert text in out
