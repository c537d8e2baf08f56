"""Smoke tests of the scripts under scripts/: each main() runs at a tiny
size and finishes cleanly."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("name,argv,expect,refuse", [
    ("curve_survey", ["--N", "300", "--skip-genus2"], "z-scores against", "EXPECTED"),
    ("birch_reconcile", ["--p", "5,7", "--pmax", "31"], "odd moments vanish: yes", "MISMATCH"),
    ("chebotarev_demo", ["--N", "500"], "worst deviation", None),
])
def test_script_runs_at_tiny_size(monkeypatch, capsys, name, argv, expect, refuse):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    assert _main(name)() is None
    out = capsys.readouterr().out
    assert expect in out
    if refuse:
        assert refuse not in out
