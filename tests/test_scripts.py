"""Smoke tests of the scripts under scripts/: each main() runs at a tiny
size and finishes cleanly."""

import importlib.util
import os
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
    ("record_sweep", ["--N", "14", "--out", os.devnull], "64 curves", None),
])
def test_script_runs_at_tiny_size(monkeypatch, capsys, name, argv, expect, refuse):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    assert _main(name)() is None
    out = capsys.readouterr().out
    assert expect in out
    if refuse:
        assert refuse not in out


def test_record_sweep_counts_the_routes(monkeypatch, capsys):
    # the console line counts the records by the route that settled c2,
    # and the three counts add up to the records
    monkeypatch.setattr(sys, "argv", ["record_sweep.py", "--N", "14", "--out", os.devnull])
    _main("record_sweep")()
    assert "253 records; c2 by BSGS 168, by W 39, by the walk 46;" in capsys.readouterr().out
