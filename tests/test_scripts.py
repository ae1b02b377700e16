"""Tests for the experiment scripts: each one imports what it uses from the
package and parses --help, and each runs end to end on a small case, so an
API change that breaks a script fails here rather than at its next run."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def run_script(path, args, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(path), run_name="__main__")
    return exc.value.code


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_help_exits_cleanly(path, monkeypatch, capsys):
    assert run_script(path, ["--help"], monkeypatch) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("name,args", [
    # three levels, so at least one reduction factor is gated
    ("grid_refinement.py", ["--levels", "3", "--base-n", "100",
                            "--t-end", "0.05"]),
    ("long_run_bounds.py", ["--scenario", "gaussian-bump",
                            "--n-cells", "64", "--t-end", "0.5"]),
], ids=["grid_refinement.py", "long_run_bounds.py"])
def test_small_run_exits_cleanly(name, args, monkeypatch, capsys):
    path = next(p for p in SCRIPTS if p.name == name)
    assert run_script(path, args, monkeypatch) == 0
    out = capsys.readouterr().out
    assert "NOT consistent" not in out and "violation(s)" not in out
