"""Smoke runs of the experiment scripts on short series."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(monkeypatch, name, *args):
    module = load_script(name)
    monkeypatch.setattr(sys, "argv", [name, *args])
    module.main()


def test_synthetic_compare(monkeypatch, capsys):
    run_script(monkeypatch, "synthetic_compare", "--bars", "300")
    out = capsys.readouterr().out
    assert "NSW" in out and "SYN-C" in out


def test_parcel_demo(monkeypatch, capsys, tmp_path):
    weights = tmp_path / "weights.csv"
    run_script(monkeypatch, "parcel_demo", "--bars", "300", "--rebalance-len", "64", "--thetas", "0.25",
               "--weights-out", str(weights))
    assert "theta= 0.25: parcel final_Z" in capsys.readouterr().out
    assert weights.read_text().startswith("t,n_1,n_2,n_3,slack,P_theta")



def test_each_mutant_applies_once():
    mutants = load_script("mutants")
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutants.MUTANTS:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.old != m.new and m.tests, m.name
        assert all((ROOT / test).is_file() for test in m.tests), m.name
