import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_audit_script_prints_the_composite_and_bell_holevo_values(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["audit_counterexample.py", "--rounds", "2000"])
    runpy.run_path(str(SCRIPTS / "audit_counterexample.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert "computed composite value: 1.000000000000" in lines
    assert any(line.startswith("bell: Holevo composite = 0.000000000000") for line in lines)
