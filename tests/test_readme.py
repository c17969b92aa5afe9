"""README.md states the contract: its Library example runs, and it names no private code."""

import re
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    d, i0t, i0a, i0c = map(float, capsys.readouterr().out.split())
    # the headline numbers README gives for the counterexample
    assert max(abs(d - 0.5), abs(i0t - 1.0), abs(i0a), abs(i0c - 1.0)) < 1e-9


def test_readme_names_no_private_identifier():
    # a dotted name whose last part starts with one underscore: _x, mod._x, a.b._x
    names = re.findall(r"(?<![\w.])(?:\w+\.)*_(?!_)\w+", README)
    assert names == []
