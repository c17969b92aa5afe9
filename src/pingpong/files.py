"""File formats: attack interchange (JSON) and frontier curves (CSV).

Attack files carry ``ancilla_dim``, ``chi`` (the ancilla state as
[re, im] pairs) and ``unitary`` (row-major nested [re, im] pairs).
Curve CSVs have the fixed header
``d_target,d_achieved,objective,best_value,evaluations`` with reals at
12 significant digits.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Iterable

import numpy as np

from . import attack as attack_mod
from . import search as search_mod

CURVE_CSV_HEADER = ("d_target", "d_achieved", "objective", "best_value", "evaluations")


class AttackFileError(ValueError):
    """An attack file does not parse; the message names the field or line."""


def _short_repr(value, limit: int = 60) -> str:
    """``repr(value)`` cut after ``limit`` characters, so that an error
    message echoes a bad entry without printing all of it."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def _complex_from_pair(pair, where: str) -> complex:
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
    ):
        raise AttackFileError(f"{where}: expected a [re, im] number pair, got {_short_repr(pair)}")
    try:
        return complex(pair[0], pair[1])
    except OverflowError:  # an integer past float range
        raise AttackFileError(f"{where}: number beyond float range") from None


def attack_to_dict(spec: attack_mod.AttackSpec) -> dict:
    """JSON-ready mapping for an attack; inverse of attack_from_dict."""
    return {
        "ancilla_dim": int(spec.ancilla_dim),
        "chi": [[float(c.real), float(c.imag)] for c in spec.ancilla_state],
        "unitary": [
            [[float(c.real), float(c.imag)] for c in row] for row in spec.unitary
        ],
    }


def attack_from_dict(data: dict) -> attack_mod.AttackSpec:
    """Parse the attack-file mapping; errors name the offending field."""
    if not isinstance(data, dict):
        raise AttackFileError(f"top level: expected an object, got {type(data).__name__}")
    for field in ("ancilla_dim", "chi", "unitary"):
        if field not in data:
            raise AttackFileError(f"field {field!r} is missing")
    dim = data["ancilla_dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise AttackFileError(f"ancilla_dim: expected an integer, got {_short_repr(dim)}")
    chi_raw = data["chi"]
    if not isinstance(chi_raw, list):
        raise AttackFileError("chi: expected a list of [re, im] pairs")
    chi = np.array(
        [_complex_from_pair(pair, f"chi[{i}]") for i, pair in enumerate(chi_raw)],
        dtype=complex,
    )
    unitary_raw = data["unitary"]
    if not isinstance(unitary_raw, list) or not all(isinstance(row, list) for row in unitary_raw):
        raise AttackFileError("unitary: expected a nested list of [re, im] pairs")
    width = len(unitary_raw[0]) if unitary_raw else 0
    rows = []
    for i, row in enumerate(unitary_raw):
        if len(row) != width:
            raise AttackFileError(f"unitary row {i}: length {len(row)} != {width}")
        rows.append(
            [_complex_from_pair(pair, f"unitary row {i} column {j}") for j, pair in enumerate(row)]
        )
    unitary = np.array(rows, dtype=complex).reshape(len(rows), width)
    return attack_mod.AttackSpec(ancilla_dim=dim, ancilla_state=chi, unitary=unitary)


def save_attack(spec: attack_mod.AttackSpec, path) -> None:
    Path(path).write_text(json.dumps(attack_to_dict(spec), indent=2) + "\n")


def load_attack(path) -> attack_mod.AttackSpec:
    """Read an attack file.  I/O errors propagate; malformed content raises
    AttackFileError naming the line or field."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:  # a ValueError, not an OSError
        raise AttackFileError("not UTF-8 text") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AttackFileError(f"line {exc.lineno}: {exc.msg}") from exc
    except ValueError:  # an integer literal past Python's digit limit
        raise AttackFileError("an integer literal is beyond float range") from None
    except RecursionError:  # arrays or objects nested past the interpreter's recursion limit
        raise AttackFileError("nested too deeply") from None
    return attack_from_dict(data)


def write_curve_csv(points: Iterable[search_mod.CurvePoint], fh) -> None:
    """Write curve rows to an open text file handle."""
    fh.write(",".join(CURVE_CSV_HEADER) + "\n")
    for p in points:
        fh.write(
            f"{p.d_target:.12g},{p.d_achieved:.12g},{p.objective},"
            f"{p.best_value:.12g},{p.evaluations}\n"
        )


def save_curve_csv(points: Iterable[search_mod.CurvePoint], path) -> None:
    with open(path, "w", newline="") as fh:
        write_curve_csv(points, fh)


@dataclasses.dataclass(frozen=True)
class CurveRow:
    """One row of a curve CSV, as a sweep writes it: both d in [0, 1], an
    objective of ``search.OBJECTIVES`` and at least one evaluation;
    ValueError otherwise, naming each field out of range."""

    d_target: float
    d_achieved: float
    objective: str
    best_value: float
    evaluations: int

    def __post_init__(self) -> None:
        faults = [f"{name} {getattr(self, name)!r} is outside [0, 1]"
                  for name in ("d_target", "d_achieved") if not 0.0 <= getattr(self, name) <= 1.0]
        if self.objective not in search_mod.OBJECTIVES:
            faults.append(f"objective {self.objective!r} is not one of {search_mod.OBJECTIVES}")
        if self.evaluations < 1:
            faults.append(f"evaluations {self.evaluations} is below 1")
        if faults:
            raise ValueError("; ".join(faults))


def read_curve_csv(path) -> list[CurveRow]:
    """Parse a curve CSV back into typed rows (used by the tests and ``bench/workloads.py``).

    An empty file, a foreign header, a row without all five fields, a
    field that does not parse as its type or a row that no sweep writes
    (see ``CurveRow``) raises ValueError naming the line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != CURVE_CSV_HEADER:
            raise ValueError(f"line 1: unexpected header {header!r}")
        rows = []
        for row in reader:
            if len(row) != len(CURVE_CSV_HEADER):
                raise ValueError(f"line {reader.line_num}: {len(row)} fields, not {len(CURVE_CSV_HEADER)}")
            try:
                rows.append(CurveRow(float(row[0]), float(row[1]), row[2], float(row[3]), int(row[4])))
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
        return rows
