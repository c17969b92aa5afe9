import io
import json

import numpy as np
import pytest

import pingpong as pp
from pingpong import attack, files, search


# ---------------------------------------------------------------------------
# attack JSON round trips


def test_attack_round_trip_counterexample(tmp_path, counterexample):
    path = tmp_path / "probe.json"
    files.save_attack(counterexample, path)
    loaded = files.load_attack(path)
    assert loaded.ancilla_dim == counterexample.ancilla_dim
    assert np.array_equal(loaded.ancilla_state, counterexample.ancilla_state)
    assert np.array_equal(loaded.unitary, counterexample.unitary)
    assert attack.validate_attack(loaded) == []


def test_attack_round_trip_random(tmp_path):
    rng = np.random.default_rng(91)
    for k in range(10):
        spec = search.sample_random_attack(int(rng.integers(1, 4)), rng)
        path = tmp_path / f"attack_{k}.json"
        files.save_attack(spec, path)
        loaded = files.load_attack(path)
        assert np.array_equal(loaded.unitary, spec.unitary)
        assert np.array_equal(loaded.ancilla_state, spec.ancilla_state)


def test_attack_dict_layout(counterexample):
    data = files.attack_to_dict(counterexample)
    assert set(data) == {"ancilla_dim", "chi", "unitary"}
    assert data["ancilla_dim"] == 2
    assert data["chi"][0] == [pytest.approx(2 ** -0.5), 0.0]
    assert len(data["unitary"]) == 4 and len(data["unitary"][0]) == 4
    assert data["unitary"][0][2] == [pytest.approx(-(2 ** -0.5)), 0.0]


def test_saved_file_is_plain_json(tmp_path, identity_attack):
    path = tmp_path / "id.json"
    files.save_attack(identity_attack, path)
    data = json.loads(path.read_text())
    assert data["ancilla_dim"] == 2


# ---------------------------------------------------------------------------
# attack parse errors


def test_missing_field_is_named():
    with pytest.raises(files.AttackFileError, match="unitary"):
        files.attack_from_dict({"ancilla_dim": 2, "chi": [[1.0, 0.0], [0.0, 0.0]]})


def test_bad_chi_entry_is_located():
    data = files.attack_to_dict(pp.builtin_attack("identity"))
    data["chi"][1] = [0.0]
    with pytest.raises(files.AttackFileError, match=r"chi\[1\]"):
        files.attack_from_dict(data)


def test_bad_unitary_entry_is_located():
    data = files.attack_to_dict(pp.builtin_attack("identity"))
    data["unitary"][2][3] = "x"
    with pytest.raises(files.AttackFileError, match="row 2 column 3"):
        files.attack_from_dict(data)


def test_ragged_unitary_rows_are_rejected():
    data = files.attack_to_dict(pp.builtin_attack("identity"))
    data["unitary"][1] = data["unitary"][1][:2]
    with pytest.raises(files.AttackFileError, match="row 1"):
        files.attack_from_dict(data)


def test_number_beyond_float_range_is_located():
    data = files.attack_to_dict(pp.builtin_attack("identity"))
    data["chi"][0] = [10**400, 0.0]
    with pytest.raises(files.AttackFileError, match=r"chi\[0\]: number beyond float range"):
        files.attack_from_dict(data)
    data = files.attack_to_dict(pp.builtin_attack("identity"))
    data["unitary"][1][2] = [0.0, -(10**400)]
    with pytest.raises(files.AttackFileError, match="row 1 column 2: number beyond float range"):
        files.attack_from_dict(data)


def test_integer_past_the_digit_limit_is_a_file_error(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"ancilla_dim": 1, "chi": [[1' + "0" * 5000 + ", 0]]}")
    with pytest.raises(files.AttackFileError, match="beyond float range"):
        files.load_attack(path)


def test_boolean_ancilla_dim_is_rejected():
    data = files.attack_to_dict(pp.builtin_attack("identity"))
    data["ancilla_dim"] = True
    with pytest.raises(files.AttackFileError, match="ancilla_dim"):
        files.attack_from_dict(data)


def test_top_level_must_be_an_object():
    with pytest.raises(files.AttackFileError, match="top level"):
        files.attack_from_dict([1, 2, 3])


def test_broken_json_names_the_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "ancilla_dim": 2,\n  "chi": [[1, 0}\n}\n')
    with pytest.raises(files.AttackFileError, match="line 3"):
        files.load_attack(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        files.load_attack(tmp_path / "absent.json")


def test_loaded_attack_may_be_invalid_but_parseable(tmp_path):
    # parsing and physical validation are separate steps
    spec = pp.AttackSpec(2, np.array([1.0, 1.0]), np.zeros((4, 4)))
    path = tmp_path / "bad.json"
    files.save_attack(spec, path)
    loaded = files.load_attack(path)
    assert attack.validate_attack(loaded)


# ---------------------------------------------------------------------------
# curve CSV


def _point(d, objective="i0t", value=0.5, evals=123):
    values = {"best_i0t": 0.0, "best_i0a": 0.0, "best_i0c": 0.0}
    values["best_" + objective] = value
    return search.CurvePoint(
        d_target=d, d_achieved=d + 1e-4, objective=objective,
        theta_best=(0.0, 0.1), evaluations=evals, **values
    )


def test_curve_csv_header_and_rows():
    buf = io.StringIO()
    files.write_curve_csv([_point(0.25)], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "d_target,d_achieved,objective,best_value,evaluations"
    assert lines[1] == "0.25,0.2501,i0t,0.5,123"


def test_curve_csv_twelve_significant_digits():
    buf = io.StringIO()
    files.write_curve_csv([_point(1 / 3, value=2 / 3)], buf)
    row = buf.getvalue().splitlines()[1].split(",")
    assert row[0] == "0.333333333333"
    assert row[3] == "0.666666666667"


def test_curve_csv_round_trip(tmp_path):
    points = [_point(0.1), _point(0.2, objective="i0a", value=0.125, evals=7)]
    path = tmp_path / "curve.csv"
    files.save_curve_csv(points, path)
    rows = files.read_curve_csv(path)
    assert len(rows) == 2
    for row, point in zip(rows, points):
        assert abs(row.d_target - point.d_target) < 1e-11
        assert abs(row.best_value - point.best_value) < 1e-11
        assert row.objective == point.objective
        assert row.evaluations == point.evaluations


def test_curve_csv_empty_points(tmp_path):
    path = tmp_path / "empty.csv"
    files.save_curve_csv([], path)
    assert path.read_text() == "d_target,d_achieved,objective,best_value,evaluations\n"
    assert files.read_curve_csv(path) == []


@pytest.mark.parametrize("text, message", [
    ("a,b,c\n1,2,3\n", "^line 1: unexpected header"),
    ("", r"^line 1: unexpected header \(\)"),  # what a size-refused sweep --out leaves
    (",".join(files.CURVE_CSV_HEADER) + "\n0.1,0.1,i0t,0.5,10\n0.2,0.2\n", "^line 3: 2 fields, not 5"),
], ids=["foreign", "empty", "short-row"])
def test_curve_csv_rejects_foreign_header(tmp_path, text, message):
    path = tmp_path / "foreign.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        files.read_curve_csv(path)
