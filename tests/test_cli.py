import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pingpong as pp
from pingpong import attack, checks, cli, files, metrics, protocol, qlinalg, search


@pytest.fixture
def attack_path(tmp_path, counterexample):
    path = tmp_path / "probe.json"
    files.save_attack(counterexample, path)
    return str(path)


@pytest.fixture
def identity_path(tmp_path, identity_attack):
    path = tmp_path / "identity.json"
    files.save_attack(identity_attack, path)
    return str(path)


# ---------------------------------------------------------------------------
# demo


def test_demo_exit_and_headline_lines(capsys):
    assert cli.main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "d = 0.500000000000" in out
    assert "I0t = 1.000000000000" in out
    assert "claimed I0c  = 2.000000000000" in out
    assert "computed I0c = 1.000000000000" in out
    assert "DEVIATION" in out


def test_demo_is_byte_identical_across_runs(capsys):
    cli.main(["demo"])
    first = capsys.readouterr().out
    cli.main(["demo"])
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# report


def test_report_text_matches_demo_numbers(capsys, attack_path):
    assert cli.main(["report", attack_path]) == 0
    out = capsys.readouterr().out
    assert "d = 0.500000000000" in out
    assert "I0a = 0.000000000000" in out
    assert "I0c = 1.000000000000 (computed)" in out


def test_report_json_payload(capsys, attack_path):
    assert cli.main(["report", attack_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["d"] - 0.5) < 1e-12
    assert abs(payload["i0t"] - 1.0) < 1e-12
    assert abs(payload["holevo_c"] - 1.0) < 1e-9
    assert abs(payload["claim_deviation"]["delta"] + 1.0) < 1e-12


def test_report_json_identity_has_null_claim(capsys, identity_path):
    assert cli.main(["report", identity_path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["claim_deviation"] is None
    assert abs(payload["i0c"]) < 1e-12


def test_report_bell_mode(capsys, attack_path):
    assert cli.main(["report", attack_path, "--mode", "bell", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["d"] - 0.5) < 1e-12
    assert payload["holevo_c"] == 0.0
    assert payload["claim_deviation"] is None
    # the entangled-pair variant: the composite Holevo bound is 0, not the claimed 2 bits
    assert cli.main(["report", attack_path, "--mode", "bell"]) == 0
    assert "Holevo(composite) = 0.000000000000" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("encoding", protocol.ENCODING_NAMES)
@pytest.mark.parametrize("mode", protocol.MODES)
def test_report_says_when_no_message_can_be_carried(capsys, attack_path, mode, encoding):
    """Only simplified mode's |0> fails: Z|0> = |0>.  --json gains no field."""
    no_message = ("no message: the encoded images of the sent state are not orthogonal, "
                  "so Bob cannot decode any bit")
    argv = ["report", attack_path, "--mode", mode, "--encoding", encoding]
    assert cli.main(argv) == 0
    assert (no_message in capsys.readouterr().out.splitlines()) == (mode == "simplified")
    assert cli.main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == sorted(f.name for f in dataclasses.fields(metrics.InfoReport))


def test_report_validates_the_attack_once(capsys, monkeypatch, attack_path):
    calls = []
    original = attack.validate_attack
    monkeypatch.setattr(attack, "validate_attack", lambda spec: calls.append(spec) or original(spec))
    assert cli.main(["report", attack_path, "--mode", "bell"]) == 0
    assert len(calls) == 1


def test_report_missing_file_exits_2(capsys, tmp_path):
    code = cli.main(["report", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_report_directory_path_exits_2(capsys, tmp_path):
    assert cli.main(["report", str(tmp_path)]) == 2


def test_report_corrupt_json_exits_3(capsys, tmp_path):
    path = tmp_path / "corrupt.json"
    path.write_text("{not json\n")
    assert cli.main(["report", str(path)]) == 3
    assert "line 1" in capsys.readouterr().err


def test_non_utf8_attack_file_exits_3(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    for command in ("report", "simulate"):
        assert cli.main([command, str(path)]) == 3
        assert capsys.readouterr().err == "invalid attack file: not UTF-8 text\n"


def test_deeply_nested_attack_file_exits_3(capsys, tmp_path):
    # json.loads raises RecursionError here, which once exited 1 as an internal error
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    for command in ("report", "simulate"):
        assert cli.main([command, str(path)]) == 3
        assert capsys.readouterr().err == "invalid attack file: nested too deeply\n"


@pytest.mark.parametrize("entry", ["[" + "0.5, " * 99_999 + "0.5]", "[" * 500 + "]" * 500,
                                   "[" * 980 + "]" * 980], ids=["long", "deep-500", "deep-980"])
def test_a_bad_chi_entry_is_echoed_in_a_short_line(capsys, tmp_path, entry):
    # The message once echoed the entry whole.  980 levels load or meet the
    # recursion guard, by the caller's stack depth; either way the line is short.
    text = json.dumps(files.attack_to_dict(pp.builtin_attack("counterexample")))
    path = tmp_path / "bad.json"
    path.write_text(text.replace('"chi": [', '"chi": [' + entry + ", ", 1))
    assert cli.main(["report", str(path)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200
    if not entry.startswith("[" * 980):
        assert lines[0].startswith("invalid attack file: chi[0]: expected a [re, im] number pair")
        assert lines[0].endswith("...")


def test_report_invalid_attack_exits_3(capsys, tmp_path):
    # 1 + 0.9e-10 passes the norm check but not the attacked state's trace
    for chi in ([1.0, 1.0], [np.nan, 0.0], [1.0 + 0.9e-10, 0.0]):
        bad = pp.AttackSpec(2, np.array(chi), np.eye(4))
        path = tmp_path / "bad.json"
        files.save_attack(bad, path)
        assert cli.main(["report", str(path)]) == 3
        assert "norm" in capsys.readouterr().err


def test_invalid_attack_prints_one_line_per_violation(capsys, tmp_path):
    path = tmp_path / "bad.json"
    files.save_attack(pp.AttackSpec(2, np.array([1.0, 0.0, 0.0]), np.eye(6)), path)
    for command in ("report", "simulate"):
        assert cli.main([command, str(path)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and all(line.startswith("invalid attack: ") for line in lines)
        assert "ancilla state shape" in lines[0] and "unitary shape" in lines[1]


_EXTREMES = st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 0.0, 10**400, -10**400])
_BAD_DIMS = st.one_of(
    st.integers(-2, 5), st.floats(allow_nan=True), st.text(max_size=2), st.booleans(), st.none()
)


@st.composite
def _attack_documents(draw):
    """Attack-file mappings: a random valid attack with a few entries broken."""
    dim = draw(st.integers(1, 3))
    doc = files.attack_to_dict(search.sample_random_attack(dim, draw(st.integers(0, 2**32 - 1))))
    for _ in range(draw(st.integers(0, 3))):
        rows = [doc["chi"]] + doc["unitary"]
        row = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(("extreme", "nudge", "scale", "ragged", "dim")))
        if kind == "dim":
            doc["ancilla_dim"] = draw(_BAD_DIMS)
        elif kind == "scale":  # a norm within the 1e-10 tolerance of 1
            factor = 1.0 + draw(st.floats(-1e-10, 1e-10))
            # an integer extreme is past float range and stays as it is
            row[:] = [[v * factor if isinstance(v, float) else v for v in pair] for pair in row]
        elif not row:
            continue
        elif kind == "ragged":
            del row[draw(st.integers(0, len(row) - 1))]
        else:
            pair = draw(st.sampled_from(row))
            part = draw(st.integers(0, 1))
            if kind == "extreme":
                pair[part] = draw(_EXTREMES)
            elif isinstance(pair[part], float):  # within a few validation tolerances of it
                pair[part] += draw(st.floats(-3e-10, 3e-10))
    return doc


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning fails the run
@settings(max_examples=100, deadline=None)
@given(
    doc=_attack_documents(),
    mode=st.sampled_from(("simplified", "bell")),
    encoding=st.sampled_from(("iz", "paulis")),
)
def test_report_exit_code_contract(tmp_path_factory, doc, mode, encoding):
    path = tmp_path_factory.mktemp("fuzz") / "attack.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["report", str(path), "--mode", mode, "--encoding", encoding])
    assert code in (0, 2, 3)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning fails the run
@settings(max_examples=100, deadline=None)
@given(
    doc=_attack_documents(),
    mode=st.sampled_from(("simplified", "bell")),
    encoding=st.sampled_from(("iz", "paulis")),
)
def test_simulate_exit_code_contract(tmp_path_factory, doc, mode, encoding):
    path = tmp_path_factory.mktemp("fuzz") / "attack.json"
    path.write_text(json.dumps(doc))
    argv = ["simulate", str(path), "--rounds", "200", "--mode", mode, "--encoding", encoding]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    # Exit 1 is the failed z-score check, and only that.
    assert code in (0, 2, 3) or (code == 1 and "z-score = " in out.getvalue())


# ---------------------------------------------------------------------------
# simulate


def test_simulate_counterexample(capsys, attack_path):
    code = cli.main(["simulate", attack_path, "--rounds", "20000", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "analytic d = 0.500000000000" in out
    assert "control rounds = 20000" in out
    assert "z-score = " in out


def test_simulate_identity_is_exact(capsys, identity_path):
    code = cli.main(["simulate", identity_path, "--rounds", "500", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "empirical d = 0.000000000000" in out
    assert "z-score = 0.000000" in out


def test_simulate_validates_the_attack_once(capsys, monkeypatch, attack_path):
    calls = []
    original = attack.validate_attack

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(attack, "validate_attack", counted)
    assert cli.main(["simulate", attack_path, "--rounds", "500", "--mode", "bell"]) == 0
    assert "analytic d = 0.500000000000" in capsys.readouterr().out
    assert len(calls) == 1


def test_simulate_over_the_round_cap_exits_2_before_monte_carlo(capsys, monkeypatch, attack_path):
    asked = []

    def recorded(config, spec, rounds, seed):
        asked.append(rounds)
        raise RuntimeError("monte_carlo was called")

    monkeypatch.setattr(protocol, "monte_carlo", recorded)
    for rounds in (protocol.MAX_ROUNDS + 1, 10**11):
        assert cli.main(["simulate", attack_path, "--rounds", str(rounds)]) == 2
        assert f"{rounds} is above the cap of 10000000" in capsys.readouterr().err
    assert asked == []
    # The cap itself is allowed through.
    assert cli.main(["simulate", attack_path, "--rounds", str(protocol.MAX_ROUNDS)]) == 1
    assert asked == [protocol.MAX_ROUNDS]


def test_simulate_deterministic(capsys, attack_path):
    cli.main(["simulate", attack_path, "--rounds", "5000", "--seed", "11"])
    first = capsys.readouterr().out
    cli.main(["simulate", attack_path, "--rounds", "5000", "--seed", "11"])
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# sweep


def test_sweep_empty_grid_exits_2(capsys):
    # an empty grid, or a range with no point in it, is a usage error,
    # not an empty sweep; so is a range whose negative span overflows
    for grid in ("", "0.5:0.1:0.1", "5:-5:1e-310", "1e308:-1e308:1e-300"):
        assert cli.main(["sweep", f"--grid={grid}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no detection targets" in captured.err


@pytest.mark.parametrize("flag", ["--restarts", "--budget"])
@pytest.mark.parametrize("value", ["0", "-3", "2.5", "many"])
def test_sweep_restarts_and_budget_take_positive_integers(capsys, flag, value):
    assert cli.main(["sweep", "--grid", "0.1", flag, value]) == 2
    assert "expected a positive integer" in capsys.readouterr().err


def _no_restarts(*args, **kwargs):
    raise AssertionError("a restart was built")


def _assert_over_the_memory_bound(capsys, args, count):
    assert cli.main(["sweep", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bad sweep configuration: {count} restarts of ")
    assert "over 1,073,741,824: the search holds every restart in memory at once" in err


def test_sweep_over_the_restart_cap_exits_2_before_any_restart(capsys, monkeypatch):
    monkeypatch.setattr(search, "_simplex_moves", _no_restarts)
    # 6 grid points × 3 objectives × 10^6 restarts of the default family, and
    # 30,600 restarts of ancilla 4, whose simplices alone would fit
    for args, count in ((["--restarts", "1000000"], "18,000,000"),
                        (["--ancilla-dim", "4", "--grid", "0:0.5:0.1", "--restarts", "1700"], "30,600")):
        _assert_over_the_memory_bound(capsys, args, count)


def test_sweep_over_the_simplex_byte_bound_exits_2_before_any_restart(capsys, monkeypatch):
    monkeypatch.setattr(search, "_simplex_moves", _no_restarts)
    # the 4097×4096 simplices of ancilla 32, and at 10^12 an ancilla state
    # alone of 14.6 TiB (the bound comes before anything of the family's size
    # exists)
    for ancilla_dim in ("32", "1000000000000"):
        _assert_over_the_memory_bound(capsys, ["--ancilla-dim", ancilla_dim], "360")


def test_sweep_under_the_memory_bound_builds_its_restarts(capsys, monkeypatch):
    # the 30,600 restarts above would hold 1.75 GB; these 18,000 hold 1.03 GB
    monkeypatch.setattr(search, "_simplex_moves", _no_restarts)
    assert cli.main(["sweep", "--ancilla-dim", "4", "--grid", "0:0.5:0.1", "--restarts", "1000"]) == 1
    assert capsys.readouterr().err == "internal error: a restart was built\n"


def test_sweep_single_point_csv(capsys):
    code = cli.main([
        "sweep", "--grid", "0.5", "--objective", "i0t",
        "--restarts", "2", "--budget", "400", "--seed", "5",
    ])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "d_target,d_achieved,objective,best_value,evaluations"
    cells = lines[1].split(",")
    assert cells[0] == "0.5" and cells[2] == "i0t"
    assert float(cells[3]) > 0.999
    assert int(cells[4]) <= 800
    assert "d_target 0.5000" in captured.err


def test_sweep_colon_grid(capsys):
    code = cli.main([
        "sweep", "--grid", "0:0.5:0.25", "--objective", "i0a",
        "--restarts", "1", "--budget", "60", "--family", "product",
    ])
    captured = capsys.readouterr()
    assert code == 0
    targets = [line.split(",")[0] for line in captured.out.splitlines()[1:]]
    assert targets == ["0", "0.25", "0.5"]


def test_sweep_negative_zero_grid_reads_zero(capsys):
    # the grid once kept -0.0, which the CSV wrote as -0 and the summary as -0.0000
    assert cli.main(["sweep", "--grid", "-0", "--restarts", "1", "--budget", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].startswith("0,")
    assert "d_target 0.0000" in captured.err
    assert not math.copysign(1.0, search.SweepConfig(d_grid=(-0.0,)).d_grid[0]) < 0


def test_sweep_out_file(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    code = cli.main([
        "sweep", "--grid", "0.0", "--objective", "i0t",
        "--restarts", "1", "--budget", "80", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    rows = files.read_curve_csv(out)
    assert len(rows) == 1 and rows[0].d_target == 0.0
    assert captured.out.startswith("sweep summary:")


PINNED_SWEEP_SUMMARY = """\
sweep summary: empirical max found; search values are lower bounds with no optimality certificate
  d_target 0.0000: i0t=1.000000 i0a=0.000031 i0c=1.000031 | no exceedance
  d_target 0.2000: i0t=1.000000 i0c=1.313740 | i0c exceeds i0t by 0.313740; infeasible: i0a
  d_target 0.4000: i0a=0.661588 i0c=1.831082 | infeasible: i0t
flagged grid points: 1 of 3
"""


def test_sweep_summary_is_pinned(capsys):
    # a flagged row, a row with an infeasible objective, and one whose i0t is
    # infeasible, which leaves its i0c unflagged
    assert cli.main([
        "sweep", "--encoding", "paulis", "--grid", "0,0.2,0.4",
        "--restarts", "2", "--budget", "120", "--seed", "2",
    ]) == 0
    assert capsys.readouterr().err == PINNED_SWEEP_SUMMARY


@pytest.mark.parametrize("mode, ancilla, noted", [
    ("simplified", 2, False), ("simplified", 3, True), ("bell", 4, False), ("bell", 5, True),
])
def test_sweep_summary_notes_an_ancilla_above_what_reports_can_use(capsys, mode, ancilla, noted):
    assert cli.main([
        "sweep", "--mode", mode, "--ancilla-dim", str(ancilla), "--grid", "0.2",
        "--restarts", "1", "--budget", "5",
    ]) == 0
    last = capsys.readouterr().err.splitlines()[-1]
    purifying = 2 if mode == "simplified" else 4
    assert last.startswith(f"ancilla dimension {ancilla} is above {purifying}: ") == noted
    assert last.endswith("no report can gain from the extra dimensions") == noted


def test_summary_flags_use_the_margin():
    def point(objective, value):
        values = {"best_i0t": 0.0, "best_i0a": 0.0, "best_i0c": 0.0}
        values["best_" + objective] = value
        return search.CurvePoint(
            d_target=0.3, d_achieved=0.3, objective=objective,
            theta_best=(), evaluations=1, **values
        )

    points = (point("i0t", 0.5), point("i0a", 0.505), point("i0c", 0.52))
    row, count = cli._render_summary(points, search.OBJECTIVES)[1:]
    # i0a is within the margin, i0c beyond it
    assert row == "  d_target 0.3000: i0t=0.500000 i0a=0.505000 i0c=0.520000 | i0c exceeds i0t by 0.020000"
    assert count == "flagged grid points: 1 of 1"


def test_sweep_out_directory_exits_2(capsys, tmp_path):
    code = cli.main([
        "sweep", "--grid", "0.0", "--objective", "i0t",
        "--restarts", "1", "--budget", "40", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


def test_sweep_unwritable_out_exits_2_before_any_restart(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(search, "_simplex_moves", _no_restarts)
    assert cli.main(["sweep", "--out", str(tmp_path / "missing" / "c.csv")]) == 2
    captured = capsys.readouterr()
    assert "cannot write" in captured.err and captured.out == ""


@pytest.mark.parametrize("grid", ["0.3,0.3", "0.1,0.3,0.1", "1:1:4e-10", "0.9999999999:1:5e-10"])
def test_sweep_repeated_grid_value_exits_2(capsys, grid):
    # a repeat once ran twice, and the summary counted it as one grid point
    assert cli.main(["sweep", f"--grid={grid}", "--restarts", "1", "--budget", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bad sweep configuration: grid values must be distinct")


def test_sweep_malformed_grid_exits_2(capsys):
    assert cli.main(["sweep", "--grid", "abc"]) == 2


def test_sweep_grid_outside_range_exits_2(capsys):
    assert cli.main(["sweep", "--grid", "0.2,1.4"]) == 2
    assert "bad sweep configuration" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [
    "0:nan:0.1", "nan:1:0.1", "0:inf:0.1", "-inf:1:0.1", "0:1:nan", "0:1:inf",
    "nan", "0.1,inf",
])
def test_sweep_non_finite_grid_exits_2(capsys, grid):
    assert cli.main(["sweep", f"--grid={grid}"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [
    "0:1:1e-7", "0:1:1e-300", "0:1e300:1", "-1e308:1e308:1", "0:1:5e-324",
])
def test_sweep_oversized_grid_exits_2_without_allocating(capsys, grid):
    assert cli.main(["sweep", f"--grid={grid}"]) == 2
    assert "more than 10001 points" in capsys.readouterr().err


def test_sweep_grid_at_the_point_limit_parses():
    assert len(cli._parse_grid("0:1:1e-4")) == 10_001


def test_sweep_into_a_closed_pipe_exits_2_quietly():
    """The console entry (``cli.run``) with a reader that takes the CSV header
    and closes the pipe: the rest of the CSV, about 96 KiB, is more than the
    pipe and both buffers hold, so it meets the closed pipe."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["sweep", "--grid", "0:1:0.0005", "--restarts", "1", "--budget", "1"]
    # Unbuffered, so reading the header drains no more of the pipe than the header.
    with subprocess.Popen([sys.executable, "-m", "pingpong.cli", *argv], bufsize=0, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        header = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        code = child.wait(timeout=120)
    assert header == b"d_target,d_achieved,objective,best_value,evaluations\n"
    assert (code, err) == (2, b"")


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_lists_suites(capsys):
    assert cli.main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    suite_lines = [l for l in lines if l.startswith(("PASS", "FAIL"))]
    assert len(suite_lines) >= 12
    assert all(l.startswith("PASS") for l in suite_lines)
    assert lines[-1].endswith("0 failed")


def test_verify_catches_a_wrong_entropy_base(capsys, monkeypatch):
    # sabotage: entropy in nats instead of bits must trip the suite
    def nats(rho):
        evals = np.linalg.eigvalsh(rho.entries)
        evals = evals[evals > 0.0]
        return float(-(evals * np.log(evals)).sum())

    monkeypatch.setattr(qlinalg, "von_neumann_entropy", nats)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL entropy_maximal_mixing" in out


# The verify lines of every suite that evaluates attacks (in ALL_CHECKS order)
# and of family_builds_valid_attacks, as the one-attack-at-a-time suites printed them,
# but for the last digits of details that the reduced-state kernel moved:
# protocol_noiseless_correctness, detection_range_and_phase (d is 1 - Re Tr(Pσ) in
# bell mode too) and product_attack_composite_travel.
PINNED_VERIFY = (
    "PASS protocol_noiseless_correctness     margin=+9.996e-13  "
    "max noiseless d = 4.44e-16, wrong decodes = 0",
    "PASS protocol_monte_carlo_agreement     margin=+0.000e+00  "
    "worst |empirical - analytic| - 4σ = 0 over builtins × modes",
    "PASS detection_range_and_phase          margin=+9.997e-13  "
    "worst of (range violation, phase-shift |Δd|) = 3.33e-16",
    "PASS encoding_fixes_basis_state         margin=+1.000e-12  "
    "max member deviation = 0 (phase encoding fixes |0>)",
    "PASS product_attack_ancilla_pure        margin=+1.000e-08  "
    "worst member S(ancilla) = 1.57e-14 over 100 product attacks",
    "PASS attack_global_phase_invariance     margin=+9.997e-13  "
    "worst member change under e^(iφ)U = 3.33e-16 over 50 attacks",
    "PASS dephased_travel_marginal           margin=+1.000e-12  "
    "worst off-diagonal of the averaged travel marginal = 0",
    "PASS travel_entropy_binary_identity     margin=+1.000e-10  "
    "worst |i0t - H(d)| = 2e-15 over 300 random attacks",
    "PASS holevo_within_entropy              margin=+1.000e-08  "
    "worst Holevo excess over entropy = 0 over 100 attacks",
    "PASS product_attack_composite_travel    margin=+1.000e-08  "
    "worst of (|i0c - i0t|, i0a) = 1.56e-14 over 100 product attacks",
    "PASS entropy_inequalities_random        margin=+2.263e-04  "
    "worst inequality deficit = -0.000226 over 500 attacks × 2 modes",
    "PASS family_builds_valid_attacks        margin=+0.000e+00  "
    "0 invalid builds over 100 sampled parameter vectors",
)


# The verify lines of the four suites that draw seeded samples, as the loops
# that built one DensityMatrix or UnitaryOperator per sample printed them.
PINNED_SAMPLING_VERIFY = (
    "PASS entropy_additivity_products        margin=+1.000e-08  "
    "worst |S(A⊗B) - S(A) - S(B)| = 1.89e-15 over 200 product states",
    "PASS entropy_unitary_invariance         margin=+1.000e-08  "
    "worst |S(UρU†) - S(ρ)| = 1.55e-15 over 200 pairs",
    "PASS unitary_norm_preservation          margin=+9.994e-13  "
    "worst |‖Us‖ - 1| = 5.55e-16 over 200 cases",
    "PASS parameterized_unitary_basics       margin=+1.000e-09  "
    "worst of (|U(0) - I|, unitarity residual) = 3.11e-15",
)


def _verify_only(pinned, capsys, monkeypatch):
    """verify's suite lines and total line when it runs just the suites ``pinned`` names."""
    names = {line.split()[1] for line in pinned}
    suites = tuple(c for c in checks.ALL_CHECKS if c.__name__.removeprefix("check_") in names)
    monkeypatch.setattr(checks, "ALL_CHECKS", suites)
    assert cli.main(["verify"]) == 0
    *lines, total = capsys.readouterr().out.splitlines()
    return tuple(lines), total


def test_verify_batched_suites_are_pinned(capsys, monkeypatch):
    lines, total = _verify_only(PINNED_VERIFY, capsys, monkeypatch)
    assert lines == PINNED_VERIFY
    assert total == "12 suites: 12 passed, 0 failed"


def test_verify_sampling_suites_are_pinned(capsys, monkeypatch):
    lines, total = _verify_only(PINNED_SAMPLING_VERIFY, capsys, monkeypatch)
    assert lines == PINNED_SAMPLING_VERIFY
    assert total == "4 suites: 4 passed, 0 failed"


def test_verify_catches_swapped_travel_and_ancilla_entropies(capsys, monkeypatch):
    # sabotage the report assembly that report and the batched suites share
    report = metrics.InfoReport

    def swapped(**fields):
        return report(**dict(fields, i0t=fields["i0a"], i0a=fields["i0t"]))

    monkeypatch.setattr(metrics, "InfoReport", swapped)
    assert cli.main(["verify"]) == 1
    assert "FAIL travel_entropy_binary_identity" in capsys.readouterr().out


def test_verify_catches_a_negative_holevo_bound(capsys, monkeypatch):
    # sabotage only the composite path's member-0 entropies, so that its
    # S(mixture) - S(member 0) < 0; reports, which read the reduced state σ, are unchanged
    subsystem_entropies = metrics._subsystem_entropies

    def raised_member_zero(composite, travel, ancilla):
        entropies = subsystem_entropies(composite, travel, ancilla)
        if composite is travel:  # N mixtures then their N members 0, as the Holevo bounds ask
            k = len(composite)
            entropies[k // 2:k] += 3.0
            entropies[k + k // 2:2 * k] += 3.0
        return entropies

    spec, config = search.sample_random_attack(2, 7), protocol.make_config("bell")
    before = metrics.information_report(spec, config)
    monkeypatch.setattr(metrics, "_subsystem_entropies", raised_member_zero)
    after = metrics.information_report(spec, config)
    assert after == before
    assert cli.main(["verify"]) == 1
    fails = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL holevo_within_entropy")


def test_verify_catches_a_kernel_that_ignores_the_ancilla_state(capsys, monkeypatch):
    # sabotage the lift every kernel path shares: each attack starts from |0> whatever χ is
    attacked_rows = attack._attacked_rows

    def ground_ancilla(specs, config):
        return attacked_rows([
            dataclasses.replace(s, ancilla_state=search._ground_ancilla(s.ancilla_dim)) for s in specs
        ], config)

    monkeypatch.setattr(attack, "_attacked_rows", ground_ancilla)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL encoding_fixes_basis_state         margin=-5.000e-01" in out


# ---------------------------------------------------------------------------
# argument plumbing


def _counts(highest: int):
    """A small count, or (one draw in three) a zero, negative, float or non-numeric one."""
    valid = st.integers(1, highest).map(str)
    return st.one_of(valid, valid, st.sampled_from(["0", "-1", "2.5", "-0.5", "nan", "x", ""]))


# The flags of sweep and simulate but --out, with small values: a sweep runs at
# most 3 grid points x 3 objectives x 2 restarts x 20 evaluations at ancilla 3.
_SWEEP_VALUES = {
    "--grid": st.sampled_from([
        "0.1", "0.2,0.4", "0:0.5:0.25", "0,1", "1", "0.3,0.1", "0.3,0.3",
        "", "nan", "-0.1", "1.5", "abc", "0:1", "0.5:0.1:0.1",
    ]),
    "--restarts": _counts(2),
    "--budget": _counts(20),
    "--ancilla-dim": _counts(3),
    "--seed": _counts(5),
    "--objective": st.sampled_from(["i0t", "i0a", "i0c", "i0x"]),
    "--family": st.sampled_from(["full", "product", "vector"]),
    "--mode": st.sampled_from(["simplified", "bell", "teleport"]),
    "--encoding": st.sampled_from(["iz", "paulis", "bb84"]),
}
_SIMULATE_VALUES = {
    "--rounds": _counts(1000),
    "--seed": _counts(5),
    "--mode": _SWEEP_VALUES["--mode"],
    "--encoding": _SWEEP_VALUES["--encoding"],
}
_JUNK = st.sampled_from(["x", "--frobnicate", "--", "-1", "1e3", "", "--grid", "--rounds"])


@st.composite
def _argv_tail(draw, values):
    """Flag-value pairs and stray tokens, in any order."""
    tail = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 3)):
            flag = draw(st.sampled_from(sorted(values)))
            tail += [flag, draw(values[flag])]
        else:
            tail.append(draw(_JUNK))
    return tail


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(("sweep", "simulate", "verify")))
    if command == "verify":  # a bare verify takes a second; an extra argument exits 2
        return ["verify", draw(_JUNK.filter(lambda token: token not in ("", "--")))]
    if command == "simulate":
        name = draw(st.sampled_from(("counterexample", "identity", "cnot")))
        return ["simulate", name, "--rounds", "200"] + draw(_argv_tail(_SIMULATE_VALUES))
    # small budgets come first, so no default (6 x 3 x 20 x 2000) sweep ever runs
    head = ["--grid", "0.3", "--restarts", "1", "--budget", "10"]
    return ["sweep"] + head + draw(_argv_tail(_SWEEP_VALUES))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a numpy warning fails the run
@settings(max_examples=100, deadline=None)
@given(argv=_argvs())
def test_argument_vectors_keep_the_exit_code_contract(tmp_path_factory, argv):
    if argv[0] == "simulate":
        path = tmp_path_factory.mktemp("argv") / "attack.json"
        files.save_attack(pp.builtin_attack(argv[1]), path)
        argv = ["simulate", str(path)] + argv[2:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    # Exit 1 is simulate's failed z-score check, and only that.
    assert code in (0, 2, 3) or (
        code == 1 and argv[0] == "simulate" and "z-score = " in out.getvalue()
    ), (code, err.getvalue())


def test_no_arguments_exits_2():
    assert cli.main([]) == 2


def test_unknown_subcommand_exits_2():
    assert cli.main(["frobnicate"]) == 2


def test_non_positive_counts_exit_2(capsys, attack_path):
    for argv in (
        ["simulate", attack_path, "--rounds", "0"],
        ["sweep", "--ancilla-dim", "0"],
        ["simulate", attack_path, "--seed", "-1"],
        ["sweep", "--seed", "-1"],
    ):
        assert cli.main(argv) == 2
        assert argv[-2] in capsys.readouterr().err


def test_internal_errors_map_to_exit_1(capsys, monkeypatch, attack_path):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli.metrics, "information_report", boom)
    assert cli.main(["report", attack_path]) == 1
    assert "internal error: synthetic failure" in capsys.readouterr().err
