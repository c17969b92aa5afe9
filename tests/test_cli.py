import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pingpong as pp
from pingpong import attack, cli, files, qlinalg, search


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


def test_simulate_deterministic(capsys, attack_path):
    cli.main(["simulate", attack_path, "--rounds", "5000", "--seed", "11"])
    first = capsys.readouterr().out
    cli.main(["simulate", attack_path, "--rounds", "5000", "--seed", "11"])
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# sweep


def test_sweep_empty_grid_exits_2(capsys):
    # an empty grid, or a range with no point in it, is a usage error,
    # not an empty sweep
    for grid in ("", "0.5:0.1:0.1"):
        assert cli.main(["sweep", f"--grid={grid}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no detection targets" in captured.err


@pytest.mark.parametrize("flag", ["--restarts", "--budget"])
@pytest.mark.parametrize("value", ["0", "-3", "2.5", "many"])
def test_sweep_restarts_and_budget_take_positive_integers(capsys, flag, value):
    assert cli.main(["sweep", "--grid", "0.1", flag, value]) == 2
    assert "expected a positive integer" in capsys.readouterr().err


def test_sweep_over_the_restart_cap_exits_2_before_any_restart(capsys, monkeypatch):
    def no_restarts(*args, **kwargs):
        raise AssertionError("a restart was built")

    monkeypatch.setattr(search, "_nelder_mead", no_restarts)
    assert cli.main(["sweep", "--restarts", "1000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad sweep configuration: 18,000,000 restarts")
    assert "in memory at once" in err


def test_sweep_over_the_simplex_byte_bound_exits_2_before_any_restart(capsys, monkeypatch):
    def no_restarts(*args, **kwargs):
        raise AssertionError("a restart was built")

    monkeypatch.setattr(search, "_nelder_mead", no_restarts)
    assert cli.main(["sweep", "--ancilla-dim", "32"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad sweep configuration: 360 restarts of a 4097×4096 simplex")
    assert "in memory at once" in err


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


def test_sweep_out_directory_exits_2(capsys, tmp_path):
    code = cli.main([
        "sweep", "--grid", "0.0", "--objective", "i0t",
        "--restarts", "1", "--budget", "40", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "cannot write" in capsys.readouterr().err


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
        evals = np.array(qlinalg.hermitian_eigenvalues(rho))
        evals = evals[evals > 0.0]
        return float(-(evals * np.log(evals)).sum())

    monkeypatch.setattr(qlinalg, "von_neumann_entropy", nats)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL entropy_maximal_mixing" in out


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
        "0.1", "0.2,0.4", "0:0.5:0.25", "0,1", "1", "0.3,0.1",
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
