"""The benchmark's three workloads: seeded inputs, operations and gates.

Each workload is a closed loop from one process: one call at a time and,
in ``cli-session``, one child process at a time.  A workload object is
built from the seed (its set-up); ``op(i)`` then runs its i-th operation
and returns how long it took and how many of its checked outputs failed
the correctness gate.  The package only ever receives generated inputs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
from pingpong import checks, cli, files, metrics, protocol, search

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

# The console script ``pingpong`` is ``pingpong.cli:run``; children start it
# from the source tree, so nothing needs installing, with host-speed probes
# inside (see hostspeed.console_main).
CONSOLE_SCRIPT = "import hostspeed; hostspeed.console_main()"
CHILD_TIMEOUT_S = 150

ENTROPY_TOL = 1e-9
JSON_TOL = 1e-12
# The characteristic-polynomial oracle loses ~1e-7 on the double root at 0
# of a rank-2 4x4 state (see tests/test_metrics.py), hence its tolerance.
ORACLE_TOL = 5e-6


@dataclasses.dataclass
class Op:
    """One timed operation and the gate's verdict on its outputs."""

    label: str
    seconds: float
    attempted: int
    failed: int
    # host-speed probes taken inside the operation (their time is excluded)
    probes: list[float] = dataclasses.field(default_factory=list)


def child_env(workdir: Path) -> dict[str, str]:
    """Environment for child interpreters: source tree first, temp files
    inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(Path(__file__).parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(workdir)
    return env


class _Workload:
    name = ""
    # A run stops only after a whole number of cycles (so every run has the
    # same mix of operations) and after at least ``min_ops`` operations.
    cycle = 1
    min_ops = 1
    # Operations between two host-speed probes (see run.py).
    block = 1

    def __init__(self) -> None:
        self.tracer = None
        self.speed = None  # hostspeed.HostSpeed, set for untraced runs

    def _begin_op(self) -> None:
        if self.tracer is not None:
            self.tracer.begin_op()

    def details(self, timed: list[tuple[str, float]]) -> dict[str, tuple[float, str]]:
        """Workload-specific figures printed beside the contract metrics."""
        return {}


# --------------------------------------------------------------------------
# sweep-canonical


# The sweep runs the same search whatever the benchmark seed, so its
# frontier, evaluation count and eigensolve count repeat bit for bit.
SWEEP_SEED = 0
# The CLI's default grid 0:0.5:0.1.  Each operation sweeps one grid value
# (all three objectives, 3 x 400 evaluations each), so every operation
# does the same 3,600 evaluations and a run's operations are comparable.
SWEEP_GRID = ("0.0", "0.1", "0.2", "0.3", "0.4", "0.5")
SWEEP_RESTARTS = 3
SWEEP_BUDGET = 400


def sweep_failures(code: int, csv_path: Path, expected_points: int) -> tuple[int, float, int]:
    """Failed points of a canonical sweep, its frontier gap in bits, and
    the evaluations its CSV reports.

    In simplified mode with the {I, Z} encoding I0t = I0c = H(d) exactly
    and every objective is bounded by H(d), so each feasible point can be
    checked against H(d_achieved).  A point is feasible when d_achieved
    lies in the detection band around its target.
    """
    try:
        rows = files.read_curve_csv(csv_path)
    except (OSError, ValueError, IndexError):
        return expected_points, math.nan, 0
    if code != 0 or len(rows) != expected_points:
        return expected_points, math.nan, 0
    band = search.SweepConfig.detection_tolerance
    failed, gaps = 0, []
    for row in rows:
        bound = oracles.binary_entropy(row.d_achieved)
        ok = abs(row.d_achieved - row.d_target) <= band and row.best_value <= bound + ENTROPY_TOL
        if row.objective in ("i0t", "i0c"):
            ok = ok and abs(row.best_value - bound) <= ENTROPY_TOL
        failed += not ok
        if ok:
            gaps.append(bound - row.best_value)
    return failed, max(gaps, default=math.nan), sum(r.evaluations for r in rows)


class SweepCanonical(_Workload):
    """``pingpong sweep`` in-process through ``cli.main``, CSV to a file,
    cycling over the grid one value per operation."""

    name = "sweep-canonical"

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        super().__init__()
        del seed  # the search seed is fixed; see SWEEP_SEED
        self.grid = ("0.0",) if small else SWEEP_GRID
        self.min_ops = len(self.grid)  # every run covers the whole frontier
        self.budget = ["--restarts", "1", "--budget", "20"] if small else [
            "--restarts", str(SWEEP_RESTARTS), "--budget", str(SWEEP_BUDGET)]
        self.csv = workdir / "sweep.csv"
        self.calls: list[tuple[float, int, float]] = []  # (seconds, evaluations, gap)

    def op(self, i: int, in_process: bool) -> Op:
        d_target = self.grid[i % len(self.grid)]
        argv = ["sweep", "--family", "full", "--mode", "simplified", "--encoding", "iz",
                "--grid", d_target, *self.budget, "--seed", str(SWEEP_SEED), "--out", str(self.csv)]
        self.csv.unlink(missing_ok=True)
        self._begin_op()
        # A 3.4 s sweep outlasts the host's speed regimes, so untraced runs
        # probe inside it too.
        probes: list[float] = []
        probed = contextlib.nullcontext() if self.speed is None else hostspeed.probing(self.speed, probes)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), probed:
            t0 = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - t0 - sum(probes)
        points = len(search.OBJECTIVES)
        failed, gap, evaluations = sweep_failures(code, self.csv, points)
        self.calls.append((elapsed, evaluations, gap))
        return Op("sweep", elapsed, points, failed, probes)

    @property
    def gap_bits(self) -> float:
        """Largest H(d_achieved) - best_value over the frontier (deterministic)."""
        return max((gap for _, _, gap in self.calls if not math.isnan(gap)), default=math.nan)

    def details(self, timed):
        seconds = [s for s, _, _ in self.calls]
        return {
            "sweep_s": (sum(seconds[:len(self.grid)]), "s"),
            "evals_per_s": (sum(e for _, e, _ in self.calls) / sum(seconds), "1/s"),
            "frontier_gap_bits": (self.gap_bits, "bits"),
        }


# --------------------------------------------------------------------------
# report-mix


REPORT_CONFIGS = (("simplified", "iz"), ("simplified", "paulis"), ("bell", "iz"), ("bell", "paulis"))
REPORT_ANCILLA_DIMS = (1, 2, 4)
# Every 50th call is re-checked against the oracle, outside the timed
# region; 50 is even, so the sample falls on the two iz configurations.
ORACLE_PERIOD = 50


def oracle_applies(spec, config) -> bool:
    """Whether the characteristic-polynomial oracle can resolve I0c.

    It is meant for dimension <= 4, so ancilla dimension <= 2.  The Pauli
    encoding averages the travel qubit to I/2, which doubles every
    eigenvalue of the composite; np.roots then returns roots with
    imaginary parts above the oracle's 1e-7 guard.
    """
    return spec.ancilla_dim <= 2 and len(config.encoding_ops) == 2


def oracle_i0c(spec, config) -> float:
    """Composite entropy by the oracle route: nested-list algebra and the
    characteristic polynomial, no package linear algebra."""
    a = spec.ancilla_dim
    chi = [complex(c) for c in spec.ancilla_state]
    u = [[complex(c) for c in row] for row in spec.unitary]
    sent = [complex(c) for c in config.bob_initial.amplitudes]
    if config.mode == "bell":
        # (I_home ⊗ U)(|pair> ⊗ |χ>), then trace out the home qubit.
        psi = oracles.mat_vec(oracles.mat_kron(oracles.identity(2), u), oracles.vec_kron(sent, chi))
        full = oracles.outer(psi, psi)
        n = 2 * a
        rho = [[full[j][k] + full[n + j][n + k] for k in range(n)] for j in range(n)]
    else:
        psi = oracles.attacked_state(sent, chi, u)
        rho = oracles.outer(psi, psi)
    avg = [[0j] * (2 * a) for _ in range(2 * a)]
    for op, prior in zip(config.encoding_ops, config.priors):
        lifted = oracles.mat_kron([[complex(c) for c in row] for row in op.entries], oracles.identity(a))
        member = oracles.mat_mul(oracles.mat_mul(lifted, rho), oracles.dagger(lifted))
        avg = [[x + prior * y for x, y in zip(ra, rm)] for ra, rm in zip(avg, member)]
    return oracles.entropy_via_charpoly(avg)


def report_failures(report, spec, config, check_oracle: bool) -> list[str]:
    """Why an information report is wrong; empty when it passes the gate.

    Every comparison is written so that NaN fails it.
    """
    why = []
    if not 0.0 <= report.d <= 1.0:
        why.append(f"d = {report.d} outside [0, 1]")
    inequalities = metrics.entropy_inequality_check(report)
    if not (inequalities.subadditivity_ok and inequalities.araki_lieb_ok):
        why.append(f"entropy inequality violated: {inequalities.margins}")
    if not report.holevo_t <= report.i0t + ENTROPY_TOL:
        why.append(f"Holevo(travel) {report.holevo_t} exceeds I0t {report.i0t}")
    if not report.holevo_c <= report.i0c + ENTROPY_TOL:
        why.append(f"Holevo(composite) {report.holevo_c} exceeds I0c {report.i0c}")
    if config.mode == "simplified" and len(config.encoding_ops) == 2:
        h = oracles.binary_entropy(report.d)
        for name in ("i0t", "i0c"):
            if not abs(getattr(report, name) - h) <= ENTROPY_TOL:
                why.append(f"{name} = {getattr(report, name)} differs from H(d) = {h}")
    if check_oracle and oracle_applies(spec, config):
        want = oracle_i0c(spec, config)
        if not abs(report.i0c - want) <= ORACLE_TOL:
            why.append(f"I0c = {report.i0c} differs from the oracle's {want}")
    return why


class ReportMix(_Workload):
    """A seeded stream of random attacks through ``metrics.information_report``,
    ancilla dimensions and configurations interleaved round-robin."""

    name = "report-mix"
    # one call of each (configuration, ancilla dimension) pair
    cycle = len(REPORT_CONFIGS) * len(REPORT_ANCILLA_DIMS)
    block = 20 * cycle

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        super().__init__()
        self.configs = [protocol.make_config(m, encoding=e) for m, e in REPORT_CONFIGS]
        self.rng = np.random.default_rng(seed)
        # at least 1,000 calls, so p99 has ten samples beyond it
        self.min_ops = ORACLE_PERIOD if small else 1000

    def op(self, i: int, in_process: bool) -> Op:
        config = self.configs[i % len(self.configs)]
        spec = search.sample_random_attack(REPORT_ANCILLA_DIMS[i % len(REPORT_ANCILLA_DIMS)], self.rng)
        self._begin_op()
        t0 = time.perf_counter()
        try:
            report = metrics.information_report(spec, config)
        except Exception as exc:  # a raising call is a failed operation
            print(f"report {i} ({config.mode}, ancilla {spec.ancilla_dim}) raised {exc!r}", file=sys.stderr)
            return Op("report", time.perf_counter() - t0, 1, 1)
        elapsed = time.perf_counter() - t0
        failed = bool(report_failures(report, spec, config, i % ORACLE_PERIOD == 0))
        return Op("report", elapsed, 1, int(failed))

    def details(self, timed):
        us = np.array([s for _, s in timed]) * 1e6
        return {
            "reports_per_s": (len(us) * 1e6 / us.sum(), "1/s"),
            "report_p50_us": (float(np.median(us)), "us"),
            "report_p99_us": (float(np.quantile(us, 0.99)), "us"),
        }


# --------------------------------------------------------------------------
# cli-session


_VERIFY_TOTAL = re.compile(r"^(\d+) suites: (\d+) passed, 0 failed$")
_REPORT_KEYS = ("d", "i0t", "i0a", "i0c", "holevo_t", "holevo_c")


def _value_after(prefix: str, text: str) -> float:
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    return math.nan


def demo_ok(stdout: str) -> bool:
    return (abs(_value_after("d = ", stdout) - 0.5) <= ENTROPY_TOL
            and abs(_value_after("I0t = ", stdout) - 1.0) <= ENTROPY_TOL)


def report_json_ok(stdout: str, expected) -> bool:
    try:
        payload = json.loads(stdout)
        return all(abs(payload[k] - getattr(expected, k)) <= JSON_TOL for k in _REPORT_KEYS)
    except (json.JSONDecodeError, KeyError, TypeError):
        return False


def verify_ok(stdout: str) -> bool:
    lines = stdout.strip().splitlines()
    found = _VERIFY_TOTAL.match(lines[-1]) if lines else None
    return bool(found) and int(found.group(1)) == int(found.group(2)) == len(checks.ALL_CHECKS)


class CliSession(_Workload):
    """The terminal user's commands, each in a fresh ``pingpong`` process
    (in-process through ``cli.main`` when traced)."""

    name = "cli-session"

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        super().__init__()
        self.workdir = workdir
        self.env = child_env(workdir)
        attack_path = workdir / "attack.json"
        files.save_attack(search.sample_random_attack(2, np.random.default_rng(seed)), attack_path)
        spec = files.load_attack(attack_path)
        path = str(attack_path)
        simplified = metrics.information_report(spec, protocol.make_config("simplified"))
        bell = metrics.information_report(spec, protocol.make_config("bell", encoding="paulis"))
        self.commands = [
            ("demo", ["demo"], demo_ok),
            ("report", ["report", path, "--json"], lambda out: report_json_ok(out, simplified)),
            ("report", ["report", path, "--json", "--mode", "bell", "--encoding", "paulis"],
             lambda out: report_json_ok(out, bell)),
            ("simulate", ["simulate", path, "--rounds", "100000", "--seed", str(seed)], lambda out: True),
            ("verify", ["verify"], verify_ok),
        ]
        self.cycle = len(self.commands)

    def _run(self, argv: list[str], in_process: bool) -> tuple[int, str, float, list[float]]:
        """Exit code, standard output, seconds less probe time, and the
        probes the child took."""
        if in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(argv)
                elapsed = time.perf_counter() - t0
            return code, out.getvalue(), elapsed, []
        t0 = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-c", CONSOLE_SCRIPT, *argv], env=self.env, cwd=self.workdir,
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return -1, "", time.perf_counter() - t0, []
        elapsed = time.perf_counter() - t0
        last = done.stderr.rstrip("\n").rpartition("\n")[2]
        probes = json.loads(last.removeprefix(hostspeed.CHILD_PROBES)) if last.startswith(hostspeed.CHILD_PROBES) else []
        return done.returncode, done.stdout, elapsed - sum(probes), probes

    def op(self, i: int, in_process: bool) -> Op:
        label, argv, check = self.commands[i % len(self.commands)]
        self._begin_op()
        code, stdout, elapsed, probes = self._run(argv, in_process)
        return Op(label, elapsed, 1, int(not (code == 0 and check(stdout))), probes)

    def details(self, timed):
        return {
            f"cli_{label}_s": (float(np.median([s for name, s in timed if name == label])), "s")
            for label in ("demo", "report", "simulate", "verify")
        }


WORKLOADS = {w.name: w for w in (SweepCanonical, ReportMix, CliSession)}


def setup_only(name: str, seed: int, workdir: str) -> None:
    """Set-up alone, for timing from a fresh interpreter (see run.py)."""
    WORKLOADS[name](int(seed), Path(workdir))
