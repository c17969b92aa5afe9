"""End-to-end acceptance gate.

Each test checks one numbered criterion at its stated tolerance and
prints a single pass/fail line to the live terminal (bypassing capture)
so a full run reads as a checklist.  Budgets are wall-clock upper
bounds; the heavy sweep criterion runs the real default search budgets
and is the only slow test in the suite.
"""

import math
import time

import numpy as np
import pytest

import pingpong as pp
from pingpong import attack, checks, cli, metrics, protocol, qlinalg, search

import oracles


def _announce(capsys, num, passed, text):
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} {text}"
    with capsys.disabled():
        print(line, flush=True)
    assert passed, line


@pytest.fixture(scope="module")
def canonical():
    spec = pp.builtin_attack("counterexample")
    config = pp.make_config("simplified")
    return spec, config, metrics.information_report(spec, config)


def test_criterion_01_detection_probability(capsys, canonical):
    start = time.perf_counter()
    _, _, report = canonical
    err = abs(report.d - 0.5)
    elapsed = time.perf_counter() - start
    _announce(
        capsys, 1, err <= 1e-12 and elapsed < 1.0,
        f"counterexample d = 0.5 within 1e-12 (|err| = {err:.3e}, {elapsed:.3f}s)",
    )


def test_criterion_02_travel_entropy(capsys, canonical):
    start = time.perf_counter()
    _, _, report = canonical
    err = abs(report.i0t - 1.0)
    elapsed = time.perf_counter() - start
    _announce(
        capsys, 2, err <= 1e-12 and elapsed < 1.0,
        f"counterexample I0t = 1.0 within 1e-12 (|err| = {err:.3e}, {elapsed:.3f}s)",
    )


def test_criterion_03_ancilla_entropy(capsys, canonical):
    start = time.perf_counter()
    _, _, report = canonical
    err = abs(report.i0a)
    elapsed = time.perf_counter() - start
    _announce(
        capsys, 3, err <= 1e-12 and elapsed < 1.0,
        f"counterexample I0a = 0 within 1e-12 (|err| = {err:.3e}, {elapsed:.3f}s)",
    )


def test_criterion_04_composite_entropy_two_routes(capsys, canonical):
    start = time.perf_counter()
    spec, config, report = canonical
    # route (a): eigendecomposition of the assembled 4x4 ensemble average
    route_a = qlinalg.von_neumann_entropy(
        attack.post_encoding_ensemble(spec, config).average()
    )
    # route (b): analytic dephasing spectrum (1 +- |overlap|)/2, scalar sum
    psi = oracles.attacked_state(
        [1.0, 0.0], oracles.probe_ancilla(), oracles.probe_unitary()
    )
    route_b = oracles.dephased_mixture_entropy(psi, 2)
    gap = abs(route_a - route_b)

    code = cli.main(["demo"])
    out = capsys.readouterr().out
    emitted = (
        code == 0
        and "claimed I0c  = 2.000000000000" in out
        and "computed I0c = " in out
        and "DEVIATION" in out
    )
    elapsed = time.perf_counter() - start
    _announce(
        capsys, 4, gap <= 1e-10 and emitted and elapsed < 1.0,
        f"I0c routes agree within 1e-10 (gap = {gap:.3e}) and the demo "
        f"emits the claimed-vs-computed block ({elapsed:.3f}s)",
    )


def test_criterion_05_entropy_detection_identity(capsys):
    start = time.perf_counter()
    config = pp.make_config("simplified")
    worst = 0.0
    for seed in range(300):
        spec = search.sample_random_attack(2, seed)
        report = metrics.information_report(spec, config)
        worst = max(worst, abs(report.i0t - metrics.binary_entropy(report.d)))
    elapsed = time.perf_counter() - start
    _announce(
        capsys, 5, worst <= 1e-10 and elapsed < 30.0,
        f"I0t = H(d) within 1e-10 over 300 random attacks "
        f"(worst = {worst:.3e}, {elapsed:.1f}s)",
    )


def test_criterion_06_monte_carlo_detection(capsys):
    start = time.perf_counter()
    spec = pp.builtin_attack("counterexample")
    config = pp.make_config("simplified", control_probability=1.0)
    n = 100_000
    stats = protocol.monte_carlo(config, spec, rounds=n, seed=42)
    bound = 4.0 * math.sqrt(0.25 / n)
    gap = abs(stats.empirical_d - 0.5)
    elapsed = time.perf_counter() - start
    _announce(
        capsys, 6, gap <= bound and elapsed < 10.0,
        f"|empirical d - 0.5| = {gap:.4f} <= {bound:.4f} at 1e5 control rounds "
        f"({elapsed:.1f}s)",
    )


def test_criterion_07_entropy_inequalities(capsys):
    start = time.perf_counter()
    worst = math.inf
    for mode in ("simplified", "bell"):
        config = pp.make_config(mode)
        for seed in range(500):
            spec = search.sample_random_attack(2, seed)
            report = metrics.information_report(spec, config)
            diag = metrics.entropy_inequality_check(report)
            worst = min(worst, *diag.margins.values())
    elapsed = time.perf_counter() - start
    _announce(
        capsys, 7, worst >= -1e-8 and elapsed < 60.0,
        f"subadditivity and Araki-Lieb hold over 500 attacks x 2 modes "
        f"(worst margin = {worst:+.3e}, {elapsed:.1f}s)",
    )


def test_criterion_08_frontier_sanity(capsys):
    start = time.perf_counter()
    cfg = search.SweepConfig(d_grid=(0.0, 0.5), seed=2026, objectives=("i0t",))
    points = search.sweep(search.full_unitary_family(2), pp.make_config("simplified"), cfg)
    by_target = {p.d_target: p for p in points}
    quiet, busy = by_target[0.0], by_target[0.5]
    ok = (
        quiet.feasible
        and busy.feasible
        and quiet.best_i0t <= 0.02
        and 0.99 <= busy.best_i0t <= 1.0 + 1e-12
    )
    elapsed = time.perf_counter() - start
    _announce(
        capsys, 8, ok and elapsed < 300.0,
        f"sweep best i0t: {quiet.best_i0t:.6f} at d=0 (<= 0.02), "
        f"{busy.best_i0t:.6f} at d=0.5 (in [0.99, 1.0]) ({elapsed:.0f}s)",
    )


def test_criterion_09_holevo_contrast(capsys):
    start = time.perf_counter()
    spec = pp.builtin_attack("counterexample")
    chi_s = metrics.holevo_bound(
        attack.post_encoding_ensemble(spec, pp.make_config("simplified")), "composite"
    )
    chi_b = metrics.holevo_bound(
        attack.post_encoding_ensemble(spec, pp.make_config("bell")), "composite"
    )
    err_s, err_b = abs(chi_s - 1.0), abs(chi_b)
    elapsed = time.perf_counter() - start
    _announce(
        capsys, 9, err_s <= 1e-10 and err_b <= 1e-10 and elapsed < 1.0,
        f"composite Holevo = 1.0 simplified / 0.0 bell within 1e-10 "
        f"(errs {err_s:.2e}, {err_b:.2e}, {elapsed:.3f}s)",
    )


def test_criterion_10_maximal_mixing_anchor(capsys):
    start = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4, 8):
        s = qlinalg.von_neumann_entropy(pp.DensityMatrix(np.eye(n) / n))
        worst = max(worst, abs(s - math.log2(n)))
    elapsed = time.perf_counter() - start
    _announce(
        capsys, 10, worst <= 1e-12 and elapsed < 1.0,
        f"S(I_n/n) = log2 n for n in {{2,3,4,8}} (worst = {worst:.3e}, {elapsed:.3f}s)",
    )
