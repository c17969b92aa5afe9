import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize

import pingpong as pp
from pingpong import attack, metrics, qlinalg, search

import oracles


# ---------------------------------------------------------------------------
# unitary parameterization


def test_zero_parameters_give_identity():
    for dim in (2, 3, 4):
        u = search.parameterize_unitary(np.zeros(dim * dim), dim)
        assert np.max(np.abs(u.entries - np.eye(dim))) < 1e-12


def test_parameterization_rejects_wrong_count():
    with pytest.raises(ValueError, match="parameters"):
        search.parameterize_unitary(np.zeros(5), 2)


def test_parameterization_always_unitary():
    rng = np.random.default_rng(67)
    for dim in (2, 4):
        for _ in range(25):
            theta = rng.uniform(-math.pi, math.pi, dim * dim)
            u = search.parameterize_unitary(theta, dim)
            assert qlinalg._unitarity_deviation(u.entries) <= 1e-9


def test_parameterization_reaches_the_probe_coupling():
    """An explicit parameter vector reproduces the travel-rotation coupling.

    The generator is -(pi/4) sigma_y on the travel qubit: in the layout the
    two imaginary upper-triangle slots (0,2) and (1,3) hold pi/4 each.
    """
    theta_star = np.zeros(16)
    theta_star[7] = math.pi / 4
    theta_star[13] = math.pi / 4
    target = np.array(
        oracles.mat_kron(oracles.rotation_quarter(), oracles.identity(2))
    )
    u = search.parameterize_unitary(theta_star, 4)
    assert np.max(np.abs(u.entries - target)) < 1e-12


def _loop_parameterization(theta, dim):
    """exp(iH) with H filled by the row-major double loop over the upper triangle."""
    gen = np.zeros((dim, dim), dtype=complex)
    gen[np.diag_indices(dim)] = theta[:dim]
    k = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            gen[i, j] = theta[k] + 1j * theta[k + 1]
            gen[j, i] = theta[k] - 1j * theta[k + 1]
            k += 2
    evals, vecs = np.linalg.eigh(gen)
    return (vecs * np.exp(1j * evals)) @ vecs.conj().T


def test_parameterization_layout_matches_the_row_major_loop():
    rng = np.random.default_rng(61)
    for dim in (2, 3, 4):
        for _ in range(20):
            theta = rng.uniform(-math.pi, math.pi, dim * dim)
            u = search.parameterize_unitary(theta, dim)
            assert np.array_equal(u.entries, _loop_parameterization(theta, dim))


def test_probe_coupling_recoverable_from_perturbed_start():
    # local refinement pulls a +-0.3 perturbation back onto the probe
    theta_star = np.zeros(16)
    theta_star[7] = math.pi / 4
    theta_star[13] = math.pi / 4
    target = np.array(
        oracles.mat_kron(oracles.rotation_quarter(), oracles.identity(2))
    )

    def distance(theta):
        diff = search.parameterize_unitary(theta, 4).entries - target
        return float(np.sum(np.abs(diff) ** 2))

    rng = np.random.default_rng(71)
    x0 = theta_star + rng.uniform(-0.3, 0.3, 16)
    res = scipy.optimize.minimize(
        distance, x0, method="Nelder-Mead",
        options=dict(xatol=1e-9, fatol=1e-16, adaptive=True, maxfev=20_000),
    )
    dev = np.max(np.abs(search.parameterize_unitary(res.x, 4).entries - target))
    assert dev < 1e-6


# ---------------------------------------------------------------------------
# random sampling


def test_random_attacks_are_valid():
    rng = np.random.default_rng(73)
    for _ in range(200):
        spec = search.sample_random_attack(2, rng)
        assert attack.validate_attack(spec) == []


def test_random_attack_seed_determinism():
    a = search.sample_random_attack(3, 12345)
    b = search.sample_random_attack(3, 12345)
    assert np.array_equal(a.ancilla_state, b.ancilla_state)
    assert np.array_equal(a.unitary, b.unitary)


def test_random_attack_rejects_bad_dim():
    with pytest.raises(ValueError):
        search.sample_random_attack(0, 1)
    for family in (search.full_unitary_family, search.product_family):
        with pytest.raises(ValueError, match="ancilla_dim"):
            family(0)


def test_random_attack_single_dim_ancilla():
    spec = search.sample_random_attack(1, 5)
    assert spec.unitary.shape == (2, 2)
    assert attack.validate_attack(spec) == []


def test_haar_first_moment():
    # E|U_00|^2 = 1/dim under the Haar measure
    rng = np.random.default_rng(79)
    vals = [
        abs(search.haar_random_unitary(4, rng)[0, 0]) ** 2 for _ in range(2000)
    ]
    assert abs(float(np.mean(vals)) - 0.25) < 0.02


# ---------------------------------------------------------------------------
# families


def test_family_parameter_counts():
    assert search.full_unitary_family(2).param_count == 16
    assert search.product_family(2).param_count == 8
    assert search.product_family(3).param_count == 13


def test_families_build_valid_attacks():
    rng = np.random.default_rng(83)
    for family in (search.full_unitary_family(2), search.product_family(2)):
        for _ in range(30):
            theta = rng.uniform(-math.pi, math.pi, family.param_count)
            assert attack.validate_attack(family.build(theta)) == []


def test_product_family_never_entangles_via_coupling(simplified_config):
    # a product coupling on |0>⊗|0> keeps the ancilla marginal pure
    rng = np.random.default_rng(89)
    family = search.product_family(2)
    for _ in range(20):
        theta = rng.uniform(-math.pi, math.pi, family.param_count)
        rho = attack.apply_attack(family.build(theta), simplified_config)
        anc = pp.partial_trace(rho, (2, 2), 1)
        purity = float(np.trace(anc.entries @ anc.entries).real)
        assert abs(purity - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# sweep config and curve points


def test_sweep_config_sorts_grid():
    cfg = search.SweepConfig(d_grid=(0.5, 0.0, 0.25))
    assert cfg.d_grid == (0.0, 0.25, 0.5)


def test_sweep_config_defaults():
    cfg = search.SweepConfig(d_grid=(0.1,))
    assert cfg.detection_tolerance == 1e-3
    assert cfg.restarts == 20
    assert cfg.budget_per_restart == 2000
    assert cfg.objectives == ("i0t", "i0a", "i0c")


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        search.SweepConfig(d_grid=(1.5,))
    with pytest.raises(ValueError):
        search.SweepConfig(d_grid=(0.1,), objectives=("entropy",))
    with pytest.raises(ValueError):
        search.SweepConfig(d_grid=(0.1,), objectives=())
    with pytest.raises(ValueError):
        search.SweepConfig(d_grid=(0.1,), restarts=0)
    with pytest.raises(ValueError):
        search.SweepConfig(d_grid=(0.1,), detection_tolerance=0.0)


def test_sweep_config_caps_the_restarts_of_one_search():
    search.SweepConfig(d_grid=(0.1,), restarts=search.MAX_RESTARTS, objectives=("i0t",))
    with pytest.raises(ValueError, match="in memory at once"):
        search.SweepConfig(d_grid=(0.1,), restarts=search.MAX_RESTARTS + 1, objectives=("i0t",))
    # grid points × objectives × restarts: 2 × 3 × 16,667 = 100,002
    with pytest.raises(ValueError, match="100,002 restarts"):
        search.SweepConfig(d_grid=(0.1, 0.2), restarts=16_667)


def test_curve_point_best_value_property():
    point = search.CurvePoint(
        d_target=0.1, d_achieved=0.1, objective="i0a",
        best_i0t=0.5, best_i0a=0.25, best_i0c=0.6,
        theta_best=(0.0,), evaluations=10,
    )
    assert point.best_value == 0.25


# ---------------------------------------------------------------------------
# optimization (small budgets: these exercise the plumbing, not the frontier)

QUICK = search.SweepConfig(
    d_grid=(0.5,), restarts=3, budget_per_restart=400, seed=5, objectives=("i0t",)
)


def test_maximize_at_half_detection_is_near_one_bit(simplified_config):
    point = search.maximize_information(
        search.full_unitary_family(2), simplified_config, "i0t", 0.5, QUICK
    )
    assert point.feasible
    # any attack inside the band has i0t = H(d) >= H(0.499) > 0.9999
    assert point.best_i0t > 0.999
    assert abs(point.d_achieved - 0.5) <= QUICK.detection_tolerance


def test_maximize_at_zero_detection_stays_quiet(simplified_config):
    point = search.maximize_information(
        search.full_unitary_family(2), simplified_config, "i0t", 0.0, QUICK
    )
    assert point.feasible
    assert point.best_i0t <= 0.02


def test_maximize_respects_budget_and_reproduces(simplified_config):
    family = search.full_unitary_family(2)
    point = search.maximize_information(family, simplified_config, "i0t", 0.5, QUICK)
    assert point.evaluations <= QUICK.restarts * QUICK.budget_per_restart
    rep = metrics.information_report(
        family.build(np.array(point.theta_best)), simplified_config
    )
    assert abs(rep.i0t - point.best_i0t) < 1e-10
    assert abs(rep.d - point.d_achieved) < 1e-10


def test_maximize_product_family_ancilla_stays_empty(simplified_config):
    cfg = search.SweepConfig(
        d_grid=(0.0,), restarts=2, budget_per_restart=300, seed=7, objectives=("i0a",)
    )
    point = search.maximize_information(
        search.product_family(2), simplified_config, "i0a", 0.0, cfg
    )
    assert point.feasible
    assert point.best_i0a < 1e-6


def test_maximize_reports_infeasible_instead_of_raising(simplified_config):
    cfg = search.SweepConfig(
        d_grid=(0.37,), detection_tolerance=1e-12, restarts=1,
        budget_per_restart=8, seed=3, objectives=("i0t",),
    )
    point = search.maximize_information(
        search.full_unitary_family(2), simplified_config, "i0t", 0.37, cfg
    )
    assert not point.feasible
    assert point.evaluations <= 8


def test_maximize_rejects_bad_arguments(simplified_config):
    family = search.full_unitary_family(2)
    with pytest.raises(ValueError, match="objective"):
        search.maximize_information(family, simplified_config, "holevo", 0.5, QUICK)
    with pytest.raises(ValueError, match="d_target"):
        search.maximize_information(family, simplified_config, "i0t", 1.5, QUICK)


def test_sweep_orders_points_and_reproduces(simplified_config):
    cfg = search.SweepConfig(
        d_grid=(0.3, 0.0), restarts=2, budget_per_restart=300, seed=9,
        objectives=("i0t",),
    )
    family = search.full_unitary_family(2)
    first = search.sweep(family, simplified_config, cfg)
    second = search.sweep(family, simplified_config, cfg)
    assert [p.d_target for p in first.points] == [0.0, 0.3]
    assert [p.theta_best for p in first.points] == [p.theta_best for p in second.points]
    assert len(first.summary.rows) == 2
    for point in first.points:
        if point.feasible:
            assert abs(
                point.best_i0t - metrics.binary_entropy(point.d_achieved)
            ) < 1e-8


# (d_target, objective, evaluations, feasible, d_achieved, best_value) of the
# seeded sweep below, values at 12 significant digits.  Any change to the
# evaluation kernel or the build that moves the optimizer's path shows here.
PINNED_SWEEP = (
    (0.1, "i0t", 300, False, "0.141979584913", "0.589399779729"),
    (0.1, "i0a", 300, False, "0.134201756291", "0.374099932222"),
    (0.1, "i0c", 300, False, "0.122593583264", "0.536770373541"),
    (0.4, "i0t", 300, True, "0.400926310647", "0.971489873137"),
    (0.4, "i0a", 300, False, "0.597902272169", "0.357462896623"),
    (0.4, "i0c", 300, True, "0.400585617648", "0.971292128216"),
)


def test_seeded_sweep_is_pinned(simplified_config):
    cfg = search.SweepConfig(d_grid=(0.1, 0.4), restarts=2, budget_per_restart=150, seed=5)
    result = search.sweep(search.full_unitary_family(2), simplified_config, cfg)
    got = tuple(
        (p.d_target, p.objective, p.evaluations, p.feasible,
         f"{p.d_achieved:.12g}", f"{p.best_value:.12g}")
        for p in result.points
    )
    assert got == PINNED_SWEEP


# The same for one point of the canonical sweep at the benchmark's budget:
# pingpong sweep --grid 0.3 --restarts 3 --budget 400 --seed 0.
PINNED_CANONICAL_SWEEP = (
    (0.3, "i0t", 1200, True, "0.300998776165", "0.882508371228"),
    (0.3, "i0a", 1200, True, "0.300297717449", "0.880409978633"),
    (0.3, "i0c", 1200, True, "0.300953949206", "0.882453875495"),
)


def test_canonical_sweep_at_the_benchmark_budget_is_pinned(simplified_config):
    cfg = search.SweepConfig(d_grid=(0.3,), restarts=3, budget_per_restart=400, seed=0)
    result = search.sweep(search.full_unitary_family(2), simplified_config, cfg)
    got = tuple(
        (p.d_target, p.objective, p.evaluations, p.feasible,
         f"{p.d_achieved:.12g}", f"{p.best_value:.12g}")
        for p in result.points
    )
    assert got == PINNED_CANONICAL_SWEEP


def test_sweep_with_all_objectives(simplified_config):
    cfg = search.SweepConfig(
        d_grid=(0.3,), restarts=2, budget_per_restart=250, seed=21
    )
    result = search.sweep(search.full_unitary_family(2), simplified_config, cfg)
    assert len(result.points) == 3
    assert [p.objective for p in result.points] == ["i0t", "i0a", "i0c"]
    row = result.summary.rows[0]
    assert set(row.best) <= {"i0t", "i0a", "i0c"}
    assert isinstance(result.summary.note, str) and "lower bounds" in result.summary.note


def test_sweep_empty_grid(simplified_config):
    cfg = search.SweepConfig(d_grid=(), objectives=("i0t",))
    result = search.sweep(search.full_unitary_family(2), simplified_config, cfg)
    assert result.points == ()
    assert result.summary.rows == ()


def test_summary_flags_use_the_margin():
    def point(objective, value, d=0.3):
        values = {"best_i0t": 0.0, "best_i0a": 0.0, "best_i0c": 0.0}
        values["best_" + objective] = value
        return search.CurvePoint(
            d_target=d, d_achieved=d, objective=objective,
            theta_best=(), evaluations=1, **values
        )

    summary = search._summarize((point("i0t", 0.5), point("i0a", 0.505), point("i0c", 0.52)))
    row = summary.rows[0]
    assert row.i0a_exceeds_i0t is False  # within margin
    assert row.i0c_exceeds_i0t is True
    assert row.infeasible_objectives == ()


# ---------------------------------------------------------------------------
# the lockstep search against scipy and a serial reference


def _penalized(family, config, objective, d_target, tol=1e-3):
    """The negated score the search minimizes, one information_report per point."""

    def score(theta):
        report = metrics.information_report(family.build(theta), config)
        gap = abs(report.d - d_target)
        return -(getattr(report, objective) - search.PENALTY_WEIGHT * max(0.0, gap - tol) ** 2)

    return score


def _scipy_points(score, x0, budget):
    asked = []

    def recorded(theta):
        asked.append(np.copy(theta))
        return score(theta)

    scipy.optimize.minimize(
        recorded, x0, method="Nelder-Mead",
        options=dict(xatol=1e-7, fatol=1e-12, adaptive=True, maxfev=budget),
    )
    return asked


def _port_points(score, x0, budget):
    asked = []
    moves = search._nelder_mead(x0, budget)
    value = None
    while True:
        try:
            point = moves.send(value)
        except StopIteration:
            return asked
        asked.append(np.copy(point))
        value = score(point)


@pytest.mark.parametrize("family", [search.full_unitary_family(1), search.product_family(1)],
                         ids=lambda f: f.name)
@pytest.mark.parametrize("objective", search.OBJECTIVES)
def test_nelder_mead_port_asks_scipys_points(simplified_config, family, objective):
    """Budget 3 ends inside the initial simplex; 1500 from zero ends on the
    xatol/fatol test; 400 from a random start is the benchmark's budget.
    The sixteen-parameter test below ends on maxfev."""
    score = _penalized(family, simplified_config, objective, 0.3)
    rng = np.random.default_rng(17)
    x_random = rng.uniform(-math.pi, math.pi, family.param_count)
    for x0, budget in ((np.zeros(family.param_count), 3), (x_random, 400),
                       (np.zeros(family.param_count), 1500)):
        want = _scipy_points(score, x0, budget)
        got = _port_points(score, x0, budget)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert 3 < len(want) < 1500  # the last case converged before its budget


def test_nelder_mead_port_asks_scipys_points_at_sixteen_parameters(bell_config):
    family = search.full_unitary_family(2)
    score = _penalized(family, bell_config, "i0c", 0.2)
    x0 = np.random.default_rng(19).uniform(-math.pi, math.pi, family.param_count)
    want = _scipy_points(score, x0, 400)
    got = _port_points(score, x0, 400)
    assert len(want) == 400
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _serial_sweep(family, config, sweep_cfg):
    """The search as one scipy Nelder-Mead run per restart, one
    information_report per evaluation, points tracked across restarts."""
    tol = sweep_cfg.detection_tolerance
    children = np.random.SeedSequence(sweep_cfg.seed).spawn(
        len(sweep_cfg.d_grid) * len(sweep_cfg.objectives))
    points = []
    tasks = [(d, o) for d in sweep_cfg.d_grid for o in sweep_cfg.objectives]
    for (d_target, objective), child in zip(tasks, children):
        rng = np.random.default_rng(child)
        evaluations = 0
        best = closest = None

        def tracked(theta):
            nonlocal evaluations, best, closest
            evaluations += 1
            report = metrics.information_report(family.build(theta), config)
            value, gap = getattr(report, objective), abs(report.d - d_target)
            if gap <= tol and (best is None or value > best[0]):
                best = (value, np.copy(theta))
            if closest is None or gap < closest[0]:
                closest = (gap, np.copy(theta))
            return -(value - search.PENALTY_WEIGHT * max(0.0, gap - tol) ** 2)

        starts = [np.zeros(family.param_count)]
        starts += [rng.uniform(-math.pi, math.pi, family.param_count)
                   for _ in range(sweep_cfg.restarts - 1)]
        for x0 in starts:
            scipy.optimize.minimize(
                tracked, x0, method="Nelder-Mead",
                options=dict(xatol=1e-7, fatol=1e-12, adaptive=True,
                             maxfev=sweep_cfg.budget_per_restart),
            )
        theta = best[1] if best is not None else closest[1]
        report = metrics.information_report(family.build(theta), config)
        points.append((tuple(float(t) for t in theta), evaluations, best is not None,
                       report.d, getattr(report, objective)))
    return points


@pytest.mark.parametrize("make_family", [search.full_unitary_family, search.product_family])
@pytest.mark.parametrize("ancilla_dim", [1, 2])
@pytest.mark.parametrize("mode,encoding", [("simplified", "iz"), ("bell", "paulis")])
def test_lockstep_sweep_equals_the_serial_reference(make_family, ancilla_dim, mode, encoding):
    family = make_family(ancilla_dim)
    config = pp.make_config(mode, encoding=encoding)
    cfg = search.SweepConfig(d_grid=(0.1, 0.4), restarts=3, budget_per_restart=80, seed=23)
    got = [
        (p.theta_best, p.evaluations, p.feasible, p.d_achieved, p.best_value)
        for p in search.sweep(family, config, cfg).points
    ]
    assert got == _serial_sweep(family, config, cfg)


def test_maximize_information_equals_its_sweep_point(simplified_config):
    family = search.product_family(2)
    cfg = search.SweepConfig(d_grid=(0.2,), restarts=3, budget_per_restart=100, seed=4,
                             objectives=("i0a",))
    child = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    point = search.maximize_information(
        family, simplified_config, "i0a", 0.2, cfg, rng=np.random.default_rng(child))
    assert point == search.sweep(family, simplified_config, cfg).points[0]


def test_a_non_unitary_row_stops_the_search(simplified_config):
    base = search.full_unitary_family(1)

    def build_stack(thetas):
        unitaries = base.build_stack(thetas)
        unitaries[1] *= 1.5
        return unitaries

    family = dataclasses.replace(base, name="broken", build_stack=build_stack)
    cfg = search.SweepConfig(d_grid=(0.3,), restarts=3, budget_per_restart=50, objectives=("i0t",))
    with pytest.raises(attack.InvalidAttackError, match="row 1: coupling matrix is not unitary") as info:
        search.sweep(family, simplified_config, cfg)
    assert "row 0" not in str(info.value) and "row 2" not in str(info.value)


def test_family_build_is_its_stack_builder_on_one_row():
    rng = np.random.default_rng(29)
    for family in (search.full_unitary_family(3), search.product_family(3)):
        thetas = rng.uniform(-math.pi, math.pi, (5, family.param_count))
        stack = family.build_stack(thetas)
        for theta, unitary in zip(thetas, stack):
            spec = family.build(theta)
            assert np.array_equal(spec.unitary, unitary)
            assert np.array_equal(spec.ancilla_state, [1, 0, 0])


def test_product_stack_is_the_kronecker_product():
    rng = np.random.default_rng(31)
    family = search.product_family(2)
    thetas = rng.uniform(-math.pi, math.pi, (4, family.param_count))
    for theta, unitary in zip(thetas, family.build_stack(thetas)):
        want = np.kron(search._unitary(theta[:4], 2), search._unitary(theta[4:], 2))
        assert np.array_equal(unitary, want)
