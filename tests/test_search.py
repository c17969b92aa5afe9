import ast
import dataclasses
import hashlib
import math
import tracemalloc
from pathlib import Path

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


def test_shared_arrays_are_read_only():
    # every _unitary call for one dim gathers with the same cached arrays, and
    # every make_config encodes with the module's Pauli matrices
    index, sign = search._generator_gather(4)
    for shared in (index, sign, qlinalg.PAULI_I, qlinalg.PAULI_X, qlinalg.PAULI_Z):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = shared[1]


def test_the_only_scipy_under_src_is_the_import_bench_times():
    # nothing in the package calls scipy: deleting search.py's one import line
    # must be all it takes to drop the dependency
    imports, uses = [], []
    for path in sorted(Path(search.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                if isinstance(node, ast.Name) and node.id == "scipy":
                    uses.append(f"{path.name}:{node.lineno}")
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                imports.append((path.name, ast.unparse(node)))
    assert imports == [("search.py", "import scipy.optimize")]
    assert uses == []


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
    # the rule validate_attack and SweepConfig apply: an integer >= 1, not a bool
    for bad in (0, 2.5, 2.0, True):
        with pytest.raises(ValueError, match="ancilla_dim"):
            search.sample_random_attack(bad, 1)
        for family in (search.full_unitary_family, search.product_family):
            with pytest.raises(ValueError, match="ancilla_dim"):
                family(bad)
    assert attack.validate_attack(search.sample_random_attack(np.int64(2), 1)) == []
    for family in (search.full_unitary_family, search.product_family):
        assert family(np.int64(2)).ancilla_dim == 2


def test_sampling_and_parameterizing_reject_a_bad_dim_before_drawing():
    """dim must be an integer >= 1 (not a bool); the rng is not touched first."""
    for bad in (0, -1, 2.5, 2.0, True):
        rng = np.random.default_rng(5)
        for call in (search.haar_random_unitary, search.random_pure_state):
            with pytest.raises(ValueError, match=f"^dim must be an integer >= 1, got {bad!r}$"):
                call(bad, rng)
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state
    for theta, bad in ((np.zeros(16), 4.0), (np.zeros(0), 0), (np.zeros(1), True)):
        with pytest.raises(ValueError, match=f"^dim must be an integer >= 1, got {bad!r}$"):
            search.parameterize_unitary(theta, bad)
    rng = np.random.default_rng(5)
    assert search.haar_random_unitary(np.int64(3), rng).shape == (3, 3)
    assert search.random_pure_state(np.int64(3), rng).shape == (3,)
    assert search.parameterize_unitary(np.zeros(1), np.int64(1)).entries.shape == (1, 1)


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
    # each of these once died mid-sweep, in range() or in SeedSequence
    for bad in ({"restarts": 2.5}, {"budget_per_restart": 20.5}, {"seed": 1.5}, {"seed": -1}):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be an integer"):
            search.SweepConfig(d_grid=(0.1,), **bad)
    # a string was read as its number, and True as 1.0
    for grid in (("0.3",), (True,), (0.1, np.bool_(False)), (None,), (0.1j,)):
        with pytest.raises(ValueError, match="grid values must be numbers"):
            search.SweepConfig(d_grid=grid)
    assert search.SweepConfig(d_grid=(np.float32(0.5), 1, np.int64(0))).d_grid == (0.0, 0.5, 1.0)
    # a repeat once ran twice and the summary kept only its second copy
    for bad in ({"d_grid": (0.3, 0.3)}, {"d_grid": (0.0, 0.5, -0.0)},
                {"d_grid": (0.3,), "objectives": ("i0t", "i0a", "i0t")}):
        with pytest.raises(ValueError, match="must be distinct"):
            search.SweepConfig(**bad)


def _no_restarts(*args, **kwargs):
    raise AssertionError("a restart was built")


def test_sweep_bounds_the_bytes_of_its_restarts(simplified_config, monkeypatch):
    monkeypatch.setattr(search, "_simplex_moves", _no_restarts)
    # 2 × 3 × 16,667 = 100,002 restarts, once refused by SweepConfig's restart
    # count, take 1.06 GB at P = 16, and 200,000 restarts 0.95 GB at P = 4
    wide = search.SweepConfig(d_grid=(0.1, 0.2), restarts=16_667)
    many = search.SweepConfig(d_grid=(0.1,), restarts=200_000, objectives=("i0t",))
    for family, sweep_cfg in ((search.full_unitary_family(2), wide),
                              (search.full_unitary_family(1), many)):
        assert len(sweep_cfg.d_grid) * len(sweep_cfg.objectives) * sweep_cfg.restarts \
            * search._restart_bytes(family) <= search.MAX_SWEEP_BYTES
        with pytest.raises(AssertionError, match="a restart was built"):
            search.sweep(family, simplified_config, sweep_cfg)
    # the same 100,002 restarts at P = 36 take 2.5 GB
    with pytest.raises(search.SearchTooLargeError, match="100,002 restarts of .* over 1,073,741,824"):
        search.sweep(search.full_unitary_family(3), simplified_config, wide)


def _peak_bytes(family, config, restarts):
    """tracemalloc's peak over one sweep of ``restarts`` restarts at budget 40."""
    sweep_cfg = search.SweepConfig(d_grid=(0.3,), restarts=restarts, budget_per_restart=40,
                                   objectives=("i0t",))
    tracemalloc.start()
    try:
        search.sweep(family, config, sweep_cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode,encoding", [("simplified", "iz"), ("bell", "paulis")])
def test_restart_bytes_bound_the_measured_peak_per_restart(mode, encoding):
    config = pp.make_config(mode, encoding=encoding)
    for make_family in (search.full_unitary_family, search.product_family):
        for ancilla_dim in (1, 2, 4):
            family = make_family(ancilla_dim)
            low = _peak_bytes(family, config, 20)  # and the first build's caches
            slope = (_peak_bytes(family, config, 60) - low) / 40
            assert slope <= search._restart_bytes(family) <= 2 * slope, (family.name, ancilla_dim)


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
    # one restart of one evaluation: the zero start is the identity, so d = 0
    cfg = search.SweepConfig(
        d_grid=(0.37,), restarts=1, budget_per_restart=1, seed=3, objectives=("i0t",),
    )
    point = search.maximize_information(
        search.full_unitary_family(2), simplified_config, "i0t", 0.37, cfg
    )
    assert not point.feasible
    assert point.evaluations == 1
    assert point.d_achieved == 0.0


def test_maximize_rejects_bad_arguments(simplified_config):
    family = search.full_unitary_family(2)
    with pytest.raises(ValueError, match="^objectives must be drawn from"):
        search.maximize_information(family, simplified_config, "holevo", 0.5, QUICK)
    with pytest.raises(ValueError, match=r"^grid values must lie in \[0, 1\]"):
        search.maximize_information(family, simplified_config, "i0t", 1.5, QUICK)


def test_sweep_orders_points_and_reproduces(simplified_config):
    cfg = search.SweepConfig(
        d_grid=(0.3, 0.0), restarts=2, budget_per_restart=300, seed=9,
        objectives=("i0t",),
    )
    family = search.full_unitary_family(2)
    first = search.sweep(family, simplified_config, cfg)
    second = search.sweep(family, simplified_config, cfg)
    assert [p.d_target for p in first] == [0.0, 0.3]
    assert [p.theta_best for p in first] == [p.theta_best for p in second]
    for point in first:
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
    points = search.sweep(search.full_unitary_family(2), simplified_config, cfg)
    got = tuple(
        (p.d_target, p.objective, p.evaluations, p.feasible,
         f"{p.d_achieved:.12g}", f"{p.best_value:.12g}")
        for p in points
    )
    assert got == PINNED_SWEEP


# The same, at full precision, for the six sweeps of the benchmark's canonical
# workload: pingpong sweep --grid d --restarts 3 --budget 400 --seed 0 for d in
# 0.0, 0.1, ..., 0.5.  d_achieved and best_value are float.hex strings, and the
# last field is the sha256 of theta_best's float64 bytes.
PINNED_CANONICAL_SWEEP = (
    (0.0, "i0t", 1200, True, "0x1.51e8a03d98000p-15", "0x1.52cca76363c19p-11",
     "7d3a92796f02fb64a901bf2b6f053ed236d6fed029e953dbb4d73c1272b64932"),
    (0.0, "i0a", 1200, True, "0x1.2af8727a16800p-12", "0x1.eb6c3ccd6d19cp-9",
     "13a98d725954e076b1ed93545a62c67d1e47821074df45275c3733ea7a3fc625"),
    (0.0, "i0c", 1200, True, "0x1.51e8a03d98000p-15", "0x1.52cca76364852p-11",
     "7d3a92796f02fb64a901bf2b6f053ed236d6fed029e953dbb4d73c1272b64932"),
    (0.1, "i0t", 1200, True, "0x1.9d480e8474838p-4", "0x1.e329913ca4e1cp-2",
     "ca65668dc5c39ba741252549803b394845b9f10282b9a4ad78d97f878a4bd288"),
    (0.1, "i0a", 1200, True, "0x1.98aca04184138p-4", "0x1.d77115e2cefc6p-2",
     "a26d142d6f3be819db9be438537cb3a969e67dd46d36a66bd6df12aeebaf2a4d"),
    (0.1, "i0c", 1200, True, "0x1.9cbb85c6a5778p-4", "0x1.e2baa9d3618c0p-2",
     "a247873110f8136577cde4591cbb968ac96c3f79b290f502b803e3823ec7081f"),
    (0.2, "i0t", 1200, True, "0x1.9b6f0763fa938p-3", "0x1.728accec741c6p-1",
     "b4cd48b893d9a98cc153698204c5d2c11c9a444b14e72da18bdab76fa1937f46"),
    (0.2, "i0a", 1200, True, "0x1.9b07511842848p-3", "0x1.716987e961472p-1",
     "dd6f354ac121c5b72e48531c2082f0a486a430c897d67a8614837d7f3071cbe9"),
    (0.2, "i0c", 1200, True, "0x1.9b425b1041358p-3", "0x1.72748cb589f3ep-1",
     "312fb8259441547c9fade4e39822007df60ea65be2a0ee8d7a50c5bc8b4f99a2"),
    (0.3, "i0t", 1200, True, "0x1.343905ef0ebdcp-2", "0x1.c3d82321bd677p-1",
     "a11d9d53fd0b58a673aa4bad317136aca5811bca46be2ac91b1a4b97c15b7fe9"),
    (0.3, "i0a", 1200, True, "0x1.33813eae0662cp-2", "0x1.c2c518c29acd2p-1",
     "6ff544290f11193611fa840a6c4000395c5cb40d606b0d893aee28c99b199d3c"),
    (0.3, "i0c", 1200, True, "0x1.342d45a5c3bbcp-2", "0x1.c3d0fe8ef4fcdp-1",
     "c15d0a1fd8a47dc567db62fabb55ce6fe3072f0dde4a72a775bb218f9a016910"),
    (0.4, "i0t", 1200, True, "0x1.9a9c2490e6912p-2", "0x1.f16bac120cfb5p-1",
     "be7fdd7cdb0d641b48e2a83c48e049a6d828ab02247d3f1bc0dad6710ec380a2"),
    (0.4, "i0a", 1200, True, "0x1.9a5081fbc3592p-2", "0x1.f14ae9ea8c872p-1",
     "d2a2e396c50de46c01a440f2a0f81a2ff495d2dc72437723a32284dca50c4e62"),
    (0.4, "i0c", 1200, True, "0x1.9a9e1ac1a2df6p-2", "0x1.f16c3d75455d0p-1",
     "0be3840bf5490ee7f24882ffbc7c9c17ae6b08e1859da27c62ae8a072cc2ad95"),
    (0.5, "i0t", 1200, True, "0x1.000a8455da848p-1", "0x1.ffffff606dec0p-1",
     "3898e0aec0ee92400f3db96cc69bda84fa18686be7fc712b703730b5e20e09ac"),
    (0.5, "i0a", 1200, True, "0x1.ff08fd2b045b2p-2", "0x1.fff0094013ce9p-1",
     "8f73b853dc0f70f34c7fbade28bd8c48df41a102f715c60c6ac3a52c187ffc19"),
    (0.5, "i0c", 1200, True, "0x1.0046cd5453e0fp-1", "0x1.ffffe3bfdd819p-1",
     "093b24272799bc836f8452d1417589b677cee83b4d625f8d98f343c54af27407"),
)


@pytest.mark.parametrize("d_target", sorted({row[0] for row in PINNED_CANONICAL_SWEEP}))
def test_canonical_sweep_at_the_benchmark_budget_is_pinned(simplified_config, d_target):
    cfg = search.SweepConfig(d_grid=(d_target,), restarts=3, budget_per_restart=400, seed=0)
    points = search.sweep(search.full_unitary_family(2), simplified_config, cfg)
    got = tuple(
        (p.d_target, p.objective, p.evaluations, p.feasible, p.d_achieved.hex(),
         p.best_value.hex(), hashlib.sha256(np.array(p.theta_best).tobytes()).hexdigest())
        for p in points
    )
    assert got == tuple(row for row in PINNED_CANONICAL_SWEEP if row[0] == d_target)


def test_sweep_with_all_objectives(simplified_config):
    cfg = search.SweepConfig(
        d_grid=(0.3,), restarts=2, budget_per_restart=250, seed=21
    )
    points = search.sweep(search.full_unitary_family(2), simplified_config, cfg)
    assert [(p.d_target, p.objective) for p in points] == [(0.3, "i0t"), (0.3, "i0a"), (0.3, "i0c")]


def test_sweep_empty_grid(simplified_config):
    cfg = search.SweepConfig(d_grid=(), objectives=("i0t",))
    assert search.sweep(search.full_unitary_family(2), simplified_config, cfg) == ()


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
    """The points the port asks, capped at budget as the search caps a restart."""
    asked = []
    moves = search._simplex_moves(x0)
    value = None
    while len(asked) < budget:
        try:
            point = moves.send(value)
        except StopIteration:
            break
        asked.append(np.copy(point))
        value = score(point)
    return asked


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


def _lockstep_sweep(family, config, sweep_cfg):
    return [
        (p.theta_best, p.evaluations, p.feasible, p.d_achieved, p.best_value)
        for p in search.sweep(family, config, sweep_cfg)
    ]


@pytest.mark.parametrize("make_family", [search.full_unitary_family, search.product_family])
@pytest.mark.parametrize("ancilla_dim", [1, 2])
@pytest.mark.parametrize("mode,encoding", [("simplified", "iz"), ("bell", "paulis")])
def test_lockstep_sweep_equals_the_serial_reference(make_family, ancilla_dim, mode, encoding):
    family = make_family(ancilla_dim)
    config = pp.make_config(mode, encoding=encoding)
    for budget in (80, 1):  # budget 1 stops every restart at its first point
        cfg = search.SweepConfig(d_grid=(0.1, 0.4), restarts=3, budget_per_restart=budget, seed=23)
        assert _lockstep_sweep(family, config, cfg) == _serial_sweep(family, config, cfg)


def test_lockstep_sweep_equals_the_serial_reference_when_a_restart_converges():
    """The zero start ends on the xatol/fatol test, well inside its budget."""
    family = search.product_family(1)
    config = pp.make_config("simplified", encoding="iz")
    cfg = search.SweepConfig(d_grid=(0.3,), restarts=2, budget_per_restart=1500, objectives=("i0t",))
    got = _lockstep_sweep(family, config, cfg)
    assert got == _serial_sweep(family, config, cfg)
    assert any(evaluations < cfg.restarts * cfg.budget_per_restart for _, evaluations, *_ in got)


@pytest.mark.parametrize("mode", ["simplified", "bell"])
@pytest.mark.parametrize("family", [search.full_unitary_family(2), search.product_family(2)],
                         ids=lambda f: f.name)
def test_maximize_information_equals_its_sweep_point(family, mode):
    """maximize_information is the one-point sweep at its target and objective,
    whatever grid and objectives its sweep_cfg carries."""
    config = pp.make_config(mode)
    cfg = search.SweepConfig(d_grid=(0.1, 0.4), restarts=3, budget_per_restart=100, seed=4)
    one_point = search.SweepConfig(d_grid=(0.2,), restarts=3, budget_per_restart=100, seed=4,
                                   objectives=("i0a",))
    point = search.maximize_information(family, config, "i0a", 0.2, cfg)
    assert point == search.sweep(family, config, one_point)[0]


@pytest.mark.parametrize("make_family", [search.full_unitary_family, search.product_family])
def test_a_row_off_its_norm_stops_the_search_at_its_step(simplified_config, make_family):
    cfg = search.SweepConfig(d_grid=(0.3,), restarts=3, budget_per_restart=50, objectives=("i0t",))
    base = make_family(1)

    def build_stack(thetas):
        unitaries = base.build_stack(thetas)
        unitaries[1] *= 1.5
        return unitaries

    family = dataclasses.replace(base, name="broken", build_stack=build_stack)
    with pytest.raises(attack.InvalidAttackError) as info:
        search.sweep(family, simplified_config, cfg)
    assert str(info.value) == "row 1: attacked state norm² 2.25 is not 1 within 1e-10"


@pytest.mark.parametrize("make_family", [search.full_unitary_family, search.product_family])
def test_a_norm_keeping_break_stops_the_search_before_any_point(
    simplified_config, monkeypatch, make_family
):
    """The last column maps |1>⊗|0>, which the sent |0>⊗|0> never reaches: every
    trace in the search passes, and validate_attack on the winner rejects it."""
    cfg = search.SweepConfig(d_grid=(0.3, 0.5), restarts=3, budget_per_restart=50)
    base = make_family(1)

    def build_stack(thetas):
        unitaries = base.build_stack(thetas)
        unitaries[..., -1] *= 1.5
        return unitaries

    family = search._family("broken", 1, base.param_count, build_stack)
    violations = attack.validate_attack(family.build(np.zeros(base.param_count)))
    assert violations == ["coupling matrix is not unitary: max |U†U - I| = 1.25"]

    def no_points(*args, **kwargs):
        raise AssertionError("a CurvePoint was made")

    monkeypatch.setattr(search, "CurvePoint", no_points)
    with pytest.raises(attack.InvalidAttackError, match="^coupling matrix is not unitary"):
        search.sweep(family, simplified_config, cfg)


@pytest.mark.parametrize("make_family", [search.full_unitary_family, search.product_family])
@pytest.mark.parametrize("ancilla_dim", [1, 2, 3, 4, 8])
def test_family_stacks_stay_unitary_far_outside_the_restart_range(make_family, ancilla_dim):
    """The search checks no U†U, so the families must build unitaries, and
    isometries with W†W = I₂, wherever Nelder–Mead wanders: here |θ| up to 1e6."""
    family = make_family(ancilla_dim)
    rng = np.random.default_rng(ancilla_dim)
    scales = np.logspace(0, 6, 7)[:, None, None]
    thetas = (scales * rng.uniform(-1.0, 1.0, (7, 3, family.param_count))).reshape(-1, family.param_count)
    worst = max(qlinalg._unitarity_deviation(family.build(theta).unitary) for theta in thetas)
    assert worst <= qlinalg.ATOL
    isometries = family.build_stack(thetas)
    assert isometries.shape == (len(thetas), 2 * ancilla_dim, 2)
    gram = np.swapaxes(isometries.conj(), 1, 2) @ isometries
    assert np.abs(gram - np.eye(2)).max() <= qlinalg.ATOL


def test_family_build_is_its_stack_builder_on_one_row():
    """Row i of build_stack is the columns of build(θ_i)'s coupling on |0>, to the bit."""
    rng = np.random.default_rng(29)
    for anc in (1, 2, 3, 4):
        for family in (search.full_unitary_family(anc), search.product_family(anc)):
            thetas = rng.uniform(-math.pi, math.pi, (5, family.param_count))
            stack = family.build_stack(thetas)
            for theta, isometry in zip(thetas, stack):
                spec = family.build(theta)
                assert np.array_equal(spec.unitary[:, ::anc], isometry)
                assert np.array_equal(spec.ancilla_state, np.eye(anc)[0])


@pytest.mark.parametrize("mode", ["simplified", "bell"])
def test_lifting_the_family_isometries_equals_the_one_attack_rows(mode):
    """What the search lifts from build_stack equals, to the bit, what every
    report lifts from the spec that build returns."""
    config = pp.make_config(mode)
    rng = np.random.default_rng(43)
    for anc in (1, 2, 3, 4):
        for family in (search.full_unitary_family(anc), search.product_family(anc)):
            thetas = rng.uniform(-math.pi, math.pi, (4, family.param_count))
            rows = attack._checked_lift(family.build_stack(thetas), config, "row {}: ")
            for theta, got in zip(thetas, rows):
                assert np.array_equal(got, attack._attacked_rows([family.build(theta)], config)[0])


def test_product_stack_is_the_kronecker_product():
    rng = np.random.default_rng(31)
    family = search.product_family(2)
    thetas = rng.uniform(-math.pi, math.pi, (4, family.param_count))
    for theta, isometry in zip(thetas, family.build_stack(thetas)):
        want = np.kron(search._unitary(theta[:4], 2), search._unitary(theta[4:], 2))
        assert np.array_equal(isometry, want[:, ::2])
