import ast
import dataclasses
import functools
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
# the isometry map


def _identity_isometry(ancilla_dim):
    """W₀ = I₂⊗|0>: the columns |0,0> and |1,0> of the identity."""
    return np.eye(2 * ancilla_dim)[:, ::ancilla_dim]


def _probe_isometry():
    """The counterexample's W, column t the attacked state of |t>, from the oracles."""
    columns = [oracles.attacked_state(travel, oracles.probe_ancilla(), oracles.probe_unitary())
               for travel in ([1.0, 0.0], [0.0, 1.0])]
    return np.array(columns).T


def _as_parameters(z):
    """The reals that a family reads as the complex matrix z: (re, im) pairs, row-major."""
    return np.ascontiguousarray(z, dtype=complex).view(float).reshape(-1)


def test_zero_parameters_give_identity(simplified_config):
    for ancilla_dim in (1, 2, 3, 4):
        for family in (search.full_unitary_family(ancilla_dim), search.product_family(ancilla_dim)):
            zero = np.zeros(family.param_count)
            assert np.array_equal(family.build_stack(zero[None])[0], _identity_isometry(ancilla_dim))
            report = metrics.information_report(family.build(zero), simplified_config)
            assert max(abs(report.d), abs(report.i0t), abs(report.i0a)) < 1e-12


def test_parameterization_rejects_wrong_count():
    for family in (search.full_unitary_family(2), search.product_family(2)):
        for theta in (np.zeros(5), np.zeros(family.param_count - 2), np.zeros(family.param_count + 2)):
            with pytest.raises(ValueError):
                family.build(theta)
        with pytest.raises(ValueError):  # one vector, not a stack of them
            family.build_stack(np.zeros(family.param_count))


# θ where the columns the families orthonormalize are degenerate: Gram–Schmidt
# divides by zero at each, and the map must still give an isometry.
def _degenerate_parameters():
    zero_column = np.zeros((4, 2), dtype=complex)
    zero_column[0, 0] = -1.0  # z₀ = 0
    parallel = np.zeros((4, 2), dtype=complex)
    parallel[0, 1], parallel[2, 1] = 2.0, -1.0  # z₁ = 2·z₀ = 2|0,0>
    full = [_as_parameters(z) for z in (zero_column, parallel)]
    zero_u, zero_chi = np.zeros(12), np.zeros(12)
    zero_u[0] = -1.0  # u's first column is zero
    zero_chi[8] = -1.0  # χ′ is zero
    return [(search.full_unitary_family(2), theta) for theta in full] + [
        (search.product_family(2), theta) for theta in (zero_u, zero_chi)]


def test_parameterization_always_unitary():
    """W†W = I₂ and a unitary build at degenerate columns, where Gram–Schmidt gives NaN."""
    for family, theta in _degenerate_parameters():
        isometry = family.build_stack(theta[None])[0]
        assert np.abs(isometry.conj().T @ isometry - np.eye(2)).max() <= qlinalg.ATOL
        assert attack.validate_attack(family.build(theta)) == []


def test_parameterization_reaches_the_probe_coupling():
    """θ* = W_probe - W₀ gives the counterexample's isometry, whose report it reproduces."""
    family = search.full_unitary_family(2)
    target = _probe_isometry()
    theta_star = _as_parameters(target - _identity_isometry(2))
    assert np.max(np.abs(family.build_stack(theta_star[None])[0] - target)) < 1e-12
    config = pp.make_config("simplified")
    got = metrics.information_report(family.build(theta_star), config)
    want = metrics.information_report(attack.builtin_attack("counterexample"), config)
    assert abs(got.d - want.d) < 1e-12 and abs(got.i0c - want.i0c) < 1e-12


def _gram_schmidt(columns):
    """Orthonormal columns of a list of column lists, one at a time."""
    out = []
    for col in columns:
        for q in out:
            overlap = sum(a.conjugate() * b for a, b in zip(q, col))
            col = [b - overlap * a for a, b in zip(q, col)]
        norm = math.sqrt(sum(abs(b) ** 2 for b in col))
        out.append([b / norm for b in col])
    return out


def _loop_isometry(family, theta):
    """W from θ by loops: (re, im) pairs row-major, Z = W₀ + θ, Gram–Schmidt."""
    values = [complex(theta[k], theta[k + 1]) for k in range(0, len(theta), 2)]
    m = family.ancilla_dim
    if family.name == "full":
        z = [[values[2 * i + t] + (i == t * m) for i in range(2 * m)] for t in range(2)]
        return np.array(_gram_schmidt(z)).T
    u = _gram_schmidt([[values[2 * i + t] + (i == t) for i in range(2)] for t in range(2)])
    (chi,) = _gram_schmidt([[values[4 + a] + (a == 0) for a in range(m)]])
    return np.array([[u[t][s] * chi[a] for t in range(2)] for s in range(2) for a in range(m)])


def test_parameterization_layout_matches_the_row_major_loop():
    rng = np.random.default_rng(61)
    for ancilla_dim in (1, 2, 3):
        for family in (search.full_unitary_family(ancilla_dim), search.product_family(ancilla_dim)):
            thetas = rng.uniform(-math.pi, math.pi, (20, family.param_count))
            for theta, isometry in zip(thetas, family.build_stack(thetas)):
                assert np.abs(isometry - _loop_isometry(family, theta)).max() < 1e-12


def test_shared_arrays_are_read_only():
    # every make_config encodes with the module's Pauli matrices
    for shared in (qlinalg.PAULI_I, qlinalg.PAULI_X, qlinalg.PAULI_Z):
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
    # local refinement pulls a +-0.3 perturbation back onto the probe's isometry
    family = search.full_unitary_family(2)
    target = _probe_isometry()
    theta_star = _as_parameters(target - _identity_isometry(2))

    def distance(theta):
        diff = family.build_stack(theta[None])[0] - target
        return float(np.sum(np.abs(diff) ** 2))

    rng = np.random.default_rng(71)
    x0 = theta_star + rng.uniform(-0.3, 0.3, family.param_count)
    res = scipy.optimize.minimize(
        distance, x0, method="Nelder-Mead",
        options=dict(xatol=1e-9, fatol=1e-16, adaptive=True, maxfev=20_000),
    )
    dev = np.max(np.abs(family.build_stack(res.x[None])[0] - target))
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
        for family in (search.full_unitary_family, search.product_family):
            with pytest.raises(ValueError, match=f"^ancilla_dim must be an integer >= 1, got {bad!r}$"):
                family(bad)
    rng = np.random.default_rng(5)
    assert search.haar_random_unitary(np.int64(3), rng).shape == (3, 3)
    assert search.random_pure_state(np.int64(3), rng).shape == (3,)
    assert search.full_unitary_family(np.int64(1)).build_stack(np.zeros((1, 8))).shape == (1, 2, 2)


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
    # 4n reals for the n×2 isometry; 8 for u and 2m for χ′
    assert search.full_unitary_family(1).param_count == 8
    assert search.full_unitary_family(2).param_count == 16
    assert search.product_family(2).param_count == 12
    assert search.product_family(3).param_count == 14


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
    # count, take 858 MB at P = 16, and 180,000 restarts 1.04 GB at P = 8
    wide = search.SweepConfig(d_grid=(0.1, 0.2), restarts=16_667)
    many = search.SweepConfig(d_grid=(0.1,), restarts=180_000, objectives=("i0t",))
    for family, sweep_cfg in ((search.full_unitary_family(2), wide),
                              (search.full_unitary_family(1), many)):
        assert len(sweep_cfg.d_grid) * len(sweep_cfg.objectives) * sweep_cfg.restarts \
            * search._restart_bytes(family) <= search.MAX_SWEEP_BYTES
        with pytest.raises(AssertionError, match="a restart was built"):
            search.sweep(family, simplified_config, sweep_cfg)
    # the same 100,002 restarts at P = 32 take 1.72 GB
    with pytest.raises(search.SearchTooLargeError, match="100,002 restarts of .* over 1,073,741,824"):
        search.sweep(search.full_unitary_family(4), simplified_config, wide)


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
    (0.1, "i0t", 300, False, "3.82527511888e-07", "8.70656636048e-06"),
    (0.1, "i0a", 300, False, "2.85689281598e-06", "5.6642559516e-05"),
    (0.1, "i0c", 300, False, "3.82527511888e-07", "8.70656635842e-06"),
    (0.4, "i0t", 300, False, "0.465480820888", "0.996559108557"),
    (0.4, "i0a", 300, False, "0.371358228996", "0.652722931947"),
    (0.4, "i0c", 300, True, "0.400971740054", "0.971516188572"),
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
    (0.0, "i0t", 1200, True, "0x1.52568b78d4000p-15", "0x1.5330f1dc92e5ap-11",
     "31f75afa9924460e31fed07ba5415050ede3110f7d5bd99e8574f36509b0ed4f"),
    (0.0, "i0a", 1200, True, "0x1.3fad890349000p-12", "0x1.ea3af2b840c03p-9",
     "03962533f88fcfb13eda5803a07187afbc2efdcc03ed342cc9410f0ed84a812f"),
    (0.0, "i0c", 1200, True, "0x1.52568b78d4000p-15", "0x1.5330f1dc917abp-11",
     "52ef8fe8f23e4b30cfbc3e14935e7fb3bcf55aa81e8f79232dba5b386d6b2a96"),
    (0.1, "i0t", 1200, True, "0x1.9d15b88fe7c40p-4", "0x1.e301da5be42b7p-2",
     "bc036fd3a1b7d9029c1e3468badb0871ca5f52f86007e1d9bbadaf496b249524"),
    (0.1, "i0a", 1200, True, "0x1.98efb6a649d28p-4", "0x1.d455cb6c8af7ep-2",
     "dda4c069586ef9fac51b67b7d9b3a01a3d4d589d9eb075b9fd7f185b25881197"),
    (0.1, "i0c", 1200, True, "0x1.9daa42a0e64a0p-4", "0x1.e377056e7246ep-2",
     "8b4e2cf30929118245a73770268dd82ad433ff5ce9b5076d7cb3f85268be7572"),
    (0.2, "i0t", 1200, True, "0x1.9b713b1d488f8p-3", "0x1.728be5a5a3969p-1",
     "92862d54c189835654fad97fc1668b353c3a2d68b17f738bf9bce84ebb33b8fd"),
    (0.2, "i0a", 1200, True, "0x1.9b647c89972d0p-3", "0x1.71b96c25f2288p-1",
     "9209d812bcd31508d98fc24c42d9dc735562e0e4576553c0d091ef5d58ba7cb4"),
    (0.2, "i0c", 1200, True, "0x1.9ba2aeba21c6cp-3", "0x1.72a4847bed66dp-1",
     "daf66ba1f1930d409faec2d70c9c5d50eea6af73ef369ae69d25db258f9d41aa"),
    (0.3, "i0t", 1200, True, "0x1.34295b65a9b24p-2", "0x1.c3ce9d3e08d0cp-1",
     "3813b842a3fdfce6cd89c06997c4f8e299c331c92e03b4f458dc41888e3c2884"),
    (0.3, "i0a", 1200, True, "0x1.33d917829ca1ap-2", "0x1.c07fedd507f06p-1",
     "0decaff295eb5421085d8df1c7d9a4443c2f76d5158f16feaddc132f239e63b6"),
    (0.3, "i0c", 1200, True, "0x1.3400ba9217ffcp-2", "0x1.c3b5e70cfbd77p-1",
     "1477f159a96d98a6970a2eacf49793afec0a8413ac14a13680b97afb26a85d93"),
    (0.4, "i0t", 1200, True, "0x1.9a9c45d07604ap-2", "0x1.f16bb5b24ba50p-1",
     "1b330c39263c10315efa69e464075ea55a9b494e49a1b423bd9a6f64ad65763b"),
    (0.4, "i0a", 1200, True, "0x1.9a219f8e6b3bep-2", "0x1.f10a12065ae22p-1",
     "c9fbb76edc05a3cdacecffcf57b6c2595147b237a7230af595f3a0f8f888fc10"),
    (0.4, "i0c", 1200, True, "0x1.9a9826dc862bep-2", "0x1.f16a843ec18c4p-1",
     "70e3f6d60932b2f85373ffc7896c7d6f34472d570b67b0fe6c5eaa6acb87d39f"),
    (0.5, "i0t", 1200, True, "0x1.fff0a70ed4ff2p-2", "0x1.ffffffab0bacap-1",
     "4da28f7195fe62102f34c6a45759d7af0cad2c4d93a7887e0d2933aed13a63fa"),
    (0.5, "i0a", 1200, True, "0x1.00225f8949446p-1", "0x1.fffa55357170ep-1",
     "8e7eb0aeb04115befa797df8f4e386dbf7fa43395ceb727f64928071baead13f"),
    (0.5, "i0c", 1200, True, "0x1.0010e4ce7e9b4p-1", "0x1.fffffe64415cbp-1",
     "9d74a32e9c750f71d4d5552b1621766d08845abef75a4083ea0364e2113086cd"),
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
    """Budget 3 ends inside the initial simplex; 2000 (the default budget)
    from zero ends on the xatol/fatol test; 400 from a random start is the
    benchmark's budget.  The sixteen-parameter test below ends on maxfev."""
    score = _penalized(family, simplified_config, objective, 0.3)
    rng = np.random.default_rng(17)
    x_random = rng.uniform(-math.pi, math.pi, family.param_count)
    for x0, budget in ((np.zeros(family.param_count), 3), (x_random, 400),
                       (np.zeros(family.param_count), 2000)):
        want = _scipy_points(score, x0, budget)
        got = _port_points(score, x0, budget)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert 3 < len(want) < 2000  # the last case converged before its budget


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
        isometries = base.build_stack(thetas)
        isometries[1] *= 1.5
        return isometries

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
        isometries = base.build_stack(thetas)
        isometries[..., -1] *= 1.5
        return isometries

    family = dataclasses.replace(
        base, name="broken", build=functools.partial(search._build, build_stack), build_stack=build_stack)
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
    """W = u ⊗ χ′ to the bit, u unitary and χ′ a unit vector."""
    rng = np.random.default_rng(31)
    for ancilla_dim in (1, 2, 3):
        family = search.product_family(ancilla_dim)
        thetas = rng.uniform(-math.pi, math.pi, (4, family.param_count))
        for theta, isometry in zip(thetas, family.build_stack(thetas)):
            z = theta.view(complex)
            u = search._orthonormal(z[:4].reshape(2, 2) + np.eye(2))
            chi = search._orthonormal((z[4:] + np.eye(ancilla_dim)[0])[:, None])
            assert np.array_equal(isometry, np.kron(u, chi))
            assert np.abs(u.conj().T @ u - np.eye(2)).max() <= qlinalg.ATOL
            assert abs(np.linalg.norm(chi) - 1.0) <= qlinalg.ATOL
