"""Named invariant suites behind the ``verify`` command.

Every suite runs with fixed seeds.  A suite is a ``check_<name>`` function
whose body returns its worst deviation and a detail line; ``@_suite(tol)``
names it after its function, without ``check_``, and grades it: its margin
is ``tol - worst``, non-negative passes, negative fails.  ``verify`` runs
every ``check_*`` function of the module in definition order
(``ALL_CHECKS``), so a helper must not take that prefix.  A suite that
raises is reported as failed rather than crashing the run.

A suite that samples random states or unitaries draws them from its seed
in a fixed order, stacks them, and makes one kernel call on the stack: one
entropy eigensolve, one stacked ``U ρ U†`` or ``U s``, or one
``search._unitary`` call for a stack of parameter vectors.  Only the suites
that test the public objects themselves (``entropy_maximal_mixing``,
``entropy_bell_marginal`` and U(0) = I) build ``qlinalg.DensityMatrix`` or
``qlinalg.UnitaryOperator`` values.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

from . import attack as attack_mod
from . import files as files_mod
from . import metrics
from . import protocol as protocol_mod
from . import qlinalg
from . import search as search_mod


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    margin: float
    detail: str

    @property
    def passed(self) -> bool:
        return bool(self.margin >= 0.0)


def _suite(tol: float) -> Callable[[Callable[[], tuple[float, str]]], Callable[[], CheckResult]]:
    """Grade a suite body that returns ``(worst, detail)`` against ``tol``.
    The suite is named after its function, without ``check_``."""

    def grade(body: Callable[[], tuple[float, str]]) -> Callable[[], CheckResult]:
        name = body.__name__.removeprefix("check_")

        @functools.wraps(body)
        def check() -> CheckResult:
            worst, detail = body()
            return CheckResult(name=name, margin=tol - worst, detail=detail)

        return check

    return grade


def _kernel(
    specs: list[attack_mod.AttackSpec], config: protocol_mod.ProtocolConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """d, the mixtures and the members of every spec, from one pass of the
    composite path (``metrics._ensembles``): the reference that ``report``
    and ``sweep``'s kernel on the reduced state σ (``metrics._reduced_kernel``)
    is held to.  Its d is the kernel's (``attack._detection``)."""
    return metrics._ensembles(attack_mod._attacked_rows(specs, config), config)


def _random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = ginibre @ ginibre.conj().T
    return rho / np.trace(rho)


def _stacked_draws(
    seed: int, count: int, *draws: tuple[Callable[[int, np.random.Generator], np.ndarray], int]
) -> list[np.ndarray]:
    """``count`` rounds of ``draw(dim, rng)`` for each ``(draw, dim)`` in turn,
    from one generator seeded with ``seed``, and each draw's samples stacked."""
    rng = np.random.default_rng(seed)
    rounds = [[draw(dim, rng) for draw, dim in draws] for _ in range(count)]
    return [np.array(samples) for samples in zip(*rounds)]


@_suite(1e-8)
def check_entropy_additivity_products() -> tuple[float, str]:
    a, b = _stacked_draws(101, 200, (_random_density, 2), (_random_density, 3))
    s_a, s_b, s_ab = map(qlinalg._entropies, (a, b, search_mod._kron(a, b)))
    worst = float(np.max(np.abs(s_ab - s_a - s_b)))
    return worst, f"worst |S(A⊗B) - S(A) - S(B)| = {worst:.3g} over 200 product states"


@_suite(1e-8)
def check_entropy_unitary_invariance() -> tuple[float, str]:
    rho, u = _stacked_draws(102, 200, (_random_density, 4), (search_mod.haar_random_unitary, 4))
    rotated = u @ rho @ np.swapaxes(u.conj(), 1, 2)
    worst = float(np.max(np.abs(qlinalg._entropies(rotated) - qlinalg._entropies(rho))))
    return worst, f"worst |S(UρU†) - S(ρ)| = {worst:.3g} over 200 pairs"


@_suite(1e-12)
def check_entropy_maximal_mixing() -> tuple[float, str]:
    worst = 0.0
    for n in (2, 3, 4, 8):
        rho = qlinalg.DensityMatrix(np.eye(n) / n)
        worst = max(worst, abs(qlinalg.von_neumann_entropy(rho) - math.log2(n)))
    return worst, f"worst |S(I_n/n) - log2 n| = {worst:.3g} for n in (2, 3, 4, 8)"


@_suite(1e-12)
def check_entropy_bell_marginal() -> tuple[float, str]:
    pair = qlinalg.to_density(protocol_mod.bell_pair())
    marginal = qlinalg.partial_trace(pair, (2, 2), 1)
    dev = abs(qlinalg.von_neumann_entropy(marginal) - 1.0)
    return dev, f"|S(marginal) - 1| = {dev:.3g} for the anticorrelated pair"


@_suite(1e-12)
def check_unitary_norm_preservation() -> tuple[float, str]:
    u, s = _stacked_draws(
        103, 200, (search_mod.haar_random_unitary, 4), (search_mod.random_pure_state, 4))
    worst = float(np.max(np.abs(np.linalg.norm(u @ s[..., None], axis=1) - 1.0)))
    return worst, f"worst |‖Us‖ - 1| = {worst:.3g} over 200 cases"


@_suite(1e-12)
def check_protocol_noiseless_correctness() -> tuple[float, str]:
    identity = attack_mod.builtin_attack("identity")
    plus = qlinalg.StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
    configs = (
        protocol_mod.make_config("simplified", bob_initial=plus),
        protocol_mod.make_config("bell"),
        protocol_mod.make_config("bell", encoding="paulis"),
    )
    worst = 0.0
    wrong = 0
    for config in configs:
        worst = max(worst, float(_kernel([identity], config)[0][0]))
        for bit in range(len(config.encoding_ops)):
            outcome = protocol_mod.run_message_round(config, identity, bit)
            if outcome.decoded_bit != bit:
                wrong += 1
    return max(worst, float(wrong)), f"max noiseless d = {worst:.3g}, wrong decodes = {wrong}"


@_suite(0.0)
def check_protocol_monte_carlo_agreement() -> tuple[float, str]:
    worst = -math.inf
    for mode in protocol_mod.MODES:
        config = protocol_mod.make_config(mode)
        for name in attack_mod.BUILTIN_ATTACK_NAMES:
            spec = attack_mod.builtin_attack(name)
            stats = protocol_mod.monte_carlo(config, spec, rounds=100_000, seed=42)
            d = stats.analytic_d
            n = stats.counts["control_rounds"]
            sigma = math.sqrt(d * (1.0 - d) / n)
            worst = max(worst, abs(stats.empirical_d - d) - 4.0 * sigma)
    return worst, f"worst |empirical - analytic| - 4σ = {worst:.3g} over builtins × modes"


@_suite(1e-12)
def check_detection_range_and_phase() -> tuple[float, str]:
    rng = np.random.default_rng(104)
    worst = 0.0
    for mode in protocol_mod.MODES:
        config = protocol_mod.make_config(mode)
        specs = [search_mod.sample_random_attack(2, rng) for _ in range(30)]
        rotated = [dataclasses.replace(s, unitary=np.exp(0.7345j) * s.unitary) for s in specs]
        d = _kernel(specs, config)[0]
        shift = np.abs(_kernel(rotated, config)[0] - d)
        worst = max(worst, float(np.max(-d)), float(np.max(d - 1.0)), float(np.max(shift)))
    return worst, f"worst of (range violation, phase-shift |Δd|) = {worst:.3g}"


@_suite(1e-12)
def check_encoding_fixes_basis_state() -> tuple[float, str]:
    config = protocol_mod.make_config("simplified")
    # The identity coupling on a χ other than |0>, so a kernel that drops χ fails.
    identity = attack_mod.AttackSpec(
        ancilla_dim=2, ancilla_state=np.array([1.0, 1.0j]) / math.sqrt(2), unitary=np.eye(4)
    )
    first, second = _kernel([identity], config)[2][0]
    expected = np.kron(
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.outer(identity.ancilla_state, identity.ancilla_state.conj()),
    )
    worst = float(np.max(np.abs(first - second)))
    worst = max(worst, float(np.max(np.abs(first - expected))))
    return worst, f"max member deviation = {worst:.3g} (phase encoding fixes |0>)"


def _random_product_attack(rng: np.random.Generator) -> attack_mod.AttackSpec:
    u_travel = search_mod.haar_random_unitary(2, rng)
    u_anc = search_mod.haar_random_unitary(2, rng)
    return attack_mod.AttackSpec(
        ancilla_dim=2,
        ancilla_state=search_mod.random_pure_state(2, rng),
        unitary=np.kron(u_travel, u_anc),
    )


@_suite(1e-8)
def check_product_attack_ancilla_pure() -> tuple[float, str]:
    rng = np.random.default_rng(105)
    worst = 0.0
    for mode in protocol_mod.MODES:
        config = protocol_mod.make_config(mode)
        members = _kernel([_random_product_attack(rng) for _ in range(50)], config)[2]
        stack = members.reshape(-1, 4, 4)
        entropies = metrics._subsystem_entropies(stack[:0], stack[:0], stack)
        worst = max(worst, float(np.max(entropies)))
    return worst, f"worst member S(ancilla) = {worst:.3g} over 100 product attacks"


@_suite(1e-12)
def check_attack_global_phase_invariance() -> tuple[float, str]:
    rng = np.random.default_rng(106)
    config = protocol_mod.make_config("simplified")
    specs = [search_mod.sample_random_attack(2, rng) for _ in range(50)]
    rotated = [dataclasses.replace(s, unitary=np.exp(1.234j) * s.unitary) for s in specs]
    worst = float(np.max(np.abs(_kernel(specs, config)[2] - _kernel(rotated, config)[2])))
    return worst, f"worst member change under e^(iφ)U = {worst:.3g} over 50 attacks"


@_suite(1e-12)
def check_dephased_travel_marginal() -> tuple[float, str]:
    rng = np.random.default_rng(107)
    config = protocol_mod.make_config("simplified")
    specs = [search_mod.sample_random_attack(2, rng) for _ in range(100)]
    mixtures = _kernel(specs, config)[1]
    travel = np.einsum("kiaja->kij", mixtures.reshape(-1, 2, 2, 2, 2))
    worst = float(np.max(np.abs(travel[:, [0, 1], [1, 0]])))
    return worst, f"worst off-diagonal of the averaged travel marginal = {worst:.3g}"


@_suite(1e-10)
def check_travel_entropy_binary_identity() -> tuple[float, str]:
    config = protocol_mod.make_config("simplified")
    worst = 0.0
    specs = [search_mod.sample_random_attack(2, seed) for seed in range(300)]
    for report in metrics._information_reports(specs, config):
        worst = max(worst, abs(report.i0t - metrics.binary_entropy(report.d)))
    return worst, f"worst |i0t - H(d)| = {worst:.3g} over 300 random attacks"


@_suite(1e-8)
def check_holevo_within_entropy() -> tuple[float, str]:
    rng = np.random.default_rng(108)
    worst = 0.0
    for mode in protocol_mod.MODES:
        config = protocol_mod.make_config(mode)
        specs = [search_mod.sample_random_attack(2, rng) for _ in range(50)]
        _, mixtures, members = _kernel(specs, config)
        both = np.concatenate([mixtures, members[:, 0]])
        # (composite, travel) × (mixture, member 0); each bound read before a report clamps it at 0
        entropy = metrics._subsystem_entropies(both, both, mixtures[:0]).reshape(2, 2, -1)
        holevo = entropy[:, 0] - entropy[:, 1]
        worst = max(worst, float(np.max(holevo - entropy[:, 0])), float(np.max(-holevo - 1e-9)))
    return worst, f"worst Holevo excess over entropy = {worst:.3g} over 100 attacks"


@_suite(1e-8)
def check_product_attack_composite_travel() -> tuple[float, str]:
    rng = np.random.default_rng(109)
    config = protocol_mod.make_config("simplified")
    worst = 0.0
    specs = [_random_product_attack(rng) for _ in range(100)]
    for report in metrics._information_reports(specs, config):
        worst = max(worst, abs(report.i0c - report.i0t), report.i0a)
    return worst, f"worst of (|i0c - i0t|, i0a) = {worst:.3g} over 100 product attacks"


@_suite(1e-8)
def check_entropy_inequalities_random() -> tuple[float, str]:
    worst = -math.inf
    specs = [search_mod.sample_random_attack(2, seed) for seed in range(500)]
    for mode in protocol_mod.MODES:
        for report in metrics._information_reports(specs, protocol_mod.make_config(mode)):
            diag = metrics.entropy_inequality_check(report)
            margin = min(diag.margins.values())
            worst = max(worst, -margin)
    return worst, f"worst inequality deficit = {worst:.3g} over 500 attacks × 2 modes"


@_suite(0.0)
def check_family_builds_valid_attacks() -> tuple[float, str]:
    rng = np.random.default_rng(110)
    bad = 0
    for family in (search_mod.full_unitary_family(2), search_mod.product_family(2)):
        for _ in range(50):
            theta = rng.uniform(-math.pi, math.pi, family.param_count)
            if attack_mod.validate_attack(family.build(theta)):
                bad += 1
    return float(bad), f"{bad} invalid builds over 100 sampled parameter vectors"


@_suite(1e-9)
def check_parameterized_unitary_basics() -> tuple[float, str]:
    rng = np.random.default_rng(111)
    ident = search_mod.parameterize_unitary(np.zeros(16), 4)
    # U(0) = I on the public path; unitarity on one stack, as build_stack builds it.
    u = search_mod._unitary(rng.uniform(-math.pi, math.pi, (100, 16)), 4)
    residual = np.swapaxes(u.conj(), 1, 2) @ u - np.eye(4)
    worst = float(max(np.max(np.abs(ident.entries - np.eye(4))), np.max(np.abs(residual))))
    return worst, f"worst of (|U(0) - I|, unitarity residual) = {worst:.3g}"


@_suite(0.0)
def check_search_point_self_consistency() -> tuple[float, str]:
    family = search_mod.full_unitary_family(2)
    config = protocol_mod.make_config("simplified")
    cfg = search_mod.SweepConfig(
        d_grid=(0.5,), restarts=2, budget_per_restart=600, seed=11, objectives=("i0t",)
    )
    first = search_mod.sweep(family, config, cfg)
    second = search_mod.sweep(family, config, cfg)
    point = first[0]
    if not point.feasible:
        return 1.0, "search found no feasible point at d_target = 0.5"
    re_report = metrics.information_report(family.build(np.array(point.theta_best)), config)
    worst = max(
        abs(point.d_achieved - point.d_target) - cfg.detection_tolerance,
        abs(re_report.i0t - point.best_i0t) - 1e-10,
        abs(point.best_i0t - metrics.binary_entropy(point.d_achieved)) - 1e-8,
        0.0 if first == second else 1.0,
        float(point.evaluations - cfg.restarts * cfg.budget_per_restart),
    )
    return worst, (
        f"best i0t = {point.best_i0t:.6f} at d = {point.d_achieved:.6f} "
        f"in {point.evaluations} evaluations; reruns identical = {first == second}"
    )


@_suite(1e-12)
def check_attack_file_round_trip() -> tuple[float, str]:
    rng = np.random.default_rng(112)
    specs = [attack_mod.builtin_attack("counterexample"), search_mod.sample_random_attack(2, rng)]
    worst = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for i, spec in enumerate(specs):
            path = Path(tmp) / f"attack_{i}.json"
            files_mod.save_attack(spec, path)
            loaded = files_mod.load_attack(path)
            worst = max(
                worst,
                float(np.max(np.abs(loaded.ancilla_state - spec.ancilla_state))),
                float(np.max(np.abs(loaded.unitary - spec.unitary))),
                float(len(attack_mod.validate_attack(loaded))),
            )
    return worst, f"worst save/load array deviation = {worst:.3g}"


# Every suite, in definition order: this line must stay below the last one.
ALL_CHECKS = tuple(value for name, value in globals().items() if name.startswith("check_"))


def run_all() -> list[CheckResult]:
    """Run every suite; a raising suite is reported failed, not fatal."""
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # pragma: no cover - only on injected faults
            name = check.__name__.removeprefix("check_")
            results.append(CheckResult(name=name, margin=-math.inf, detail=f"raised {exc!r}"))
    return results
