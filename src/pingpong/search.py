"""Numerical mapping of the information-versus-detection frontier.

Attacks are drawn from smooth parameterized families; a derivative-free
search with random restarts maximizes an entropy objective subject to a
detection-probability target.  Results are lower bounds on the true
frontier: the summary says "empirical max found", never anything
stronger, because the search carries no optimality certificate.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

import numpy as np
import scipy.optimize
from numpy.typing import NDArray

from . import attack as attack_mod
from . import metrics
from . import protocol as protocol_mod
from . import qlinalg

OBJECTIVES = ("i0t", "i0a", "i0c")
PENALTY_WEIGHT = 100.0  # bits per squared excess detection gap

_NM_OPTIONS = {"xatol": 1e-7, "fatol": 1e-12, "adaptive": True}


def parameterize_unitary(theta, dim: int) -> qlinalg.UnitaryOperator:
    """Smooth map from dim² real parameters to a unitary, U(0) = identity.

    The parameters fill a Hermitian generator H (dim diagonal reals, then
    one (re, im) pair per upper off-diagonal entry, row-major) and the
    result is exp(iH) via the eigendecomposition of H.
    """
    return qlinalg.UnitaryOperator(_unitary(theta, dim))


@functools.cache
def _generator_slots(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of the diagonal, upper and lower entries of a dim×dim
    generator; the upper/lower pairs are in row-major upper-triangle order."""
    rows, cols = np.triu_indices(dim, 1)
    return np.arange(dim) * (dim + 1), rows * dim + cols, cols * dim + rows


def _unitary(theta, dim: int) -> np.ndarray:
    """``parameterize_unitary`` as a raw array, without the unitarity check."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (dim * dim,):
        raise ValueError(f"need {dim * dim} parameters for dimension {dim}, got shape {theta.shape}")
    diagonal, upper, lower = _generator_slots(dim)
    re, im = theta[dim::2], theta[dim + 1::2]
    gen = np.zeros(dim * dim, dtype=complex)
    gen[diagonal] = theta[:dim]
    gen[upper] = re + 1j * im
    gen[lower] = re - 1j * im
    evals, vecs = np.linalg.eigh(gen.reshape(dim, dim))
    return (vecs * np.exp(1j * evals)) @ vecs.conj().T


def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def haar_random_unitary(dim: int, rng: np.random.Generator) -> NDArray[np.complex128]:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phase-fixed."""
    ginibre = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(ginibre)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_pure_state(dim: int, rng: np.random.Generator) -> NDArray[np.complex128]:
    """Uniform pure state: normalized standard-complex-Gaussian amplitudes."""
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amps / np.linalg.norm(amps)


def sample_random_attack(ancilla_dim: int, rng_seed) -> attack_mod.AttackSpec:
    """Attack with Haar-random coupling and uniform ancilla state.

    Deterministic per integer seed; a numpy Generator is also accepted.
    """
    if ancilla_dim < 1:
        raise ValueError(f"ancilla_dim must be >= 1, got {ancilla_dim}")
    rng = _as_rng(rng_seed)
    return attack_mod.AttackSpec(
        ancilla_dim=ancilla_dim,
        ancilla_state=random_pure_state(ancilla_dim, rng),
        unitary=haar_random_unitary(2 * ancilla_dim, rng),
    )


@dataclasses.dataclass(frozen=True)
class AttackFamily:
    """Deterministic map from a real parameter vector to an AttackSpec.

    Parameters are nominally in [-π, π] (the sampling range of restarts);
    ``build`` must return a valid attack for any real vector.
    """

    name: str
    ancilla_dim: int
    param_count: int
    build: Callable[[NDArray[np.float64]], attack_mod.AttackSpec]


def _ground_ancilla(ancilla_dim: int) -> NDArray[np.complex128]:
    """The pinned ancilla start state |0> of the attack families."""
    if ancilla_dim < 1:
        raise ValueError(f"ancilla_dim must be >= 1, got {ancilla_dim}")
    chi = np.zeros(ancilla_dim, dtype=complex)
    chi[0] = 1.0
    return chi


def full_unitary_family(ancilla_dim: int = 2) -> AttackFamily:
    """Every coupling unitary on travel⊗ancilla, ancilla pinned to |0>.

    Pinning the ancilla start state loses no generality: any preparation
    can be absorbed into the coupling.
    """
    dim = 2 * ancilla_dim
    chi = _ground_ancilla(ancilla_dim)

    def build(theta: NDArray[np.float64]) -> attack_mod.AttackSpec:
        return attack_mod.AttackSpec(
            ancilla_dim=ancilla_dim, ancilla_state=chi, unitary=_unitary(theta, dim)
        )

    return AttackFamily(name="full", ancilla_dim=ancilla_dim, param_count=dim * dim, build=build)


def product_family(ancilla_dim: int = 2) -> AttackFamily:
    """Non-entangling couplings U_travel ⊗ U_ancilla, ancilla pinned to |0>."""
    chi = _ground_ancilla(ancilla_dim)
    travel_params = 4
    anc_params = ancilla_dim * ancilla_dim

    def build(theta: NDArray[np.float64]) -> attack_mod.AttackSpec:
        u_travel = _unitary(theta[:travel_params], 2)
        u_anc = _unitary(theta[travel_params:], ancilla_dim)
        return attack_mod.AttackSpec(
            ancilla_dim=ancilla_dim,
            ancilla_state=chi,
            unitary=np.kron(u_travel, u_anc),
        )

    return AttackFamily(
        name="product",
        ancilla_dim=ancilla_dim,
        param_count=travel_params + anc_params,
        build=build,
    )


@dataclasses.dataclass(frozen=True, eq=False)
class SweepConfig:
    """Grid, budgets and seed for a frontier sweep.

    The grid is stored sorted; every value must lie in [0, 1].
    """

    d_grid: tuple[float, ...]
    detection_tolerance: float = 1e-3
    restarts: int = 20
    budget_per_restart: int = 2000
    seed: int = 0
    objectives: tuple[str, ...] = OBJECTIVES

    def __post_init__(self) -> None:
        grid = tuple(sorted(float(v) for v in self.d_grid))
        if any(not 0.0 <= v <= 1.0 for v in grid):
            raise ValueError(f"grid values must lie in [0, 1], got {self.d_grid!r}")
        object.__setattr__(self, "d_grid", grid)
        object.__setattr__(self, "objectives", tuple(self.objectives))
        unknown = [o for o in self.objectives if o not in OBJECTIVES]
        if unknown or not self.objectives:
            raise ValueError(f"objectives must be drawn from {OBJECTIVES}, got {self.objectives!r}")
        if self.restarts < 1 or self.budget_per_restart < 1:
            raise ValueError("restarts and budget_per_restart must be >= 1")
        if self.detection_tolerance <= 0:
            raise ValueError("detection_tolerance must be positive")


@dataclasses.dataclass(frozen=True)
class CurvePoint:
    """One frontier sample: the best attack found at one detection target.

    ``best_i0t``/``best_i0a``/``best_i0c`` are the entropies of the single
    best attack for the stated objective (re-evaluated at theta_best, so
    they always reproduce).  ``feasible`` is False when no evaluation hit
    the detection band; then d_achieved is the closest attempt.
    """

    d_target: float
    d_achieved: float
    objective: str
    best_i0t: float
    best_i0a: float
    best_i0c: float
    theta_best: tuple[float, ...]
    evaluations: int
    feasible: bool = True

    @property
    def best_value(self) -> float:
        """Entropy of the optimized objective at theta_best."""
        return getattr(self, "best_" + self.objective)


class _BudgetExhausted(Exception):
    pass


def maximize_information(
    family: AttackFamily,
    config: protocol_mod.ProtocolConfig,
    objective: str,
    d_target: float,
    sweep_cfg: SweepConfig,
    rng: np.random.Generator | None = None,
) -> CurvePoint:
    """Best attack found for one objective at one detection target.

    Nelder-Mead restarts maximize objective - 100·max(0, |d - d_target| -
    tolerance)².  The returned point is the best *feasible* evaluation
    seen anywhere in the search (the penalized optimum may sit outside
    the band); with no feasible evaluation an explicit infeasible point
    carrying the closest attempt is returned instead of an exception.
    Deterministic given the seed (or rng).  The evaluation counter covers
    the search itself and never exceeds restarts × budget.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; known: {OBJECTIVES}")
    if not 0.0 <= d_target <= 1.0:
        raise ValueError(f"d_target must lie in [0, 1], got {d_target}")
    rng = np.random.default_rng(sweep_cfg.seed) if rng is None else rng
    tol = sweep_cfg.detection_tolerance

    evaluations = 0
    budget_left = 0
    best_feasible: tuple[float, np.ndarray] | None = None
    closest: tuple[float, np.ndarray] | None = None

    def negated_score(theta: np.ndarray) -> float:
        nonlocal evaluations, budget_left, best_feasible, closest
        if budget_left <= 0:
            raise _BudgetExhausted
        budget_left -= 1
        evaluations += 1
        report = metrics.information_report(family.build(theta), config)
        value = getattr(report, objective)
        gap = abs(report.d - d_target)
        if gap <= tol and (best_feasible is None or value > best_feasible[0]):
            best_feasible = (value, np.array(theta))
        if closest is None or gap < closest[0]:
            closest = (gap, np.array(theta))
        return -(value - PENALTY_WEIGHT * max(0.0, gap - tol) ** 2)

    starts = [np.zeros(family.param_count)]
    starts += [
        rng.uniform(-math.pi, math.pi, family.param_count)
        for _ in range(sweep_cfg.restarts - 1)
    ]
    for x0 in starts:
        budget_left = sweep_cfg.budget_per_restart
        try:
            scipy.optimize.minimize(
                negated_score, x0, method="Nelder-Mead",
                options=dict(_NM_OPTIONS, maxfev=sweep_cfg.budget_per_restart),
            )
        except _BudgetExhausted:
            pass

    feasible = best_feasible is not None
    theta = best_feasible[1] if feasible else closest[1]
    report = metrics.information_report(family.build(theta), config)
    return CurvePoint(
        d_target=float(d_target),
        d_achieved=report.d,
        objective=objective,
        best_i0t=report.i0t,
        best_i0a=report.i0a,
        best_i0c=report.i0c,
        theta_best=tuple(float(t) for t in theta),
        evaluations=evaluations,
        feasible=feasible,
    )


@dataclasses.dataclass(frozen=True)
class SummaryRow:
    """Per-grid-value comparison of the objectives' best entropies.

    The exceedance flags are None when either side is missing or
    infeasible at this grid value.
    """

    d_target: float
    best: dict[str, float]
    i0a_exceeds_i0t: bool | None
    i0c_exceeds_i0t: bool | None
    infeasible_objectives: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class SweepSummary:
    rows: tuple[SummaryRow, ...]
    exceedance_margin: float = 0.01
    note: str = "empirical max found; search values are lower bounds with no optimality certificate"


@dataclasses.dataclass(frozen=True)
class SweepResult:
    points: tuple[CurvePoint, ...]
    summary: SweepSummary


def _summarize(points: tuple[CurvePoint, ...], margin: float) -> SweepSummary:
    rows = []
    for d_target in sorted({p.d_target for p in points}):
        here = {p.objective: p for p in points if p.d_target == d_target}
        best = {name: point.best_value for name, point in here.items() if point.feasible}
        infeasible = tuple(name for name, point in sorted(here.items()) if not point.feasible)

        def compare(name: str) -> bool | None:
            if "i0t" not in best or name not in best:
                return None
            return best[name] > best["i0t"] + margin

        rows.append(
            SummaryRow(
                d_target=d_target,
                best=best,
                i0a_exceeds_i0t=compare("i0a"),
                i0c_exceeds_i0t=compare("i0c"),
                infeasible_objectives=infeasible,
            )
        )
    return SweepSummary(rows=tuple(rows), exceedance_margin=margin)


def sweep(
    family: AttackFamily, config: protocol_mod.ProtocolConfig, sweep_cfg: SweepConfig
) -> SweepResult:
    """One CurvePoint per (grid value, objective) plus a comparison summary.

    Point seeds derive deterministically from the master seed, so the
    result is reproducible and independent of evaluation order; points
    come back sorted by grid value, then by the configured objective
    order.
    """
    children = np.random.SeedSequence(sweep_cfg.seed).spawn(
        max(1, len(sweep_cfg.d_grid) * len(sweep_cfg.objectives))
    )
    points: list[CurvePoint] = []
    index = 0
    for d_target in sweep_cfg.d_grid:
        for objective in sweep_cfg.objectives:
            rng = np.random.default_rng(children[index])
            index += 1
            points.append(
                maximize_information(family, config, objective, d_target, sweep_cfg, rng=rng)
            )
    points.sort(key=lambda p: (p.d_target, sweep_cfg.objectives.index(p.objective)))
    return SweepResult(
        points=tuple(points),
        summary=_summarize(tuple(points), margin=0.01),
    )
