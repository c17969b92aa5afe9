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
import itertools
import math
from typing import Callable, Generator

import numpy as np
import scipy.optimize  # noqa: F401  bench/run.py::import_times needs its importtime samples
from numpy.typing import NDArray

from . import attack as attack_mod
from . import metrics
from . import protocol as protocol_mod
from . import qlinalg

OBJECTIVES = ("i0t", "i0a", "i0c")
PENALTY_WEIGHT = 100.0  # bits per squared excess detection gap
EXCEEDANCE_MARGIN = 0.01  # bits by which i0a or i0c must beat i0t to be flagged

# Nelder–Mead convergence tolerances, as scipy.optimize.minimize's options.
_XATOL = 1e-7
_FATOL = 1e-12
# Row of each objective in metrics._subsystem_entropies' (composite, travel, ancilla).
_ENTROPY_ROW = {"i0c": 0, "i0t": 1, "i0a": 2}
# Most restarts one search may hold: the lockstep search keeps every restart
# (its generator, simplex and best points) in memory at once.
MAX_RESTARTS = 100_000
# Most bytes the restarts' Nelder–Mead simplices may take together: each
# restart holds a (P+1)×P float64 simplex for a family of P parameters.
MAX_SIMPLEX_BYTES = 1 << 30


class SearchTooLargeError(ValueError):
    """A search's restarts would hold more than MAX_SIMPLEX_BYTES of simplices."""


def parameterize_unitary(theta, dim: int) -> qlinalg.UnitaryOperator:
    """Smooth map from dim² real parameters to a unitary, U(0) = identity.

    The parameters fill a Hermitian generator H (dim diagonal reals, then
    one (re, im) pair per upper off-diagonal entry, row-major) and the
    result is exp(iH) via the eigendecomposition of H.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:  # _unitary would build a stack
        raise ValueError(f"need one vector of {dim * dim} parameters, got shape {theta.shape}")
    return qlinalg.UnitaryOperator(_unitary(theta, dim))


@functools.cache
def _generator_gather(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Parameter index and sign of each (re, im) entry of a flat dim×dim
    generator: H[i, i] = θ_i, H[i, j] = θ_k + iθ_(k+1), H[j, i] = θ_k - iθ_(k+1),
    with k running over the upper triangle row-major from dim."""
    index = np.zeros((dim, dim, 2), dtype=np.intp)
    sign = np.zeros((dim, dim, 2))
    diagonal = np.arange(dim)
    index[diagonal, diagonal, 0], sign[diagonal, diagonal, 0] = diagonal, 1.0
    rows, cols = np.triu_indices(dim, 1)
    re = dim + 2 * np.arange(len(rows))
    index[rows, cols] = index[cols, rows] = np.column_stack([re, re + 1])
    sign[rows, cols], sign[cols, rows] = (1.0, 1.0), (1.0, -1.0)
    return index.reshape(-1), sign.reshape(-1)


def _unitary(theta, dim: int) -> np.ndarray:
    """``parameterize_unitary`` as a raw array, without the unitarity check.

    ``theta`` is (..., dim²); leading axes give a stack of unitaries.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (dim * dim,):
        raise ValueError(f"need {dim * dim} parameters for dimension {dim}, got shape {theta.shape}")
    lead = theta.shape[:-1]
    index, sign = _generator_gather(dim)
    gen = theta.reshape(-1, dim * dim).take(index, axis=1) * sign
    evals, vecs = np.linalg.eigh(gen.view(complex).reshape(-1, dim, dim))
    unitaries = (vecs * np.exp(1j * evals)[:, None, :]) @ np.swapaxes(vecs.conj(), 1, 2)
    return unitaries.reshape(lead + (dim, dim))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of matching matrices in two stacks: the same products, exactly."""
    n = a.shape[-1] * b.shape[-1]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(a.shape[:-2] + (n, n))


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
    _check_ancilla_dim(ancilla_dim)
    rng = _as_rng(rng_seed)
    return attack_mod.AttackSpec(
        ancilla_dim=ancilla_dim,
        ancilla_state=random_pure_state(ancilla_dim, rng),
        unitary=haar_random_unitary(2 * ancilla_dim, rng),
    )


@dataclasses.dataclass(frozen=True)
class AttackFamily:
    """Deterministic map from a real parameter vector to an AttackSpec.

    Parameters are nominally in [-π, π] (the sampling range of restarts).
    ``build_stack`` maps an (N, param_count) array to the (N, n, n) stack
    of couplings, the ancilla pinned to |0>; the search builds every
    pending point with one call.  ``build`` is the same map for one
    vector, as an AttackSpec.  Both must give a valid attack for any
    real parameters.
    """

    name: str
    ancilla_dim: int
    param_count: int
    build: Callable[[NDArray[np.float64]], attack_mod.AttackSpec]
    build_stack: Callable[[NDArray[np.float64]], NDArray[np.complex128]]


def _check_ancilla_dim(ancilla_dim: int) -> None:
    if ancilla_dim < 1:
        raise ValueError(f"ancilla_dim must be >= 1, got {ancilla_dim}")


def _ground_ancilla(ancilla_dim: int) -> NDArray[np.complex128]:
    """The pinned ancilla start state |0> of the attack families."""
    _check_ancilla_dim(ancilla_dim)
    chi = np.zeros(ancilla_dim, dtype=complex)
    chi[0] = 1.0
    return chi


def _family(
    name: str, ancilla_dim: int, param_count: int,
    build_stack: Callable[[NDArray[np.float64]], NDArray[np.complex128]],
) -> AttackFamily:
    """A family whose ``build`` is ``build_stack`` on a stack of one."""
    chi = _ground_ancilla(ancilla_dim)

    def build(theta: NDArray[np.float64]) -> attack_mod.AttackSpec:
        unitary = build_stack(np.asarray(theta, dtype=float)[None])[0]
        return attack_mod.AttackSpec(ancilla_dim=ancilla_dim, ancilla_state=chi, unitary=unitary)

    return AttackFamily(name, ancilla_dim, param_count, build, build_stack)


def full_unitary_family(ancilla_dim: int = 2) -> AttackFamily:
    """Every coupling unitary on travel⊗ancilla, ancilla pinned to |0>.

    Pinning the ancilla start state loses no generality: any preparation
    can be absorbed into the coupling.
    """
    _check_ancilla_dim(ancilla_dim)
    dim = 2 * ancilla_dim
    return _family("full", ancilla_dim, dim * dim, functools.partial(_unitary, dim=dim))


def product_family(ancilla_dim: int = 2) -> AttackFamily:
    """Non-entangling couplings U_travel ⊗ U_ancilla, ancilla pinned to |0>."""
    _check_ancilla_dim(ancilla_dim)
    travel_params = 4

    def build_stack(thetas: NDArray[np.float64]) -> NDArray[np.complex128]:
        u_travel = _unitary(thetas[..., :travel_params], 2)
        u_anc = _unitary(thetas[..., travel_params:], ancilla_dim)
        return _kron(u_travel, u_anc)

    return _family("product", ancilla_dim, travel_params + ancilla_dim * ancilla_dim, build_stack)


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
        total = len(grid) * len(self.objectives) * self.restarts
        if total > MAX_RESTARTS:
            raise ValueError(
                f"{total:,} restarts (grid points × objectives × restarts) exceed "
                f"{MAX_RESTARTS:,}: the search holds every restart in memory at once"
            )
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


def _simplex_moves(x0: np.ndarray) -> Generator[np.ndarray, float, None]:
    """scipy 1.17's adaptive Nelder–Mead with xatol 1e-7 and fatol 1e-12, unbudgeted.

    Yields each point to evaluate and takes its value through ``send``;
    returns once the simplex passes the xatol/fatol test.  The arithmetic
    and the (unstable) argsorts are scipy's, so the points asked are
    scipy's bit for bit.  scipy's reflection coefficient is 1 and drops
    out exactly; its other coefficients adapt to the dimension.
    """
    n = len(x0)
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    for k in range(n + 1):
        fsim[k] = yield sim[k]
    for _ in range(2):  # scipy sorts the initial simplex twice
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]
    # scipy's test, f half first as it is the cheaper.  fsim is sorted, so
    # max |fsim[0] - fsim[1:]| is fsim[-1] - fsim[0] (NaN and inf fail both).
    while not (fsim[-1] - fsim[0] <= _FATOL and np.abs(sim[1:] - sim[0]).max() <= _XATOL):
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = yield xr
        shrink = False
        if fxr < fsim[0]:
            xe = (1 + chi) * xbar - chi * sim[-1]
            fxe = yield xe
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:
            xc = (1 + psi) * xbar - psi * sim[-1]
            fxc = yield xc
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:
            xcc = (1 - psi) * xbar + psi * sim[-1]
            fxcc = yield xcc
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                fsim[j] = yield sim[j]
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]


def _nelder_mead(x0: np.ndarray, maxfev: int) -> Generator[np.ndarray, float, None]:
    """``_simplex_moves`` that, like scipy's ``maxfev`` wrapper, asks for
    no point once it has made ``maxfev`` calls."""
    moves = _simplex_moves(x0)
    value = None
    for _ in range(maxfev):
        try:
            point = moves.send(value)
        except StopIteration:
            return
        value = yield point


@dataclasses.dataclass(eq=False)
class _Restart:
    """One Nelder–Mead restart of a search task and the best points it saw."""

    task: int
    subsystem: int  # _ENTROPY_ROW of the task's objective
    moves: Generator[np.ndarray, float, None]
    point: np.ndarray
    best: tuple[float, np.ndarray] | None = None  # (value, θ), feasible only
    closest: tuple[float, np.ndarray] | None = None  # (gap, θ)


def _search(
    family: AttackFamily,
    config: protocol_mod.ProtocolConfig,
    sweep_cfg: SweepConfig,
    tasks: list[tuple[str, float, np.random.Generator]],
) -> list[CurvePoint]:
    """One CurvePoint per (objective, d_target, rng) task, in task order.

    Every restart of every task advances in lockstep: each step stacks the
    pending point of every live restart, builds the stack with one
    ``family.build_stack`` call, validates it at once, forms only the
    mixtures with one ``metrics._ensembles`` call and eigensolves, per
    restart, just the subsystem its objective names.  The live restarts
    stay grouped by that subsystem, as ``metrics._subsystem_entropies``
    takes them.  A restart's best feasible and closest points are kept per
    restart and merged in restart order with the serial loop's strict
    comparisons, so ties break as they would if the restarts ran one
    after another.
    """
    count, p = len(tasks) * sweep_cfg.restarts, family.param_count
    nbytes = count * (p + 1) * p * 8
    if nbytes > MAX_SIMPLEX_BYTES:
        raise SearchTooLargeError(
            f"{count:,} restarts of a {p + 1}×{p} simplex take {nbytes:,} bytes, over "
            f"{MAX_SIMPLEX_BYTES:,}: the search holds every restart in memory at once"
        )
    tol = sweep_cfg.detection_tolerance
    chi = _ground_ancilla(family.ancilla_dim)
    restarts: list[_Restart] = []
    for index, (objective, _, rng) in enumerate(tasks):
        starts = [np.zeros(family.param_count)]
        starts += [
            rng.uniform(-math.pi, math.pi, family.param_count)
            for _ in range(sweep_cfg.restarts - 1)
        ]
        for x0 in starts:
            moves = _nelder_mead(x0, sweep_cfg.budget_per_restart)
            restarts.append(_Restart(index, _ENTROPY_ROW[objective], moves, next(moves)))

    evaluations = [0] * len(tasks)
    live = sorted(restarts, key=lambda r: r.subsystem)
    counts = [sum(r.subsystem == row for r in live) for row in range(3)]
    while live:
        thetas = np.array([r.point for r in live])
        rows = attack_mod._attacked_stack(chi, family.build_stack(thetas), config)
        d, mixtures = metrics._ensembles(rows, config, members=False)
        values = metrics._subsystem_entropies(mixtures, family.ancilla_dim, counts)
        still, counts = [], [0, 0, 0]
        for r, theta, d_i, value in zip(live, thetas, d.tolist(), values.tolist()):
            gap = abs(d_i - tasks[r.task][1])
            evaluations[r.task] += 1
            if gap <= tol and (r.best is None or value > r.best[0]):
                r.best = (value, theta.copy())
            if r.closest is None or gap < r.closest[0]:
                r.closest = (gap, theta.copy())
            try:
                r.point = r.moves.send(-(value - PENALTY_WEIGHT * max(0.0, gap - tol) ** 2))
            except StopIteration:
                continue
            still.append(r)
            counts[r.subsystem] += 1
        live = still

    points = []
    for index, (objective, d_target, _) in enumerate(tasks):
        best = closest = None
        for r in restarts[index * sweep_cfg.restarts:(index + 1) * sweep_cfg.restarts]:
            if r.best is not None and (best is None or r.best[0] > best[0]):
                best = r.best
            if closest is None or r.closest[0] < closest[0]:
                closest = r.closest
        feasible = best is not None
        theta = best[1] if feasible else closest[1]
        report = metrics.information_report(family.build(theta), config)
        points.append(CurvePoint(
            d_target=float(d_target),
            d_achieved=report.d,
            objective=objective,
            best_i0t=report.i0t,
            best_i0a=report.i0a,
            best_i0c=report.i0c,
            theta_best=tuple(float(t) for t in theta),
            evaluations=evaluations[index],
            feasible=feasible,
        ))
    return points


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
    return _search(family, config, sweep_cfg, [(objective, d_target, rng)])[0]


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
    note: str = "empirical max found; search values are lower bounds with no optimality certificate"


@dataclasses.dataclass(frozen=True)
class SweepResult:
    points: tuple[CurvePoint, ...]
    summary: SweepSummary


def _summarize(points: tuple[CurvePoint, ...]) -> SweepSummary:
    rows = []
    for d_target in sorted({p.d_target for p in points}):
        here = {p.objective: p for p in points if p.d_target == d_target}
        best = {name: point.best_value for name, point in here.items() if point.feasible}
        infeasible = tuple(name for name, point in sorted(here.items()) if not point.feasible)

        def compare(name: str) -> bool | None:
            if "i0t" not in best or name not in best:
                return None
            return best[name] > best["i0t"] + EXCEEDANCE_MARGIN

        rows.append(
            SummaryRow(
                d_target=d_target,
                best=best,
                i0a_exceeds_i0t=compare("i0a"),
                i0c_exceeds_i0t=compare("i0c"),
                infeasible_objectives=infeasible,
            )
        )
    return SweepSummary(rows=tuple(rows))


def sweep(
    family: AttackFamily, config: protocol_mod.ProtocolConfig, sweep_cfg: SweepConfig
) -> SweepResult:
    """One CurvePoint per (grid value, objective) plus a comparison summary.

    Point seeds derive deterministically from the master seed, so the
    result is reproducible and independent of evaluation order; points
    come back sorted by grid value, then by the configured objective
    order.  All points' restarts run in lockstep in one search.
    """
    pairs = list(itertools.product(sweep_cfg.d_grid, sweep_cfg.objectives))
    children = np.random.SeedSequence(sweep_cfg.seed).spawn(max(1, len(pairs)))
    tasks = [
        (objective, d_target, np.random.default_rng(child))
        for (d_target, objective), child in zip(pairs, children)
    ]
    points = tuple(_search(family, config, sweep_cfg, tasks))
    return SweepResult(points=points, summary=_summarize(points))
