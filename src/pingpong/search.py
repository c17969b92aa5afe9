"""Numerical mapping of the information-versus-detection frontier.

Attacks are drawn from smooth parameterized families; a derivative-free
search with random restarts maximizes an entropy objective subject to a
detection-probability target.  Results are lower bounds on the true
frontier: the sweep summary ``cli`` prints says "empirical max found",
never anything stronger, because the search carries no optimality
certificate.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Callable, ClassVar, Generator

import numpy as np
import scipy.optimize  # noqa: F401  bench/run.py::import_times needs its importtime samples
from numpy.typing import NDArray

from . import attack as attack_mod
from . import metrics
from . import protocol as protocol_mod
from . import qlinalg

OBJECTIVES = ("i0t", "i0a", "i0c")
PENALTY_WEIGHT = 100.0  # bits per squared excess detection gap

# Nelder–Mead convergence tolerances, as scipy.optimize.minimize's options.
_XATOL = 1e-7
_FATOL = 1e-12
# Position of each objective's stack among metrics._subsystem_entropies' arguments.
_ENTROPY_ROW = {"i0c": 0, "i0t": 1, "i0a": 2}
# Most bytes the restarts of one sweep, held in memory at once, may take (_restart_bytes each).
MAX_SWEEP_BYTES = 1 << 30


class SearchTooLargeError(ValueError):
    """Raised by ``sweep``, before it starts, when its restarts would exceed MAX_SWEEP_BYTES."""


def _check_dim(name: str, value) -> None:
    """ValueError naming ``name`` unless ``value`` is an integer >= 1 (not a bool)."""
    if not qlinalg._is_integer_at_least(value, 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def parameterize_unitary(theta, dim: int) -> qlinalg.UnitaryOperator:
    """Smooth map from dim² real parameters to a unitary, U(0) = identity.

    The parameters fill a Hermitian generator H (dim diagonal reals, then
    one (re, im) pair per upper off-diagonal entry, row-major) and the
    result is exp(iH) via the eigendecomposition of H.
    """
    _check_dim("dim", dim)
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:  # _unitary would build a stack
        raise ValueError(f"need one vector of {dim * dim} parameters, got shape {theta.shape}")
    return qlinalg.UnitaryOperator(_unitary(theta, dim))


@functools.lru_cache(maxsize=16)
def _generator_gather(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Parameter index and sign of each (re, im) entry of a flat dim×dim
    generator: H[i, i] = θ_i, H[i, j] = θ_k + iθ_(k+1), H[j, i] = θ_k - iθ_(k+1),
    with k running over the upper triangle row-major from dim.  Both arrays
    are read-only: every call for one dim shares them."""
    index = np.zeros((dim, dim, 2), dtype=np.intp)
    sign = np.zeros((dim, dim, 2))
    diagonal = np.arange(dim)
    index[diagonal, diagonal, 0], sign[diagonal, diagonal, 0] = diagonal, 1.0
    rows, cols = np.triu_indices(dim, 1)
    re = dim + 2 * np.arange(len(rows))
    index[rows, cols] = index[cols, rows] = np.column_stack([re, re + 1])
    sign[rows, cols], sign[cols, rows] = (1.0, 1.0), (1.0, -1.0)
    index, sign = index.reshape(-1), sign.reshape(-1)
    index.setflags(write=False)
    sign.setflags(write=False)
    return index, sign


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


def haar_random_unitary(dim: int, rng: np.random.Generator) -> NDArray[np.complex128]:
    """Haar-distributed unitary: QR of a complex Ginibre matrix, phase-fixed."""
    _check_dim("dim", dim)
    ginibre = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(ginibre)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_pure_state(dim: int, rng: np.random.Generator) -> NDArray[np.complex128]:
    """Uniform pure state: normalized standard-complex-Gaussian amplitudes."""
    _check_dim("dim", dim)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amps / np.linalg.norm(amps)


def sample_random_attack(ancilla_dim: int, rng_seed) -> attack_mod.AttackSpec:
    """Attack with Haar-random coupling and uniform ancilla state.

    Deterministic per integer seed; a numpy Generator is also accepted.
    """
    _check_dim("ancilla_dim", ancilla_dim)
    rng = np.random.default_rng(rng_seed)  # returns a Generator unchanged
    return attack_mod.AttackSpec(
        ancilla_dim=ancilla_dim,
        ancilla_state=random_pure_state(ancilla_dim, rng),
        unitary=haar_random_unitary(2 * ancilla_dim, rng),
    )


@dataclasses.dataclass(frozen=True)
class AttackFamily:
    """Deterministic map from a real parameter vector to an AttackSpec.

    Parameters are nominally in [-π, π] (the sampling range of restarts).
    ``build`` maps one vector to an AttackSpec, the ancilla pinned to |0>.
    ``build_stack`` maps an (N, param_count) array to the (N, n, 2) stack
    of isometries U(I₂⊗|0>), each coupling's columns on |0>; the search
    builds every pending point with one call.  Both must build unitary
    couplings for any real parameters: the search checks only the traces
    of the attacked states it evaluates, and ``information_report`` runs
    the full ``validate_attack`` once per returned point.
    """

    name: str
    ancilla_dim: int
    param_count: int
    build: Callable[[NDArray[np.float64]], attack_mod.AttackSpec]
    build_stack: Callable[[NDArray[np.float64]], NDArray[np.complex128]]


def _ground_ancilla(ancilla_dim: int) -> NDArray[np.complex128]:
    """The pinned ancilla start state |0> of the attack families."""
    _check_dim("ancilla_dim", ancilla_dim)
    chi = np.zeros(ancilla_dim, dtype=complex)
    chi[0] = 1.0
    return chi


def _family(
    name: str, ancilla_dim: int, param_count: int,
    couplings: Callable[[NDArray[np.float64]], NDArray[np.complex128]],
) -> AttackFamily:
    """A family from its (N, P) → (N, n, n) coupling builder: ``build`` is one
    row of it, ``build_stack`` its columns on |0>; making it allocates nothing."""

    def build(theta: NDArray[np.float64]) -> attack_mod.AttackSpec:
        unitary = couplings(np.asarray(theta, dtype=float)[None])[0]
        return attack_mod.AttackSpec(
            ancilla_dim=ancilla_dim, ancilla_state=_ground_ancilla(ancilla_dim), unitary=unitary)

    return AttackFamily(name, ancilla_dim, param_count, build,
                        lambda thetas: couplings(thetas)[..., ::ancilla_dim])


def full_unitary_family(ancilla_dim: int = 2) -> AttackFamily:
    """Every coupling unitary on travel⊗ancilla, ancilla pinned to |0>.

    Pinning the ancilla start state loses no generality: any preparation
    can be absorbed into the coupling.
    """
    _check_dim("ancilla_dim", ancilla_dim)
    dim = 2 * ancilla_dim
    return _family("full", ancilla_dim, dim * dim, functools.partial(_unitary, dim=dim))


def product_family(ancilla_dim: int = 2) -> AttackFamily:
    """Non-entangling couplings U_travel ⊗ U_ancilla, ancilla pinned to |0>."""
    _check_dim("ancilla_dim", ancilla_dim)
    travel_params = 4

    def couplings(thetas: NDArray[np.float64]) -> NDArray[np.complex128]:
        u_travel = _unitary(thetas[..., :travel_params], 2)
        u_anc = _unitary(thetas[..., travel_params:], ancilla_dim)
        return _kron(u_travel, u_anc)

    return _family("product", ancilla_dim, travel_params + ancilla_dim * ancilla_dim, couplings)


@dataclasses.dataclass(frozen=True, eq=False)
class SweepConfig:
    """Grid, budgets and seed for a frontier sweep.

    The grid is stored sorted; its values must be numbers (not bools or
    strings), distinct and in [0, 1], and the objectives distinct.  The
    restarts, budget and seed are integers, the seed non-negative.
    """

    d_grid: tuple[float, ...]
    restarts: int = 20
    budget_per_restart: int = 2000
    seed: int = 0
    objectives: tuple[str, ...] = OBJECTIVES
    # Half-width of the band around d_target inside which a point is feasible.
    detection_tolerance: ClassVar[float] = 1e-3

    def __post_init__(self) -> None:
        values = tuple(self.d_grid)
        if not all(map(qlinalg._is_real, values)):
            raise ValueError(f"grid values must be numbers, got {self.d_grid!r}")
        grid = tuple(sorted(float(v) + 0.0 for v in values))  # + 0.0 turns -0.0 into 0.0
        if any(not 0.0 <= v <= 1.0 for v in grid):
            raise ValueError(f"grid values must lie in [0, 1], got {self.d_grid!r}")
        if len(set(grid)) != len(grid):
            raise ValueError(f"grid values must be distinct, got {grid!r}")
        object.__setattr__(self, "d_grid", grid)
        object.__setattr__(self, "objectives", tuple(self.objectives))
        unknown = [o for o in self.objectives if o not in OBJECTIVES]
        if unknown or not self.objectives:
            raise ValueError(f"objectives must be drawn from {OBJECTIVES}, got {self.objectives!r}")
        if len(set(self.objectives)) != len(self.objectives):
            raise ValueError(f"objectives must be distinct, got {self.objectives!r}")
        for name, least in (("restarts", 1), ("budget_per_restart", 1), ("seed", 0)):
            value = getattr(self, name)
            if not qlinalg._is_integer_at_least(value, least):
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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
    """scipy 1.17's adaptive Nelder–Mead with xatol 1e-7 and fatol 1e-12.

    Yields each point to evaluate and takes its value through ``send``;
    returns once the simplex passes the xatol/fatol test, while the search
    caps each restart's calls at its budget as scipy's ``maxfev`` does.
    The arithmetic and the (unstable) argsorts are scipy's, so the points
    asked are scipy's bit for bit.  scipy's reflection coefficient is 1
    and drops out exactly; its other coefficients adapt to the dimension.
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


def _restart_bytes(family: AttackFamily) -> int:
    """Bytes one restart of a sweep holds at its peak: its (P+1)×P simplex, its
    generator's P-vectors, the step's n×n stacks (n = 2·ancilla_dim) and a constant.
    The sum is 7–71 % over tracemalloc's peak per restart (slope from 100 to 200
    restarts, budget 2000, both families at ancilla 1–4, simplified/iz and bell/paulis)."""
    p, n = family.param_count, 2 * family.ancilla_dim
    return 8 * (p + 1) * p + 100 * p + 220 * n * n + 3_300


@dataclasses.dataclass(eq=False)
class _Restart:
    """One Nelder–Mead restart of one (grid value, objective) task of a sweep
    and the best points it saw."""

    target: float  # the task's d_target
    subsystem: int  # _ENTROPY_ROW of the task's objective
    moves: Generator[np.ndarray, float, None]
    point: np.ndarray
    asked: int = 1  # points ``moves`` has yielded, ``point`` included
    best: tuple[float, np.ndarray] | None = None  # (value, θ), feasible only
    closest: tuple[float, np.ndarray] | None = None  # (gap, θ)


def sweep(
    family: AttackFamily, config: protocol_mod.ProtocolConfig, sweep_cfg: SweepConfig
) -> tuple[CurvePoint, ...]:
    """One CurvePoint per (grid value, objective), sorted by grid value, then
    by the configured objective order.

    Each point runs ``restarts`` Nelder–Mead restarts (the first from zero,
    the rest uniform in [-π, π] from the point's own ``SeedSequence``
    child of the master seed) maximizing objective - 100·max(0, |d -
    d_target| - tolerance)².  The returned point is the best *feasible*
    evaluation seen anywhere in its restarts (the penalized optimum may
    sit outside the band); with none, an explicit infeasible point carries
    the closest attempt.  Its evaluation count never exceeds restarts ×
    budget.

    Every restart of every point advances in lockstep: each step stacks the
    pending point of every live restart, builds the stack with one
    ``family.build_stack`` call, checks the trace of every attacked state
    (the family must build unitaries; U†U is checked only on each returned
    point's ``family.build``, by ``information_report``), reads only the
    mixtures of one ``metrics._ensembles`` call and eigensolves, per
    restart, just the subsystem its objective names.  The live restarts
    stay grouped by that subsystem, as ``metrics._subsystem_entropies``
    takes them.  A restart's best feasible and closest points are kept per
    restart and merged in restart order with the serial loop's strict
    comparisons, so ties break as they would if the restarts ran one
    after another.  Like scipy's ``maxfev``, a restart that has asked
    ``budget_per_restart`` points stops without sending the last value.
    """
    tasks = list(itertools.product(sweep_cfg.d_grid, sweep_cfg.objectives))
    count, p = len(tasks) * sweep_cfg.restarts, family.param_count
    each = _restart_bytes(family)
    if count * each > MAX_SWEEP_BYTES:
        raise SearchTooLargeError(
            f"{count:,} restarts of {each:,} bytes each take {count * each:,} bytes, over "
            f"{MAX_SWEEP_BYTES:,}: the search holds every restart in memory at once"
        )
    tol, budget = sweep_cfg.detection_tolerance, sweep_cfg.budget_per_restart
    restarts: list[_Restart] = []
    children = np.random.SeedSequence(sweep_cfg.seed).spawn(len(tasks))
    for (d_target, objective), child in zip(tasks, children):
        rng = np.random.default_rng(child)
        starts = [np.zeros(p)]
        starts += [rng.uniform(-math.pi, math.pi, p) for _ in range(sweep_cfg.restarts - 1)]
        for x0 in starts:
            moves = _simplex_moves(x0)
            restarts.append(_Restart(d_target, _ENTROPY_ROW[objective], moves, next(moves)))

    live = sorted(restarts, key=lambda r: r.subsystem)
    counts = [sum(r.subsystem == row for r in live) for row in range(3)]
    while live:
        thetas = np.array([r.point for r in live])
        rows = attack_mod._checked_lift(family.build_stack(thetas), config, "row {}: ")
        d, mixtures, _ = metrics._ensembles(rows, config)
        a, b = counts[0], counts[0] + counts[1]
        values = metrics._subsystem_entropies(mixtures[:a], mixtures[a:b], mixtures[b:])
        still, counts = [], [0, 0, 0]
        for r, theta, d_i, value in zip(live, thetas, d.tolist(), values.tolist()):
            gap = abs(d_i - r.target)
            if gap > tol:
                value -= PENALTY_WEIGHT * (gap - tol) ** 2
            elif r.best is None or value > r.best[0]:
                r.best = (value, theta.copy())
            if r.closest is None or gap < r.closest[0]:
                r.closest = (gap, theta.copy())
            if r.asked == budget:
                continue
            try:
                r.point = r.moves.send(-value)
            except StopIteration:
                continue
            r.asked += 1
            still.append(r)
            counts[r.subsystem] += 1
        live = still

    points = []
    for index, (d_target, objective) in enumerate(tasks):
        best = closest = None
        group = restarts[index * sweep_cfg.restarts:(index + 1) * sweep_cfg.restarts]
        for r in group:
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
            evaluations=sum(r.asked for r in group),
            feasible=feasible,
        ))
    return tuple(points)


def maximize_information(
    family: AttackFamily,
    config: protocol_mod.ProtocolConfig,
    objective: str,
    d_target: float,
    sweep_cfg: SweepConfig,
) -> CurvePoint:
    """``sweep``'s point for one objective at one detection target.

    ``sweep_cfg`` gives the restarts, budget and seed; its grid and
    objectives are replaced by these, and ``SweepConfig`` validates both.

    No command calls this: it is the library's one-point form of
    ``sweep``, kept while ``bench/tracer.py`` wraps it by name.
    """
    one_point = dataclasses.replace(sweep_cfg, d_grid=(d_target,), objectives=(objective,))
    return sweep(family, config, one_point)[0]
