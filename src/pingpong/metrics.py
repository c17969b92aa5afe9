"""Comparative information quantities for one attack under one protocol config.

The information measure is the von Neumann entropy (bits) of the
post-encoding state: i0t for the travel marginal, i0a for the ancilla
marginal, i0c for the full travel⊗ancilla composite.  Holevo bounds on
the same ensemble give the standard extractable-information contrast.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import attack as attack_mod
from . import protocol as protocol_mod
from . import qlinalg

# Subsystems of travel⊗ancilla, in the row order of _subsystem_entropies.
_SUBSYSTEMS = ("composite", "travel", "ancilla")
_CLAIMED_COMPOSITE_BITS = 2.0
_INEQUALITY_TOL = 1e-8
# The canonical counterexample setting, in the order _is_canonical_counterexample
# reads it: χ, U, the sent |0>, the stacked {I, Z} encoding and its priors.
_COUNTEREXAMPLE = attack_mod.builtin_attack("counterexample")
_SIMPLIFIED_IZ = protocol_mod.make_config("simplified")
_CANONICAL = (
    _COUNTEREXAMPLE.ancilla_state,
    _COUNTEREXAMPLE.unitary,
    _SIMPLIFIED_IZ.bob_initial.amplitudes,
    _SIMPLIFIED_IZ.op_stack,
    _SIMPLIFIED_IZ.prior_array,
)
_CANONICAL_CHI0 = complex(_CANONICAL[0][0])


@dataclasses.dataclass(frozen=True)
class ClaimDeviation:
    """Audit record comparing a computed quantity against a claimed value."""

    claimed: float
    computed: float
    delta: float


@dataclasses.dataclass(frozen=True)
class InfoReport:
    """Detection probability and entropy/Holevo quantities for one attack.

    ``claim_deviation`` is populated only when the report covers the
    builtin counterexample in its canonical simplified configuration,
    where a composite-entropy value of 2 bits has been claimed; the
    report carries claimed and computed side by side rather than
    assuming either.
    """

    d: float
    i0t: float
    i0a: float
    i0c: float
    holevo_t: float
    holevo_c: float
    claim_deviation: ClaimDeviation | None = None


def binary_entropy(x: float) -> float:
    """H(x) = -x log₂x - (1-x) log₂(1-x) in bits, H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy needs x in [0, 1], got {x!r}")
    if x in (0.0, 1.0):
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def _mixtures(priors: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The (N, n, n) mixtures Σ p ρ of (N, K, n, n) member stacks."""
    count, k, n = members.shape[:3]
    return (priors @ members.reshape(count, k, -1)).reshape(count, n, n)


def _subsystem_entropies(
    stack: np.ndarray, ancilla_dim: int, counts: tuple[int, int, int] | None = None
) -> np.ndarray:
    """Entropies of composite, travel and ancilla, from one eigensolve.

    Without ``counts``, ``stack`` is the zero (3, ..., n, n) buffer of
    ``_ensembles`` with the states in block 0.  Blocks 1 and 2 are filled
    with their travel and ancilla marginals, and the (3, ...) result holds
    the three entropies of each state.

    With ``counts`` (c0, c1, c2) and an (N, n, n) stack, one subsystem per
    matrix is solved instead: the composite of the first c0 matrices, the
    travel marginal of the next c1 and the ancilla marginal of the last c2.
    The (N,) result equals the matching entries of the buffer's exactly.

    The marginals are zero-padded to n×n so that one eigensolve covers
    every matrix; padding adds only zero eigenvalues, which contribute
    0·log 0 = 0.
    """
    n, m = stack.shape[-1], ancilla_dim
    flat = stack.reshape(-1, n, n)
    if counts is None:
        a = len(flat) // 3
        b = 2 * a
        padded = flat
        travel = ancilla = flat[:a]
    else:
        a, b = counts[0], counts[0] + counts[1]
        travel, ancilla = flat[a:b], flat[b:]
        padded = np.zeros_like(flat)
        padded[:a] = flat[:a]
    np.einsum("kiaja->kij", travel.reshape(-1, 2, m, 2, m), out=padded[a:b, :2, :2])
    np.einsum("kiaib->kab", ancilla.reshape(-1, 2, m, 2, m), out=padded[b:, :m, :m])
    entropies = qlinalg._entropies(padded)
    return entropies.reshape(stack.shape[:-2]) if counts is None else entropies


def _ensembles(
    rows: np.ndarray, config: protocol_mod.ProtocolConfig, members: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """The evaluation kernel shared by ``information_report`` and the search.

    For an (N, H, n) stack of validated attacked rows: d (N,) and the
    post-encoding ensembles in a zero (3, N, K+1, n, n) buffer for
    ``_subsystem_entropies``.  Block 0 holds each ensemble, its mixture
    first and then its K members; blocks 1 and 2 are left for the
    marginals.  With ``members=False``: d and only the (N, n, n) mixtures.
    """
    d = attack_mod._detection(rows, config)
    priors = config.prior_array
    if not members:
        return d, _mixtures(priors, attack_mod._encoded_members(rows, config))
    n = rows.shape[-1]
    buffer = np.zeros((3, len(rows), len(priors) + 1, n, n), dtype=complex)
    ensembles = buffer[0]
    attack_mod._encoded_members(rows, config, out=ensembles[:, 1:])
    ensembles[:, 0] = _mixtures(priors, ensembles[:, 1:])
    return d, buffer


def _holevo(priors: np.ndarray, entropies: np.ndarray) -> float:
    """χ from one subsystem's entropies of an ensemble: S(mixture) - Σ p S(ρ)."""
    return float(entropies[0] - priors.dot(entropies[1:]))


def holevo_bound(ensemble: attack_mod.EncodingEnsemble, subsystem: str) -> float:
    """Holevo quantity χ = S(Σ p ρ) - Σ p S(ρ) on a subsystem of the ensemble.

    ``subsystem`` is one of travel, ancilla, composite.
    """
    if subsystem not in _SUBSYSTEMS:
        raise ValueError(f"unknown subsystem {subsystem!r}; known: {_SUBSYSTEMS}")
    priors = np.array([p for p, _ in ensemble.members])
    members = np.array([rho.entries for _, rho in ensemble.members])
    stack = np.concatenate([_mixtures(priors, members[None]), members])
    counts = tuple(len(stack) if name == subsystem else 0 for name in _SUBSYSTEMS)
    return _holevo(priors, _subsystem_entropies(stack, members.shape[1] // 2, counts))


def _is_canonical_counterexample(
    spec: attack_mod.AttackSpec, config: protocol_mod.ProtocolConfig
) -> bool:
    """Simplified mode, |0> sent, {I, Z} encoding, builtin counterexample arrays."""
    if config.mode != "simplified" or spec.ancilla_state.shape != _CANONICAL[0].shape:
        return False
    # A random attack fails on χ's first entry: decide that without the arrays.
    if not abs(complex(spec.ancilla_state[0]) - _CANONICAL_CHI0) <= 1e-12:  # NaN fails too
        return False
    actual = (
        spec.ancilla_state,
        spec.unitary,
        config.bob_initial.amplitudes,
        config.op_stack,
        config.prior_array,
    )
    return all(
        np.shape(got) == want.shape and np.max(np.abs(np.subtract(got, want))) <= 1e-12
        for got, want in zip(actual, _CANONICAL)
    )


def _report_row(
    spec: attack_mod.AttackSpec,
    config: protocol_mod.ProtocolConfig,
    d: float,
    composite: np.ndarray,
    travel: np.ndarray,
    ancilla: np.ndarray,
) -> InfoReport:
    """The report of one attack from its d and its ensemble's (K+1,) entropies
    on each subsystem, mixture first."""
    priors = config.prior_array
    i0c = float(composite[0])
    deviation = None
    if _is_canonical_counterexample(spec, config):
        deviation = ClaimDeviation(
            claimed=_CLAIMED_COMPOSITE_BITS,
            computed=i0c,
            delta=i0c - _CLAIMED_COMPOSITE_BITS,
        )
    return InfoReport(
        d=float(d),
        i0t=float(travel[0]),
        i0a=float(ancilla[0]),
        i0c=i0c,
        holevo_t=_holevo(priors, travel),
        holevo_c=_holevo(priors, composite),
        claim_deviation=deviation,
    )


def information_report(
    spec: attack_mod.AttackSpec, config: protocol_mod.ProtocolConfig
) -> InfoReport:
    """Full comparative report: d, the three entropies, and Holevo bounds.

    All quantities are computed from the post-encoding ensemble the
    eavesdropper faces; nothing is assumed from any claimed value.
    """
    d, buffer = _ensembles(attack_mod._attacked_rows(spec, config)[None], config)
    composite, travel, ancilla = _subsystem_entropies(buffer, spec.ancilla_dim)[:, 0]
    return _report_row(spec, config, d[0], composite, travel, ancilla)


def _information_reports(
    specs: list[attack_mod.AttackSpec], config: protocol_mod.ProtocolConfig
) -> list[InfoReport]:
    """``information_report`` of each spec, to the bit, from one pass of the
    kernel over the whole list.

    The specs must share one ancilla dimension (ValueError otherwise); an
    invalid spec raises InvalidAttackError with each line naming its index.
    """
    if not specs:
        return []
    d, buffer = _ensembles(attack_mod._attacked_batch(specs, config), config)
    entropies = _subsystem_entropies(buffer, specs[0].ancilla_dim).swapaxes(0, 1)
    return [
        _report_row(spec, config, d_i, *rows)
        for spec, d_i, rows in zip(specs, d.tolist(), entropies)
    ]


@dataclasses.dataclass(frozen=True)
class InequalityDiagnostics:
    """Numerical check of subadditivity and the Araki-Lieb bound."""

    subadditivity_ok: bool
    araki_lieb_ok: bool
    margins: dict[str, float]


def entropy_inequality_check(report: InfoReport) -> InequalityDiagnostics:
    """Margins of S(c) <= S(t) + S(a) and S(c) >= |S(t) - S(a)|.

    A margin is the slack of the inequality; both must sit above -1e-8.
    """
    subadditivity = report.i0t + report.i0a - report.i0c
    araki_lieb = report.i0c - abs(report.i0t - report.i0a)
    return InequalityDiagnostics(
        subadditivity_ok=subadditivity >= -_INEQUALITY_TOL,
        araki_lieb_ok=araki_lieb >= -_INEQUALITY_TOL,
        margins={"subadditivity": subadditivity, "araki_lieb": araki_lieb},
    )
