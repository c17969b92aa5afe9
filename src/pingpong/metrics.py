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
_COUNTEREXAMPLE = attack_mod.builtin_attack("counterexample")


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


def _with_average(priors: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The (K, n, n) member stack with the mixture Σ p ρ prepended as entry 0."""
    mixture = (priors @ members.reshape(len(members), -1)).reshape(members.shape[1:])
    return np.concatenate([mixture[None], members])


def _subsystem_entropies(stack: np.ndarray, ancilla_dim: int) -> np.ndarray:
    """(3, L) entropies of composite, travel and ancilla for an (L, n, n) stack.

    The two marginals are zero-padded to n×n so that one eigensolve covers
    all three; padding adds only zero eigenvalues, which contribute 0·log 0 = 0.
    """
    count, n = stack.shape[0], stack.shape[-1]
    parts = stack.reshape(count, 2, ancilla_dim, 2, ancilla_dim)
    padded = np.zeros((3, count, n, n), dtype=complex)
    padded[0] = stack
    padded[1, :, :2, :2] = np.einsum("kiaja->kij", parts)
    padded[2, :, :ancilla_dim, :ancilla_dim] = np.einsum("kiaib->kab", parts)
    return qlinalg._entropies(padded)


def _holevo(priors: np.ndarray, entropies: np.ndarray) -> float:
    """χ from one subsystem's ``_subsystem_entropies`` row: S(mixture) - Σ p S(ρ)."""
    return float(entropies[0] - priors @ entropies[1:])


def holevo_bound(ensemble: attack_mod.EncodingEnsemble, subsystem: str) -> float:
    """Holevo quantity χ = S(Σ p ρ) - Σ p S(ρ) on a subsystem of the ensemble.

    ``subsystem`` is one of travel, ancilla, composite.
    """
    if subsystem not in _SUBSYSTEMS:
        raise ValueError(f"unknown subsystem {subsystem!r}; known: {_SUBSYSTEMS}")
    priors = np.array([p for p, _ in ensemble.members])
    members = np.array([rho.entries for _, rho in ensemble.members])
    entropies = _subsystem_entropies(_with_average(priors, members), members.shape[1] // 2)
    return _holevo(priors, entropies[_SUBSYSTEMS.index(subsystem)])


def _is_canonical_counterexample(
    spec: attack_mod.AttackSpec, config: protocol_mod.ProtocolConfig
) -> bool:
    """Simplified mode, |0> sent, {I, Z} encoding, builtin counterexample arrays."""
    if config.mode != "simplified":
        return False
    if spec.ancilla_dim != _COUNTEREXAMPLE.ancilla_dim:
        return False
    if spec.ancilla_state.shape != _COUNTEREXAMPLE.ancilla_state.shape:
        return False
    if spec.unitary.shape != _COUNTEREXAMPLE.unitary.shape:
        return False
    if np.max(np.abs(spec.ancilla_state - _COUNTEREXAMPLE.ancilla_state)) > 1e-12:
        return False
    if np.max(np.abs(spec.unitary - _COUNTEREXAMPLE.unitary)) > 1e-12:
        return False
    if np.max(np.abs(config.bob_initial.amplitudes - np.array([1.0, 0.0]))) > 1e-12:
        return False
    wanted_ops, wanted_priors = protocol_mod.encoding_set("iz")
    if len(config.encoding_ops) != len(wanted_ops):
        return False
    for op, want in zip(config.encoding_ops, wanted_ops):
        if np.max(np.abs(op.entries - want.entries)) > 1e-12:
            return False
    return all(abs(p - w) <= 1e-12 for p, w in zip(config.priors, wanted_priors))


def information_report(
    spec: attack_mod.AttackSpec, config: protocol_mod.ProtocolConfig
) -> InfoReport:
    """Full comparative report: d, the three entropies, and Holevo bounds.

    All quantities are computed from the post-encoding ensemble the
    eavesdropper faces; nothing is assumed from any claimed value.
    """
    rows = attack_mod._attacked_rows(spec, config)
    d = attack_mod._control_outcomes(rows, config)[0]
    priors = np.array(config.priors)
    stack = _with_average(priors, attack_mod._encoded_members(rows, config))
    composite, travel, ancilla = _subsystem_entropies(stack, spec.ancilla_dim)
    i0c = float(composite[0])
    deviation = None
    if _is_canonical_counterexample(spec, config):
        deviation = ClaimDeviation(
            claimed=_CLAIMED_COMPOSITE_BITS,
            computed=i0c,
            delta=i0c - _CLAIMED_COMPOSITE_BITS,
        )
    return InfoReport(
        d=d,
        i0t=float(travel[0]),
        i0a=float(ancilla[0]),
        i0c=i0c,
        holevo_t=_holevo(priors, travel),
        holevo_c=_holevo(priors, composite),
        claim_deviation=deviation,
    )


@dataclasses.dataclass(frozen=True)
class InequalityDiagnostics:
    """Numerical check of subadditivity and the Araki-Lieb bound."""

    subadditivity_ok: bool
    araki_lieb_ok: bool
    margins: dict[str, float]


def entropy_inequality_check(report: InfoReport, tol: float = 1e-8) -> InequalityDiagnostics:
    """Margins of S(c) <= S(t) + S(a) and S(c) >= |S(t) - S(a)|.

    A margin is the slack of the inequality; both must sit above -tol.
    """
    subadditivity = report.i0t + report.i0a - report.i0c
    araki_lieb = report.i0c - abs(report.i0t - report.i0a)
    return InequalityDiagnostics(
        subadditivity_ok=subadditivity >= -tol,
        araki_lieb_ok=araki_lieb >= -tol,
        margins={"subadditivity": subadditivity, "araki_lieb": araki_lieb},
    )
