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

# Subsystems of travel⊗ancilla, in the argument order of _subsystem_entropies.
_SUBSYSTEMS = ("composite", "travel", "ancilla")
_CLAIMED_COMPOSITE_BITS = 2.0
_INEQUALITY_TOL = 1e-8
# The canonical counterexample setting beside simplified mode and the "iz"
# encoding, in the order _claim_deviation reads it: χ, U and the sent |0>.
_COUNTEREXAMPLE = attack_mod.builtin_attack("counterexample")
_CANONICAL = (
    _COUNTEREXAMPLE.ancilla_state,
    _COUNTEREXAMPLE.unitary,
    qlinalg.basis_state(2, 0).amplitudes,
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
    if not (qlinalg._is_real(x) and 0.0 <= x <= 1.0):
        raise ValueError(f"binary entropy needs x in [0, 1], got {x!r}")
    if x in (0.0, 1.0):
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def _mixtures(priors: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The (N, n, n) mixtures Σ p ρ of (N, K, n, n) member stacks."""
    count, k, n = members.shape[:3]
    return (priors @ members.reshape(count, k, -1)).reshape(count, n, n)


def _subsystem_entropies(
    composite: np.ndarray, travel: np.ndarray, ancilla: np.ndarray
) -> np.ndarray:
    """Entropies of three (·, n, n) stacks of travel⊗ancilla states, from
    one eigensolve: the composite entropy of each ``composite`` matrix, then
    the travel-marginal entropy of each ``travel`` matrix, then the
    ancilla-marginal entropy of each ``ancilla`` matrix, concatenated.

    The marginals are zero-padded to n×n so that one eigensolve covers
    every matrix; padding adds only zero eigenvalues, which contribute
    0·log 0 = 0.
    """
    n = composite.shape[-1]
    m = n // 2
    a, b = len(composite), len(composite) + len(travel)
    padded = np.zeros((b + len(ancilla), n, n), dtype=complex)
    padded[:a] = composite
    np.einsum("kiaja->kij", travel.reshape(-1, 2, m, 2, m), out=padded[a:b, :2, :2])
    np.einsum("kiaib->kab", ancilla.reshape(-1, 2, m, 2, m), out=padded[b:, :m, :m])
    return qlinalg._entropies(padded)


def _ensembles(
    rows: np.ndarray, config: protocol_mod.ProtocolConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The evaluation kernel shared by the reports and the search.

    For an (N, H, n) stack of validated attacked rows: d (N,), the (N, n, n)
    post-encoding mixtures and the (N, K, n, n) members they mix.
    """
    members = attack_mod._encoded_members(rows, config)
    return attack_mod._detection(rows, config), _mixtures(config.prior_array, members), members


def holevo_bound(ensemble: attack_mod.EncodingEnsemble, subsystem: str) -> float:
    """Holevo quantity χ = S(Σ p ρ) - Σ p S(ρ) on a subsystem of the ensemble.

    ``subsystem`` is one of travel, ancilla, composite.  Unlike a report's
    bounds, this one is not clamped at 0.

    No command calls this: it is the library's one-attack form, kept
    while ``bench/tracer.py`` wraps it by name.
    """
    if subsystem not in _SUBSYSTEMS:
        raise ValueError(f"unknown subsystem {subsystem!r}; known: {_SUBSYSTEMS}")
    priors = np.array([p for p, _ in ensemble.members])
    members = np.array([rho.entries for _, rho in ensemble.members])
    stack = np.concatenate([_mixtures(priors, members[None]), members])
    entropies = _subsystem_entropies(
        *(stack if name == subsystem else stack[:0] for name in _SUBSYSTEMS)
    )
    return float(entropies[0] - priors.dot(entropies[1:]))


def _claim_deviation(
    spec: attack_mod.AttackSpec, config: protocol_mod.ProtocolConfig, i0c: float
) -> ClaimDeviation | None:
    """The claimed-vs-computed I0c when ``spec`` and ``config`` are the canonical
    counterexample setting (simplified mode, the "iz" encoding, |0> sent, the
    builtin counterexample arrays), else None.  χ, U and the sent state must
    each match within 1e-12.  A report calls this once."""
    if (config.mode != "simplified" or config.encoding != "iz"
            or spec.ancilla_state.shape != _CANONICAL[0].shape):
        return None
    # A random attack fails on χ's first entry: decide that without the arrays.
    if not abs(complex(spec.ancilla_state[0]) - _CANONICAL_CHI0) <= 1e-12:  # NaN fails too
        return None
    actual = (spec.ancilla_state, spec.unitary, config.bob_initial.amplitudes)
    if not all(
        np.shape(got) == want.shape and np.max(np.abs(np.subtract(got, want))) <= 1e-12
        for got, want in zip(actual, _CANONICAL)
    ):
        return None
    return ClaimDeviation(
        claimed=_CLAIMED_COMPOSITE_BITS, computed=i0c, delta=i0c - _CLAIMED_COMPOSITE_BITS
    )


def information_report(
    spec: attack_mod.AttackSpec, config: protocol_mod.ProtocolConfig
) -> InfoReport:
    """Full comparative report: d, the three entropies, and Holevo bounds.

    All quantities are computed from the post-encoding ensemble the
    eavesdropper faces; nothing is assumed from any claimed value.
    """
    return _information_reports([spec], config)[0]


def _information_reports(
    specs: list[attack_mod.AttackSpec], config: protocol_mod.ProtocolConfig
) -> list[InfoReport]:
    """``information_report`` of each spec from one pass of the kernel over
    the whole list, one eigensolve over five matrices per attack.

    The encodings act on the travel qubit alone, so every member of an
    ensemble is a local-unitary image of member 0 and has its composite
    and travel entropies: each Holevo bound is S(mixture) - S(member 0),
    clamped at 0 as d is clamped to [0, 1], so that rounding never prints
    a negative bound (``holevo_bound`` keeps the unclamped general form).
    The specs must share one ancilla dimension (ValueError otherwise); an
    invalid spec raises InvalidAttackError (see ``attack._attacked_rows``).
    """
    if not specs:
        return []
    d, mixtures, members = _ensembles(attack_mod._attacked_rows(specs, config), config)
    both = np.concatenate([mixtures, members[:, 0]])
    entropies = _subsystem_entropies(both, both, mixtures).reshape(5, len(specs))
    c, c0, t, t0, a = entropies.tolist()
    return [
        InfoReport(
            d=d_i, i0t=t_i, i0a=a_i, i0c=c_i,
            holevo_t=max(0.0, t_i - t0_i), holevo_c=max(0.0, c_i - c0_i),
            claim_deviation=_claim_deviation(spec, config, c_i),
        )
        for spec, d_i, c_i, c0_i, t_i, t0_i, a_i in zip(specs, d.tolist(), c, c0, t, t0, a)
    ]


@dataclasses.dataclass(frozen=True)
class InequalityDiagnostics:
    """Numerical check of subadditivity and the Araki-Lieb bound."""

    margins: dict[str, float]

    @property
    def subadditivity_ok(self) -> bool:
        return self.margins["subadditivity"] >= -_INEQUALITY_TOL

    @property
    def araki_lieb_ok(self) -> bool:
        return self.margins["araki_lieb"] >= -_INEQUALITY_TOL


def entropy_inequality_check(report: InfoReport) -> InequalityDiagnostics:
    """Margins of S(c) <= S(t) + S(a) and S(c) >= |S(t) - S(a)|.

    A margin is the slack of the inequality; both must sit above -1e-8.
    """
    subadditivity = report.i0t + report.i0a - report.i0c
    araki_lieb = report.i0c - abs(report.i0t - report.i0a)
    return InequalityDiagnostics(margins={"subadditivity": subadditivity, "araki_lieb": araki_lieb})
