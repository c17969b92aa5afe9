"""Comparative information quantities for one attack under one protocol config.

The information measure is the von Neumann entropy (bits) of the
post-encoding state: i0t for the travel marginal, i0a for the ancilla
marginal, i0c for the full travel⊗ancilla composite.  Holevo bounds on
the same ensemble give the standard extractable-information contrast.

Reports, sweep steps and ``verify``'s suites take one path in both modes
(``_reduced_kernel``).  Home⊗travel⊗ancilla is pure after the attack and the
encodings act on the travel qubit alone, so every quantity is a function of
σ, the state of what Bob sent with the ancilla traced out: 2×2 in simplified
mode, 4×4 over home⊗travel in bell mode.  Each entropy is that of a fixed
linear image of σ (``ProtocolConfig.kernel_map``), at most 8×8 whatever the
ancilla dimension.  The composite reference, which forms the members on
travel⊗ancilla, lives in the tests.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import attack as attack_mod
from . import protocol as protocol_mod
from . import qlinalg

# Subsystems of travel⊗ancilla that holevo_bound reads, each with the einsum that
# takes its marginal of a (·, 2, m, 2, m) stack, in the order of the entropies of
# _reduced_kernel's first three blocks (reports, sweep steps and verify's suites
# read that one kernel; the composite reference is in the tests).
_SUBSYSTEMS = {"composite": None, "travel": "kiaja->kij", "ancilla": "kiaib->kab"}
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


def _reduced_kernel(
    rows: np.ndarray, config: protocol_mod.ProtocolConfig, counts: list[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The evaluation kernel for an (N, H, n) stack of validated attacked rows:
    d (N,) from σ (``attack._detection``) and the entropies of blocks of σ
    from one eigensolve.  The blocks are G, Σ p_k E_k Tr_home(σ) E_k†, σ and
    Tr_home σ, whose entropies are i0c, i0t, i0a (the order of _SUBSYSTEMS)
    and each member's travel entropy.  A report takes all four of every row,
    (N, 4).  A sweep step passes ``counts``, its rows grouped by block (the
    first ``counts[0]`` get block 0, and so on), and forms one block per row,
    (N,).  Each block comes from one (1, 4H²) @ (4H², D²) product with its
    map in ``config.kernel_map``: small enough that BLAS keeps it on the
    calling thread, and the same bits whichever blocks are formed beside it,
    so a sweep step's values equal the reports' to the bit.
    """
    sigma = attack_mod._reduced_states(rows)
    flat = sigma.reshape(len(rows), 1, -1)
    shape = config.kernel_map.shape
    maps = config.kernel_map.reshape(4, shape[1], -1)  # (4, 4H², D²)
    if counts is None:
        blocks = (flat[:, None] @ maps).reshape((len(rows), 4) + shape[2:])
    else:
        blocks = np.empty((len(rows), 1, maps.shape[2]), dtype=complex)
        start = 0
        for block, count in enumerate(counts):
            np.matmul(flat[start:start + count], maps[block], out=blocks[start:start + count])
            start += count
        blocks = blocks.reshape((len(rows),) + shape[2:])
    return attack_mod._detection(sigma, config), qlinalg._entropies(blocks)


def holevo_bound(ensemble: attack_mod.EncodingEnsemble, subsystem: str) -> float:
    """Holevo quantity χ = S(Σ p ρ) - Σ p S(ρ) on a subsystem of the ensemble.

    ``subsystem`` is one of travel, ancilla, composite.  Unlike a report's
    bounds, this one is not clamped at 0.

    No command calls this: it is the library's one-attack form, kept
    while ``bench/tracer.py`` wraps it by name.
    """
    if subsystem not in _SUBSYSTEMS:
        raise ValueError(f"unknown subsystem {subsystem!r}; known: {tuple(_SUBSYSTEMS)}")
    priors = np.array([p for p, _ in ensemble.members])
    members = np.array([rho.entries for _, rho in ensemble.members])
    k, n = members.shape[:2]
    stack = np.concatenate([(priors @ members.reshape(1, k, -1)).reshape(1, n, n), members])
    if _SUBSYSTEMS[subsystem]:
        stack = np.einsum(_SUBSYSTEMS[subsystem], stack.reshape(-1, 2, n // 2, 2, n // 2))
    entropies = qlinalg._entropies(stack)
    return float(entropies[0] - priors.dot(entropies[1:]))


def _claim_deviation(
    spec: attack_mod.AttackSpec, config: protocol_mod.ProtocolConfig, i0c: float
) -> ClaimDeviation | None:
    """The claimed-vs-computed I0c when ``spec`` and ``config`` are the canonical
    counterexample setting (simplified mode, the "iz" encoding, |0> sent, the
    builtin counterexample arrays), else None.  χ, U and the sent state must
    each match within 1e-12; bell mode's 4-dimensional sent state never does.
    A report calls this once."""
    if config.encoding != "iz" or spec.ancilla_state.shape != _CANONICAL[0].shape:
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
    the whole list and one eigensolve of its (N, 4, D, D) blocks of σ
    (``_reduced_kernel``), the one kernel that sweep steps and ``verify``'s
    suites read too; the composite reference they were held to, the
    members on travel⊗ancilla, lives in the tests.

    The encodings act on the travel qubit alone, so every member of an
    ensemble is a local-unitary image of member 0 and has its composite
    and travel entropies: each Holevo bound is S(mixture) - S(member 0),
    clamped at 0 as d is clamped to [0, 1], so that rounding never prints
    a negative bound (``holevo_bound`` keeps the unclamped general form).
    Member 0's travel entropy is S(Tr_home σ), the kernel's fourth block;
    its composite entropy is the untouched home qubit's,
    ``config.home_entropy`` (0 in simplified mode, 1 in bell mode).

    The specs must share one ancilla dimension (ValueError otherwise); an
    invalid spec raises InvalidAttackError (see ``attack._attacked_rows``).
    """
    if not specs:
        return []
    d, entropies = _reduced_kernel(attack_mod._attacked_rows(specs, config), config)
    c, t, a, t0 = entropies.T.tolist()
    c0 = config.home_entropy
    return [
        InfoReport(
            d=d_i, i0t=t_i, i0a=a_i, i0c=c_i,
            holevo_t=max(0.0, t_i - t0_i), holevo_c=max(0.0, c_i - c0),
            claim_deviation=_claim_deviation(spec, config, c_i),
        )
        for spec, d_i, c_i, t_i, t0_i, a_i in zip(specs, d.tolist(), c, t, t0, a)
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
