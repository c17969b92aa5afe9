"""Comparative information quantities for one attack under one protocol config.

The information measure is the von Neumann entropy (bits) of the
post-encoding state: i0t for the travel marginal, i0a for the ancilla
marginal, i0c for the full travel⊗ancilla composite.  Holevo bounds on
the same ensemble give the standard extractable-information contrast.

The kernel takes one of two paths, chosen by ``config.mode``:

- Simplified mode: the attacked state U(|b>⊗|χ>) is pure, so every
  quantity is a function of the 2×2 travel state ρ_t alone
  (``_travel_kernel``): d = 1 - <b|ρ_t|b>, i0a = S(ρ_t) (the two marginals
  of a pure state share their spectrum), i0t = S(Σ p_k E_k ρ_t E_k†), and
  i0c = S(G) for the K×K Gram matrix G_lk = √(p_l p_k) Tr(E_l†E_k ρ_t) of
  the encoded states, whose mixture has G's nonzero spectrum.  Each
  eigensolve is K×K whatever the ancilla dimension.
- Bell mode: the home qubit is traced out, so the members are mixed and
  the kernel forms them on travel⊗ancilla (``_ensembles``) and solves the
  2m×2m composite and its padded marginals (``_subsystem_entropies``).
  Its channel form would need a 2K×2K matrix, no smaller than the
  composite at ancilla dimensions 1 and 2, so bell mode keeps this path.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import attack as attack_mod
from . import protocol as protocol_mod
from . import qlinalg

# Subsystems of travel⊗ancilla, in the argument order of _subsystem_entropies
# and the block order of _travel_kernel.
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
    """The composite kernel: bell mode's path, and the reference that
    simplified mode's ``_travel_kernel`` is checked against.

    For an (N, H, n) stack of validated attacked rows: d (N,), the (N, n, n)
    post-encoding mixtures and the (N, K, n, n) members they mix.
    """
    members = attack_mod._encoded_members(rows, config)
    return attack_mod._detection(rows, config), _mixtures(config.prior_array, members), members


def _travel_kernel(
    rows: np.ndarray, config: protocol_mod.ProtocolConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Simplified mode's kernel for an (N, 1, n) stack of validated attacked
    rows: d (N,) and the (N, 3, K, K) stack of G, Σ p_k E_k ρ_t E_k† and ρ_t,
    whose entropies are i0c, i0t and i0a (the order of _SUBSYSTEMS).

    ρ_t comes from one matmul over the stack, d from that same ρ_t
    (``attack._travel_detection``), and the three blocks from one
    (1, 4) @ (4, 3K²) product per row with ``config.travel_map``.
    """
    travel = attack_mod._travel_states(rows)
    blocks = travel.reshape(-1, 1, 4) @ config.travel_map
    k = len(config.op_stack)
    return attack_mod._travel_detection(travel, config), blocks.reshape(-1, 3, k, k)


def _objective_entropies(
    rows: np.ndarray, config: protocol_mod.ProtocolConfig, counts: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """d (N,) and one entropy per row from one eigensolve, for an (N, H, n)
    stack of validated attacked rows grouped by subsystem: the first
    ``counts[0]`` rows ask for the composite entropy, the next ``counts[1]``
    for the travel one and the rest for the ancilla one (_SUBSYSTEMS).

    A sweep step's values: each equals the matching field of
    ``information_report`` at the same attack, to the bit, since each
    matrix is formed and solved as the report forms and solves it.
    """
    a, b = counts[0], counts[0] + counts[1]
    if config.mode == "simplified":
        d, blocks = _travel_kernel(rows, config)
        return d, qlinalg._entropies(np.concatenate([blocks[:a, 0], blocks[a:b, 1], blocks[b:, 2]]))
    d, mixtures, _ = _ensembles(rows, config)
    return d, _subsystem_entropies(mixtures[:a], mixtures[a:b], mixtures[b:])


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
    the whole list and one eigensolve.

    The encodings act on the travel qubit alone, so every member of an
    ensemble is a local-unitary image of member 0 and has its composite
    and travel entropies: each Holevo bound is S(mixture) - S(member 0),
    clamped at 0 as d is clamped to [0, 1], so that rounding never prints
    a negative bound (``holevo_bound`` keeps the unclamped general form).

    Simplified mode solves three K×K matrices per attack (``_travel_kernel``).
    Its members are pure, so S(member 0) is 0 on the composite and S(ρ_t) =
    i0a on the travel qubit: holevo_c = i0c and holevo_t = max(0, i0t - i0a),
    with no composite eigensolve.  Bell mode's members are mixed: it solves
    five matrices per attack on the composite path (``_ensembles``), the
    mixture and member 0 on the composite and the travel qubit, and the
    mixture on the ancilla.

    The specs must share one ancilla dimension (ValueError otherwise); an
    invalid spec raises InvalidAttackError (see ``attack._attacked_rows``).
    """
    if not specs:
        return []
    rows = attack_mod._attacked_rows(specs, config)
    if config.mode == "simplified":
        d, blocks = _travel_kernel(rows, config)
        c, t, a = qlinalg._entropies(blocks).T.tolist()
        c0, t0 = [0.0] * len(specs), a
    else:
        d, mixtures, members = _ensembles(rows, config)
        both = np.concatenate([mixtures, members[:, 0]])
        c, c0, t, t0, a = _subsystem_entropies(both, both, mixtures).reshape(5, len(specs)).tolist()
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
