"""The eavesdropper's ancilla attack: declaration, validation, application.

An attack couples the travel qubit to a private ancilla with a joint
unitary.  Everything the eavesdropper can later examine lives on the
travel⊗ancilla factor; the home qubit (bell mode) is never touched.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from . import qlinalg

if TYPE_CHECKING:
    from .protocol import ProtocolConfig

_SQRT_HALF = np.sqrt(0.5)

BUILTIN_ATTACK_NAMES = ("identity", "counterexample", "cnot")


class InvalidAttackError(ValueError):
    """An attack with reported violations was applied anyway."""


@dataclasses.dataclass(frozen=True, eq=False)
class AttackSpec:
    """Eavesdropping strategy: ancilla preparation plus coupling unitary.

    ``ancilla_state`` is the ancilla's initial pure state (length
    ``ancilla_dim``) and ``unitary`` acts on travel⊗ancilla, so it is
    (2·ancilla_dim)-dimensional.

    Arrays are stored raw: malformed strategies (wrong norm, non-unitary
    coupling, bad shapes) are representable so that ``validate_attack``
    can report them.  Every consumer that applies an attack validates
    first and raises InvalidAttackError on violations.
    """

    ancilla_dim: int
    ancilla_state: NDArray[np.complex128]
    unitary: NDArray[np.complex128]

    def __post_init__(self) -> None:
        chi = np.array(self.ancilla_state, dtype=complex)
        u = np.array(self.unitary, dtype=complex)
        chi.setflags(write=False)
        u.setflags(write=False)
        object.__setattr__(self, "ancilla_state", chi)
        object.__setattr__(self, "unitary", u)

    @property
    def composite_dim(self) -> int:
        return 2 * self.ancilla_dim


@dataclasses.dataclass(frozen=True, eq=False)
class EncodingEnsemble:
    """Post-encoding mixture on travel⊗ancilla: (probability, state) members."""

    members: tuple[tuple[float, qlinalg.DensityMatrix], ...]
    config: "ProtocolConfig"

    def __post_init__(self) -> None:
        total = sum(p for p, _ in self.members)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"member probabilities sum to {total:.12g}, not 1")

    def average(self) -> qlinalg.DensityMatrix:
        """Probability-weighted mixture Σ p_j ρ_j of the members."""
        acc = sum(p * rho.entries for p, rho in self.members)
        return qlinalg.DensityMatrix(acc)


def validate_attack(spec: AttackSpec) -> list[str]:
    """Check every attack invariant; returns violations with measured deviations.

    Never raises: an empty list means the attack is valid.
    """
    violations: list[str] = []
    if int(spec.ancilla_dim) < 1 or spec.ancilla_dim != int(spec.ancilla_dim):
        violations.append(f"ancilla_dim {spec.ancilla_dim!r} is not a positive integer")
        return violations
    dim = 2 * int(spec.ancilla_dim)
    chi = spec.ancilla_state
    if chi.ndim != 1 or chi.size != spec.ancilla_dim:
        violations.append(
            f"ancilla state shape {chi.shape} does not match ancilla_dim {spec.ancilla_dim}"
        )
    else:
        norm = float(np.linalg.norm(chi))
        if not abs(norm - 1.0) <= qlinalg.ATOL_NORM:
            violations.append(f"ancilla state norm {norm:.12g} differs from 1 by {abs(norm - 1.0):.3g}")
    u = spec.unitary
    if u.ndim != 2 or u.shape != (dim, dim):
        violations.append(f"unitary shape {u.shape} is not ({dim}, {dim})")
    elif not qlinalg.is_unitary(u, qlinalg.ATOL_UNITARY):
        dev = float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))
        violations.append(f"coupling matrix is not unitary: max |U†U - I| = {dev:.3g}")
    return violations


def _attacked_rows(spec: AttackSpec, config: "ProtocolConfig") -> np.ndarray:
    """Validated attacked amplitudes, one row per home-qubit value.

    Row h holds U(<h|_home|initial>⊗|χ>) over travel⊗ancilla: a single
    row U(|b>⊗|χ>) in simplified mode, two rows (home = 0, 1) in bell
    mode.  The attack is validated here, and the trace of the attacked
    state checked, once; everything derived from the rows is trusted.
    """
    violations = validate_attack(spec)
    if violations:
        raise InvalidAttackError("; ".join(violations))
    initial = config.bob_initial.amplitudes.reshape(-1, 2)
    lifted = (initial[:, :, None] * spec.ancilla_state).reshape(len(initial), -1)
    rows = lifted @ spec.unitary.T
    trace = np.vdot(rows, rows)
    # A norm and a unitarity deviation, each within its tolerance, can add up
    # past 1e-10 here: the attack is then invalid for this sent state.
    if not abs(trace - 1.0) <= qlinalg.ATOL_TRACE:
        raise InvalidAttackError(
            f"attacked state norm² {trace.real:.12g} is not 1 within {qlinalg.ATOL_TRACE}"
        )
    return rows


def _encoded_rows(rows: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """(K, *rows.shape) rows after each op ``ops[k]`` acts on the travel qubit."""
    psi = rows.reshape(rows.shape[0], 2, -1)
    return np.einsum("kts,hsa->khta", ops, psi).reshape((len(ops),) + rows.shape)


def _encoded_members(rows: np.ndarray, config: "ProtocolConfig") -> np.ndarray:
    """(K, n, n) stack of post-encoding states on travel⊗ancilla, home traced out."""
    encoded = _encoded_rows(rows, np.array([op.entries for op in config.encoding_ops]))
    return np.einsum("khi,khj->kij", encoded, encoded.conj())


def _control_outcomes(rows: np.ndarray, config: "ProtocolConfig") -> tuple[float, np.ndarray]:
    """d and the exact outcome distribution of one control round.

    Bell mode: index 2·home + travel of the computational-basis outcomes.
    Simplified mode: 0 = travel found in the sent state, 1 = orthogonal to it.
    """
    if config.mode == "bell":
        probs = np.sum(np.abs(rows.reshape(4, -1)) ** 2, axis=1)
        return min(max(float(probs[0] + probs[3]), 0.0), 1.0), probs
    overlap = config.bob_initial.amplitudes.conj() @ rows.reshape(2, -1)
    d = min(max(1.0 - float(np.vdot(overlap, overlap).real), 0.0), 1.0)
    return d, np.array([1.0 - d, d])


def apply_attack(spec: AttackSpec, config: "ProtocolConfig") -> qlinalg.DensityMatrix:
    """Attacked pre-encoding composite state.

    Returns the full density matrix: travel⊗ancilla in simplified mode,
    home⊗travel⊗ancilla in bell mode.  Trace is preserved within 1e-12.
    """
    psi = _attacked_rows(spec, config).ravel()
    return qlinalg.DensityMatrix(np.outer(psi, psi.conj()))


def post_encoding_ensemble(spec: AttackSpec, config: "ProtocolConfig") -> EncodingEnsemble:
    """Mixture the eavesdropper faces after the message-mode encoding.

    Member j carries the prior of encoding op j and the state
    (A_j⊗I_anc)ρ'(A_j⊗I_anc)† on travel⊗ancilla; in bell mode the home
    qubit is traced out first since it is never accessible.
    """
    members = _encoded_members(_attacked_rows(spec, config), config)
    pairs = tuple((p, qlinalg.DensityMatrix(rho)) for p, rho in zip(config.priors, members))
    return EncodingEnsemble(members=pairs, config=config)


def detection_probability(spec: AttackSpec, config: "ProtocolConfig") -> float:
    """Probability a single control round flags the attack.

    Simplified mode: Alice measures the travel qubit in the basis
    containing the sent state |b>, so d = 1 - <b|ρ'_t|b>.  Bell mode:
    Alice and Bob compare computational-basis outcomes on travel and
    home; the unattacked pair is perfectly anticorrelated, so d is the
    probability the outcomes are equal.
    """
    return _control_outcomes(_attacked_rows(spec, config), config)[0]


def _counterexample_unitary() -> np.ndarray:
    # Eight outer-product terms |row><col| with coefficient ±sqrt(1/2);
    # algebraically a 45-degree rotation of the travel qubit alone.
    terms = (
        (0, 0, +1.0),
        (0, 2, -1.0),
        (1, 1, +1.0),
        (1, 3, -1.0),
        (2, 0, +1.0),
        (2, 2, +1.0),
        (3, 1, +1.0),
        (3, 3, +1.0),
    )
    u = np.zeros((4, 4), dtype=complex)
    for row, col, sign in terms:
        u[row, col] += sign
    return _SQRT_HALF * u


def builtin_attack(name: str) -> AttackSpec:
    """Named reference attacks.

    ``identity``: qubit ancilla left in |0>, no coupling.
    ``counterexample``: ancilla prepared in (|0>+|1>)/√2 and a coupling
    equal to a 45-degree travel-qubit rotation tensored with identity;
    the classic detectable-but-informative example this package audits.
    ``cnot``: travel qubit controls a NOT on a |0> ancilla.
    """
    if name == "identity":
        return AttackSpec(
            ancilla_dim=2,
            ancilla_state=np.array([1.0, 0.0], dtype=complex),
            unitary=np.eye(4, dtype=complex),
        )
    if name == "counterexample":
        return AttackSpec(
            ancilla_dim=2,
            ancilla_state=np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex),
            unitary=_counterexample_unitary(),
        )
    if name == "cnot":
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        return AttackSpec(
            ancilla_dim=2,
            ancilla_state=np.array([1.0, 0.0], dtype=complex),
            unitary=cnot,
        )
    raise ValueError(f"unknown builtin attack {name!r}; known: {BUILTIN_ATTACK_NAMES}")
