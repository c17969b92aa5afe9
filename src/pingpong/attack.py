"""The eavesdropper's ancilla attack: declaration, validation, application.

An attack couples the travel qubit to a private ancilla with a joint
unitary.  Everything the eavesdropper can later examine lives on the
travel⊗ancilla factor; the home qubit (bell mode) is never touched.
"""

from __future__ import annotations

import dataclasses
import math
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


def _norm_violations(chi: np.ndarray) -> list[str]:
    """The ancilla state's norm violation, if any, with its measured deviation."""
    # hypot scales internally: a huge entry gives its true norm, not an overflow.
    norm = math.hypot(*chi.real.tolist(), *chi.imag.tolist())
    if not abs(norm - 1.0) <= qlinalg.ATOL_NORM:
        return [f"ancilla state norm {norm:.12g} differs from 1 by {abs(norm - 1.0):.3g}"]
    return []


def _coupling_violations(unitaries: np.ndarray) -> dict[int, str]:
    """Row → violation for each coupling of an (N, n, n) stack that is not unitary."""
    devs = qlinalg._unitarity_deviation(unitaries)
    if devs.max() <= qlinalg.ATOL_UNITARY:  # NaN fails this too
        return {}
    return {
        int(i): f"coupling matrix is not unitary: max |U†U - I| = {devs[i]:.3g}"
        for i in np.flatnonzero(~(devs <= qlinalg.ATOL_UNITARY))
    }


def _trace_violations(rows: np.ndarray) -> dict[int, str]:
    """Row → violation for each attacked state of an (N, H, n) stack that is not normalized.

    A norm and a unitarity deviation, each within its tolerance, can add up
    past 1e-10 here: the attack is then invalid for this sent state.
    """
    flat = rows.reshape(len(rows), -1).view(np.float64)  # (re, im) pairs
    traces = np.einsum("ij,ij->i", flat, flat)
    deviations = np.abs(traces - 1.0)
    if deviations.max() <= qlinalg.ATOL_TRACE:  # NaN fails this too
        return {}
    return {
        int(i): f"attacked state norm² {traces[i]:.12g} is not 1 within {qlinalg.ATOL_TRACE}"
        for i in np.flatnonzero(~(deviations <= qlinalg.ATOL_TRACE))
    }


def validate_attack(spec: AttackSpec) -> list[str]:
    """Check every attack invariant; returns violations with measured deviations.

    Never raises: an empty list means the attack is valid.
    """
    dim = spec.ancilla_dim
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        return [f"ancilla_dim {dim!r} is not a positive integer"]
    violations: list[str] = []
    chi = spec.ancilla_state
    if chi.ndim != 1 or chi.size != dim:
        violations.append(f"ancilla state shape {chi.shape} does not match ancilla_dim {dim}")
    else:
        violations += _norm_violations(chi)
    u = spec.unitary
    if u.shape != (2 * dim, 2 * dim):
        violations.append(f"unitary shape {u.shape} is not ({2 * dim}, {2 * dim})")
    else:
        violations += _coupling_violations(u[None]).values()
    return violations


def _lift(chi: np.ndarray, unitaries: np.ndarray, config: "ProtocolConfig") -> np.ndarray:
    """(N, H, n) rows U_i(<h|_home|initial>⊗|χ>) for an (N, n, n) coupling stack."""
    initial = config.bob_initial.amplitudes.reshape(-1, 2)
    lifted = (initial[:, :, None] * chi).reshape(len(initial), -1)
    return lifted @ unitaries.transpose(0, 2, 1)


def _attacked_rows(spec: AttackSpec, config: "ProtocolConfig") -> np.ndarray:
    """Validated attacked amplitudes, one row per home-qubit value.

    Row h holds U(<h|_home|initial>⊗|χ>) over travel⊗ancilla: a single
    row U(|b>⊗|χ>) in simplified mode, two rows (home = 0, 1) in bell
    mode.  This is the one place a consumer's attack is checked: it is
    validated here, and the trace of the attacked state checked, once;
    everything derived from the rows is trusted.  The InvalidAttackError
    carries one violation per line.
    """
    violations = validate_attack(spec)
    if violations:
        raise InvalidAttackError("\n".join(violations))
    rows = _lift(spec.ancilla_state, spec.unitary[None], config)
    violations = list(_trace_violations(rows).values())
    if violations:
        raise InvalidAttackError("\n".join(violations))
    return rows[0]


def _attacked_stack(
    chi: np.ndarray, unitaries: np.ndarray, config: "ProtocolConfig"
) -> np.ndarray:
    """Validated (N, H, n) attacked rows of N couplings on one ancilla state.

    The search's counterpart of ``_attacked_rows``: the same checks (χ's
    norm, max |U†U - I| per coupling, the attacked state's trace) made on
    the whole stack at once.  Each violation line names its row.
    """
    n = 2 * chi.size
    if unitaries.ndim != 3 or unitaries.shape[1:] != (n, n):
        raise InvalidAttackError(f"coupling stack shape {unitaries.shape} is not (N, {n}, {n})")
    violations = _norm_violations(chi)
    violations += [f"row {i}: {v}" for i, v in _coupling_violations(unitaries).items()]
    if violations:
        raise InvalidAttackError("\n".join(violations))
    rows = _lift(chi, unitaries, config)
    violations = [f"row {i}: {v}" for i, v in _trace_violations(rows).items()]
    if violations:
        raise InvalidAttackError("\n".join(violations))
    return rows


def _encoded_rows(rows: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """(K, *rows.shape) rows after each op ``ops[k]`` acts on the travel qubit.

    ``rows`` is (..., n): any leading axes ride along.
    """
    psi = rows.reshape(-1, 2, rows.shape[-1] // 2)
    return np.einsum("kts,hsa->khta", ops, psi).reshape((len(ops),) + rows.shape)


def _encoded_members(rows: np.ndarray, config: "ProtocolConfig") -> np.ndarray:
    """(N, K, n, n) post-encoding states on travel⊗ancilla, home traced out,
    for an (N, H, n) stack of attacked rows."""
    encoded = _encoded_rows(rows, config.op_stack)
    return np.einsum("knhi,knhj->nkij", encoded, encoded.conj())


def _detection(rows: np.ndarray, config: "ProtocolConfig") -> np.ndarray:
    """d (N,) of one control round for an (N, H, n) stack of attacked rows.

    Bell mode: the weight of equal computational-basis outcomes on
    (home, travel), 00 and 11, since the clean pair is anticorrelated.
    Simplified mode: the weight orthogonal to the sent state.
    """
    if config.mode == "bell":
        equal = np.sum(np.abs(rows.reshape(len(rows), 4, -1)[:, ::3]) ** 2, axis=2)
        return np.minimum(np.maximum(equal[:, 0] + equal[:, 1], 0.0), 1.0)
    o = config.bob_initial.amplitudes.conj() @ rows.reshape(len(rows), 2, -1)
    # Row by row this matmul equals np.vdot(o, o) to the bit (einsum does not).
    kept = (o.conj()[:, None, :] @ o[:, :, None]).real.reshape(-1)
    return np.minimum(np.maximum(1.0 - kept, 0.0), 1.0)


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
    members = _encoded_members(_attacked_rows(spec, config)[None], config)[0]
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
    return float(_detection(_attacked_rows(spec, config)[None], config)[0])


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
