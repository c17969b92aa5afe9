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

# The builtin attacks as (ancilla state χ, coupling U on travel⊗ancilla).
_BUILTINS = {
    "identity": ([1.0, 0.0], np.eye(4)),
    # A 45-degree rotation of the travel qubit ⊗ I.  The + 0.0 turns the two
    # -0.0 entries the kron makes into 0.0: without it the attack file prints -0.0.
    "counterexample": (
        [_SQRT_HALF, _SQRT_HALF],
        _SQRT_HALF * np.kron([[1, -1], [1, 1]], np.eye(2)) + 0.0,
    ),
    "cnot": ([1.0, 0.0], np.eye(4)[[0, 1, 3, 2]]),
}
BUILTIN_ATTACK_NAMES = tuple(_BUILTINS)


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
    dim = spec.ancilla_dim
    if not qlinalg._is_integer_at_least(dim, 1):
        return [f"ancilla_dim {dim!r} is not a positive integer"]
    violations: list[str] = []
    chi = spec.ancilla_state
    if chi.ndim != 1 or chi.size != dim:
        violations.append(f"ancilla state shape {chi.shape} does not match ancilla_dim {dim}")
    else:
        norm = qlinalg._off_norm(chi)
        if norm is not None:
            violations.append(f"ancilla state norm {norm:.12g} differs from 1 by {abs(norm - 1.0):.3g}")
    u = spec.unitary
    if u.shape != (2 * dim, 2 * dim):
        violations.append(f"unitary shape {u.shape} is not ({2 * dim}, {2 * dim})")
    else:
        dev = qlinalg._unitarity_deviation(u)
        if not dev <= qlinalg.ATOL:  # NaN fails this too
            violations.append(f"coupling matrix is not unitary: max |U†U - I| = {dev:.3g}")
    return violations


def _checked_lift(isometries: np.ndarray, config: "ProtocolConfig", label: str) -> np.ndarray:
    """(N, H, n) rows W_i(<h|_home|initial>) for an (N, n, 2) stack of isometries
    W_i = U_i(I₂⊗|χ_i>) of the travel qubit, each row's trace checked.

    A norm and a unitarity deviation, each within its tolerance, can add up
    past 1e-10 here: the attack is then invalid for this sent state.  The
    InvalidAttackError line of row i starts with ``label.format(i)``.
    ``_attacked_rows`` calls this after ``validate_attack``; the search calls
    it alone on each step's isometries, since unit-trace rows are all the
    kernel needs for its states to be density matrices.  Its families build
    unitaries, so it leaves U†U to ``information_report``, which validates
    each point the search returns in full.
    """
    rows = config.bob_initial.amplitudes.reshape(-1, 2) @ isometries.transpose(0, 2, 1)
    flat = rows.reshape(len(rows), -1).view(np.float64)  # (re, im) pairs
    traces = np.einsum("ij,ij->i", flat, flat)
    deviations = np.abs(traces - 1.0)
    if deviations.max() <= qlinalg.ATOL:  # NaN fails this too
        return rows
    raise InvalidAttackError("\n".join(
        f"{label.format(i)}attacked state norm² {traces[i]:.12g} is not 1 within {qlinalg.ATOL}"
        for i in np.flatnonzero(~(deviations <= qlinalg.ATOL))
    ))


def _attacked_rows(specs: list[AttackSpec], config: "ProtocolConfig") -> np.ndarray:
    """Validated (N, H, n) attacked amplitudes of N attacks on one ancilla dimension.

    Row h of attack i holds U_i(<h|_home|initial>⊗|χ_i>) over travel⊗ancilla:
    a single row U(|b>⊗|χ>) in simplified mode, two rows (home = 0, 1) in
    bell mode.  This is the one place a consumer's attack is checked and made
    the isometry W = U(I₂⊗|χ>) that ``_checked_lift`` lifts, by one matmul
    per spec, ``U.reshape(n, 2, m) @ χ`` for ancilla dimension m: each spec
    is validated by ``validate_attack`` once and each attacked state's trace
    checked; everything derived from the rows is trusted.  Every consumer
    (this module's functions, ``information_report``, ``run_message_round``
    and ``monte_carlo``) passes a list of one.  The InvalidAttackError
    carries one violation per line, naming its attack when the list holds
    more than one.  Specs of different ancilla dimensions raise ValueError;
    the list must not be empty.
    """
    label = "attack {}: " if len(specs) > 1 else ""
    found = list(map(validate_attack, specs))
    if any(found):
        raise InvalidAttackError("\n".join(label.format(i) + v for i, vs in enumerate(found) for v in vs))
    dims = sorted({int(spec.ancilla_dim) for spec in specs})
    if len(dims) > 1:
        raise ValueError(f"a batch of attacks needs one ancilla_dim, got {dims}")
    isometries = [spec.unitary.reshape(-1, 2, spec.ancilla_dim) @ spec.ancilla_state for spec in specs]
    return _checked_lift(np.array(isometries), config, label)


def _encoded_rows(rows: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """(K, *rows.shape) rows after each op ``ops[k]`` acts on the travel qubit.

    ``rows`` is (..., n): any leading axes ride along.
    """
    psi = rows.reshape(-1, 2, rows.shape[-1] // 2)
    return np.einsum("kts,hsa->khta", ops, psi).reshape((len(ops),) + rows.shape)


def _encoded_members(rows: np.ndarray, config: "ProtocolConfig") -> np.ndarray:
    """(N, K, n, n) post-encoding states on travel⊗ancilla, home traced out,
    for an (N, H, n) stack of attacked rows: the composite reference
    (``metrics._ensembles``), which no report or sweep step forms."""
    encoded = _encoded_rows(rows, config.op_stack)
    return np.einsum("knhi,knhj->nkij", encoded, encoded.conj())


def _reduced_states(rows: np.ndarray) -> np.ndarray:
    """(N, 2H, 2H) states σ = Tr_anc |ψ><ψ| of an (N, H, n) stack of attacked
    rows, one matmul over the stack: what Bob sent, after the attack, over
    home⊗travel in bell mode and travel alone in simplified mode.  The
    whole state is pure, so σ and the ancilla share their spectrum."""
    psi = rows.reshape(len(rows), -1, rows.shape[-1] // 2)
    return psi @ psi.conj().transpose(0, 2, 1)


def _detection(sigma: np.ndarray, config: "ProtocolConfig") -> np.ndarray:
    """d (N,) = 1 - Re Tr(Pσ) of one control round, clamped to [0, 1], for an
    (N, 2H, 2H) stack of states σ (``_reduced_states``) and the projector P
    that passes (``config.pass_weights``): the sent state |b> in simplified
    mode, the anticorrelated outcomes 01 and 10 of (home, travel) in bell
    mode.  Reports, sweeps and ``simulate`` all read d here."""
    # One (1, 4H²) @ (4H², 1) product per state: a row's d does not depend on N.
    kept = (sigma.reshape(len(sigma), 1, -1) @ config.pass_weights).real.reshape(-1)
    return np.minimum(np.maximum(1.0 - kept, 0.0), 1.0)


def apply_attack(spec: AttackSpec, config: "ProtocolConfig") -> qlinalg.DensityMatrix:
    """Attacked pre-encoding composite state.

    Returns the full density matrix: travel⊗ancilla in simplified mode,
    home⊗travel⊗ancilla in bell mode.  Trace is preserved within
    ``qlinalg.ATOL``: χ's norm and U†U may each sit inside their tolerance.

    No command calls this: it is the library's one-attack form, kept
    while ``bench/tracer.py`` wraps it by name.
    """
    psi = _attacked_rows([spec], config)[0].ravel()
    return qlinalg.DensityMatrix(np.outer(psi, psi.conj()))


def post_encoding_ensemble(spec: AttackSpec, config: "ProtocolConfig") -> EncodingEnsemble:
    """Mixture the eavesdropper faces after the message-mode encoding.

    Member j carries the prior of encoding op j and the state
    (A_j⊗I_anc)ρ'(A_j⊗I_anc)† on travel⊗ancilla; in bell mode the home
    qubit is traced out first since it is never accessible.

    No command calls this: it is the library's one-attack form, kept
    while ``bench/tracer.py`` wraps it by name.
    """
    members = _encoded_members(_attacked_rows([spec], config), config)[0]
    pairs = tuple((p, qlinalg.DensityMatrix(rho)) for p, rho in zip(config.priors, members))
    return EncodingEnsemble(members=pairs)


def detection_probability(spec: AttackSpec, config: "ProtocolConfig") -> float:
    """Probability a single control round flags the attack.

    Simplified mode: Alice measures the travel qubit in the basis
    containing the sent state |b>, so d = 1 - <b|ρ'_t|b>.  Bell mode:
    Alice and Bob compare computational-basis outcomes on travel and
    home; the unattacked pair is perfectly anticorrelated, so d is the
    probability the outcomes are equal.

    No command calls this: it is the library's one-attack form, kept
    while ``bench/tracer.py`` wraps it by name.
    """
    return float(_detection(_reduced_states(_attacked_rows([spec], config)), config)[0])


def builtin_attack(name: str) -> AttackSpec:
    """Named reference attacks.

    ``identity``: qubit ancilla left in |0>, no coupling.
    ``counterexample``: ancilla prepared in (|0>+|1>)/√2 and a coupling
    equal to a 45-degree travel-qubit rotation tensored with identity;
    the classic detectable-but-informative example this package audits.
    ``cnot``: travel qubit controls a NOT on a |0> ancilla.
    """
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin attack {name!r}; known: {BUILTIN_ATTACK_NAMES}")
    chi, unitary = _BUILTINS[name]
    return AttackSpec(ancilla_dim=2, ancilla_state=chi, unitary=unitary)
