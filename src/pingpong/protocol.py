"""Ping-pong protocol state machine.

Bob keeps a home qubit (bell mode) and sends a travel qubit to Alice.
A round is either a control round, where Alice measures and the result
is compared publicly, or a message round, where Alice encodes a bit
with a local unitary and returns the qubit for Bob to decode.  The
eavesdropper acts once, on the forward leg.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import attack as attack_mod
from . import qlinalg

MODES = ("simplified", "bell")
# Alice's encoding sets, each op acting on the travel qubit.
_ENCODINGS = {
    "iz": (qlinalg.PAULI_I, qlinalg.PAULI_Z),
    "paulis": (
        qlinalg.PAULI_I, qlinalg.PAULI_Z, qlinalg.PAULI_X, qlinalg.PAULI_X @ qlinalg.PAULI_Z,
    ),
}
ENCODING_NAMES = tuple(_ENCODINGS)

# Most rounds one monte_carlo call simulates: part of the CLI contract, since
# simulate exits 2 above it.  A run costs no more as the round count grows.
MAX_ROUNDS = 10_000_000

_BELL_PAIR = qlinalg.StateVector([0.0, math.sqrt(0.5), math.sqrt(0.5), 0.0])


def bell_pair() -> qlinalg.StateVector:
    """The anticorrelated pair (|01> + |10>)/√2 over (home, travel)."""
    return _BELL_PAIR


@dataclasses.dataclass(frozen=True, eq=False)
class ProtocolConfig:
    """Protocol variant and its fixed choices.

    ``bob_initial`` is the travel-qubit ``StateVector`` Bob sends in
    simplified mode, |0> when None; in bell mode it is pinned to the
    anticorrelated pair over (home, travel), which None also selects.
    Anything else raises TypeError.  ``encoding`` names Alice's
    message-mode operations on the travel qubit (one of ``ENCODING_NAMES``),
    taken with equal priors.  ``control_probability`` only schedules Monte
    Carlo rounds; analytic quantities ignore it.

    Derived once, read-only: ``encoding_ops`` and ``priors`` are the named
    operations and their priors; ``op_stack`` (K, 2, 2) and ``prior_array``
    (K,) are the same as arrays.  The evaluation kernel
    (``metrics._reduced_kernel``) reads three more from σ, the (2H, 2H) state
    of what Bob sent with the ancilla traced out, over home⊗travel (bell,
    H = 2) or travel (H = 1).  ``pass_weights`` (4H², 1) is vec(Pᵀ) for the
    projector P a control round passes (|b><b| for the sent |b>, |01><01| +
    |10><10| for the pair): d = 1 - Re vec(σ)·pass_weights.  ``kernel_map``
    (4, 4H², D, D), D = max(H·K, 2H), maps vec(σ) to four zero-padded
    blocks: the Gram matrix G_(k,h),(l,h') = √(p_k p_l) Σ (E_k†E_l)[i,i']
    σ[(h',i'),(h,i)] of the encoded states, Σ_k p_k E_k Tr_home(σ) E_k†, σ
    and Tr_home σ.  ``home_entropy`` is the entropy of the home qubit, which
    the attack never touches, so of every member on travel⊗ancilla: 0 in
    simplified mode, 1 for the pair.
    ``decoding_states`` (K, H·2) holds the states Bob projects onto to
    decode, one row per encoding: the encoded images of the sent state,
    over home⊗travel (bell) or travel.  It is None when they are not
    mutually orthogonal (within ``qlinalg.ATOL``), so the configuration
    carries no message, as in simplified mode with |0>, since Z|0> = |0>.
    ``make_config`` is this constructor.
    """

    mode: str = "simplified"
    bob_initial: qlinalg.StateVector | None = None
    encoding: str = "iz"
    control_probability: float = 0.5
    encoding_ops: tuple[qlinalg.UnitaryOperator, ...] = dataclasses.field(init=False, repr=False)
    priors: tuple[float, ...] = dataclasses.field(init=False, repr=False)
    op_stack: np.ndarray = dataclasses.field(init=False, repr=False)
    prior_array: np.ndarray = dataclasses.field(init=False, repr=False)
    pass_weights: np.ndarray = dataclasses.field(init=False, repr=False)
    kernel_map: np.ndarray = dataclasses.field(init=False, repr=False)
    home_entropy: float = dataclasses.field(init=False, repr=False)
    decoding_states: np.ndarray | None = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; known: {MODES}")
        if self.encoding not in ENCODING_NAMES:
            raise ValueError(f"unknown encoding {self.encoding!r}; known: {ENCODING_NAMES}")
        p = self.control_probability
        if not (qlinalg._is_real(p) and 0.0 <= p <= 1.0):
            raise ValueError(f"control_probability {p!r} is not a number in [0, 1]")
        if self.bob_initial is None:
            sent = _BELL_PAIR if self.mode == "bell" else qlinalg.basis_state(2, 0)
            object.__setattr__(self, "bob_initial", sent)
        if not isinstance(self.bob_initial, qlinalg.StateVector):
            raise TypeError(
                f"bob_initial must be a StateVector or None, got {type(self.bob_initial).__name__}"
            )
        expected_dim = 4 if self.mode == "bell" else 2
        if self.bob_initial.dim != expected_dim:
            raise qlinalg.DimensionMismatchError(
                f"mode {self.mode!r} needs a {expected_dim}-dimensional initial state"
            )
        if self.mode == "bell":
            dev = float(np.max(np.abs(self.bob_initial.amplitudes - _BELL_PAIR.amplitudes)))
            if not dev <= 1e-12:
                raise ValueError("bell mode uses the fixed pair (|01> + |10>)/√2")
        ops = tuple(map(qlinalg.UnitaryOperator, _ENCODINGS[self.encoding]))
        object.__setattr__(self, "encoding_ops", ops)
        object.__setattr__(self, "priors", (1 / len(ops),) * len(ops))
        stack, priors, k = np.array([op.entries for op in ops]), np.array(self.priors), len(ops)
        sent = self.bob_initial.amplitudes.reshape(-1, 2)  # row h: <h|_home|sent>, H rows
        h = len(sent)
        if self.mode == "bell":
            passed = np.diag([0.0, 1.0, 1.0, 0.0])  # anticorrelated outcomes on (home, travel)
        else:
            passed = np.outer(sent[0], sent[0].conj())
        size = max(h * k, 2 * h)
        kernel_map = np.zeros((4, 2 * h, 2 * h, size, size), dtype=complex)
        # blocks[b, h', i', h, i]: σ[(h', i'), (h, i)]'s weight in block b; G's row (k, h) is k·H + h
        blocks = kernel_map.reshape(4, h, 2, h, 2, size, size)
        weights = np.sqrt(np.outer(priors, priors))
        gram = np.einsum("lk,laj,kai->ijlk", weights, stack.conj(), stack)
        mixing = np.einsum("k,kai,kbj->ijab", priors, stack, stack.conj())
        for col in range(h):
            for row in range(h):
                blocks[0, row, :, col, :, col:h * k:h, row:h * k:h] = gram
            blocks[1, col, :, col, :, :2, :2] = mixing
            blocks[3, col, :, col, :, :2, :2] = np.eye(4).reshape(2, 2, 2, 2)
        kernel_map[2, :, :, :2 * h, :2 * h] = np.eye(4 * h * h).reshape((2 * h,) * 4)
        derived = (("op_stack", stack), ("prior_array", priors), ("pass_weights", passed.T.reshape(-1, 1)),
                   ("kernel_map", kernel_map.reshape(4, 4 * h * h, size, size)))
        for name, array in derived:
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        home = sent @ sent.conj().T
        # normalized by its trace, so that the pair's reads exactly 1
        object.__setattr__(self, "home_entropy", float(qlinalg._entropies(home / home.trace().real)))
        images = attack_mod._encoded_rows(sent, self.op_stack).reshape(len(ops), -1)
        if np.any(np.abs(np.triu(images.conj() @ images.T, 1)) > qlinalg.ATOL):
            images = None
        else:
            images.setflags(write=False)
        object.__setattr__(self, "decoding_states", images)


make_config = ProtocolConfig


@dataclasses.dataclass(frozen=True)
class MessageRoundResult:
    """Outcome of one message round.

    ``decode_probabilities`` maps encoding index to the probability Bob's
    measurement reports it; ``failure_probability`` is the weight of the
    outcome outside every decode projector.  When the encoded states are
    not mutually orthogonal no decoding is defined: decoded_bit is None
    and the distribution fields are None.
    """

    decoded_bit: int | None
    decode_probabilities: tuple[float, ...] | None
    failure_probability: float | None

    @property
    def orthogonal_decoding(self) -> bool:
        return self.decode_probabilities is not None


def _decode_table(rows: np.ndarray, config: ProtocolConfig) -> np.ndarray | None:
    """Bob's (K, K+1) decode table for one attack's rows (``attack._attacked_rows``).

    Row k holds, for bit k sent, the probability that Bob's measurement
    reports each encoding, then the weight outside every decode projector.
    The table is None when ``config.decoding_states`` is, so that no
    decoding is defined.
    """
    candidates = config.decoding_states
    if candidates is None:
        return None
    ops = config.op_stack
    encoded = attack_mod._encoded_rows(rows, ops)
    # Bob projects home⊗travel (bell) or travel onto each candidate.
    amplitudes = candidates.conj() @ encoded.reshape(len(ops), candidates.shape[1], -1)
    probs = np.sum(np.abs(amplitudes) ** 2, axis=2)
    failure = np.maximum(0.0, 1.0 - probs.sum(axis=1))
    return np.column_stack([probs, failure])


def run_message_round(
    config: ProtocolConfig, spec: attack_mod.AttackSpec, bit: int
) -> MessageRoundResult:
    """One message round: prepare, attack, encode, return, decode.

    Bob's decoding measures the projectors onto the encoded images of the
    initial state (their orthogonality is what makes decoding possible).
    The reported decoded_bit is the modal outcome, so the call is
    deterministic; ``monte_carlo`` samples outcomes.  With the identity
    attack the decoded bit always equals ``bit``.
    """
    if not (qlinalg._is_integer_at_least(bit, 0) and bit < len(config.encoding_ops)):
        raise ValueError(f"bit {bit!r} does not index {len(config.encoding_ops)} encoding ops")
    table = _decode_table(attack_mod._attacked_rows([spec], config)[0], config)
    if table is None:
        return MessageRoundResult(decoded_bit=None, decode_probabilities=None, failure_probability=None)
    outcomes = table[bit]
    decoded = int(np.argmax(outcomes))
    return MessageRoundResult(
        decoded_bit=None if decoded == len(outcomes) - 1 else decoded,
        decode_probabilities=tuple(float(p) for p in outcomes[:-1]),
        failure_probability=float(outcomes[-1]),
    )


@dataclasses.dataclass(frozen=True)
class MonteCarloStats:
    """Seeded simulation tallies; identical seeds give identical stats.

    ``analytic_d`` is the exact detection probability the control rounds
    sample, from the same attacked state.
    """

    analytic_d: float
    empirical_d: float
    empirical_decode_accuracy: float
    counts: dict[str, int]


def monte_carlo(
    config: ProtocolConfig, spec: attack_mod.AttackSpec, rounds: int, seed: int
) -> MonteCarloStats:
    """Simulate ``rounds`` protocol rounds and tally the outcomes.

    Round kinds follow ``config.control_probability``; message bits follow
    the encoding priors.  Only the tallies are drawn, each from its exact
    law: the control rounds and their detections are binomial, the bits
    sent multinomial, and each bit's decode outcomes multinomial over its
    row of ``_decode_table``.  So no array grows with ``rounds``.

    ``empirical_d`` is the detected fraction of control rounds (nan with
    none), ``empirical_decode_accuracy`` the correctly decoded fraction of
    message rounds (undecodable rounds count as incorrect; nan with no
    message rounds).  ``rounds`` is an integer
    from 1 to ``MAX_ROUNDS`` and ``seed`` an integer >= 0; otherwise
    ValueError is raised before anything is drawn.
    """
    if not (qlinalg._is_integer_at_least(rounds, 1) and rounds <= MAX_ROUNDS):
        raise ValueError(f"rounds must be an integer from 1 to {MAX_ROUNDS}, got {rounds!r}")
    if not qlinalg._is_integer_at_least(seed, 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    rounds = int(rounds)
    rng = np.random.default_rng(seed)
    rows = attack_mod._attacked_rows([spec], config)
    d = float(attack_mod._detection(attack_mod._reduced_states(rows), config)[0])
    n_control = int(rng.binomial(rounds, config.control_probability))
    n_message = rounds - n_control
    detections = int(rng.binomial(n_control, d))
    table = _decode_table(rows[0], config)
    if table is None:
        correct, undecoded = 0, n_message
    else:
        table = np.clip(table, 0.0, None)
        table /= table.sum(axis=1, keepdims=True)
        # tally[k, j]: rounds that sent bit k and that Bob decoded as j (K: none).
        tally = rng.multinomial(rng.multinomial(n_message, config.prior_array), table)
        correct, undecoded = int(np.trace(tally)), int(tally[:, -1].sum())
    counts = {
        "rounds": rounds,
        "control_rounds": n_control,
        "message_rounds": n_message,
        "detections": detections,
        "decoded_correct": correct,
        "decoded_wrong": n_message - correct - undecoded,
        "decoded_none": undecoded,
    }
    empirical_d = detections / n_control if n_control else math.nan
    accuracy = correct / n_message if n_message else math.nan
    return MonteCarloStats(
        analytic_d=d, empirical_d=empirical_d, empirical_decode_accuracy=accuracy, counts=counts
    )
