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
ENCODING_NAMES = ("iz", "paulis")

_SQRT_HALF = math.sqrt(0.5)


def bell_pair() -> qlinalg.StateVector:
    """The anticorrelated pair (|01> + |10>)/√2 over (home, travel)."""
    return qlinalg.StateVector([0.0, _SQRT_HALF, _SQRT_HALF, 0.0])


def encoding_set(name: str) -> tuple[tuple[qlinalg.UnitaryOperator, ...], tuple[float, ...]]:
    """Named encoding-operation sets with their priors.

    ``iz``: phase encoding {identity, Z}, equal priors.
    ``paulis``: the four-operation set {identity, Z, X, XZ}, equal priors.
    """
    if name == "iz":
        ops = (
            qlinalg.UnitaryOperator(qlinalg.PAULI_I),
            qlinalg.UnitaryOperator(qlinalg.PAULI_Z),
        )
        return ops, (0.5, 0.5)
    if name == "paulis":
        ops = (
            qlinalg.UnitaryOperator(qlinalg.PAULI_I),
            qlinalg.UnitaryOperator(qlinalg.PAULI_Z),
            qlinalg.UnitaryOperator(qlinalg.PAULI_X),
            qlinalg.UnitaryOperator(qlinalg.PAULI_X @ qlinalg.PAULI_Z),
        )
        return ops, (0.25, 0.25, 0.25, 0.25)
    raise ValueError(f"unknown encoding {name!r}; known: {ENCODING_NAMES}")


@dataclasses.dataclass(frozen=True, eq=False)
class ProtocolConfig:
    """Protocol variant and its fixed choices.

    ``bob_initial`` is the travel qubit Bob sends in simplified mode; in
    bell mode it is pinned to the anticorrelated pair over (home, travel).
    ``encoding_ops``/``priors`` define Alice's message-mode operations on
    the travel qubit.  ``control_probability`` only schedules Monte Carlo
    rounds; analytic quantities ignore it.  ``op_stack`` (K, 2, 2) and
    ``prior_array`` (K,) are the same ops and priors as read-only arrays,
    built once for the evaluation kernel.
    """

    mode: str
    bob_initial: qlinalg.StateVector
    encoding_ops: tuple[qlinalg.UnitaryOperator, ...]
    priors: tuple[float, ...]
    control_probability: float = 0.5
    op_stack: np.ndarray = dataclasses.field(init=False, repr=False)
    prior_array: np.ndarray = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; known: {MODES}")
        object.__setattr__(self, "encoding_ops", tuple(self.encoding_ops))
        object.__setattr__(self, "priors", tuple(float(p) for p in self.priors))
        if len(self.encoding_ops) != len(self.priors) or not self.encoding_ops:
            raise ValueError("encoding_ops and priors must be non-empty and equal length")
        if any(op.dim != 2 for op in self.encoding_ops):
            raise qlinalg.DimensionMismatchError("encoding ops act on the travel qubit (dim 2)")
        if any(p < 0 for p in self.priors):
            raise ValueError("priors must be non-negative")
        total = sum(self.priors)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"priors sum to {total:.12g}, not 1 within 1e-12")
        if not 0.0 <= self.control_probability <= 1.0:
            raise ValueError(f"control_probability {self.control_probability} outside [0, 1]")
        expected_dim = 4 if self.mode == "bell" else 2
        if self.bob_initial.dim != expected_dim:
            raise qlinalg.DimensionMismatchError(
                f"mode {self.mode!r} needs a {expected_dim}-dimensional initial state"
            )
        if self.mode == "bell":
            dev = float(np.max(np.abs(self.bob_initial.amplitudes - bell_pair().amplitudes)))
            if not dev <= 1e-12:
                raise ValueError("bell mode uses the fixed pair (|01> + |10>)/√2")
        for name, values in (("op_stack", [op.entries for op in self.encoding_ops]),
                             ("prior_array", self.priors)):
            array = np.array(values)
            array.setflags(write=False)
            object.__setattr__(self, name, array)


def make_config(
    mode: str = "simplified",
    bob_initial: qlinalg.StateVector | None = None,
    encoding: str = "iz",
    control_probability: float = 0.5,
) -> ProtocolConfig:
    """Convenience constructor with the default choices.

    Simplified mode defaults to sending |0>; bell mode always uses the
    anticorrelated pair.
    """
    if bob_initial is None:
        bob_initial = bell_pair() if mode == "bell" else qlinalg.basis_state(2, 0)
    ops, priors = encoding_set(encoding)
    return ProtocolConfig(
        mode=mode,
        bob_initial=bob_initial,
        encoding_ops=ops,
        priors=priors,
        control_probability=control_probability,
    )


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
    orthogonal_decoding: bool


def _decode_table(rows: np.ndarray, config: ProtocolConfig) -> np.ndarray | None:
    """Bob's (K, K+1) decode table for attacked rows (``attack._attacked_rows``).

    Row k holds, for bit k sent, the probability that Bob's measurement
    reports each encoding, then the weight outside every decode projector.
    The table is None when the decode candidates (the encoded images of
    the initial state) are not orthogonal, so that no decoding is defined.
    """
    ops = config.op_stack
    base = config.bob_initial.amplitudes.reshape(-1, 2)
    candidates = attack_mod._encoded_rows(base, ops).reshape(len(ops), -1)
    if np.any(np.abs(np.triu(candidates.conj() @ candidates.T, 1)) > 1e-10):
        return None
    encoded = attack_mod._encoded_rows(rows, ops)
    # Bob projects home⊗travel (bell) or travel onto each candidate.
    amplitudes = candidates.conj() @ encoded.reshape(len(ops), candidates.shape[1], -1)
    probs = np.sum(np.abs(amplitudes) ** 2, axis=2)
    failure = np.maximum(0.0, 1.0 - probs.sum(axis=1))
    return np.column_stack([probs, failure])


def run_message_round(
    config: ProtocolConfig,
    spec: attack_mod.AttackSpec,
    bit: int,
    rng: np.random.Generator | None = None,
) -> MessageRoundResult:
    """One message round: prepare, attack, encode, return, decode.

    Bob's decoding measures the projectors onto the encoded images of the
    initial state (their orthogonality is what makes decoding possible).
    Without an rng the reported decoded_bit is the modal outcome, so the
    call is deterministic; with an rng the outcome is sampled.  With the
    identity attack the decoded bit always equals ``bit``.
    """
    if not 0 <= bit < len(config.encoding_ops):
        raise ValueError(f"bit {bit!r} does not index {len(config.encoding_ops)} encoding ops")
    table = _decode_table(attack_mod._attacked_rows(spec, config), config)
    if table is None:
        return MessageRoundResult(
            decoded_bit=None,
            decode_probabilities=None,
            failure_probability=None,
            orthogonal_decoding=False,
        )
    outcomes = table[bit]
    if rng is None:
        decoded = int(np.argmax(outcomes))
    else:
        weights = np.clip(outcomes, 0.0, None)
        decoded = int(rng.choice(len(outcomes), p=weights / weights.sum()))
    return MessageRoundResult(
        decoded_bit=None if decoded == len(outcomes) - 1 else decoded,
        decode_probabilities=tuple(float(p) for p in outcomes[:-1]),
        failure_probability=float(outcomes[-1]),
        orthogonal_decoding=True,
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
    the encoding priors.  ``empirical_d`` is the detected fraction of
    control rounds (nan with none), ``empirical_decode_accuracy`` the
    correctly decoded fraction of message rounds (undecodable rounds count
    as incorrect; nan with no message rounds).
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    rng = np.random.default_rng(seed)
    rows = attack_mod._attacked_rows(spec, config)
    d = float(attack_mod._detection(rows[None], config)[0])
    is_control = rng.random(rounds) < config.control_probability
    n_control = int(is_control.sum())
    n_message = rounds - n_control
    detections = int((rng.random(n_control) < d).sum())

    n_ops = len(config.encoding_ops)
    bits = rng.choice(n_ops, size=n_message, p=config.prior_array)
    table = _decode_table(rows, config)
    if n_message and table is not None:
        table = np.clip(table, 0.0, None)
        table /= table.sum(axis=1, keepdims=True)
        draws = rng.random(n_message)
        cumulative = np.cumsum(table[bits], axis=1)
        outcomes = (draws[:, None] > cumulative).sum(axis=1)
        correct = int((outcomes == bits).sum())
        undecoded = int((outcomes == n_ops).sum())
    else:
        correct = 0
        undecoded = n_message
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
