import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

import pingpong as pp
from pingpong import attack, protocol, qlinalg, search

import oracles


# ---------------------------------------------------------------------------
# configs and encodings


def test_bell_pair_amplitudes():
    w = math.sqrt(0.5)
    assert np.allclose(protocol.bell_pair().amplitudes, [0.0, w, w, 0.0], atol=1e-15)
    assert protocol.bell_pair() is protocol.bell_pair()


def test_encoding_set_iz():
    config = pp.make_config(encoding="iz")
    assert config.encoding == "iz"
    assert config.priors == (0.5, 0.5)
    assert np.array_equal(config.encoding_ops[0].entries, np.eye(2, dtype=complex))
    assert np.array_equal(config.encoding_ops[1].entries, qlinalg.PAULI_Z)
    assert np.array_equal(config.op_stack, [np.eye(2), qlinalg.PAULI_Z])
    assert np.array_equal(config.prior_array, [0.5, 0.5])


def test_encoding_set_paulis():
    config = pp.make_config("bell", encoding="paulis")
    assert config.priors == (0.25, 0.25, 0.25, 0.25)
    assert len(config.encoding_ops) == 4
    want_last = qlinalg.PAULI_X @ qlinalg.PAULI_Z
    assert np.array_equal(config.encoding_ops[3].entries, want_last)
    assert np.array_equal(config.op_stack[3], want_last)
    assert np.array_equal(config.prior_array, [0.25] * 4)
    # the --encoding choices, in the order --help lists them
    assert protocol.ENCODING_NAMES == ("iz", "paulis")


def test_encoding_set_unknown_name():
    for name in ("bb84", "IZ", None):
        with pytest.raises(ValueError, match=r"unknown encoding .*\('iz', 'paulis'\)"):
            pp.make_config("simplified", encoding=name)


def test_config_has_four_settable_fields_and_read_only_derived_ones():
    assert pp.make_config is protocol.ProtocolConfig
    settable = [f.name for f in dataclasses.fields(protocol.ProtocolConfig) if f.init]
    assert settable == ["mode", "bob_initial", "encoding", "control_probability"]
    config = pp.make_config("bell", None, "paulis", 0.25)
    assert (config.mode, config.encoding, config.control_probability) == ("bell", "paulis", 0.25)
    derived = ("encoding_ops", "priors", "op_stack", "prior_array", "pass_weights", "kernel_map",
               "home_entropy", "decoding_states")
    for name in derived:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, None)
    arrays = (config.op_stack, config.prior_array, config.pass_weights, config.kernel_map,
              config.decoding_states)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]
    with pytest.raises(TypeError):
        protocol.ProtocolConfig("simplified", priors=(0.5, 0.5))
    with pytest.raises(TypeError):
        protocol.ProtocolConfig("simplified", decoding_states=None)


def test_kernel_arrays_follow_the_mode_and_the_sent_state():
    # σ is 2H×2H; each block is D×D with D = max(H·K, 2H); the home qubit's entropy
    # is 0 when the travel qubit is all Bob sends and exactly 1 for the pair
    plus = qlinalg.StateVector(np.full(2, np.sqrt(0.5)))
    for mode, sent, encoding, h, size, home in (
        ("simplified", None, "iz", 1, 2, 0.0), ("simplified", plus, "paulis", 1, 4, 0.0),
        ("bell", None, "iz", 2, 4, 1.0), ("bell", None, "paulis", 2, 8, 1.0),
    ):
        config = pp.make_config(mode, bob_initial=sent, encoding=encoding)
        assert config.kernel_map.shape == (4, 4 * h * h, size, size)
        assert config.pass_weights.shape == (4 * h * h, 1)
        assert config.home_entropy == home
    bell = pp.make_config("bell")
    assert np.flatnonzero(bell.pass_weights).tolist() == [5, 10]  # σ[01, 01] and σ[10, 10]


def test_make_config_defaults(simplified_config, bell_config):
    assert simplified_config.mode == "simplified"
    assert np.array_equal(simplified_config.bob_initial.amplitudes, [1.0, 0.0])
    assert simplified_config.control_probability == 0.5
    assert bell_config.bob_initial.dim == 4


def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        pp.make_config("teleport")


def test_config_rejects_bad_control_probability():
    for bad in (1.5, -0.1, math.nan, True, False, "0.5", None, np.bool_(True)):
        with pytest.raises(ValueError, match="control_probability"):
            pp.make_config("simplified", control_probability=bad)
    for good in (0, 1, np.float64(0.25), np.int64(1)):
        assert pp.make_config("simplified", control_probability=good).control_probability == good


def test_bell_mode_pins_the_pair():
    with pytest.raises(ValueError, match="pair"):
        pp.make_config("bell", bob_initial=qlinalg.basis_state(4, 0))


def test_config_rejects_wrong_initial_dimension():
    with pytest.raises(qlinalg.DimensionMismatchError):
        pp.make_config("simplified", bob_initial=protocol.bell_pair())
    # raw amplitudes once reached .dim and raised AttributeError
    for raw in (np.array([1.0, 0.0]), [1.0, 0.0]):
        with pytest.raises(TypeError, match="bob_initial"):
            pp.make_config("simplified", bob_initial=raw)


# ---------------------------------------------------------------------------
# message rounds


def test_message_round_identity_bell_decodes(identity_attack, bell_config):
    for bit in range(len(bell_config.encoding_ops)):
        res = protocol.run_message_round(bell_config, identity_attack, bit)
        assert res.orthogonal_decoding
        assert res.decoded_bit == bit
        assert abs(res.decode_probabilities[bit] - 1.0) < 1e-12
        assert res.failure_probability < 1e-12


def test_message_round_identity_bell_paulis(identity_attack):
    config = pp.make_config("bell", encoding="paulis")
    for bit in range(4):
        res = protocol.run_message_round(config, identity_attack, bit)
        assert res.decoded_bit == bit


def test_message_round_plus_state_decodes(identity_attack, plus_config):
    # σz|+> = |->, orthogonal to |+>, so the simplified run is decodable
    for bit in (0, 1):
        res = protocol.run_message_round(plus_config, identity_attack, bit)
        assert res.orthogonal_decoding
        assert res.decoded_bit == bit


def test_message_round_zero_state_is_undecodable(identity_attack, simplified_config):
    # σz fixes |0> up to phase: the two encoded states coincide
    res = protocol.run_message_round(simplified_config, identity_attack, 0)
    assert not res.orthogonal_decoding
    assert res.decoded_bit is None
    assert res.decode_probabilities is None
    assert res.failure_probability is None


def test_message_round_paulis_on_zero_state_is_undecodable(identity_attack):
    config = pp.make_config("simplified", encoding="paulis")
    res = protocol.run_message_round(config, identity_attack, 2)
    assert not res.orthogonal_decoding


@pytest.mark.parametrize("encoding", protocol.ENCODING_NAMES)
def test_decoding_states_are_the_orthonormal_encoded_images_or_none(encoding, plus_config):
    # simplified mode with |0>: Z|0> = |0>, so no message gets through
    assert pp.make_config("simplified", encoding=encoding).decoding_states is None
    bell = pp.make_config("bell", encoding=encoding)
    for config in (bell, plus_config) if encoding == "iz" else (bell,):
        home = np.eye(config.bob_initial.dim // 2)  # Alice acts on the travel qubit alone
        want = [np.kron(home, op) @ config.bob_initial.amplitudes for op in config.op_stack]
        states = config.decoding_states
        assert np.allclose(states, want, atol=1e-15)
        assert np.allclose(states @ states.conj().T, np.eye(len(states)), atol=1e-12)


def test_message_round_decode_oracle(counterexample, bell_config):
    # (I⊗Z⊗I)(I⊗U)(pair⊗χ) assembled with plain loops, then projected by
    # hand onto Bob's two candidates (I⊗I)pair and (I⊗Z)pair
    res = protocol.run_message_round(bell_config, counterexample, 1)
    w = math.sqrt(0.5)
    pair = [0.0, w, w, 0.0]
    psi0 = oracles.vec_kron(pair, oracles.probe_ancilla())
    attacked = oracles.mat_vec(
        oracles.mat_kron(oracles.identity(2), oracles.probe_unitary()), psi0
    )
    z_travel = oracles.mat_kron(oracles.identity(2), [[1, 0], [0, -1]])
    encoded = oracles.mat_vec(oracles.mat_kron(z_travel, oracles.identity(2)), attacked)
    candidates = (pair, oracles.mat_vec(z_travel, pair))
    want = []
    for candidate in candidates:
        weight = 0.0
        for a in range(2):  # the ancilla index rides along
            amp = sum(candidate[ht].conjugate() * encoded[2 * ht + a] for ht in range(4))
            weight += abs(amp) ** 2
        want.append(weight)
    assert res.orthogonal_decoding
    assert np.max(np.abs(np.array(res.decode_probabilities) - want)) < 1e-12
    assert abs(res.failure_probability - (1.0 - sum(want))) < 1e-12


def test_message_round_reports_the_modal_outcome(counterexample, plus_config):
    res = protocol.run_message_round(plus_config, counterexample, 0)
    assert res.orthogonal_decoding
    outcomes = (*res.decode_probabilities, res.failure_probability)
    assert abs(sum(outcomes) - 1.0) < 1e-10
    modal = int(np.argmax(outcomes))
    assert res.decoded_bit == (None if modal == len(outcomes) - 1 else modal)


def test_message_round_rejects_bad_bit(identity_attack, bell_config):
    for bit in (2, -1, True, 1.0):
        with pytest.raises(ValueError, match="bit"):
            protocol.run_message_round(bell_config, identity_attack, bit)
    assert protocol.run_message_round(bell_config, identity_attack, np.int64(1)).decoded_bit == 1


# ---------------------------------------------------------------------------
# monte carlo


def test_monte_carlo_is_deterministic(counterexample, bell_config):
    a = protocol.monte_carlo(bell_config, counterexample, rounds=3000, seed=13)
    b = protocol.monte_carlo(bell_config, counterexample, rounds=3000, seed=13)
    assert a.counts == b.counts
    assert a.empirical_d == b.empirical_d
    assert a.empirical_decode_accuracy == b.empirical_decode_accuracy


def test_monte_carlo_validates_the_attack_once(counterexample, monkeypatch):
    calls = []
    original = attack.validate_attack

    def counted(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(attack, "validate_attack", counted)
    config = pp.make_config("bell", encoding="paulis")
    stats = protocol.monte_carlo(config, counterexample, rounds=2000, seed=13)
    assert stats.counts["message_rounds"] > 0
    assert len(calls) == 1


def test_monte_carlo_counts_are_consistent(counterexample, bell_config):
    stats = protocol.monte_carlo(bell_config, counterexample, rounds=5000, seed=29)
    c = stats.counts
    assert c["rounds"] == 5000
    assert c["control_rounds"] + c["message_rounds"] == 5000
    assert c["decoded_correct"] + c["decoded_wrong"] + c["decoded_none"] == c["message_rounds"]
    assert 0 <= c["detections"] <= c["control_rounds"]


def test_monte_carlo_identity_never_detects(identity_attack, bell_config):
    stats = protocol.monte_carlo(bell_config, identity_attack, rounds=2000, seed=3)
    assert stats.counts["detections"] == 0
    assert stats.empirical_d == 0.0
    assert stats.empirical_decode_accuracy == 1.0


def test_monte_carlo_detection_frequency(counterexample):
    config = pp.make_config("simplified", control_probability=1.0)
    n = 100_000
    stats = protocol.monte_carlo(config, counterexample, rounds=n, seed=42)
    assert stats.counts["control_rounds"] == n
    sigma = oracles.binomial_sigma(0.5, n)
    assert abs(stats.empirical_d - 0.5) < 4 * sigma


@pytest.mark.parametrize("encoding", ["paulis", "iz"])
def test_monte_carlo_message_tallies_follow_the_decode_table(encoding):
    # bell/paulis decodes onto a full basis, so no weight is left outside it;
    # bell/iz leaves some, so decoded_none is tested at a nonzero rate as well.
    config = pp.make_config("bell", encoding=encoding, control_probability=0.0)
    spec = search.sample_random_attack(2, 31)
    rounds = 200_000
    results = [protocol.run_message_round(config, spec, k) for k in range(len(config.priors))]
    want_correct = sum(p * r.decode_probabilities[k] for k, (p, r) in enumerate(zip(config.priors, results)))
    want_none = sum(p * r.failure_probability for p, r in zip(config.priors, results))
    assert encoding == "paulis" or want_none > 0.01
    counts = protocol.monte_carlo(config, spec, rounds=rounds, seed=8).counts
    assert counts["message_rounds"] == rounds
    for got, want in ((counts["decoded_correct"], want_correct), (counts["decoded_none"], want_none)):
        assert abs(got / rounds - want) <= 4 * oracles.binomial_sigma(want, rounds)


def test_monte_carlo_at_the_cap_holds_no_array_of_rounds():
    config = pp.make_config("bell", encoding="paulis", control_probability=0.0)
    spec = search.sample_random_attack(2, 31)
    protocol.monte_carlo(config, spec, rounds=10, seed=0)  # first-call allocations
    tracemalloc.start()
    try:
        stats = protocol.monte_carlo(config, spec, rounds=protocol.MAX_ROUNDS, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.counts["message_rounds"] == protocol.MAX_ROUNDS
    assert peak < 1_000_000


def test_monte_carlo_undecodable_rounds_count_as_none(counterexample, simplified_config):
    stats = protocol.monte_carlo(simplified_config, counterexample, rounds=2000, seed=17)
    c = stats.counts
    assert c["decoded_none"] == c["message_rounds"]
    assert stats.empirical_decode_accuracy == 0.0


def test_monte_carlo_all_control_rounds_yield_nan_accuracy(counterexample):
    config = pp.make_config("simplified", control_probability=1.0)
    stats = protocol.monte_carlo(config, counterexample, rounds=50, seed=1)
    assert math.isnan(stats.empirical_decode_accuracy)
    assert stats.counts["message_rounds"] == 0


def test_monte_carlo_rejects_nonpositive_rounds(identity_attack, bell_config):
    with pytest.raises(ValueError, match="rounds"):
        protocol.monte_carlo(bell_config, identity_attack, rounds=0, seed=0)


def test_monte_carlo_rejects_rounds_above_the_cap(identity_attack, bell_config):
    for rounds in (protocol.MAX_ROUNDS + 1, 10**11, True, 2.5, np.float64(100.0)):
        want = re.escape(f"from 1 to {protocol.MAX_ROUNDS}, got {rounds!r}")
        with pytest.raises(ValueError, match=want):
            protocol.monte_carlo(bell_config, identity_attack, rounds=rounds, seed=0)


def test_monte_carlo_counts_are_python_ints(counterexample, bell_config):
    stats = protocol.monte_carlo(bell_config, counterexample, rounds=np.int64(10), seed=5)
    assert stats.counts["rounds"] == 10
    assert all(type(v) is int for v in stats.counts.values())


def test_monte_carlo_rejects_bad_seeds(identity_attack, bell_config):
    # None would run unseeded, and True as seed 1: neither repeats as a seed promises
    for seed in (1.5, True, None, -1, "0"):
        with pytest.raises(ValueError, match=r"seed must be an integer >= 0"):
            protocol.monte_carlo(bell_config, identity_attack, rounds=10, seed=seed)
    a = protocol.monte_carlo(bell_config, identity_attack, rounds=50, seed=np.int64(3))
    assert a.counts == protocol.monte_carlo(bell_config, identity_attack, rounds=50, seed=3).counts
