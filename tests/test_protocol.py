import math

import numpy as np
import pytest

import pingpong as pp
from pingpong import attack, protocol, qlinalg

import oracles


# ---------------------------------------------------------------------------
# configs and encodings


def test_bell_pair_amplitudes():
    w = math.sqrt(0.5)
    assert np.allclose(protocol.bell_pair().amplitudes, [0.0, w, w, 0.0], atol=1e-15)


def test_encoding_set_iz():
    ops, priors = protocol.encoding_set("iz")
    assert priors == (0.5, 0.5)
    assert np.array_equal(ops[0].entries, np.eye(2, dtype=complex))
    assert np.array_equal(ops[1].entries, qlinalg.PAULI_Z)


def test_encoding_set_paulis():
    ops, priors = protocol.encoding_set("paulis")
    assert priors == (0.25, 0.25, 0.25, 0.25)
    assert len(ops) == 4
    want_last = qlinalg.PAULI_X @ qlinalg.PAULI_Z
    assert np.allclose(ops[3].entries, want_last, atol=1e-15)


def test_encoding_set_unknown_name():
    with pytest.raises(ValueError, match="unknown"):
        protocol.encoding_set("bb84")


def test_make_config_defaults(simplified_config, bell_config):
    assert simplified_config.mode == "simplified"
    assert np.array_equal(simplified_config.bob_initial.amplitudes, [1.0, 0.0])
    assert simplified_config.control_probability == 0.5
    assert bell_config.bob_initial.dim == 4


def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        pp.make_config("teleport")


def test_config_rejects_bad_control_probability():
    with pytest.raises(ValueError):
        pp.make_config("simplified", control_probability=1.5)


def test_config_rejects_bad_priors():
    ops, _ = protocol.encoding_set("iz")
    for priors in ((0.6, 0.6), (1.5, -0.5), (math.nan, math.nan), (math.inf, 0.0)):
        with pytest.raises(ValueError):
            protocol.ProtocolConfig(
                mode="simplified",
                bob_initial=qlinalg.basis_state(2, 0),
                encoding_ops=ops,
                priors=priors,
            )


def test_bell_mode_pins_the_pair():
    with pytest.raises(ValueError, match="pair"):
        pp.make_config("bell", bob_initial=qlinalg.basis_state(4, 0))


def test_config_rejects_wrong_initial_dimension():
    with pytest.raises(qlinalg.DimensionMismatchError):
        pp.make_config("simplified", bob_initial=protocol.bell_pair())


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


def test_message_round_sampled_outcomes(counterexample, plus_config):
    res = protocol.run_message_round(plus_config, counterexample, 0)
    assert res.orthogonal_decoding
    total = sum(res.decode_probabilities) + res.failure_probability
    assert abs(total - 1.0) < 1e-10
    rng = np.random.default_rng(11)
    seen = {
        protocol.run_message_round(plus_config, counterexample, 0, rng=rng).decoded_bit
        for _ in range(200)
    }
    assert seen <= {0, 1, None}
    assert len(seen) > 1  # the rotated state has weight on both projectors


def test_message_round_rejects_bad_bit(identity_attack, bell_config):
    with pytest.raises(ValueError, match="bit"):
        protocol.run_message_round(bell_config, identity_attack, 2)


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
