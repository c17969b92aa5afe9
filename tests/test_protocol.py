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
# round outcome invariants


def test_round_outcome_control_shape():
    out = protocol.RoundOutcome("control", detected=True, decoded_bit=None)
    assert out.detected and out.decoded_bit is None


def test_round_outcome_rejects_mixed_fields():
    with pytest.raises(ValueError):
        protocol.RoundOutcome("control", detected=None, decoded_bit=None)
    with pytest.raises(ValueError):
        protocol.RoundOutcome("control", detected=False, decoded_bit=1)
    with pytest.raises(ValueError):
        protocol.RoundOutcome("message", detected=True, decoded_bit=0)
    with pytest.raises(ValueError):
        protocol.RoundOutcome("pause", detected=None, decoded_bit=None)


# ---------------------------------------------------------------------------
# control rounds


def test_control_round_counterexample_detection(counterexample, simplified_config):
    d, _ = protocol.run_control_round(simplified_config, counterexample)
    assert abs(d - 0.5) < 1e-12


def test_control_round_identity_everywhere(identity_attack):
    for mode in ("simplified", "bell"):
        d, _ = protocol.run_control_round(pp.make_config(mode), identity_attack)
        assert abs(d) < 1e-15


def test_control_round_sampler_frequency(counterexample, simplified_config):
    d, sampler = protocol.run_control_round(simplified_config, counterexample)
    rng = np.random.default_rng(99)
    n = 4000
    hits = sum(sampler(rng).detected for _ in range(n))
    assert abs(hits / n - d) < 4 * oracles.binomial_sigma(d, n)


def test_control_round_sampler_transcripts(counterexample, bell_config):
    _, sampler = protocol.run_control_round(bell_config, counterexample)
    rng = np.random.default_rng(7)
    for _ in range(20):
        out = sampler(rng)
        assert out.round_kind == "control"
        entries = {label: value for _, label, value in out.transcript}
        assert out.detected == (entries["measure_travel"] == entries["measure_home"])


def test_control_round_simplified_transcript(identity_attack, simplified_config):
    _, sampler = protocol.run_control_round(simplified_config, identity_attack)
    out = sampler(np.random.default_rng(0))
    assert not out.detected
    assert ("public", "compare", "match") in out.transcript


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
    assert res.final_state.dim == 4


def test_message_round_paulis_on_zero_state_is_undecodable(identity_attack):
    config = pp.make_config("simplified", encoding="paulis")
    res = protocol.run_message_round(config, identity_attack, 2)
    assert not res.orthogonal_decoding


def test_message_round_final_state_oracle(counterexample, bell_config):
    # (I⊗Z⊗I)(I⊗U)(pair⊗χ) assembled with plain loops
    res = protocol.run_message_round(bell_config, counterexample, 1)
    w = math.sqrt(0.5)
    psi0 = oracles.vec_kron([0.0, w, w, 0.0], oracles.probe_ancilla())
    attacked = oracles.mat_vec(
        oracles.mat_kron(oracles.identity(2), oracles.probe_unitary()), psi0
    )
    z_lift = oracles.mat_kron(
        oracles.mat_kron(oracles.identity(2), [[1, 0], [0, -1]]), oracles.identity(2)
    )
    encoded = oracles.mat_vec(z_lift, attacked)
    want = np.array(oracles.outer(encoded, encoded))
    assert np.max(np.abs(res.final_state.entries - want)) < 1e-12


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
