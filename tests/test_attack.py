import json
import math

import numpy as np
import pytest

import pingpong as pp
from pingpong import attack, files, metrics, protocol, search

import oracles


# ---------------------------------------------------------------------------
# builtin attacks


def test_builtin_names_are_exposed():
    assert set(attack.BUILTIN_ATTACK_NAMES) == {"identity", "counterexample", "cnot"}
    for name in attack.BUILTIN_ATTACK_NAMES:
        assert attack.validate_attack(pp.builtin_attack(name)) == []


def test_unknown_builtin_raises():
    with pytest.raises(ValueError, match="unknown"):
        pp.builtin_attack("depolarize")


def test_counterexample_coupling_matches_term_assembly():
    """The coupling equals the eight-term outer-product sum, rebuilt by hand."""
    spec = pp.builtin_attack("counterexample")
    want = np.array(oracles.probe_unitary())
    assert np.max(np.abs(spec.unitary - want)) < 1e-15


def test_counterexample_coupling_is_travel_rotation_times_identity():
    spec = pp.builtin_attack("counterexample")
    want = np.array(oracles.mat_kron(oracles.rotation_quarter(), oracles.identity(2)))
    assert np.max(np.abs(spec.unitary - want)) < 1e-15


def test_counterexample_ancilla_is_balanced():
    spec = pp.builtin_attack("counterexample")
    assert spec.ancilla_dim == 2
    assert np.allclose(spec.ancilla_state, np.array(oracles.probe_ancilla()), atol=1e-15)


def test_spec_arrays_are_read_only():
    spec = pp.builtin_attack("identity")
    with pytest.raises((ValueError, AttributeError)):
        spec.unitary[0, 0] = 0.0


# json.dumps of files.attack_to_dict for each builtin: the bytes of its attack file.
PINNED_BUILTIN_FILES = {
    "identity": (
        '{"ancilla_dim": 2, "chi": [[1.0, 0.0], [0.0, 0.0]], "unitary": [[[1.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}'
    ),
    "counterexample": (
        '{"ancilla_dim": 2, "chi": [[0.7071067811865476, 0.0], [0.7071067811865476, '
        '0.0]], "unitary": [[[0.7071067811865476, 0.0], [0.0, 0.0], '
        '[-0.7071067811865476, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.7071067811865476, '
        '0.0], [0.0, 0.0], [-0.7071067811865476, 0.0]], [[0.7071067811865476, 0.0], '
        '[0.0, 0.0], [0.7071067811865476, 0.0], [0.0, 0.0]], [[0.0, 0.0], '
        '[0.7071067811865476, 0.0], [0.0, 0.0], [0.7071067811865476, 0.0]]]}'
    ),
    "cnot": (
        '{"ancilla_dim": 2, "chi": [[1.0, 0.0], [0.0, 0.0]], "unitary": [[[1.0, 0.0], '
        '[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], '
        '[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], '
        '[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]]}'
    ),
}


@pytest.mark.parametrize("name", attack.BUILTIN_ATTACK_NAMES)
def test_builtin_attack_files_are_pinned(name):
    # the counterexample coupling is a kron, whose two -0.0 entries must not reach the file
    assert json.dumps(files.attack_to_dict(pp.builtin_attack(name))) == PINNED_BUILTIN_FILES[name]


# ---------------------------------------------------------------------------
# validation


def test_validate_reports_bad_norm():
    for chi in ([1.0, 1.0], [math.nan, 0.0], [math.inf, 0.0], [1.0, math.nan * 1j]):
        spec = pp.AttackSpec(2, np.array(chi), np.eye(4))
        msgs = attack.validate_attack(spec)
        assert len(msgs) == 1 and "norm" in msgs[0], chi


def test_validate_reports_non_unitary_coupling():
    spec = pp.AttackSpec(2, np.array([1.0, 0.0]), np.zeros((4, 4)))
    msgs = attack.validate_attack(spec)
    assert any("not unitary" in m for m in msgs)


def test_validate_reports_shape_mismatches():
    spec = pp.AttackSpec(2, np.array([1.0, 0.0, 0.0]), np.eye(6))
    msgs = attack.validate_attack(spec)
    assert any("shape" in m for m in msgs)
    assert len(msgs) == 2  # chi and unitary both wrong for ancilla_dim=2


def test_validate_reports_bad_ancilla_dim():
    spec = pp.AttackSpec(0, np.array([1.0, 0.0]), np.eye(4))
    msgs = attack.validate_attack(spec)
    assert len(msgs) == 1 and "ancilla_dim" in msgs[0]


def test_validate_never_raises_on_garbage():
    weird = (
        pp.AttackSpec(2, np.array([[1.0, 0.0]]), np.eye(4)),
        pp.AttackSpec(2, np.array([1.0, 0.0]), np.ones((3, 5))),
        pp.AttackSpec(-1, np.array([]), np.zeros((0, 0))),
    )
    bad_dims = (math.nan, math.inf, -math.inf, None, True, 2.5, "2")
    weird += tuple(pp.AttackSpec(dim, np.array([1.0, 0.0]), np.eye(4)) for dim in bad_dims)
    for spec in weird:
        assert attack.validate_attack(spec)  # non-empty, but no exception


def test_consumers_refuse_invalid_attacks(simplified_config):
    spec = pp.AttackSpec(2, np.array([1.0, 1.0]), np.eye(4))
    with pytest.raises(attack.InvalidAttackError):
        attack.apply_attack(spec, simplified_config)
    with pytest.raises(attack.InvalidAttackError):
        attack.detection_probability(spec, simplified_config)


# ---------------------------------------------------------------------------
# applying attacks


def test_apply_attack_counterexample_state(counterexample, simplified_config):
    # |0>⊗χ rotates into the uniform superposition (1/2, 1/2, 1/2, 1/2)
    rho = attack.apply_attack(counterexample, simplified_config)
    psi = oracles.attacked_state([1.0, 0.0], oracles.probe_ancilla(), oracles.probe_unitary())
    want = np.array(oracles.outer(psi, psi))
    assert np.max(np.abs(rho.entries - want)) < 1e-12
    assert np.allclose(rho.entries, np.full((4, 4), 0.25), atol=1e-12)


def test_apply_attack_identity_leaves_state(identity_attack, simplified_config):
    rho = attack.apply_attack(identity_attack, simplified_config)
    want = np.zeros((4, 4))
    want[0, 0] = 1.0
    assert np.allclose(rho.entries, want, atol=1e-15)


def test_apply_attack_bell_dimensions(counterexample, bell_config):
    rho = attack.apply_attack(counterexample, bell_config)
    assert rho.dim == 8
    assert abs(np.trace(rho.entries).real - 1.0) < 1e-12


def test_apply_attack_trace_one_random(simplified_config, bell_config):
    rng = np.random.default_rng(31)
    for _ in range(30):
        spec = search.sample_random_attack(2, rng)
        for config in (simplified_config, bell_config):
            rho = attack.apply_attack(spec, config)
            assert abs(np.trace(rho.entries).real - 1.0) < 1e-12


def test_apply_attack_wrong_unitary_shape_raises(simplified_config):
    spec = pp.AttackSpec(2, np.array([1.0, 0.0]), np.eye(3))
    with pytest.raises(attack.InvalidAttackError):
        attack.apply_attack(spec, simplified_config)


def test_single_dimensional_ancilla_works(simplified_config):
    r = np.array(oracles.rotation_quarter())
    spec = pp.AttackSpec(1, np.array([1.0]), r)
    assert attack.validate_attack(spec) == []
    d = attack.detection_probability(spec, simplified_config)
    assert abs(d - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# post-encoding ensembles


def test_post_encoding_members_counterexample(counterexample, simplified_config):
    ens = attack.post_encoding_ensemble(counterexample, simplified_config)
    assert len(ens.members) == 2
    psi = oracles.attacked_state([1.0, 0.0], oracles.probe_ancilla(), oracles.probe_unitary())
    z_lift = oracles.mat_kron([[1, 0], [0, -1]], oracles.identity(2))
    flipped = oracles.mat_vec(z_lift, psi)
    for (prob, rho), want_vec in zip(ens.members, (psi, flipped)):
        assert abs(prob - 0.5) < 1e-15
        want = np.array(oracles.outer(want_vec, want_vec))
        assert np.max(np.abs(rho.entries - want)) < 1e-12


def test_post_encoding_average_trace_one(simplified_config, bell_config):
    rng = np.random.default_rng(37)
    for _ in range(20):
        spec = search.sample_random_attack(2, rng)
        for config in (simplified_config, bell_config):
            ens = attack.post_encoding_ensemble(spec, config)
            avg = ens.average()
            assert abs(np.trace(avg.entries).real - 1.0) < 1e-12
            assert avg.dim == 4  # bell mode traces the home qubit out first


def test_post_encoding_identity_members_coincide_with_zero_input(
    identity_attack, simplified_config
):
    # σz fixes |0>, so both members are the same projector
    ens = attack.post_encoding_ensemble(identity_attack, simplified_config)
    (p0, rho0), (p1, rho1) = ens.members
    assert np.max(np.abs(rho0.entries - rho1.entries)) < 1e-15


def test_ensemble_rejects_bad_priors():
    rho = pp.DensityMatrix(np.eye(4) / 4)
    with pytest.raises(ValueError, match="sum"):
        attack.EncodingEnsemble(members=((0.7, rho), (0.7, rho)))


# ---------------------------------------------------------------------------
# detection probability


def test_detection_probability_counterexample_both_modes(counterexample):
    d_s = attack.detection_probability(counterexample, pp.make_config("simplified"))
    d_b = attack.detection_probability(counterexample, pp.make_config("bell"))
    assert abs(d_s - 0.5) < 1e-12
    assert abs(d_b - 0.5) < 1e-12


def test_detection_probability_bell_matches_amplitude_oracle(counterexample):
    # assemble (I⊗U)(pair⊗χ) by hand and sum |amp|^2 over equal home/travel bits
    w = math.sqrt(0.5)
    pair = [0.0, w, w, 0.0]
    psi0 = oracles.vec_kron(pair, oracles.probe_ancilla())
    lifted = oracles.mat_kron(oracles.identity(2), oracles.probe_unitary())
    psi = oracles.mat_vec(lifted, psi0)
    d_want = sum(
        abs(amp) ** 2 for k, amp in enumerate(psi) if (k // 4) == ((k // 2) % 2)
    )
    d_got = attack.detection_probability(counterexample, pp.make_config("bell"))
    assert abs(d_got - d_want) < 1e-12


def test_detection_probability_clean_attacks():
    for name, tol in (("identity", 1e-15), ("cnot", 1e-12)):
        spec = pp.builtin_attack(name)
        for mode in ("simplified", "bell"):
            d = attack.detection_probability(spec, pp.make_config(mode))
            assert abs(d) < tol


def test_detection_probability_range_random():
    rng = np.random.default_rng(41)
    for _ in range(50):
        spec = search.sample_random_attack(int(rng.integers(1, 4)), rng)
        for mode in ("simplified", "bell"):
            d = attack.detection_probability(spec, pp.make_config(mode))
            assert 0.0 <= d <= 1.0


def test_detection_probability_ignores_global_phase(counterexample, simplified_config):
    spec = pp.AttackSpec(
        counterexample.ancilla_dim,
        counterexample.ancilla_state,
        np.exp(0.73j) * counterexample.unitary,
    )
    d0 = attack.detection_probability(counterexample, simplified_config)
    d1 = attack.detection_probability(spec, simplified_config)
    assert abs(d0 - d1) < 1e-12


def test_checked_lift_of_one_state_equals_one_attack_rows(bell_config):
    """The lift of the isometries W = U(I₂⊗|χ>) of couplings sharing one χ gives
    each attack's rows to the bit."""
    rng = np.random.default_rng(37)
    chi = search.random_pure_state(3, rng)
    unitaries = np.array([search.haar_random_unitary(6, rng) for _ in range(4)])
    isometries = (unitaries.reshape(4, 6, 2, 3) @ chi[:, None])[..., 0]
    stack = attack._checked_lift(isometries, bell_config, "row {}: ")
    for rows, unitary in zip(stack, unitaries):
        spec = pp.AttackSpec(3, chi, unitary)
        assert np.array_equal(rows, attack._attacked_rows([spec], bell_config)[0])


def test_checked_lift_names_every_row_off_its_trace(simplified_config):
    isometries = np.array([np.eye(4)[:, ::2]] * 4, dtype=complex)
    isometries[1] *= 1.5
    isometries[3, 0, 0] = np.nan
    with pytest.raises(attack.InvalidAttackError) as info:
        attack._checked_lift(isometries, simplified_config, "row {}: ")
    lines = str(info.value).splitlines()
    assert lines == [
        "row 1: attacked state norm² 2.25 is not 1 within 1e-10",
        "row 3: attacked state norm² nan is not 1 within 1e-10",
    ]

    # U(I₂⊗|χ>) of the identity coupling and an unnormalized χ = (1, 1)
    doubled = np.array([np.eye(4).reshape(4, 2, 2).sum(axis=2)] * 2, dtype=complex)
    with pytest.raises(attack.InvalidAttackError) as info:
        attack._checked_lift(doubled, simplified_config, "row {}: ")
    assert [line.split(":")[0] for line in str(info.value).splitlines()] == ["row 0", "row 1"]
    # within the norm tolerance, but the attacked state's trace is off
    with pytest.raises(attack.InvalidAttackError) as info:
        off = np.array([np.eye(4)[:, ::2]] * 2, dtype=complex) * (1.0 + 0.9e-10)
        attack._checked_lift(off, simplified_config, "row {}: ")
    assert [line.split(":")[0] for line in str(info.value).splitlines()] == ["row 0", "row 1"]
    assert "attacked state norm²" in str(info.value)


def test_checked_lift_checks_traces_only(simplified_config):
    """An isometry broken only in its column on |1>, which the sent |0> never
    reaches, passes the lift: ``validate_attack`` is what rejects the coupling."""
    isometries = np.array([np.eye(4)[:, ::2]] * 2, dtype=complex)
    isometries[1, :, 1] *= 1.5
    rows = attack._checked_lift(isometries, simplified_config, "row {}: ")
    assert np.array_equal(rows[1], rows[0])
    unitary = np.eye(4, dtype=complex)
    unitary[:, ::2] = isometries[1]
    broken = pp.AttackSpec(2, np.array([1.0, 0.0]), unitary)
    assert attack.validate_attack(broken) == [
        "coupling matrix is not unitary: max |U†U - I| = 1.25"
    ]


def test_one_attack_violations_are_unnamed_and_a_list_names_each(simplified_config, bell_config):
    malformed = pp.AttackSpec(2, np.array([1.0, 1.0]), np.ones((4, 4)))
    # 1 + 0.9e-10 passes the norm check but not the attacked state's trace
    untraced = pp.AttackSpec(2, np.array([1.0 + 0.9e-10, 0.0]), np.eye(4))
    trace_line = "attacked state norm² 1.00000000018 is not 1 within 1e-10"
    for spec, want in (
        (malformed, "\n".join(attack.validate_attack(malformed))),
        (untraced, trace_line),
    ):
        for call, args in (
            (metrics.information_report, (spec, simplified_config)),
            (attack.detection_probability, (spec, bell_config)),
            (protocol.monte_carlo, (bell_config, spec, 10, 0)),
        ):
            with pytest.raises(attack.InvalidAttackError) as info:
                call(*args)
            assert str(info.value) == want
    valid = pp.builtin_attack("counterexample")
    with pytest.raises(attack.InvalidAttackError) as info:
        attack._attacked_rows([valid, malformed], simplified_config)
    assert str(info.value) == "\n".join(f"attack 1: {v}" for v in attack.validate_attack(malformed))
    with pytest.raises(attack.InvalidAttackError) as info:
        attack._attacked_rows([valid, untraced], simplified_config)
    assert str(info.value) == f"attack 1: {trace_line}"
