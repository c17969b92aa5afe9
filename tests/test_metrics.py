import math

import numpy as np
import pytest

import pingpong as pp
from pingpong import attack, metrics, search

import oracles


# ---------------------------------------------------------------------------
# binary entropy


def test_binary_entropy_endpoints_and_peak():
    assert metrics.binary_entropy(0.0) == 0.0
    assert metrics.binary_entropy(1.0) == 0.0
    assert abs(metrics.binary_entropy(0.5) - 1.0) < 1e-15


def test_binary_entropy_frozen_value():
    assert abs(metrics.binary_entropy(0.11) - oracles.BINARY_ENTROPY_011) < 1e-12
    assert abs(oracles.binary_entropy(0.11) - oracles.BINARY_ENTROPY_011) < 1e-15


def test_binary_entropy_symmetry():
    for p in (0.03, 0.2, 0.41):
        assert abs(metrics.binary_entropy(p) - metrics.binary_entropy(1 - p)) < 1e-15


def test_binary_entropy_rejects_out_of_range():
    for bad in (-0.1, 1.1, 2.0):
        with pytest.raises(ValueError):
            metrics.binary_entropy(bad)


# ---------------------------------------------------------------------------
# the headline report


def test_report_counterexample_headline_numbers(counterexample, simplified_config):
    rep = metrics.information_report(counterexample, simplified_config)
    assert abs(rep.d - 0.5) < 1e-12
    assert abs(rep.i0t - 1.0) < 1e-12
    assert abs(rep.i0a - 0.0) < 1e-12


def test_report_counterexample_composite_entropy_oracle(
    counterexample, simplified_config
):
    # equal mixture of the attacked state and its travel-dephased image
    rep = metrics.information_report(counterexample, simplified_config)
    psi = oracles.attacked_state(
        [1.0, 0.0], oracles.probe_ancilla(), oracles.probe_unitary()
    )
    want = oracles.dephased_mixture_entropy(psi, 2)
    assert abs(rep.i0c - want) < 1e-10
    assert abs(rep.i0c - 1.0) < 1e-12


def test_report_flags_deviation_from_claimed_two_bits(counterexample, simplified_config):
    rep = metrics.information_report(counterexample, simplified_config)
    dev = rep.claim_deviation
    assert dev is not None
    assert dev.claimed == 2.0
    assert abs(dev.computed - 1.0) < 1e-12
    assert abs(dev.delta - (-1.0)) < 1e-12


def test_report_identity_attack_carries_no_information(
    identity_attack, simplified_config
):
    rep = metrics.information_report(identity_attack, simplified_config)
    for value in (rep.d, rep.i0t, rep.i0a, rep.i0c, rep.holevo_t, rep.holevo_c):
        assert abs(value) < 1e-12
    assert rep.claim_deviation is None


def test_claim_audit_only_applies_to_the_canonical_setup(counterexample):
    assert (
        metrics.information_report(counterexample, pp.make_config("bell")).claim_deviation
        is None
    )
    assert (
        metrics.information_report(
            counterexample, pp.make_config("simplified", encoding="paulis")
        ).claim_deviation
        is None
    )
    one = pp.make_config("simplified", bob_initial=pp.basis_state(2, 1))
    assert metrics.information_report(counterexample, one).claim_deviation is None


def test_claim_audit_requires_the_exact_arrays(simplified_config):
    base = pp.builtin_attack("counterexample")
    tweaked = pp.AttackSpec(
        base.ancilla_dim, base.ancilla_state, np.exp(0.2j) * base.unitary
    )
    rep = metrics.information_report(tweaked, simplified_config)
    assert rep.claim_deviation is None


def test_travel_entropy_equals_binary_entropy_of_detection(simplified_config):
    rng = np.random.default_rng(47)
    for _ in range(50):
        spec = search.sample_random_attack(2, rng)
        rep = metrics.information_report(spec, simplified_config)
        assert abs(rep.i0t - metrics.binary_entropy(rep.d)) < 1e-10


def test_report_composite_entropy_matches_charpoly_route(simplified_config):
    # the dephased composite is rank 2: the double root at zero costs the
    # polynomial route ~1e-7 of accuracy, hence the looser tolerance
    rng = np.random.default_rng(53)
    for _ in range(10):
        spec = search.sample_random_attack(2, rng)
        rep = metrics.information_report(spec, simplified_config)
        avg = attack.post_encoding_ensemble(spec, simplified_config).average()
        want = oracles.entropy_via_charpoly([list(r) for r in avg.entries])
        assert abs(rep.i0c - want) < 5e-6


def _reference_report(spec, config):
    """The report rebuilt from density matrices: kron-lifted ops, one
    partial trace and one entropy per marginal."""
    rho = attack.apply_attack(spec, config)
    anc = spec.ancilla_dim
    dims = (2, anc)
    if config.mode == "bell":
        home_travel = np.real(np.diag(pp.partial_trace(rho, (2, 2, anc), (0, 1)).entries))
        d = home_travel[0] + home_travel[3]
        rho = pp.partial_trace(rho, (2, 2, anc), (1, 2))
    else:
        b = config.bob_initial.amplitudes
        d = 1.0 - np.real(np.vdot(b, pp.partial_trace(rho, dims, 0).entries @ b))
    members = []
    for op in config.encoding_ops:
        lifted = np.kron(op.entries, np.eye(anc))
        members.append(pp.DensityMatrix(lifted @ rho.entries @ lifted.conj().T))
    average = pp.DensityMatrix(sum(p * m.entries for p, m in zip(config.priors, members)))
    entropy = pp.von_neumann_entropy
    i0t = entropy(pp.partial_trace(average, dims, 0))
    i0c = entropy(average)
    return {
        "d": d,
        "i0t": i0t,
        "i0a": entropy(pp.partial_trace(average, dims, 1)),
        "i0c": i0c,
        "holevo_t": i0t - sum(
            p * entropy(pp.partial_trace(m, dims, 0)) for p, m in zip(config.priors, members)
        ),
        "holevo_c": i0c - sum(p * entropy(m) for p, m in zip(config.priors, members)),
    }


def test_report_matches_density_matrix_reference():
    rng = np.random.default_rng(67)
    configs = [pp.make_config(m, encoding=e) for m in ("simplified", "bell") for e in ("iz", "paulis")]
    worst = 0.0
    for anc in (1, 2, 4):
        for _ in range(5):
            spec = search.sample_random_attack(anc, rng)
            for config in configs:
                rep = metrics.information_report(spec, config)
                for name, want in _reference_report(spec, config).items():
                    worst = max(worst, abs(getattr(rep, name) - want))
    assert worst < 1e-12, worst


def test_batched_kernel_matches_the_one_attack_references():
    """The kernel on N couplings equals information_report row by row
    (exactly), the density-matrix reference within 1e-12, and, for the
    {I, Z} encoding in simplified mode, the rank-2 oracle for I0c and H(d).
    The mixtures' entropies alone are the same, and so is each one the
    search takes: one subsystem per row, rows grouped by subsystem."""
    rng = np.random.default_rng(73)
    configs = [
        pp.make_config(m, encoding=e) for m in ("simplified", "bell") for e in ("iz", "paulis")
    ]
    for anc in (1, 2, 4):
        chi = search.random_pure_state(anc, rng)
        unitaries = np.array([search.haar_random_unitary(2 * anc, rng) for _ in range(5)])
        for config in configs:
            priors = np.array(config.priors)
            rows = attack._attacked_stack(chi, unitaries, config)
            d, stacks = metrics._ensembles(rows, config)
            entropies = metrics._subsystem_entropies(stacks, anc)
            mixtures = metrics._subsystem_entropies(stacks[:, 0], anc)
            assert np.array_equal(mixtures, entropies[:, :, 0])
            d_alone, mixed = metrics._ensembles(rows, config, members=False)
            assert np.array_equal(d_alone, d) and np.array_equal(mixed, stacks[:, 0])
            for counts in ((5, 0, 0), (0, 5, 0), (0, 0, 5), (2, 1, 2), (0, 3, 2), (1, 4, 0)):
                subsystems = np.repeat([0, 1, 2], counts)
                selected = metrics._subsystem_entropies(mixed, anc, counts)
                assert np.array_equal(selected, mixtures[subsystems, np.arange(5)])
            composite, travel, ancilla = entropies
            for i, unitary in enumerate(unitaries):
                spec = pp.AttackSpec(anc, chi, unitary)
                got = {
                    "d": d[i], "i0t": travel[i, 0], "i0a": ancilla[i, 0], "i0c": composite[i, 0],
                    "holevo_t": metrics._holevo(priors, travel[i]),
                    "holevo_c": metrics._holevo(priors, composite[i]),
                }
                report = metrics.information_report(spec, config)
                reference = _reference_report(spec, config)
                for name, value in got.items():
                    assert value == getattr(report, name), name
                    assert abs(value - reference[name]) < 1e-12, name
                one_rows = attack._attacked_rows(spec, config)
                if config.mode == "simplified":
                    # d as one attack's vdot forms it, to the bit: sweeps are pinned on it
                    b = config.bob_initial.amplitudes
                    overlap = b.conj() @ one_rows.reshape(2, -1)
                    kept = float(np.vdot(overlap, overlap).real)
                    assert got["d"] == min(max(1.0 - kept, 0.0), 1.0)
                else:
                    # d from all four (home, travel) outcome weights, 00 + 11, to the bit
                    outcomes = np.sum(np.abs(one_rows.reshape(4, -1)) ** 2, axis=1)
                    assert got["d"] == min(max(outcomes[0] + outcomes[3], 0.0), 1.0)
                if config.mode == "simplified" and len(priors) == 2:
                    psi = oracles.attacked_state([1.0, 0.0], list(chi), [list(r) for r in unitary])
                    want_d = 1.0 - sum(abs(a) ** 2 for a in psi[:anc])
                    assert abs(got["d"] - want_d) < 1e-12
                    assert abs(got["i0t"] - oracles.binary_entropy(want_d)) < 1e-10
                    assert abs(got["i0c"] - oracles.dephased_mixture_entropy(psi, anc)) < 1e-10


# ---------------------------------------------------------------------------
# holevo bounds


def test_holevo_counterexample_simplified(counterexample, simplified_config):
    ens = attack.post_encoding_ensemble(counterexample, simplified_config)
    assert abs(metrics.holevo_bound(ens, "travel") - 1.0) < 1e-10
    assert abs(metrics.holevo_bound(ens, "composite") - 1.0) < 1e-10
    assert abs(metrics.holevo_bound(ens, "ancilla")) < 1e-10


def test_holevo_counterexample_bell_composite_vanishes(counterexample, bell_config):
    # the two encoded mixtures coincide, so the bound is exactly zero
    ens = attack.post_encoding_ensemble(counterexample, bell_config)
    assert metrics.holevo_bound(ens, "composite") == 0.0


def test_holevo_single_member_is_zero(counterexample, simplified_config):
    rho = attack.apply_attack(counterexample, simplified_config)
    ens = attack.EncodingEnsemble(members=((1.0, rho),), config=simplified_config)
    assert abs(metrics.holevo_bound(ens, "composite")) < 1e-12


def test_holevo_rejects_unknown_subsystem(counterexample, simplified_config):
    ens = attack.post_encoding_ensemble(counterexample, simplified_config)
    with pytest.raises(ValueError, match="subsystem"):
        metrics.holevo_bound(ens, "home")


def test_holevo_nonnegative_and_bounded_by_average_entropy(simplified_config):
    rng = np.random.default_rng(59)
    for _ in range(30):
        spec = search.sample_random_attack(2, rng)
        ens = attack.post_encoding_ensemble(spec, simplified_config)
        avg_entropy = pp.von_neumann_entropy(ens.average())
        for sub in ("travel", "ancilla", "composite"):
            chi = metrics.holevo_bound(ens, sub)
            assert chi > -1e-12
        assert metrics.holevo_bound(ens, "composite") <= avg_entropy + 1e-10


# ---------------------------------------------------------------------------
# inequality diagnostics


def test_inequalities_hold_for_counterexample(counterexample, simplified_config):
    rep = metrics.information_report(counterexample, simplified_config)
    diag = metrics.entropy_inequality_check(rep)
    assert diag.subadditivity_ok and diag.araki_lieb_ok
    assert set(diag.margins) == {"subadditivity", "araki_lieb"}


def test_inequalities_hold_for_random_attacks():
    rng = np.random.default_rng(61)
    for mode in ("simplified", "bell"):
        config = pp.make_config(mode)
        for _ in range(25):
            spec = search.sample_random_attack(2, rng)
            rep = metrics.information_report(spec, config)
            diag = metrics.entropy_inequality_check(rep)
            assert diag.subadditivity_ok, diag.margins
            assert diag.araki_lieb_ok, diag.margins


def test_inequality_margins_are_the_actual_slacks():
    rep = metrics.InfoReport(d=0.1, i0t=0.6, i0a=0.5, i0c=0.9, holevo_t=0.0, holevo_c=0.0)
    diag = metrics.entropy_inequality_check(rep)
    assert abs(diag.margins["subadditivity"] - 0.2) < 1e-15
    assert abs(diag.margins["araki_lieb"] - 0.8) < 1e-15


def test_inequality_check_flags_violations():
    rep = metrics.InfoReport(d=0.1, i0t=0.2, i0a=0.1, i0c=0.9, holevo_t=0.0, holevo_c=0.0)
    diag = metrics.entropy_inequality_check(rep)
    assert not diag.subadditivity_ok
    assert diag.araki_lieb_ok
