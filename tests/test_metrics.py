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
    for bad in (-0.1, 1.1, 2.0, True, False, "0.5", None, np.bool_(True), math.nan):
        with pytest.raises(ValueError, match="binary entropy"):
            metrics.binary_entropy(bad)
    assert metrics.binary_entropy(np.float64(0.5)) == 1.0


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


def test_claim_audit_tolerance_on_the_ancilla_state(simplified_config):
    base = pp.builtin_attack("counterexample")
    for offset, flagged in ((5e-13, True), (2e-12, False)):
        spec = pp.AttackSpec(2, base.ancilla_state + np.array([offset, 0.0]), base.unitary)
        assert (metrics.information_report(spec, simplified_config).claim_deviation is not None) == flagged
        (batched,) = metrics._information_reports([spec], simplified_config)
        assert (batched.claim_deviation is not None) == flagged
    nan = pp.AttackSpec(2, np.array([np.nan, base.ancilla_state[1]]), base.unitary)
    assert metrics._claim_deviation(nan, simplified_config, 1.0) is None


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
    """The report rebuilt from density matrices: its own attacked statevector
    U(|b>⊗|χ>), or (I₂⊗U)(|pair>⊗|χ>) in bell mode, so it shares no code
    with the kernel's lift; kron-lifted ops, one partial trace and one
    entropy per marginal."""
    coupling = spec.unitary if config.mode == "simplified" else np.kron(np.eye(2), spec.unitary)
    psi = coupling @ np.kron(config.bob_initial.amplitudes, spec.ancilla_state)
    rho = pp.DensityMatrix(np.outer(psi, psi.conj()))
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
    for anc in (1, 2, 3, 4):
        for _ in range(5):
            spec = search.sample_random_attack(anc, rng)
            for config in configs:
                rep = metrics.information_report(spec, config)
                for name, want in _reference_report(spec, config).items():
                    worst = max(worst, abs(getattr(rep, name) - want))
    assert worst < 1e-12, worst


_PLUS = pp.StateVector(np.full(2, math.sqrt(0.5)))


def _composite_entropies(rows, config):
    """d and the five composite-path entropies (mixture and member 0 on the
    composite and the travel qubit, then the mixture on the ancilla), each (N,)."""
    d, mixed, members = metrics._ensembles(rows, config)
    both = np.concatenate([mixed, members[:, 0]])
    return d, metrics._subsystem_entropies(both, both, mixed).reshape(5, len(rows))


def test_reports_equal_the_channel_reference():
    # every field is a function of the channel's Choi matrix J alone, read off
    # by formulas that share no code with the kernel's lift; the composite path,
    # which simplified-mode reports no longer take, is held to the same reference
    configs = _CONFIGS + [pp.make_config("simplified", bob_initial=_PLUS, encoding=e) for e in ("iz", "paulis")]
    worst = 0.0
    for config in configs:
        for anc in (1, 2, 3, 4):
            for seed in range(12):
                spec = search.sample_random_attack(anc, seed)
                w = spec.unitary @ np.kron(np.eye(2), spec.ancilla_state[:, None])
                j = oracles.choi(w)
                assert np.allclose(np.einsum("itjt->ij", j.reshape(2, 2, 2, 2)), np.eye(2), atol=1e-12)
                report = metrics.information_report(spec, config)
                (d,), (c, c0, t, t0, a) = _composite_entropies(attack._attacked_rows([spec], config), config)
                composite = {"d": d, "i0t": t, "i0a": a, "i0c": c,
                             "holevo_t": max(0.0, t - t0), "holevo_c": max(0.0, c - c0)}
                for name, want in oracles.report_from_channel(j, config).items():
                    worst = max(worst, abs(getattr(report, name) - want), abs(composite[name] - want))
    assert worst < 1e-12, worst


def test_batched_kernel_matches_the_one_attack_references():
    """Each configuration's kernel on N couplings, row by row.

    The sweep step's values and d (``_reduced_kernel`` on the rows lifted
    from the isometries W = U(I₂⊗|χ>), as the search lifts its own, in any
    grouping by subsystem) equal ``information_report``'s exactly.  Reports
    read the reduced state σ alone, so the composite path is the reference in
    both modes: it and the density-matrix reference agree with the report
    within 1e-12 on d and all five entropies, with member 0's composite
    entropy ≈ the config's home entropy and, in simplified mode, its travel
    entropy ≈ i0a.  d is ``detection_probability``'s to the bit, and for
    {I, Z} with |0> sent the rank-2 oracle gives I0c and H(d) within 1e-10."""
    rng = np.random.default_rng(73)
    configs = [pp.make_config("bell", encoding=e) for e in ("iz", "paulis")] + [
        pp.make_config("simplified", bob_initial=sent, encoding=e)
        for sent in (None, _PLUS) for e in ("iz", "paulis")
    ]
    groupings = ((5, 0, 0), (0, 5, 0), (0, 0, 5), (2, 1, 2), (0, 3, 2), (1, 4, 0))
    for anc in (1, 2, 3, 4):
        chi = search.random_pure_state(anc, rng)
        unitaries = np.array([search.haar_random_unitary(2 * anc, rng) for _ in range(5)])
        specs = [pp.AttackSpec(anc, chi, unitary) for unitary in unitaries]
        isometries = (unitaries.reshape(5, 2 * anc, 2, anc) @ chi[:, None])[..., 0]
        for config in configs:
            rows = attack._attacked_rows(specs, config)
            lifted = attack._checked_lift(isometries, config, "row {}: ")
            reports = [metrics.information_report(spec, config) for spec in specs]
            for counts in groupings:
                d, values = metrics._reduced_kernel(lifted, config, list(counts))
                fields = np.repeat(["i0c", "i0t", "i0a"], counts)
                assert d.tolist() == [r.d for r in reports]
                assert values.tolist() == [getattr(r, f) for r, f in zip(reports, fields)]
            d, (c, c0, t, t0, a) = _composite_entropies(rows, config)
            d_lifted, entropies = _composite_entropies(lifted, config)
            assert np.array_equal(d_lifted, d) and np.array_equal(entropies, [c, c0, t, t0, a])
            for i, (spec, report) in enumerate(zip(specs, reports)):
                composite = {
                    "d": d[i], "i0t": t[i], "i0a": a[i], "i0c": c[i],
                    "holevo_t": max(0.0, t[i] - t0[i]), "holevo_c": max(0.0, c[i] - c0[i]),
                }
                reference = _reference_report(spec, config)
                for name, value in composite.items():
                    assert abs(value - reference[name]) < 1e-12, name
                    assert abs(getattr(report, name) - reference[name]) < 1e-12, name
                assert abs(c0[i] - config.home_entropy) < 1e-12
                assert report.d == d[i] == pp.detection_probability(spec, config)
                if config.mode == "simplified":
                    assert abs(t0[i] - a[i]) < 1e-12
                else:
                    # the equal outcomes 00 and 11 of (home, travel), all four weights summed
                    outcomes = np.sum(np.abs(attack._attacked_rows([spec], config)[0].reshape(4, -1)) ** 2, axis=1)
                    assert abs(report.d - (outcomes[0] + outcomes[3])) < 1e-12
                if config.mode == "simplified" and config.encoding == "iz" and config.bob_initial is not _PLUS:
                    psi = oracles.attacked_state([1.0, 0.0], list(chi), [list(r) for r in spec.unitary])
                    want_d = 1.0 - sum(abs(amplitude) ** 2 for amplitude in psi[:anc])
                    assert abs(report.d - want_d) < 1e-12
                    assert abs(report.i0t - oracles.binary_entropy(want_d)) < 1e-10
                    assert abs(report.i0c - oracles.dephased_mixture_entropy(psi, anc)) < 1e-10


_REPORT_FIELDS = ("d", "i0t", "i0a", "i0c", "holevo_t", "holevo_c")
# float.hex of every InfoReport field for search.sample_random_attack(ancilla, 7)
# in each configuration, then for the builtin counterexample in the default
# simplified |0> + {I, Z} one.  Any change to the evaluation kernel that moves
# a bit of a report shows here.
PINNED_REPORTS = (
    ("simplified", "iz", 1, ("0x1.b39567b1abe5fp-1", "0x1.3746d0398c7d2p-1", "0x1.71547652b82fdp-53",
                             "0x1.3746d0398c7d2p-1", "0x1.3746d0398c7d1p-1", "0x1.3746d0398c7d2p-1")),
    ("simplified", "iz", 2, ("0x1.3a9eb58fc2f06p-1", "0x1.ec76358673942p-1", "0x1.299cf894bd5bbp-2",
                             "0x1.ec76358673942p-1", "0x1.57a7b93c14e64p-1", "0x1.ec76358673942p-1")),
    ("simplified", "iz", 4, ("0x1.57ce31cd3bf20p-1", "0x1.d3a811365bc0ap-1", "0x1.d056cce1cf761p-1",
                             "0x1.d3a811365bc0ap-1", "0x1.a8a22a4625480p-8", "0x1.d3a811365bc0ap-1")),
    ("simplified", "paulis", 1, ("0x1.b39567b1abe5fp-1", "0x1.0000000000000p+0", "0x1.71547652b82fdp-53",
                                 "0x1.0000000000009p+0", "0x1.fffffffffffffp-1", "0x1.0000000000009p+0")),
    ("simplified", "paulis", 2, ("0x1.3a9eb58fc2f06p-1", "0x1.0000000000000p+0", "0x1.299cf894bd5bbp-2",
                                 "0x1.4a673e252f56fp+0", "0x1.6b3183b5a1522p-1", "0x1.4a673e252f56fp+0")),
    ("simplified", "paulis", 4, ("0x1.57ce31cd3bf20p-1", "0x1.fffffffffffffp-1", "0x1.d056cce1cf761p-1",
                                 "0x1.e82b6670e7bb3p+0", "0x1.7d4998f1844f0p-4", "0x1.e82b6670e7bb3p+0")),
    ("bell", "iz", 1, ("0x1.b39567b1abe5ep-1", "0x1.ffffffffffffep-1", "0x1.6a8a464a269fep-51",
                       "0x1.0000000000004p+0", "0x0.0p+0", "0x1.0000000000000p-50")),
    ("bell", "iz", 2, ("0x1.079c04fa0c05ap-1", "0x1.f13cc24eeac36p-1", "0x1.a91f875b6c32ap-1",
                       "0x1.af00040908e70p+0", "0x1.4ebde07c16a30p-4", "0x1.5e00081211ce0p-1")),
    ("bell", "iz", 4, ("0x1.5fdb42d27b5b5p-1", "0x1.ffa2785bef922p-1", "0x1.68bdb8c2efc91p+0",
                       "0x1.bb5a07320a160p+0", "0x1.c509378d7e308p-4", "0x1.76b40e64142c0p-1")),
    ("bell", "paulis", 1, ("0x1.b39567b1abe5ep-1", "0x1.fffffffffffffp-1", "0x1.6a8a464a269fep-51",
                           "0x1.0000000000008p+0", "0x1.0000000000000p-53", "0x1.0000000000000p-49")),
    ("bell", "paulis", 2, ("0x1.079c04fa0c05ap-1", "0x1.0000000000000p+0", "0x1.a91f875b6c32ap-1",
                           "0x1.d48fc3adb619ap+0", "0x1.c4d7ce04c0880p-4", "0x1.a91f875b6c334p-1")),
    ("bell", "paulis", 4, ("0x1.5fdb42d27b5b5p-1", "0x1.0000000000000p+0", "0x1.68bdb8c2efc91p+0",
                           "0x1.345edc6177e46p+1", "0x1.c7f574ae019f8p-4", "0x1.68bdb8c2efc8cp+0")),
    ("counterexample", ("0x1.ffffffffffffcp-2", "0x1.ffffffffffffep-1", "0x0.0p+0",
                        "0x1.ffffffffffffep-1", "0x1.ffffffffffffep-1", "0x1.ffffffffffffep-1")),
)


def test_seeded_reports_are_pinned(counterexample, simplified_config):
    *seeded, (_, builtin) = PINNED_REPORTS
    got = []
    for mode, encoding, anc, _ in seeded:
        report = metrics.information_report(
            search.sample_random_attack(anc, 7), pp.make_config(mode, encoding=encoding)
        )
        got.append((mode, encoding, anc, tuple(float.hex(getattr(report, f)) for f in _REPORT_FIELDS)))
    assert tuple(got) == tuple(seeded)
    report = metrics.information_report(counterexample, simplified_config)
    assert tuple(float.hex(getattr(report, f)) for f in _REPORT_FIELDS) == builtin


def _report_bits(report):
    return tuple(float.hex(getattr(report, f)) for f in _REPORT_FIELDS), report.claim_deviation


def test_batched_reports_equal_information_report_to_the_bit():
    builtins = [pp.builtin_attack(name) for name in attack.BUILTIN_ATTACK_NAMES]
    for mode in ("simplified", "bell"):
        for encoding in ("iz", "paulis"):
            config = pp.make_config(mode, encoding=encoding)
            for anc in (1, 2, 4):
                specs = [search.sample_random_attack(anc, seed) for seed in range(25)]
                reports = metrics._information_reports(specs, config)
                assert len(reports) == len(specs)
                for spec, report in zip(specs, reports):
                    assert _report_bits(report) == _report_bits(metrics.information_report(spec, config))
            for spec, report in zip(builtins, metrics._information_reports(builtins, config)):
                assert _report_bits(report) == _report_bits(metrics.information_report(spec, config))


def test_batched_reports_name_the_invalid_attack(simplified_config, monkeypatch):
    calls = []
    validate = attack.validate_attack
    monkeypatch.setattr(attack, "validate_attack", lambda spec: calls.append(spec) or validate(spec))
    specs = [search.sample_random_attack(2, seed) for seed in range(4)]
    malformed = pp.AttackSpec(2, np.array([1.0, 1.0]), np.ones((4, 4)))
    assert len(validate(malformed)) == 2
    for k in (0, 3):
        batch = specs[:k] + [malformed] + specs[k + 1:]
        calls.clear()
        with pytest.raises(attack.InvalidAttackError) as excinfo:
            metrics._information_reports(batch, simplified_config)
        assert str(excinfo.value) == "\n".join(f"attack {k}: {v}" for v in validate(malformed))
        assert calls == batch
    # 1 + 0.9e-10 passes the norm check but not the attacked state's trace
    untraced = pp.AttackSpec(2, np.array([1.0 + 0.9e-10, 0.0]), np.eye(4))
    with pytest.raises(attack.InvalidAttackError, match=r"^attack 2: attacked state norm²"):
        metrics._information_reports(specs[:2] + [untraced], simplified_config)


_CONFIGS = [pp.make_config(m, encoding=e) for m in ("simplified", "bell") for e in ("iz", "paulis")]


@pytest.mark.parametrize("anc", [2, 3])
def test_couplings_with_one_isometry_give_identical_results(anc):
    """Everything an attack yields depends on U only through W = U(I₂⊗|χ>): two
    couplings on χ = |0> that share columns 0 and m but differ elsewhere give
    the same reports, d and message rounds, to the bit."""
    rng = np.random.default_rng(anc)
    n = 2 * anc
    first = search.haar_random_unitary(n, rng)
    others = [j for j in range(n) if j % anc]
    mixing = np.eye(n, dtype=complex)
    mixing[np.ix_(others, others)] = search.haar_random_unitary(len(others), rng)
    second = first @ mixing
    second[:, ::anc] = first[:, ::anc]
    assert np.abs(second - first).max() > 0.1
    chi = np.eye(anc)[0]
    specs = [pp.AttackSpec(anc, chi, u) for u in (first, second)]
    assert [attack.validate_attack(spec) for spec in specs] == [[], []]
    for config in _CONFIGS:
        a, b = (_report_bits(metrics.information_report(spec, config)) for spec in specs)
        assert a == b
        a, b = (float.hex(attack.detection_probability(spec, config)) for spec in specs)
        assert a == b
        for bit in range(len(config.encoding_ops)):
            a, b = (pp.run_message_round(config, spec, bit) for spec in specs)
            assert a == b


def test_a_coupling_that_fixes_chi_changes_no_report():
    """For a general χ, U' = U(I₂⊗V) with Vχ = χ has U's isometry, so its
    reports agree with U's within rounding."""
    rng = np.random.default_rng(83)
    worst = 0.0
    for anc in (2, 3, 4):
        for _ in range(3):
            spec = search.sample_random_attack(anc, rng)
            chi = spec.ancilla_state
            # an orthonormal basis with χ first (up to a phase), then a unitary on its complement
            basis, _ = np.linalg.qr(np.column_stack([chi, rng.standard_normal((anc, anc - 1))]))
            inner = np.eye(anc, dtype=complex)
            inner[1:, 1:] = search.haar_random_unitary(anc - 1, rng)
            fixing = basis @ inner @ basis.conj().T
            assert np.abs(fixing @ chi - chi).max() < 1e-14
            moved = pp.AttackSpec(anc, chi, spec.unitary @ np.kron(np.eye(2), fixing))
            assert np.abs(moved.unitary - spec.unitary).max() > 0.1
            for config in _CONFIGS:
                want = metrics.information_report(spec, config)
                got = metrics.information_report(moved, config)
                for name in _REPORT_FIELDS:
                    worst = max(worst, abs(getattr(got, name) - getattr(want, name)))
    assert worst < 1e-12, worst


@pytest.mark.parametrize("anc", [1, 2, 3, 4])
def test_an_ancilla_unitary_after_the_coupling_changes_nothing(anc):
    """The gauge of W: (I₂⊗V)U for any ancilla unitary V induces U's channel on
    the travel qubit, so the reports, d and message rounds agree within rounding."""
    rng = np.random.default_rng(200 + anc)
    for _ in range(3):
        spec = search.sample_random_attack(anc, rng)
        gauge = np.kron(np.eye(2), search.haar_random_unitary(anc, rng))
        moved = pp.AttackSpec(anc, spec.ancilla_state, gauge @ spec.unitary)
        assert anc == 1 or np.abs(moved.unitary - spec.unitary).max() > 0.1
        for config in _CONFIGS:
            want = metrics.information_report(spec, config)
            got = metrics.information_report(moved, config)
            for name in _REPORT_FIELDS:
                assert abs(getattr(got, name) - getattr(want, name)) < 1e-12, (name, config)
            d = [attack.detection_probability(s, config) for s in (spec, moved)]
            assert abs(d[0] - d[1]) < 1e-12
            for bit in range(len(config.encoding_ops)):
                a, b = (pp.run_message_round(config, s, bit) for s in (spec, moved))
                assert a.orthogonal_decoding == b.orthogonal_decoding
                if a.orthogonal_decoding:
                    assert a.decoded_bit == b.decoded_bit
                    assert np.allclose(a.decode_probabilities, b.decode_probabilities, rtol=0, atol=1e-12)
                    assert abs(a.failure_probability - b.failure_probability) < 1e-12


def test_batched_reports_need_one_ancilla_dim_and_accept_none(simplified_config):
    mixed = [search.sample_random_attack(1, 0), search.sample_random_attack(2, 0)]
    with pytest.raises(ValueError, match="one ancilla_dim") as excinfo:
        metrics._information_reports(mixed, simplified_config)
    assert excinfo.type is ValueError
    three = [search.sample_random_attack(dim, 0) for dim in (4, 1, 2)]
    with pytest.raises(ValueError, match=r"got \[1, 2, 4\]$") as excinfo:
        metrics._information_reports(three, simplified_config)
    assert excinfo.type is ValueError
    # Validation comes first: a malformed spec is named before the dimensions differ.
    malformed = attack.AttackSpec(ancilla_dim=2, ancilla_state=[1.0, 0.0], unitary=np.eye(3))
    with pytest.raises(attack.InvalidAttackError, match="^attack 0: "):
        metrics._information_reports([malformed, search.sample_random_attack(1, 0)], simplified_config)
    assert metrics._information_reports([], simplified_config) == []


def test_cnot_leaks_undetected_where_the_control_round_cannot_see_it():
    """The builtin cnot copies the travel qubit's computational basis, which
    is all a control round measures, so d = 0.  The X of the Pauli encoding
    flips what it copied: one Holevo bit leaks.  In bell mode the copied
    state is diagonal once the home qubit is traced out, so the phases of
    {I, Z} leave it unchanged and nothing leaks."""
    cnot = pp.builtin_attack("cnot")
    bell_paulis = metrics.information_report(cnot, pp.make_config("bell", encoding="paulis"))
    assert abs(bell_paulis.d) < 1e-12
    assert abs(bell_paulis.holevo_c - 1.0) < 1e-12
    bell_iz = metrics.information_report(cnot, pp.make_config("bell", encoding="iz"))
    assert abs(bell_iz.holevo_c) < 1e-12
    simplified_paulis = metrics.information_report(cnot, pp.make_config("simplified", encoding="paulis"))
    assert abs(simplified_paulis.holevo_t - 1.0) < 1e-12


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
    ens = attack.EncodingEnsemble(members=((1.0, rho),))
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


def _every_configuration():
    """Seeded random attacks on ancillas 1, 2 and 4 in all four configurations."""
    for mode in ("simplified", "bell"):
        for encoding in ("iz", "paulis"):
            config = pp.make_config(mode, encoding=encoding)
            for anc in (1, 2, 4):
                for seed in range(6):
                    yield search.sample_random_attack(anc, seed), config


def test_report_holevo_bounds_equal_the_general_form():
    # a report takes S(mixture) - S(member 0); holevo_bound sums p S(ρ) over every member
    for spec, config in _every_configuration():
        report = metrics.information_report(spec, config)
        ensemble = attack.post_encoding_ensemble(spec, config)
        assert abs(report.holevo_t - metrics.holevo_bound(ensemble, "travel")) < 1e-13
        assert abs(report.holevo_c - metrics.holevo_bound(ensemble, "composite")) < 1e-13


def test_report_holevo_bounds_never_read_below_zero():
    # With an ancilla of dimension 1 both bell-mode bounds are 0 in exact arithmetic,
    # and rounding puts the kernel's unclamped S(mixture) - S(member 0) below 0 on some
    # seeds (of 200: holevo_c on 28 under {I, Z}, holevo_t on 21 and, under the Paulis,
    # 27).  A report clamps each at 0, as it clamps d; holevo_bound keeps the general form.
    specs = [search.sample_random_attack(1, seed) for seed in range(200)]
    for encoding in ("iz", "paulis"):
        config = pp.make_config("bell", encoding=encoding)
        _, entropies = metrics._reduced_kernel(attack._attacked_rows(specs, config), config)
        c, t, _, t0 = entropies.T
        below = {"holevo_c": c - config.home_entropy < 0.0, "holevo_t": t - t0 < 0.0}
        assert below["holevo_t"].any() and (encoding == "paulis" or below["holevo_c"].any())
        reports = metrics._information_reports(specs, config)
        for name, rows in below.items():
            for i in np.flatnonzero(rows):
                assert float.hex(getattr(reports[i], name)) == "0x0.0p+0", (encoding, name, i)
        ensemble = attack.post_encoding_ensemble(specs[3], config)
        assert metrics.holevo_bound(ensemble, "travel") < 0.0
    for mode in ("simplified", "bell"):
        for encoding in ("iz", "paulis"):
            for report in metrics._information_reports(specs, pp.make_config(mode, encoding=encoding)):
                assert report.holevo_t >= 0.0 and report.holevo_c >= 0.0


def test_members_share_the_entropies_of_member_zero():
    # The encodings act on the travel qubit alone, so each member is a local-unitary
    # image of member 0: as mixed as the home qubit, which the attack never touches
    # (pure in simplified mode, whatever is sent), and with the travel entropy of the
    # kernel's Tr_home σ block.  The reports' Holevo bounds rest on both identities.
    plus = [pp.make_config("simplified", bob_initial=_PLUS, encoding=e) for e in ("iz", "paulis")]
    cases = list(_every_configuration()) + [
        (search.sample_random_attack(anc, seed), config)
        for config in plus for anc in (1, 2, 4) for seed in range(6)
    ]
    for spec, config in cases:
        rows = attack._attacked_rows([spec], config)
        _, _, members = metrics._ensembles(rows, config)
        each = members[0]
        composite, travel = metrics._subsystem_entropies(each, each, each[:0]).reshape(2, -1)
        assert abs(composite[0] - config.home_entropy) < 1e-12
        assert np.max(np.abs(composite - composite[0])) < 1e-12
        assert np.max(np.abs(travel - travel[0])) < 1e-12
        _, entropies = metrics._reduced_kernel(rows, config)
        assert abs(entropies[0, 3] - travel[0]) < 1e-12
    assert [c.home_entropy for c in plus] == [0.0, 0.0]


def test_composite_holevo_bound_in_closed_form():
    # {I, Z} with equal priors mixes ρ' with its travel-dephased image Δ_t ρ';
    # the four Paulis twirl the travel qubit into I/2 ⊗ ρ'_a.
    entropy = pp.von_neumann_entropy
    for spec, config in _every_configuration():
        anc = spec.ancilla_dim
        rho = attack.apply_attack(spec, config)
        if config.mode == "bell":
            rho = pp.partial_trace(rho, (2, 2, anc), (1, 2))
        if len(config.priors) == 2:
            dephased = rho.entries.reshape(2, anc, 2, anc).copy()
            dephased[0, :, 1] = dephased[1, :, 0] = 0.0
            want = entropy(pp.DensityMatrix(dephased.reshape(2 * anc, 2 * anc))) - entropy(rho)
        else:
            want = 1.0 + entropy(pp.partial_trace(rho, (2, anc), 1)) - entropy(rho)
        assert abs(metrics.information_report(spec, config).holevo_c - want) < 1e-12


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


# ---------------------------------------------------------------------------
# closed-form identities and attaining attacks


def test_simplified_iz_reads_h_of_d_everywhere():
    # {I, Z} on |0> dephases the travel qubit, so every attack gives
    # i0c = i0t = holevo_c = H(d), and the ancilla entropy stays below H(d)
    config = pp.make_config("simplified")
    for anc in (1, 2, 4):
        for seed in range(200):
            report = metrics.information_report(search.sample_random_attack(anc, seed), config)
            h = metrics.binary_entropy(report.d)
            assert abs(report.i0c - h) <= 1e-10
            assert abs(report.i0t - h) <= 1e-10
            assert abs(report.holevo_c - report.i0c) <= 1e-10
            assert report.i0a <= h + 1e-10


def test_ancilla_holevo_quantity_is_zero_in_every_configuration():
    # the encodings act on the travel qubit alone, so every member has the
    # same ancilla marginal
    for mode in ("simplified", "bell"):
        for encoding in ("iz", "paulis"):
            config = pp.make_config(mode, encoding=encoding)
            for anc in (1, 2, 4):
                for seed in range(20):
                    spec = search.sample_random_attack(anc, seed)
                    ensemble = attack.post_encoding_ensemble(spec, config)
                    assert abs(metrics.holevo_bound(ensemble, "ancilla")) <= 1e-12


def _ket(travel, ancilla, ancilla_dim):
    """|travel, ancilla> on travel⊗ancilla."""
    vec = np.zeros(2 * ancilla_dim, dtype=complex)
    vec[travel * ancilla_dim + ancilla] = 1.0
    return vec


def _attack_with_columns(ancilla_dim, first, second):
    """The attack with ancilla |0>, U|0,0> = first and U|1,0> = second exactly.

    The other columns are an orthonormal complement.  A QR of the whole
    unitary would re-orthogonalize the given columns and move d.
    """
    n = 2 * ancilla_dim
    given = np.column_stack([first, second])
    complement = np.linalg.qr(np.column_stack([given, np.eye(n)]))[0][:, 2:]
    unitary = np.empty((n, n), dtype=complex)
    unitary[:, [0, ancilla_dim]] = given
    unitary[:, [i for i in range(n) if i not in (0, ancilla_dim)]] = complement
    chi = np.eye(ancilla_dim, dtype=complex)[0]
    return attack.AttackSpec(ancilla_dim=ancilla_dim, ancilla_state=chi, unitary=unitary)


@pytest.mark.parametrize("d", [0.0, 0.02, 0.1, 0.3, 0.5])
def test_attaining_attacks_reach_the_closed_form_bounds(d):
    # bell/iz: holevo_c <= H(d), Boström and Felbinger's bound.  The Pauli
    # encodings: holevo_c <= 1 + H(d), so in the dense-coding variant the
    # composite carries more than H(d).
    keep, flip = math.sqrt(1.0 - d), math.sqrt(d)
    h = metrics.binary_entropy(d)
    cases = (
        ("bell", "iz", 2, keep * _ket(0, 0, 2) + flip * _ket(1, 0, 2),
         flip * _ket(0, 1, 2) + keep * _ket(1, 1, 2), h),
        ("bell", "paulis", 4, keep * _ket(0, 0, 4) + flip * _ket(1, 1, 4),
         flip * _ket(0, 2, 4) + keep * _ket(1, 3, 4), 1.0 + h),
        ("simplified", "paulis", 2, keep * _ket(0, 0, 2) + flip * _ket(1, 1, 2),
         _ket(0, 1, 2), 1.0 + h),
    )
    for mode, encoding, anc, first, second, bound in cases:
        spec = _attack_with_columns(anc, first, second)
        assert attack.validate_attack(spec) == []
        report = metrics.information_report(spec, pp.make_config(mode, encoding=encoding))
        assert abs(report.d - d) <= 1e-15, (mode, encoding)
        assert abs(report.holevo_c - bound) <= 1e-12, (mode, encoding)


_CLOSED_FORM_BOUNDS = {
    ("simplified", "iz"): oracles.binary_entropy,
    ("bell", "iz"): oracles.binary_entropy,
    ("simplified", "paulis"): lambda d: 1.0 + oracles.binary_entropy(d),
    ("bell", "paulis"): lambda d: min(2.0, 1.0 + oracles.binary_entropy(d)),
}


@pytest.mark.parametrize("mode, encoding", list(_CLOSED_FORM_BOUNDS))
def test_random_attacks_stay_within_the_closed_form_bounds(mode, encoding):
    # holevo_c <= B(d) in each configuration, and holevo_t <= holevo_c by
    # monotonicity under the partial trace over the ancilla.
    bound = _CLOSED_FORM_BOUNDS[mode, encoding]
    config = pp.make_config(mode, encoding=encoding)
    for anc in (1, 2, 3, 4):
        specs = [search.sample_random_attack(anc, seed) for seed in range(200)]
        for seed, report in enumerate(metrics._information_reports(specs, config)):
            assert report.holevo_c <= bound(report.d) + 1e-12, (anc, seed, report)
            assert report.holevo_t <= report.holevo_c + 1e-12, (anc, seed, report)
