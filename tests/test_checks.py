import dataclasses
import math

import numpy as np
import pytest

from pingpong import checks, qlinalg, search


def test_suite_names_are_unique_and_descriptive():
    names = [c.__name__ for c in checks.ALL_CHECKS]
    assert len(names) == len(set(names))
    assert len(names) >= 12
    assert all(name.startswith("check_") for name in names)


def test_every_suite_in_the_module_runs_in_definition_order():
    defined = [value for name, value in vars(checks).items() if name.startswith("check_")]
    assert list(checks.ALL_CHECKS) == defined


def test_every_check_name_is_a_graded_suite():
    # ALL_CHECKS takes every check_* name, so a plain helper so named would run
    # as a suite and hand verify a tuple; @_suite's functools.wraps marks the real ones.
    assert all(hasattr(check, "__wrapped__") for check in checks.ALL_CHECKS)


def test_a_suite_is_named_by_its_function_and_graded_by_its_tolerance():
    def check_synthetic():
        return worst, "synthetic detail"

    suite = checks._suite(1e-3)(check_synthetic)
    assert suite.__name__ == "check_synthetic"
    for worst, passed in ((0.0, True), (1e-3, True), (2e-3, False), (math.nan, False)):
        result = suite()
        assert result.name == "synthetic"
        assert result.detail == "synthetic detail"
        assert result.passed is passed
        assert result.margin == 1e-3 - worst or math.isnan(worst)


def test_individual_cheap_suites_pass():
    for check in (
        checks.check_entropy_maximal_mixing,
        checks.check_entropy_bell_marginal,
        checks.check_encoding_fixes_basis_state,
        checks.check_attack_file_round_trip,
    ):
        result = check()
        assert result.passed, result
        assert result.margin >= 0.0
        assert result.detail


def test_check_results_are_typed():
    result = checks.check_entropy_maximal_mixing()
    assert isinstance(result.name, str)
    assert isinstance(result.passed, bool)
    assert isinstance(result.margin, float)
    assert isinstance(result.detail, str)


def test_suite_determinism():
    a = checks.check_travel_entropy_binary_identity()
    b = checks.check_travel_entropy_binary_identity()
    assert a == b or (a.name, a.passed, a.margin, a.detail) == (
        b.name, b.passed, b.margin, b.detail
    )


def test_run_all_reports_raising_suites_as_failures(monkeypatch):
    def exploding():
        raise RuntimeError("synthetic")

    exploding.__name__ = "check_exploding"
    monkeypatch.setattr(
        checks, "ALL_CHECKS", (checks.check_entropy_maximal_mixing, exploding)
    )
    results = checks.run_all()
    assert len(results) == 2
    assert results[0].passed
    assert not results[1].passed
    assert results[1].name == "exploding"
    assert "raised" in results[1].detail
    assert results[1].margin == float("-inf")


def test_suites_grade_their_failures_through_the_tolerance(monkeypatch):
    # a wrong decode counts as a deviation of one; no feasible point as one
    real_round = checks.protocol_mod.run_message_round
    real_sweep = checks.search_mod.sweep

    def misdecoded(config, spec, bit):
        return dataclasses.replace(real_round(config, spec, bit), decoded_bit=1 - bit)

    def infeasible(*args):
        return [dataclasses.replace(p, feasible=False) for p in real_sweep(*args)]

    monkeypatch.setattr(checks.protocol_mod, "run_message_round", misdecoded)
    monkeypatch.setattr(checks.search_mod, "sweep", infeasible)
    noiseless = checks.check_protocol_noiseless_correctness()
    assert not noiseless.passed
    assert noiseless.margin == 1e-12 - 8.0
    assert noiseless.detail.endswith("wrong decodes = 8")
    search_point = checks.check_search_point_self_consistency()
    assert not search_point.passed
    assert search_point.margin == -1.0
    assert search_point.detail == "search found no feasible point at d_target = 0.5"


def _loop_draws(seed, count, *draws):
    """Seeded draws taken one round of ``draws`` at a time, as a per-sample loop takes them."""
    rng = np.random.default_rng(seed)
    return [[draw(dim, rng) for draw, dim in draws] for _ in range(count)]


def _hexes(values):
    return [float.hex(float(v)) for v in values]


def test_sampling_suites_equal_the_public_object_path_to_the_bit():
    # per draw, the stacked kernel gives the bits the validated objects give
    entropy, density = qlinalg.von_neumann_entropy, qlinalg.DensityMatrix
    bodies = {check.__name__: check.__wrapped__ for check in checks.ALL_CHECKS}

    pairs = _loop_draws(101, 200, (checks._random_density, 2), (checks._random_density, 3))
    public = [
        abs(entropy(qlinalg.tensor_product(density(a), density(b)))
            - entropy(density(a)) - entropy(density(b)))
        for a, b in pairs
    ]
    a, b = checks._stacked_draws(101, 200, (checks._random_density, 2), (checks._random_density, 3))
    stacked = np.abs(qlinalg._entropies(search._kron(a, b)) - qlinalg._entropies(a) - qlinalg._entropies(b))
    assert _hexes(stacked) == _hexes(public)
    assert float.hex(bodies["check_entropy_additivity_products"]()[0]) == float.hex(max(public))

    pairs = _loop_draws(102, 200, (checks._random_density, 4), (search.haar_random_unitary, 4))
    public = [abs(entropy(density(u @ rho @ u.conj().T)) - entropy(density(rho))) for rho, u in pairs]
    rho, u = checks._stacked_draws(102, 200, (checks._random_density, 4), (search.haar_random_unitary, 4))
    rotated = u @ rho @ np.swapaxes(u.conj(), 1, 2)
    stacked = np.abs(qlinalg._entropies(rotated) - qlinalg._entropies(rho))
    assert _hexes(stacked) == _hexes(public)
    assert float.hex(bodies["check_entropy_unitary_invariance"]()[0]) == float.hex(max(public))

    # one norm over the stack sums in another order than a vector's norm: each
    # draw agrees within an ulp of 1, and the worst to the bit
    pairs = _loop_draws(103, 200, (search.haar_random_unitary, 4), (search.random_pure_state, 4))
    public = [abs(float(np.linalg.norm(u @ s)) - 1.0) for u, s in pairs]
    u, s = checks._stacked_draws(103, 200, (search.haar_random_unitary, 4), (search.random_pure_state, 4))
    stacked = np.abs(np.linalg.norm(u @ s[..., None], axis=1) - 1.0).reshape(-1)
    assert np.max(np.abs(stacked - public)) <= np.spacing(1.0)
    assert float.hex(bodies["check_unitary_norm_preservation"]()[0]) == float.hex(max(public))

    rng = np.random.default_rng(111)
    thetas = [rng.uniform(-math.pi, math.pi, 16) for _ in range(100)]
    public = [search.parameterize_unitary(theta, 4).entries for theta in thetas]
    assert np.array_equal(search._unitary(np.array(thetas), 4), np.array(public))
    ident = search.parameterize_unitary(np.zeros(16), 4).entries
    worst = max(
        float(np.max(np.abs(ident - np.eye(4)))),
        *(float(np.max(np.abs(v.conj().T @ v - np.eye(4)))) for v in public),
    )
    assert float.hex(bodies["check_parameterized_unitary_basics"]()[0]) == float.hex(worst)


def test_sampling_suites_construct_no_density_matrix(monkeypatch):
    counts = {qlinalg.DensityMatrix: 0, qlinalg.UnitaryOperator: 0}
    for kind in counts:
        init = kind.__init__

        def counted(self, entries, kind=kind, init=init):
            counts[kind] += 1
            init(self, entries)

        monkeypatch.setattr(kind, "__init__", counted)
    qlinalg.to_density(qlinalg.basis_state(2, 0))  # the counter sees a construction
    assert counts[qlinalg.DensityMatrix] == 1
    for check in (
        checks.check_entropy_additivity_products,
        checks.check_entropy_unitary_invariance,
        checks.check_unitary_norm_preservation,
        checks.check_parameterized_unitary_basics,
    ):
        assert check().passed
    # U(0) = I is the one validated object: it goes through parameterize_unitary
    assert counts == {qlinalg.DensityMatrix: 1, qlinalg.UnitaryOperator: 1}
