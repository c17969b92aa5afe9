import dataclasses
import math

import pytest

from pingpong import checks


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
