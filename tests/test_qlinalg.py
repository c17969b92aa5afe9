import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import pingpong as pp
from pingpong import qlinalg

import oracles


def _rand_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return pp.StateVector(v / np.linalg.norm(v))


def _rand_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return pp.DensityMatrix(m / np.trace(m).real)


# ---------------------------------------------------------------------------
# constructors


def test_state_vector_accepts_normalized_input():
    s = pp.StateVector(np.array([1.0, 0.0]))
    assert s.dim == 2
    assert s.amplitudes.dtype == np.complex128


def test_state_vector_rejects_unnormalized_input():
    for amps in ([1.0, 1.0], [math.nan, 0.0], [math.inf, 0.0]):
        with pytest.raises(ValueError, match="norm"):
            pp.StateVector(np.array(amps))


def test_state_vector_rejects_dimension_below_two():
    with pytest.raises(qlinalg.DimensionMismatchError):
        pp.StateVector(np.array([1.0]))


def test_state_vector_is_read_only():
    s = pp.StateVector(np.array([1.0, 0.0]))
    with pytest.raises((ValueError, AttributeError)):
        s.amplitudes[0] = 0.0


def test_unitary_rejects_non_unitary_entries():
    with pytest.raises(ValueError, match="unitary"):
        pp.UnitaryOperator(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_density_rejects_non_hermitian():
    nan, inf = math.nan, math.inf
    bad = (
        [[0.5, 1.0], [0.0, 0.5]],
        [[nan, nan], [nan, nan]],
        [[1.0, 0.0], [0.0, nan]],
        [[inf, 0.0], [0.0, 0.5]],
    )
    for m in bad:
        with pytest.raises(ValueError, match="Hermitian"):
            pp.DensityMatrix(np.array(m))


def test_density_rejects_wrong_trace():
    with pytest.raises(ValueError, match="trace"):
        pp.DensityMatrix(np.eye(2))


def test_density_rejects_negative_spectrum():
    m = np.diag([1.1, -0.1])
    with pytest.raises(qlinalg.NotPositiveSemidefiniteError):
        pp.DensityMatrix(m)


def test_basis_state():
    s = qlinalg.basis_state(4, 2)
    assert np.array_equal(s.amplitudes, np.array([0, 0, 1, 0], dtype=complex))
    assert np.array_equal(qlinalg.basis_state(2, np.int64(1)).amplitudes, [0, 1])
    # -1 once gave |1> through numpy's negative indexing
    for index in (-1, 2, 5, True, 1.0):
        with pytest.raises(ValueError, match="basis index"):
            qlinalg.basis_state(2, index)
    for dim in (True, 2.5, 1, 0, -2, "2"):
        with pytest.raises(ValueError, match="basis dimension"):
            qlinalg.basis_state(dim, 0)


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_product_amplitude_layout():
    # first operand is the more significant index
    zero = qlinalg.basis_state(2, 0)
    w = math.sqrt(0.5)
    chi = pp.StateVector(np.array([w, w]))
    combined = qlinalg.tensor_product(zero, chi)
    assert np.allclose(combined.amplitudes, [w, w, 0.0, 0.0], atol=1e-15)


def test_tensor_product_of_unitaries():
    u = qlinalg.tensor_product(
        pp.UnitaryOperator(qlinalg.PAULI_X), pp.UnitaryOperator(qlinalg.PAULI_I)
    )
    assert np.allclose(u.entries, np.kron(qlinalg.PAULI_X, np.eye(2)))


def test_tensor_product_rejects_mixed_kinds():
    with pytest.raises(qlinalg.KindMismatchError):
        qlinalg.tensor_product(
            qlinalg.basis_state(2, 0), pp.UnitaryOperator(np.eye(2))
        )


@given(st.integers(0, 10_000))
def test_tensor_product_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    a = _rand_state(rng, int(rng.integers(2, 5)))
    b = _rand_state(rng, int(rng.integers(2, 5)))
    combined = qlinalg.tensor_product(a, b)
    assert abs(np.linalg.norm(combined.amplitudes) - 1.0) < 1e-12
    # agreement with the loop-built product
    expected = oracles.vec_kron(list(a.amplitudes), list(b.amplitudes))
    assert np.max(np.abs(combined.amplitudes - np.array(expected))) < 1e-12


# ---------------------------------------------------------------------------
# projectors


def test_to_density_plus_state():
    w = math.sqrt(0.5)
    rho = qlinalg.to_density(pp.StateVector(np.array([w, w])))
    assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)), atol=1e-15)


def test_to_density_is_rank_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        rho = qlinalg.to_density(_rand_state(rng, 4))
        purity = float(np.trace(rho.entries @ rho.entries).real)
        assert abs(purity - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_recovers_product_factors():
    rng = np.random.default_rng(3)
    a = _rand_density(rng, 2)
    b = _rand_density(rng, 3)
    joint = qlinalg.tensor_product(a, b)
    assert np.allclose(
        qlinalg.partial_trace(joint, (2, 3), 0).entries, a.entries, atol=1e-12
    )
    assert np.allclose(
        qlinalg.partial_trace(joint, (2, 3), 1).entries, b.entries, atol=1e-12
    )


def test_partial_trace_bell_marginal_is_maximally_mixed():
    w = math.sqrt(0.5)
    bell = pp.StateVector(np.array([0.0, w, w, 0.0]))
    rho = qlinalg.to_density(bell)
    for side in (0, 1):
        marg = qlinalg.partial_trace(rho, (2, 2), side)
        assert np.allclose(marg.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_keep_pair():
    rng = np.random.default_rng(11)
    a, b, c = (_rand_density(rng, 2) for _ in range(3))
    joint = qlinalg.tensor_product(qlinalg.tensor_product(a, b), c)
    kept = qlinalg.partial_trace(joint, (2, 2, 2), (1, 2))
    expected = np.kron(b.entries, c.entries)
    assert np.allclose(kept.entries, expected, atol=1e-12)


def test_partial_trace_preserves_trace_and_positivity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        rho = _rand_density(rng, 4)
        marg = qlinalg.partial_trace(rho, (2, 2), 1)
        assert abs(np.trace(marg.entries).real - 1.0) < 1e-12
        assert min(np.linalg.eigvalsh(marg.entries)) > -1e-12


def test_partial_trace_rejects_bad_dims():
    rho = _rand_density(np.random.default_rng(0), 4)
    with pytest.raises(qlinalg.DimensionMismatchError):
        qlinalg.partial_trace(rho, (2, 3), 0)
    # a float or bool dim was once truncated by int(): (2.9, 2.2) read as (2, 2)
    for dims in ((2.9, 2.2), (True, 4), (-2, -2), (4.0, 1), (0, 4)):
        with pytest.raises(qlinalg.DimensionMismatchError, match="dims"):
            qlinalg.partial_trace(rho, dims, 0)


def test_partial_trace_rejects_bad_keep():
    rho = _rand_density(np.random.default_rng(0), 4)
    with pytest.raises(qlinalg.DimensionMismatchError):
        qlinalg.partial_trace(rho, (2, 2), 2)
    with pytest.raises(qlinalg.DimensionMismatchError):
        qlinalg.partial_trace(rho, (2, 2), (1, 0))
    for keep in (True, (False,), (0.0,), 1.0, -1):
        with pytest.raises(ValueError, match="does not index"):
            qlinalg.partial_trace(rho, (2, 2), keep)


# ---------------------------------------------------------------------------
# spectra and entropy


def test_eigenvalues_ascending_and_clipped():
    rho = pp.DensityMatrix(np.diag([0.75, 0.25]))
    assert qlinalg._spectrum(rho.entries).tolist() == [0.25, 0.75]


def test_eigenvalues_match_characteristic_polynomial():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rho = _rand_density(rng, 4)
        got = qlinalg._spectrum(rho.entries)
        want = oracles.eigvals_via_charpoly([list(r) for r in rho.entries])
        assert np.max(np.abs(got - np.array(want[::-1]))) < 1e-7


def test_eigenvalues_clip_small_negatives():
    eps = 5e-11
    rho = pp.DensityMatrix(np.diag([1.0 + eps, -eps]))
    evals = qlinalg._spectrum(rho.entries)
    assert evals[0] == 0.0
    assert evals[-1] <= 1.0


def test_entropy_of_pure_state_is_exactly_zero():
    s = qlinalg.von_neumann_entropy(qlinalg.to_density(qlinalg.basis_state(2, 0)))
    assert s == 0.0
    assert math.copysign(1.0, s) == 1.0  # not -0.0


def test_entropy_of_maximally_mixed_states():
    assert abs(qlinalg.von_neumann_entropy(pp.DensityMatrix(np.eye(2) / 2)) - 1.0) < 1e-12
    assert abs(qlinalg.von_neumann_entropy(pp.DensityMatrix(np.eye(4) / 4)) - 2.0) < 1e-12


def test_entropy_frozen_value():
    rho = pp.DensityMatrix(np.diag([0.9, 0.1]))
    s = qlinalg.von_neumann_entropy(rho)
    assert abs(s - oracles.ENTROPY_DIAG_09_01) < 1e-12
    assert abs(s - oracles.entropy_via_charpoly([list(r) for r in rho.entries])) < 1e-9


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(17)
    rho = pp.DensityMatrix(np.diag([0.5, 0.3, 0.15, 0.05]))
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    rotated = pp.DensityMatrix(q @ rho.entries @ q.conj().T)
    assert abs(
        qlinalg.von_neumann_entropy(rotated) - qlinalg.von_neumann_entropy(rho)
    ) < 1e-10


@given(st.integers(0, 10_000))
def test_entropy_bounds(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    s = qlinalg.von_neumann_entropy(_rand_density(rng, dim))
    assert -1e-12 <= s <= math.log2(dim) + 1e-9
