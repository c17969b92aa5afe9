"""Finite-dimensional complex linear algebra for qubit-scale simulation.

States, unitaries and density matrices are immutable wrappers around numpy
arrays, validated at construction.  Entropies are in bits throughout.

Subsystem ordering convention (fixed once, here, for the whole package):
the travel qubit is subsystem 0 and the eavesdropper's ancilla is
subsystem 1.  When the home qubit participates it is prepended as
subsystem 0 and the others shift right.  The first tensor factor is the
most significant index, matching ``numpy.kron``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

# The one numerical-noise tolerance: norms, unitarity, hermiticity, traces,
# eigenvalues and the orthogonality of Bob's decoding states.
ATOL = 1e-10

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _pauli in (PAULI_I, PAULI_X, PAULI_Z):  # read by every ProtocolConfig's encoding
    _pauli.setflags(write=False)


class DimensionMismatchError(ValueError):
    """Operand shapes or dimensions are incompatible."""


class NotPositiveSemidefiniteError(ValueError):
    """An eigenvalue sits below the -1e-10 numerical-noise window."""


def _frozen_complex(values, shape_kind: str) -> NDArray[np.complex128]:
    arr = np.array(values, dtype=complex)
    if shape_kind == "vector" and arr.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {arr.shape}")
    if shape_kind == "matrix" and (arr.ndim != 2 or arr.shape[0] != arr.shape[1]):
        raise DimensionMismatchError(f"expected a square matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True, init=False, eq=False)
class StateVector:
    """Normalized pure state, amplitudes indexed in the computational basis.

    Invariants: Euclidean norm 1 within 1e-10, dimension at least 2.
    """

    amplitudes: NDArray[np.complex128]

    def __init__(self, amplitudes) -> None:
        arr = _frozen_complex(amplitudes, "vector")
        if arr.size < 2:
            raise DimensionMismatchError(f"state needs dimension >= 2, got {arr.size}")
        norm = _off_norm(arr)
        if norm is not None:
            raise ValueError(f"state norm {norm:.12g} is not 1 within {ATOL}")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclasses.dataclass(frozen=True, init=False, eq=False)
class UnitaryOperator:
    """Square complex matrix with U†U = I within max-entry deviation 1e-10."""

    entries: NDArray[np.complex128]

    def __init__(self, entries) -> None:
        arr = _frozen_complex(entries, "matrix")
        dev = _unitarity_deviation(arr)
        if not dev <= ATOL:
            raise ValueError(f"matrix is not unitary: max |U†U - I| = {dev:.3g}")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclasses.dataclass(frozen=True, init=False, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix (up to 1e-10 noise)."""

    entries: NDArray[np.complex128]

    def __init__(self, entries) -> None:
        arr = _frozen_complex(entries, "matrix")
        with np.errstate(over="ignore", invalid="ignore"):
            herm_dev = float(np.max(np.abs(arr - arr.conj().T)))
        if not herm_dev <= ATOL:
            raise ValueError(f"matrix is not Hermitian: max |ρ - ρ†| = {herm_dev:.3g}")
        trace = np.trace(arr)
        if not abs(trace - 1.0) <= ATOL:
            raise ValueError(f"trace {complex(trace):.12g} is not 1 within {ATOL}")
        _spectrum(arr)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _is_integer_at_least(value, least: int) -> bool:
    """True for an ``int`` or numpy integer, other than a bool, that is >= ``least``."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= least


def _is_real(value) -> bool:
    """True for an ``int``, ``float`` or numpy real scalar, other than a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis vector |index> in the given dimension.

    ``dim`` is an integer >= 2 and ``index`` an integer in [0, dim);
    anything else raises ValueError.
    """
    if not _is_integer_at_least(dim, 2):
        raise ValueError(f"basis dimension {dim!r} is not an integer >= 2")
    if not (_is_integer_at_least(index, 0) and index < dim):
        raise ValueError(f"basis index {index!r} is not an integer in [0, {dim})")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def to_density(s: StateVector) -> DensityMatrix:
    """Rank-one projector |s><s| of a pure state."""
    return DensityMatrix(np.outer(s.amplitudes, s.amplitudes.conj()))


def partial_trace(
    rho: DensityMatrix, dims: Sequence[int], keep: int | Sequence[int]
) -> DensityMatrix:
    """Trace out every subsystem except ``keep``.

    Parameters
    ----------
    rho : DensityMatrix
        State over the composite space.
    dims : sequence of int
        Subsystem dimensions, each an integer >= 1, most significant first
        (see module docstring).
    keep : int or ascending sequence of int
        Index (or indices) of the subsystem(s) to retain.

    Returns
    -------
    DensityMatrix
        Marginal state on the kept subsystem(s), in their original order.
    """
    dims = tuple(dims)
    if not all(_is_integer_at_least(d, 1) for d in dims):
        raise DimensionMismatchError(f"dims {dims!r} are not integers >= 1")
    dims = tuple(map(int, dims))
    if math.prod(dims) != rho.dim:
        raise DimensionMismatchError(
            f"product of dims {dims} != density dimension {rho.dim}"
        )
    kept = tuple(keep) if isinstance(keep, (tuple, list)) else (keep,)
    if not kept or not all(_is_integer_at_least(k, 0) and k < len(dims) for k in kept):
        raise DimensionMismatchError(f"keep={keep!r} does not index subsystems of {dims}")
    if list(kept) != sorted(set(kept)):
        raise DimensionMismatchError(f"keep indices must be ascending and unique, got {keep!r}")
    n = len(dims)
    col_axes = [n + i if i in kept else i for i in range(n)]
    out_axes = [i for i in kept] + [n + i for i in kept]
    reduced = np.einsum(rho.entries.reshape(dims + dims), list(range(n)) + col_axes, out_axes)
    kept_dim = int(np.prod([dims[i] for i in kept]))
    return DensityMatrix(reduced.reshape(kept_dim, kept_dim))


def _spectrum(arrays: np.ndarray) -> np.ndarray:
    """Eigenvalues of a raw Hermitian matrix, or of each matrix in a stack,
    ascending and clipped to [0, 1].

    Eigenvalues in [-1e-10, 0) are treated as numerical noise and clipped
    to zero; anything below -1e-10 raises NotPositiveSemidefiniteError.
    """
    evals = np.linalg.eigvalsh(arrays)
    lo = float(evals.min())
    if not lo >= -ATOL:
        raise NotPositiveSemidefiniteError(f"eigenvalue {lo:.3g} below the -{ATOL} window")
    return evals.clip(0.0, 1.0)


def _entropies(arrays: np.ndarray) -> np.ndarray:
    """``von_neumann_entropy`` of a raw matrix or of each matrix in a stack.

    A zero eigenvalue meets log₂ of the least subnormal, -1074, and adds
    -0.0: the sum and the ``0.0 -`` fold it away, so 0·log₂0 = 0.
    """
    evals = _spectrum(arrays)[..., ::-1]  # largest first: the order pinned values were summed in
    return 0.0 - (evals * np.log2(np.maximum(evals, 5e-324))).sum(axis=-1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy S(ρ) = -Σ λ log₂ λ in bits, with 0·log₂0 = 0."""
    return float(_entropies(rho.entries))


@functools.lru_cache(maxsize=16)
def _identity(dim: int) -> np.ndarray:
    """The read-only dim×dim identity, built once for each dimension in use."""
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


def _unitarity_deviation(arr: np.ndarray) -> float:
    """max-entry |U†U - I| of a raw square matrix.

    Huge, infinite or NaN entries give inf or NaN without a numpy warning;
    ``dev <= tol`` is False for both, so such a matrix fails every tolerance.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(arr.conj().T @ arr - _identity(len(arr))).max())


def _off_norm(amplitudes: np.ndarray) -> float | None:
    """The Euclidean norm of a vector when it is not 1 within ATOL, else None."""
    # hypot scales internally: a huge entry gives its true norm, not an overflow.
    norm = math.hypot(*amplitudes.real.tolist(), *amplitudes.imag.tolist())
    return None if abs(norm - 1.0) <= ATOL else norm  # NaN is returned
