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
import math
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

ATOL_NORM = 1e-10
ATOL_UNITARY = 1e-10
ATOL_HERMITIAN = 1e-10
ATOL_TRACE = 1e-10
ATOL_EIGENVALUE = 1e-10

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class KindMismatchError(TypeError):
    """Operands of a binary operation are not the same carrier kind."""


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
        # hypot scales internally: a huge entry gives its true norm, not an overflow.
        norm = math.hypot(*arr.real.tolist(), *arr.imag.tolist())
        if not abs(norm - 1.0) <= ATOL_NORM:
            raise ValueError(f"state norm {norm:.12g} is not 1 within {ATOL_NORM}")
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
        if not dev <= ATOL_UNITARY:
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
        if not herm_dev <= ATOL_HERMITIAN:
            raise ValueError(f"matrix is not Hermitian: max |ρ - ρ†| = {herm_dev:.3g}")
        trace = np.trace(arr)
        if not abs(trace - 1.0) <= ATOL_TRACE:
            raise ValueError(f"trace {complex(trace):.12g} is not 1 within {ATOL_TRACE}")
        _spectrum(arr)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis vector |index> in the given dimension."""
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def tensor_product(a, b):
    """Kronecker composition of two carriers of the same kind.

    The first operand becomes the more significant subsystem index.

    Raises
    ------
    KindMismatchError
        If the operands are not the same kind.
    """
    if type(a) is not type(b):
        raise KindMismatchError(
            f"cannot combine {type(a).__name__} with {type(b).__name__}"
        )
    if isinstance(a, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, (UnitaryOperator, DensityMatrix)):
        return type(a)(np.kron(a.entries, b.entries))
    raise KindMismatchError(f"unsupported operand kind {type(a).__name__}")


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
        Subsystem dimensions, most significant first (see module docstring).
    keep : int or ascending sequence of int
        Index (or indices) of the subsystem(s) to retain.

    Returns
    -------
    DensityMatrix
        Marginal state on the kept subsystem(s), in their original order.
    """
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != rho.dim:
        raise DimensionMismatchError(
            f"product of dims {dims} != density dimension {rho.dim}"
        )
    kept = (keep,) if isinstance(keep, (int, np.integer)) else tuple(keep)
    if not kept or any(k < 0 or k >= len(dims) for k in kept):
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
    """``hermitian_eigenvalues`` of a raw matrix or a stack of them, ascending."""
    evals = np.linalg.eigvalsh(arrays)
    lo = float(evals.min())
    if not lo >= -ATOL_EIGENVALUE:
        raise NotPositiveSemidefiniteError(f"eigenvalue {lo:.3g} below the -{ATOL_EIGENVALUE} window")
    return evals.clip(0.0, 1.0)


def _entropies(arrays: np.ndarray) -> np.ndarray:
    """``von_neumann_entropy`` of a raw matrix or of each matrix in a stack."""
    evals = _spectrum(arrays)[..., ::-1]
    logs = np.log2(evals, out=np.zeros_like(evals), where=evals > 0.0)
    logs *= evals
    return -logs.sum(axis=-1) + 0.0  # +0.0 folds -0.0 away


def hermitian_eigenvalues(rho: DensityMatrix) -> list[float]:
    """Real spectrum of a density matrix, descending, clipped to [0, 1].

    Eigenvalues in [-1e-10, 0) are treated as numerical noise and clipped
    to zero; anything below -1e-10 raises NotPositiveSemidefiniteError.
    """
    return [float(v) for v in _spectrum(rho.entries)[::-1]]


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy S(ρ) = -Σ λ log₂ λ in bits, with 0·log₂0 = 0."""
    return float(_entropies(rho.entries))


def _unitarity_deviation(arr: np.ndarray) -> float | np.ndarray:
    """max-entry |U†U - I| of a raw square matrix, or of each matrix in a stack.

    Huge, infinite or NaN entries give inf or NaN without a numpy warning;
    ``dev <= tol`` is False for both, so such a matrix fails every tolerance.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.abs(arr.conj().swapaxes(-1, -2) @ arr - np.eye(arr.shape[-1]))
        return dev.reshape(arr.shape[:-2] + (-1,)).max(axis=-1)
