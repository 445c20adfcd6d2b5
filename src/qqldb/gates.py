"""Unitary building blocks: standard gates, tensor products, controlled lifts,
multi-controlled-NOT descriptors and permutation matrices.

Dense matrices are a verification tool, capped at ``DENSE_LIMIT_QUBITS``; the
execution path works with :class:`CnotGate` descriptors and stride kernels in
:mod:`qqldb.statevec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import CapacityError, ValidationError

DENSE_LIMIT_QUBITS = 10
UNITARY_TOL = 1e-10


def is_unitary(matrix: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """Check max elementwise deviation of U @ U-dagger from the identity."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    product = matrix @ matrix.conj().T
    return bool(np.max(np.abs(product - np.eye(matrix.shape[0]))) <= tol)


@dataclass(frozen=True, eq=False)
class GateMatrix:
    """Dense unitary over ``num_qubits`` qubits, validated on construction.

    Row/column index bits follow the global convention: the first qubit the
    gate acts on is the most significant bit of the local basis index.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128)
        dim = mat.shape[0]
        if mat.ndim != 2 or mat.shape[1] != dim or dim < 2 or dim & (dim - 1):
            raise ValueError(f"gate matrix must be square with power-of-two size, got {mat.shape}")
        if dim > 1 << DENSE_LIMIT_QUBITS:
            raise CapacityError(
                f"dense gate of {dim} rows exceeds the {DENSE_LIMIT_QUBITS}-qubit dense limit"
            )
        if not is_unitary(mat):
            raise ValidationError("matrix is not unitary within tolerance")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def num_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1

    def isclose(self, other: "GateMatrix | np.ndarray", tol: float = 1e-12) -> bool:
        other_mat = other.matrix if isinstance(other, GateMatrix) else np.asarray(other)
        return self.matrix.shape == other_mat.shape and bool(
            np.max(np.abs(self.matrix - other_mat)) <= tol
        )


@dataclass(frozen=True)
class CnotGate:
    """Multi-controlled NOT: flip ``target`` when every qubit in ``controls`` is 1.

    An empty control set is a plain NOT.
    """

    controls: frozenset[int] = field(default_factory=frozenset)
    target: int = 0

    def __post_init__(self):
        object.__setattr__(self, "controls", frozenset(self.controls))
        if self.target in self.controls:
            raise ValueError(f"target qubit {self.target} cannot also be a control")


_SQRT2 = np.sqrt(2.0)

NOT = GateMatrix(np.array([[0, 1], [1, 0]]))
HADAMARD = GateMatrix(np.array([[1, 1], [1, -1]]) / _SQRT2)


def identity(num_qubits: int = 1) -> GateMatrix:
    if num_qubits < 1 or num_qubits > DENSE_LIMIT_QUBITS:
        raise CapacityError(f"identity size {num_qubits} outside dense limit")
    return GateMatrix(np.eye(1 << num_qubits))


def standard_gate(name: str, num_qubits: int = 1) -> GateMatrix:
    """Look up a named gate: ``not``, ``hadamard`` (alias ``h``) or ``identity``."""
    key = name.strip().lower()
    if key == "not":
        return NOT
    if key in ("hadamard", "h"):
        return HADAMARD
    if key in ("identity", "i"):
        return identity(num_qubits)
    raise ValueError(f"unknown gate name {name!r}")


def tensor_gates(u: GateMatrix, v: GateMatrix) -> GateMatrix:
    """Kronecker product; the first factor owns the most significant bits."""
    total = u.num_qubits + v.num_qubits
    if total > DENSE_LIMIT_QUBITS:
        raise CapacityError(f"tensor of {total} qubits exceeds dense limit")
    return GateMatrix(np.kron(u.matrix, v.matrix))


_KET0_PROJ = np.array([[1, 0], [0, 0]], dtype=np.complex128)
_KET1_PROJ = np.array([[0, 0], [0, 1]], dtype=np.complex128)


def controlled_lift(u: GateMatrix, control_value: int = 1) -> GateMatrix:
    """Extend ``u`` with one control qubit appended as the last (least
    significant) qubit: ``u`` acts where the control equals ``control_value``,
    identity elsewhere.
    """
    if control_value not in (0, 1):
        raise ValueError("control_value must be 0 or 1")
    if u.num_qubits + 1 > DENSE_LIMIT_QUBITS:
        raise CapacityError("controlled lift exceeds dense limit")
    eye = np.eye(u.matrix.shape[0])
    if control_value == 1:
        mat = np.kron(u.matrix, _KET1_PROJ) + np.kron(eye, _KET0_PROJ)
    else:
        mat = np.kron(u.matrix, _KET0_PROJ) + np.kron(eye, _KET1_PROJ)
    return GateMatrix(mat)


def permutation_gate(swaps: Iterable[tuple[int, int]], num_qubits: int) -> GateMatrix:
    """Identity with the listed basis-index column pairs swapped.

    The pairs must be disjoint transpositions, which makes the result
    self-inverse.
    """
    if num_qubits > DENSE_LIMIT_QUBITS:
        raise CapacityError(f"{num_qubits}-qubit permutation exceeds dense limit")
    dim = 1 << num_qubits
    seen: set[int] = set()
    mat = np.eye(dim, dtype=np.complex128)
    for a, b in swaps:
        for idx in (a, b):
            if idx < 0 or idx >= dim:
                raise ValueError(f"basis index {idx} out of range for {num_qubits} qubits")
            if idx in seen:
                raise ValueError(f"basis index {idx} appears in more than one swap pair")
            seen.add(idx)
        mat[:, [a, b]] = mat[:, [b, a]]
    return GateMatrix(mat)

