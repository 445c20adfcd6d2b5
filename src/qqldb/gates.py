"""Unitary building blocks: validated small gate matrices, the NOT and
Hadamard gates, and multi-controlled-NOT descriptors.

A :class:`GateMatrix` is capped at ``DENSE_LIMIT_QUBITS``; the execution path
applies gates and :class:`CnotGate` descriptors with the in-place kernels of
:mod:`qqldb.statevec`.  Dense constructors over whole registers live with the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import ArgumentError, CapacityError, ValidationError

DENSE_LIMIT_QUBITS = 10
UNITARY_TOL = 1e-10


def is_unitary(matrix: np.ndarray) -> bool:
    """Check max elementwise deviation of U @ U-dagger from the identity."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    product = matrix @ matrix.conj().T
    return bool(np.max(np.abs(product - np.eye(matrix.shape[0]))) <= UNITARY_TOL)


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
            raise ArgumentError(
                f"gate matrix must be square with power-of-two size, got {mat.shape}"
            )
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
            raise ArgumentError(f"target qubit {self.target} cannot also be a control")


_SQRT2 = np.sqrt(2.0)

NOT = GateMatrix(np.array([[0, 1], [1, 0]]))
HADAMARD = GateMatrix(np.array([[1, 1], [1, -1]]) / _SQRT2)
