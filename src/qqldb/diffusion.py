"""Partial diffusion: inversion about the mean on the flag-0 subspace, sign
flip on the flag-1 subspace.

The operator over ``n`` data qubits plus one flag qubit is

    (H^n (x) I) . ((1 - e^{i phi}) |0><0| - I) . (H^n (x) I)

with |0><0| the rank-1 projector on the all-zeros state of the full n+1-qubit
space.  Applied to ``sum_j a_j |j>|0> + b_j |j>|1>`` it sends
``a_j -> (1 - e^{i phi}) <a> - a_j`` and ``b_j -> -b_j`` where ``<a>`` is the
mean of the flag-0 amplitudes.  The fast path computes exactly that in two
passes; the dense construction exists for verification only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .gates import DENSE_LIMIT_QUBITS, GateMatrix, HADAMARD
from .statevec import StateVector


@dataclass(frozen=True)
class DiffusionParams:
    """Angle and data-qubit count; the operator acts on ``n + 1`` qubits with
    the flag last.  ``phi = pi`` gives plain inversion about the mean."""

    n: int
    phi: float = math.pi

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one data qubit")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")

    @property
    def factor(self) -> complex:
        # exact real factors at the two special angles keep transcripts clean
        if self.phi == math.pi:
            return 2.0 + 0.0j
        if self.phi == 0.0:
            return 0.0 + 0.0j
        return 1.0 - cmath.exp(1j * self.phi)


def apply_partial_diffusion(
    state: StateVector, params: DiffusionParams, flag_qubit: int | None = None
) -> StateVector:
    """Apply the operator in O(2^(n+1)) without building any matrix.

    The data qubits are the first ``params.n`` qubits.  ``flag_qubit``
    defaults to the last qubit; any qubits that are neither data nor flag are
    spectators and each of their basis assignments is transformed
    independently.
    """
    m = state.num_qubits
    n = params.n
    if m < n + 1:
        raise ValueError(f"state of {m} qubits too small for {n} data qubits plus a flag")
    flag = m - 1 if flag_qubit is None else flag_qubit
    if flag < n or flag >= m:
        raise ValueError(f"flag qubit {flag} must lie in the tail qubits {n}..{m - 1}")
    factor = params.factor
    view = state.amps.reshape(1 << n, 1 << (m - n))
    tail = m - n
    flag_bit = 1 << (m - 1 - flag)
    for column in range(1 << tail):
        if column & flag_bit:
            continue
        alpha = view[:, column]
        mean = alpha.mean()
        view[:, column] = factor * mean - alpha
        partner = column | flag_bit
        view[:, partner] = -view[:, partner]
    return state


def dense_partial_diffusion(params: DiffusionParams) -> GateMatrix:
    """Exact matrix product of the three factors, for n + 1 within the dense
    limit."""
    n = params.n
    if n + 1 > DENSE_LIMIT_QUBITS:
        raise CapacityError(f"dense diffusion over {n + 1} qubits exceeds the dense limit")
    dim = 1 << (n + 1)
    spread = HADAMARD.matrix
    for _ in range(n - 1):
        spread = np.kron(spread, HADAMARD.matrix)
    spread = np.kron(spread, np.eye(2, dtype=np.complex128))
    core = -np.eye(dim, dtype=np.complex128)
    core[0, 0] += params.factor
    return GateMatrix(spread @ core @ spread)
