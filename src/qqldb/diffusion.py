"""Partial diffusion: inversion about the mean on the flag-0 subspace, sign
flip on the flag-1 subspace.

The operator over ``n`` data qubits plus one flag qubit is

    (H^n (x) I) . (2 |0><0| - I) . (H^n (x) I)

with |0><0| the rank-1 projector on the all-zeros state of the full n+1-qubit
space.  Applied to ``sum_j a_j |j>|0> + b_j |j>|1>`` it sends
``a_j -> 2 <a> - a_j`` and ``b_j -> -b_j`` where ``<a>`` is the mean of the
flag-0 amplitudes.  That is computed directly, in two passes over the flag-0
and flag-1 views of the register; the dense matrix is built only by the tests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ArgumentError, as_int
from .statevec import StateVector, qubit_view


def apply_partial_diffusion(
    state: StateVector, n: int, flag_qubit: int, zero_qubits: Sequence[int] = ()
) -> StateVector:
    """Apply the operator in O(2^(n+1)) without building any matrix.

    The data qubits are the first ``n`` qubits; any qubits that are neither
    data nor ``flag_qubit`` are spectators, and each of their basis
    assignments is transformed independently.  Spectators in
    ``zero_qubits`` must be 0 wherever an amplitude is nonzero: the columns
    where one is 1 hold only zeros, which the operator keeps zero, so they
    are skipped and only live columns get a mean.  ``qubit_view`` refuses a
    flag among the data qubits and a qubit past the register.
    """
    data = range(as_int(n, "data qubit count"))
    if not data:
        raise ArgumentError("need at least one data qubit")
    zero = qubit_view(state.amps, (), [flag_qubit, *zero_qubits], (), data)
    # one 1-D mean per spectator column: a mean over axis 0 sums in another
    # order and rounds differently
    for index in np.ndindex(zero.shape[1:]):
        alpha = zero[(slice(None), *index)]
        alpha[...] = (2.0 + 0.0j) * alpha.mean() - alpha
    one = qubit_view(state.amps, [flag_qubit], zero_qubits, (), data)
    np.negative(one, out=one)
    return state
