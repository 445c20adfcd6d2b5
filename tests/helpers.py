"""Shared test oracles, kept independent of the kernels they check."""

from __future__ import annotations

import numpy as np

from qqldb.gates import GateMatrix


def random_unitary(num_qubits: int, rng: np.random.Generator) -> GateMatrix:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    dim = 1 << num_qubits
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return GateMatrix(q)


def random_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def dense_embed(
    matrix: np.ndarray,
    targets: list[int],
    num_qubits: int,
    pos_controls: list[int] | None = None,
    neg_controls: list[int] | None = None,
) -> np.ndarray:
    """Explicit 2^m x 2^m matrix for a (controlled) gate, built entry by entry
    straight from the definition; the comparison oracle for the stride kernel."""
    pos_controls = pos_controls or []
    neg_controls = neg_controls or []
    dim = 1 << num_qubits
    k = len(targets)

    def bit(index, qubit):
        return (index >> (num_qubits - 1 - qubit)) & 1

    full = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        satisfied = all(bit(col, q) == 1 for q in pos_controls) and all(
            bit(col, q) == 0 for q in neg_controls
        )
        if not satisfied:
            full[col, col] = 1.0
            continue
        col_local = 0
        for j, q in enumerate(targets):
            col_local |= bit(col, q) << (k - 1 - j)
        for row_local in range(1 << k):
            row = col
            for j, q in enumerate(targets):
                mask = 1 << (num_qubits - 1 - q)
                row = (row & ~mask) | (((row_local >> (k - 1 - j)) & 1) * mask)
            full[row, col] = matrix[row_local, col_local]
    return full


def untiled_apply(
    amps: np.ndarray,
    matrix: np.ndarray,
    targets: list[int],
    num_qubits: int,
    pos_controls: list[int] = (),
    neg_controls: list[int] = (),
    run: range = range(0),
    rows: range | None = None,
) -> None:
    """The controlled-unitary kernel without tiles: one product
    ``matrix @ block.reshape(2^k, -1)`` over the whole selected block of a
    ``moveaxis`` view with one axis per qubit (the run merged into one)."""
    k = len(targets)
    shape = (2,) * run.start + (1 << len(run),) + (2,) * (num_qubits - run.stop)

    def axis(q):
        return q if q < run.start else q - len(run) + 1

    moved = [axis(q) for q in (*pos_controls, *neg_controls, *targets)] + [run.start]
    view = np.moveaxis(amps.reshape(shape), moved, range(len(moved)))
    block = view[(1,) * len(pos_controls) + (0,) * len(neg_controls)]
    if rows is not None:
        block = block[(slice(None),) * k + (slice(rows.start, rows.stop),)]
    block[...] = (matrix @ block.reshape(1 << k, -1)).reshape(block.shape)


def reed_muller_brute_eval(monomials, assignment_bits: dict[int, int]) -> int:
    """Direct XOR-of-AND evaluation of a Reed-Muller form."""
    acc = 0
    for monomial in monomials:
        term = 1
        for var in monomial:
            term &= assignment_bits[var]
        acc ^= term
    return acc
