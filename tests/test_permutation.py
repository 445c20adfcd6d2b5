"""Every CNOT, oracle and record swap moves amplitudes bit for bit.

Each operation is checked against ``amps[perm]``, with ``perm`` built index by
index from the definition, on random states that contain signed zeros.
"""

import tracemalloc

import numpy as np
import pytest

from helpers import untiled_apply
from qqldb.boolcirc import Comparison, Const, TruthTable, Var, apply_oracle
from qqldb.gates import NOT, CnotGate, GateMatrix
from qqldb.qdb import ApplyGate, QdbState, SafeKey
from qqldb.schema import TableSchema
from qqldb.statevec import StateVector, swap


def signed_zero_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    size = 1 << num_qubits
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps[rng.random(size) < 0.3] = complex(-0.0, 0.0)
    amps[rng.random(size) < 0.2] = complex(0.0, -0.0)
    return amps


def unsigned_zero_bytes(amps: np.ndarray) -> bytes:
    """The register's bytes with every -0.0 part read as +0.0."""
    parts = amps.view(np.float64).copy()
    parts[parts == 0] = 0.0
    return parts.tobytes()


def bit(index: int, qubit: int, num_qubits: int) -> int:
    return (index >> (num_qubits - 1 - qubit)) & 1


def flip_perm(num_qubits: int, target: int, flips) -> np.ndarray:
    """perm[i] = i with the target bit flipped wherever ``flips(i)`` holds."""
    mask = 1 << (num_qubits - 1 - target)
    return np.array([i ^ mask if flips(i) else i for i in range(1 << num_qubits)])


@pytest.mark.parametrize("seed", range(30))
def test_cnot_is_exact_permutation(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    qubits = [int(q) for q in rng.permutation(m)]
    k = int(rng.integers(0, m))
    gate = CnotGate(frozenset(qubits[:k]), qubits[k])
    amps = signed_zero_state(m, rng)
    perm = flip_perm(m, gate.target, lambda i: all(bit(i, q, m) for q in gate.controls))
    state = StateVector(amps.copy()).apply_cnot(gate)
    assert state.amps.tobytes() == amps[perm].tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_cnot_across_tiles_is_exact_permutation(seed):
    # halves of up to 2^14 amplitudes: several tiles each
    rng = np.random.default_rng(300 + seed)
    m = int(rng.integers(14, 16))
    qubits = [int(q) for q in rng.permutation(m)]
    k = int(rng.integers(0, 3))
    gate = CnotGate(frozenset(qubits[:k]), qubits[k])
    amps = signed_zero_state(m, rng)
    index = np.arange(1 << m)
    hit = np.ones(1 << m, dtype=bool)
    for q in gate.controls:
        hit &= (index >> (m - 1 - q)) & 1 == 1
    perm = np.where(hit, index ^ (1 << (m - 1 - gate.target)), index)
    state = StateVector(amps.copy()).apply_cnot(gate)
    assert state.amps.tobytes() == amps[perm].tobytes()


@pytest.mark.parametrize("m, target", [(18, 5), (20, 18)])
def test_uncontrolled_cnot_copies_no_half_register(m, target):
    """An uncontrolled CNOT, such as the constant term of APPLY's combiner on
    its temp qubit, exchanges its halves a tile at a time."""
    state = StateVector.zero(m)
    tracemalloc.start()
    try:
        state.apply_cnot(CnotGate(frozenset(), target))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < state.amps.nbytes / 8
    assert state.amps[1 << (m - 1 - target)] == 1


@pytest.mark.parametrize("seed", range(30))
def test_oracle_is_exact_permutation(seed):
    rng = np.random.default_rng(100 + seed)
    m = int(rng.integers(2, 9))
    v = int(rng.integers(1, m))
    start = int(rng.integers(0, m - v + 1))
    data = list(range(start, start + v))
    rest = [q for q in range(m) if q not in data]
    target = rest.pop(int(rng.integers(0, len(rest))))
    neg = [q for q in rest if rng.random() < 0.5]
    bits = rng.random(1 << v) < rng.random()
    amps = signed_zero_state(m, rng)

    def flips(i):
        value = 0
        for q in data:
            value = (value << 1) | bit(i, q, m)
        return bits[value] and not any(bit(i, q, m) for q in neg)

    perm = flip_perm(m, target, flips)
    state = StateVector(amps.copy())
    apply_oracle(state, TruthTable(v, bits), data, target, neg_controls=neg)
    assert state.amps.tobytes() == amps[perm].tobytes()


@pytest.mark.parametrize("seed", range(30))
def test_record_swap_is_exact_permutation(seed):
    # random positive temp controls, and the safe key as the negative one
    rng = np.random.default_rng(200 + seed)
    n, t = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    m = n + t
    records = [int(r) for r in rng.permutation(1 << n)]
    count = int(rng.integers(0, len(records) // 2 + 1))
    pairs = [(records[2 * i], records[2 * i + 1]) for i in range(count)]
    temps = [int(q) for q in rng.permutation(range(n, m))]
    safe = temps.pop() if rng.random() < 0.5 else None
    pos = [q for q in temps if rng.random() < 0.5]
    # a unit vector, as the engine requires; the division keeps every zero's sign
    amps = signed_zero_state(m, rng)
    amps /= np.linalg.norm(amps)
    partner = {a: b for a, b in pairs} | {b: a for a, b in pairs}

    def moved(i):
        live = safe is None or not bit(i, safe, m)
        if not live or not all(bit(i, q, m) for q in pos):
            return i
        return (partner.get(i >> t, i >> t) << t) | (i & ((1 << t) - 1))

    perm = np.array([moved(i) for i in range(1 << m)])
    db = QdbState(TableSchema("p", (("id", n),)), t=t, state=StateVector(amps.copy()))
    if safe is not None:
        db.safe_key = SafeKey(safe, Const(1), 0)
    db._swap_records(pairs, pos)
    assert db.state.amps.tobytes() == amps[perm].tobytes()


# (m, data run start, data run length, target, negative controls, table density):
# row sets of one or several tiles, with and without negative controls, an
# empty table, and a two-row table on a register whose rows are wider than a
# tile
TILED_ORACLES = [
    (14, 0, 12, 12, [13], 0.5),
    (15, 0, 14, 14, [], 0.7),
    (16, 0, 14, 15, [], 0.5),
    (16, 1, 13, 0, [15], 0.9),
    (16, 2, 12, 1, [0], 0.6),
    (16, 0, 15, 15, [], 0.0),
    (16, 7, 1, 0, [], 1.0),
]


@pytest.mark.parametrize("case", range(len(TILED_ORACLES)))
def test_oracle_across_tiles_is_exact_permutation(case):
    m, start, v, target, neg, density = TILED_ORACLES[case]
    rng = np.random.default_rng(500 + case)
    bits = rng.random(1 << v) < density
    amps = signed_zero_state(m, rng)
    index = np.arange(1 << m)
    hit = bits[(index >> (m - start - v)) & ((1 << v) - 1)]
    for q in neg:
        hit &= bit(index, q, m) == 0
    perm = np.where(hit, index ^ (1 << (m - 1 - target)), index)
    state = StateVector(amps.copy())
    apply_oracle(state, TruthTable(v, bits), list(range(start, start + v)), target, neg)
    assert state.amps.tobytes() == amps[perm].tobytes()


# (data qubits n, temp qubits t, pairs, positive temp controls, safe key temp):
# row sets of one or several tiles, and records wider than a tile
TILED_RECORD_SWAPS = [
    (12, 2, 2048, [], None),
    (13, 2, 3000, [], None),
    (12, 3, 2000, [], 14),
    (13, 3, 4000, [14], None),
    (13, 3, 4096, [], 15),
    (14, 2, 7000, [15], None),
    (1, 15, 1, [5], None),
    (2, 14, 2, [], 10),
]


@pytest.mark.parametrize("case", range(len(TILED_RECORD_SWAPS)))
def test_record_swap_across_tiles_is_exact_permutation(case):
    n, t, count, pos, safe = TILED_RECORD_SWAPS[case]
    m = n + t
    rng = np.random.default_rng(600 + case)
    # pairs in random order, each with its larger record as often first as second
    pairs = rng.permutation(1 << n)[: 2 * count].reshape(-1, 2)
    amps = signed_zero_state(m, rng)
    amps /= np.linalg.norm(amps)
    partner = np.arange(1 << n)
    partner[pairs[:, 0]], partner[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    index = np.arange(1 << m)
    live = np.ones(1 << m, dtype=bool)
    for q in pos:
        live &= bit(index, q, m) == 1
    if safe is not None:
        live &= bit(index, safe, m) == 0
    perm = np.where(live, (partner[index >> t] << t) | (index & ((1 << t) - 1)), index)
    db = QdbState(TableSchema("p", (("id", n),)), t=t, state=StateVector(amps.copy()))
    if safe is not None:
        db.safe_key = SafeKey(safe, Const(1), 0)
    db._swap_records(pairs, pos)
    assert db.state.amps.tobytes() == amps[perm].tobytes()


def traced_peak(operation) -> int:
    tracemalloc.start()
    try:
        operation()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_copies_no_row_set_whole():
    """An oracle on a predicate true for half the records exchanges its rows
    a tile at a time: no copy of either half."""
    n, t = 17, 3
    state = StateVector.zero(n + t)
    table = TruthTable(n, np.arange(1 << n) < 1 << (n - 1))
    peak = traced_peak(lambda: apply_oracle(state, table, list(range(n)), n, [n + 2]))
    assert peak < state.amps.nbytes / 8
    assert state.amps[1 << (t - 1)] == 1


def test_record_swap_copies_no_row_set_whole():
    """2^16 pairs that relabel every record move a tile at a time."""
    n, t = 17, 3
    pairs = np.random.default_rng(9).permutation(1 << n).reshape(-1, 2)
    db = QdbState(TableSchema("p", (("id", n),)), t=t)
    peak = traced_peak(lambda: db._swap_records(pairs))
    assert peak < db.state.amps.nbytes / 8
    (row,) = np.flatnonzero(pairs == 0)
    assert db.state.amps[pairs[row // 2, 1 - row % 2] << t] == 1


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("num_pos, num_neg", [(0, 0), (1, 0), (0, 1), (2, 1)])
def test_not_gate_as_swap_matches_the_matrix_product(seed, num_pos, num_neg):
    """APPLY NOT runs as a swap; the product with the NOT matrix computes
    ``0 * x + 1 * y``, the same value up to the sign of a zero."""
    rng = np.random.default_rng(400 + seed)
    m = int(rng.integers(1 + num_pos + num_neg, 9))
    target, *rest = (int(q) for q in rng.permutation(m))
    pos, neg = rest[:num_pos], rest[num_pos : num_pos + num_neg]
    amps = signed_zero_state(m, rng)
    expected = amps.copy()
    untiled_apply(expected, NOT.matrix, [target], m, pos, neg)
    swap(amps, 0, 1, pos, neg, leading=[target])
    assert unsigned_zero_bytes(amps) == unsigned_zero_bytes(expected)


@pytest.mark.parametrize("backup", [False, True])
def test_apply_not_matches_the_matrix_product(backup):
    """The engine's NOT payload against an equal gate matrix, which takes
    the controlled-unitary kernel."""
    rng = np.random.default_rng(7)
    schema = TableSchema("p", (("a", 3), ("b", 3)))
    amps = signed_zero_state(9, rng)
    amps /= np.linalg.norm(amps)
    results = []
    for gate in (NOT, GateMatrix(NOT.matrix)):
        db = QdbState(schema, t=3, state=StateVector(amps.copy()))
        # every temp of the random register carries amplitude, so the
        # constructor holds them all as residues; the kernels under test only
        # need free flag qubits, whatever they carry
        db.temp_alloc.clear()
        if backup:
            db.backup(Comparison("b", ">=", 5))
        c1 = db.select(Comparison("a", "<", 4))
        db.apply_where({"c1": c1}, Var("c1"), ApplyGate(gate, (4,)))
        results.append(db.state.amps)
    assert unsigned_zero_bytes(results[0]) == unsigned_zero_bytes(results[1])
    assert results[0].tobytes() != amps.tobytes()
