"""The tiled controlled-unitary kernel, the per-level sequential insert and
the bulk insert's closed form, compared bit for bit with untiled, per-step
and per-gate references.

Amplitudes are compared as ``(amps + 0.0).tobytes()``, which maps ``-0.0`` to
``+0.0``: the products are the same, but BLAS may give a zero either sign.
The closed form is compared word for word, zero signs included.
"""

import tracemalloc

import numpy as np
import pytest

from helpers import random_state, random_unitary, untiled_apply
from qqldb import qdb
from qqldb.errors import ValidationError
from qqldb.gates import HADAMARD, GateMatrix
from qqldb.qdb import QdbState
from qqldb.schema import TableSchema
from qqldb.statevec import TILE_COLUMNS, StateVector

TILE = TILE_COLUMNS


def same(a: np.ndarray, b: np.ndarray) -> bool:
    return (a + 0.0).tobytes() == (b + 0.0).tobytes()


def per_step_reference(amps: np.ndarray, n: int, t: int, first: int, last: int) -> None:
    """Sequential steps ``first`` to ``last`` one at a time: step k is a
    Hadamard on data qubit ``n - 1 - p`` (p = floor(log2 k)), controlled
    positively on the low data bits of k that are 1, negatively on those that
    are 0."""
    for k in range(first, last + 1):
        p = k.bit_length() - 1
        pos = sorted(n - 1 - j for j in range(p) if (k >> j) & 1)
        neg = sorted(n - 1 - j for j in range(p) if not (k >> j) & 1)
        untiled_apply(amps, HADAMARD.matrix, [n - 1 - p], n + t, pos, neg)


def table(n: int, t: int, fill: int = 0, rng=None) -> QdbState:
    """A fresh database over ``n`` data and ``t`` temp qubits; with ``rng``,
    records 0 .. ``fill`` hold random amplitudes in every temp column and no
    other record is live, so the engine reads its fill as ``fill``.  The
    register is set after construction: the temps stay free."""
    db = QdbState(TableSchema("t", (("k", n),)), t=t)
    if rng is not None:
        rows = random_state(n + t, rng).reshape(1 << n, -1)
        rows[fill + 1 :] = 0
        db.state.amps[:] = rows.reshape(-1) / np.linalg.norm(rows)
    return db


def level_cases(n: int) -> list[tuple[int, int]]:
    """(fill, upto) pairs starting and ending on and next to level
    boundaries 2^p - 1 and 2^p."""
    edges = sorted({e for p in range(n + 1) for e in ((1 << p) - 1, 1 << p) if e < 1 << n})
    return [(a, b) for a in edges for b in edges if a < b]


class TestPerLevelSequentialInsert:
    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_fresh_matches_per_step(self, n, t):
        for fill, upto in level_cases(n):
            if fill:
                continue
            db = table(n, t)
            expected = db.state.amps.copy()
            db.insert_sequential(upto)
            per_step_reference(expected, n, t, 1, upto)
            assert same(db.state.amps, expected), upto

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 5])
    def test_random_state_matches_per_step(self, n, t):
        # the steps alone, on a register random in every record
        rng = np.random.default_rng(n * 10 + t)
        for fill, upto in level_cases(n):
            db = table(n, t)
            db.state.amps[:] = random_state(n + t, rng)
            expected = db.state.amps.copy()
            db._seq_steps(fill, upto)
            per_step_reference(expected, n, t, fill + 1, upto)
            assert same(db.state.amps, expected), (fill, upto)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_random_records_continue_per_step(self, t):
        # INSERT SEQ reads the fill off records 0 .. fill with random amplitudes
        n = 5
        rng = np.random.default_rng(50 + t)
        for fill, upto in level_cases(n):
            db = table(n, t, fill, rng)
            expected = db.state.amps.copy()
            db.insert_sequential(upto)
            per_step_reference(expected, n, t, fill + 1, upto)
            assert same(db.state.amps, expected), (fill, upto)
            assert db.seq_fill() == upto

    def test_large_register(self):
        # 2^16 amplitudes: the top levels span several tiles
        db = table(14, 2)
        expected = db.state.amps.copy()
        db.insert_sequential(3000)
        per_step_reference(expected, 14, 2, 1, 3000)
        assert same(db.state.amps, expected)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_insert_values_matches_per_step(self, t):
        n = 5
        rng = np.random.default_rng(40 + t)
        for fill, count in [(0, 1), (0, 8), (0, 9), (3, 4), (3, 17), (7, 32), (8, 16)]:
            records = sorted(rng.choice(1 << n, size=count, replace=False).tolist())
            db = table(n, t, fill, rng)
            expected = db.state.amps.copy()
            db.insert_values(records)
            per_step_reference(expected, n, t, fill + 1, count - 1)
            view = expected.reshape(1 << n, 1 << t)
            sequence, requested = set(range(count)), set(records)
            for a, b in zip(sorted(sequence - requested), sorted(requested - sequence)):
                view[[a, b]] = view[[b, a]]
            assert same(db.state.amps, expected), (fill, count)

    def test_one_gate_and_one_norm_check_per_level(self, monkeypatch):
        calls = {"gate": 0, "norm": 0}
        gate, norm = StateVector.apply_controlled, QdbState._read_state

        def counted_gate(self, *args, **kwargs):
            calls["gate"] += 1
            return gate(self, *args, **kwargs)

        def counted_norm(self, *args):
            calls["norm"] += 1
            return norm(self, *args)

        monkeypatch.setattr(StateVector, "apply_controlled", counted_gate)
        monkeypatch.setattr(QdbState, "_read_state", counted_norm)
        table(14, 2).insert_sequential(3000)
        # levels 0 .. 11 hold steps 1 .. 3000
        assert calls == {"gate": 12, "norm": 1}

        # INSERT ALL's closed form checks its norm by formula, with no pass
        # over the register; its Hadamard path reads the register once
        db = table(14, 2)
        calls.update(gate=0, norm=0)
        db.insert_bulk(14)
        assert calls == {"gate": 0, "norm": 0}
        db = table(14, 2)
        db.state.amps[0] = -1
        calls.update(gate=0, norm=0)
        db.insert_bulk(14)
        assert calls == {"gate": 14, "norm": 1}

    def test_closed_form_norm_check_refuses_a_wrong_fill(self, monkeypatch):
        # with s = 1 in place of 1/sqrt(2) the fill's norm is 2^(r/2)
        monkeypatch.setattr(qdb, "HADAMARD", GateMatrix(np.eye(2)))
        with pytest.raises(ValidationError, match="state norm 2.0 is not 1"):
            table(3, 1).insert_bulk(2)


def hadamard_layer(amps: np.ndarray, n: int, r: int) -> StateVector:
    """The bulk insert's gates one at a time on a copy of ``amps``: a
    Hadamard on each data qubit ``n - r`` .. ``n - 1``."""
    state = StateVector(amps.copy())
    for q in range(n - r, n):
        state.apply_controlled(HADAMARD, targets=[q])
    return state


def count_gates(monkeypatch) -> dict:
    """Count every ``StateVector.apply_controlled`` call from here on."""
    calls = {"gate": 0}
    gate = StateVector.apply_controlled

    def counted(self, *args, **kwargs):
        calls["gate"] += 1
        return gate(self, *args, **kwargs)

    monkeypatch.setattr(StateVector, "apply_controlled", counted)
    return calls


def words(amps: np.ndarray) -> np.ndarray:
    return amps.view(np.uint64)


# fresh registers that are not |0...0> bit for bit: index 0 and the dust
# amplitude 1e-10 at index ``dust`` (none for 0)
NOT_ZERO_KET = {
    "minus one": (-1.0, 0),
    "phase": (np.exp(0.7j), 0),
    "dust on another record": (1.0, 40 << 2),
    "dust in a temp column": (1.0, 3),
    "negative zero imaginary part": (complex(1.0, -0.0), 0),
}


class TestInsertAllClosedForm:
    """INSERT ALL on the register |0...0> writes the closed form of its
    Hadamard layer: the layer's result word for word, zero signs included."""

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_hadamard_layer(self, n, t):
        for r in range(n + 1):
            db = table(n, t)
            expected = hadamard_layer(db.state.amps, n, r).amps
            db.insert_bulk(r)
            if n + t == 2:
                # the two-column product leaves -0.0 on a zero amplitude
                assert same(db.state.amps, expected), r
            else:
                assert np.array_equal(words(db.state.amps), words(expected)), (n, t, r)

    def test_large_register_runs_no_gate(self, monkeypatch):
        db = QdbState(TableSchema("big", (("a", 9), ("b", 9))), t=3)
        expected = hadamard_layer(db.state.amps, 18, 18).amps
        calls = count_gates(monkeypatch)
        db.insert_bulk(18)
        assert calls["gate"] == 0
        assert np.array_equal(words(db.state.amps), words(expected))

    @pytest.mark.parametrize("first, dust", NOT_ZERO_KET.values(), ids=NOT_ZERO_KET.keys())
    def test_other_fresh_register_runs_the_gates(self, monkeypatch, first, dust):
        n, t, r = 6, 2, 5
        amps = np.zeros(1 << (n + t), dtype=np.complex128)
        amps[0] = first
        if dust:
            amps[dust] = 1e-10
        db = QdbState(TableSchema("t", (("k", n),)), t=t, state=StateVector(amps))
        assert db.seq_fill() == 0 and not db.temp_alloc
        expected = hadamard_layer(db.state.amps, n, r).amps
        calls = count_gates(monkeypatch)
        db.insert_bulk(r)
        assert calls["gate"] == r
        assert np.array_equal(words(db.state.amps), words(expected))


def controlled(amps, matrix, targets, pos=(), neg=(), run=range(0), rows=None):
    state = StateVector(amps)
    state.apply_controlled(GateMatrix(matrix), pos, neg, targets, run=run, rows=rows)


class TestTiledKernel:
    @pytest.mark.parametrize(
        "width", [1, 2, 3, TILE - 1, TILE, TILE + 1, TILE + 2, TILE + 3, 2 * TILE + 1, 3 * TILE + 5]
    )
    @pytest.mark.parametrize("offset", [0, 7])
    def test_block_widths(self, width, offset):
        # one target and a 15-qubit run: the block is exactly ``width`` columns
        rng = np.random.default_rng(width + offset)
        gate = random_unitary(1, rng).matrix
        amps = random_state(16, rng)
        expected = amps.copy()
        rows = range(offset, offset + width)
        untiled_apply(expected, gate, [0], 16, run=range(1, 16), rows=rows)
        controlled(amps, gate, [0], run=range(1, 16), rows=rows)
        assert same(amps, expected)

    @pytest.mark.parametrize("num_qubits", [1, 2, 14, 17])
    def test_uncontrolled_widths(self, num_qubits):
        # 1 and 2 columns, two tiles, and 2^16 columns in eight tiles
        rng = np.random.default_rng(num_qubits)
        for target in {0, num_qubits // 2, num_qubits - 1}:
            gate = random_unitary(1, rng)
            amps = random_state(num_qubits, rng)
            expected = amps.copy()
            untiled_apply(expected, gate.matrix, [target], num_qubits)
            StateVector(amps).apply_unitary(gate, [target])
            assert same(amps, expected), target

    def test_hadamard_layer(self):
        amps = StateVector.zero(17).amps
        expected = amps.copy()
        for q in range(17):
            untiled_apply(expected, HADAMARD.matrix, [q], 17)
            StateVector(amps).apply_unitary(HADAMARD, [q])
        assert same(amps, expected)

    def test_random_controls_and_targets(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m = int(rng.integers(2, 17))
            k = int(rng.integers(1, min(2, m) + 1))
            qubits = rng.permutation(m).tolist()
            targets, rest = qubits[:k], qubits[k:]
            controls = rest[: int(rng.integers(0, min(4, len(rest)) + 1))]
            cut = int(rng.integers(0, len(controls) + 1))
            pos, neg = sorted(controls[:cut]), sorted(controls[cut:])
            gate = random_unitary(k, rng).matrix
            amps = random_state(m, rng)
            amps[rng.random(amps.size) < 0.2] = -0.0
            expected = amps.copy()
            untiled_apply(expected, gate, targets, m, pos, neg)
            controlled(amps, gate, targets, pos, neg)
            assert same(amps, expected), (m, targets, pos, neg)

    def test_two_qubit_gate_many_tiles(self):
        rng = np.random.default_rng(9)
        gate = random_unitary(2, rng).matrix
        amps = random_state(17, rng)
        expected = amps.copy()
        untiled_apply(expected, gate, [9, 2], 17, [0], [16])
        controlled(amps, gate, [9, 2], [0], [16])
        assert same(amps, expected)

    def test_run_rows_with_controls_and_free_qubits(self):
        rng = np.random.default_rng(11)
        for rows in [range(0, 1), range(3, 20), range(31, 32), range(0, 32)]:
            gate = random_unitary(2, rng).matrix
            amps = random_state(13, rng)
            expected = amps.copy()
            run = range(4, 9)
            untiled_apply(expected, gate, [11, 1], 13, [0], [12], run, rows)
            controlled(amps, gate, [11, 1], [0], [12], run, rows)
            assert same(amps, expected), rows

    @pytest.mark.parametrize(
        "run, rows, targets",
        [
            (range(1, 3), range(0, 5), [0]),  # past 2^len(run)
            (range(1, 3), range(2, 2), [0]),  # empty
            (range(1, 3), range(0, 4, 2), [0]),  # not step 1
            (range(1, 3), range(-1, 2), [0]),
            (range(0, 2), range(0, 2), [0]),  # run overlaps the target
            (range(3, 1, -1), range(0, 2), [0]),
        ],
    )
    def test_bad_run_or_rows_rejected(self, run, rows, targets):
        state = StateVector.zero(4)
        with pytest.raises(ValueError):
            state.apply_controlled(HADAMARD, targets=targets, run=run, rows=rows)
        assert state.amps[0] == 1 and not state.amps[1:].any()


class TestKernelMemory:
    def test_insert_all_allocates_tiles_only(self, monkeypatch):
        # index 0 holds -1, not 1: the Hadamard layer runs, tile by tile
        amps = np.zeros(1 << 20, dtype=np.complex128)
        amps[0] = -1
        db = QdbState(TableSchema("t", (("k", 19),)), t=1, state=StateVector(amps))
        calls = count_gates(monkeypatch)
        tracemalloc.start()
        try:
            db.insert_bulk(19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls["gate"] == 19
        assert peak < amps.nbytes / 8
        assert np.allclose(db.state.amps.reshape(-1, 2)[:, 0], -(2 ** -9.5))

    def test_insert_all_fill_allocates_below_a_32nd(self, monkeypatch):
        db = QdbState(TableSchema("t", (("k", 19),)), t=1)
        register = db.state.amps.nbytes
        calls = count_gates(monkeypatch)
        tracemalloc.start()
        try:
            db.insert_bulk(19)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls["gate"] == 0
        assert peak < register / 32
        rows = db.state.amps.reshape(-1, 2)
        assert np.allclose(rows[:, 0], 2 ** -9.5) and not rows[:, 1].any()
