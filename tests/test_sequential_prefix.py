"""INSERT SEQ and INSERT VALUES run each Hadamard level on the register's
written prefix, when every record above the fill is exactly +0.

The engine's register is compared word for word, zero signs included, with a
reference that runs every level on the whole register through
:func:`helpers.untiled_apply` with no negative controls.  Both run in the
same process, so the check holds whichever BLAS kernel numpy picks.
"""

import numpy as np
import pytest

from helpers import untiled_apply
from qqldb import statevec
from qqldb.boolcirc import Comparison
from qqldb.gates import HADAMARD
from qqldb.qdb import RESIDUE_TOL, QdbState
from qqldb.schema import TableSchema
from qqldb.statevec import SCAN_BLOCK, StateVector, qubit_view


def schema(n: int) -> TableSchema:
    return TableSchema("t", (("k", n),))


def words(amps: np.ndarray) -> bytes:
    return amps.view(np.uint64).tobytes()


def zero_register(n: int, t: int) -> np.ndarray:
    amps = np.zeros(1 << (n + t), dtype=np.complex128)
    amps[0] = 1.0
    return amps


def whole_register_levels(amps: np.ndarray, n: int, t: int, fill: int, upto: int) -> None:
    """Sequential steps ``fill + 1`` to ``upto``, one untiled product per
    level p over the whole register: a Hadamard on data qubit ``n - 1 - p``
    where the p low data bits hold that level's step values."""
    k = fill + 1
    while k <= upto:
        p = k.bit_length() - 1
        last = min(upto, (2 << p) - 1)
        untiled_apply(
            amps, HADAMARD.matrix, [n - 1 - p], n + t,
            run=range(n - p, n), rows=range(k - (1 << p), last - (1 << p) + 1),
        )
        k = last + 1


def relabel(amps: np.ndarray, n: int, t: int, count: int, records) -> None:
    """INSERT VALUES' record swap: the sequence's unrequested records onto
    the requested ones beyond it, both ascending."""
    rows = amps.reshape(1 << n, 1 << t)
    sequence, requested = set(range(count)), set(records)
    for a, b in zip(sorted(sequence - requested), sorted(requested - sequence)):
        rows[[a, b]] = rows[[b, a]]


def spy_levels(monkeypatch) -> list:
    """Record ``(neg_controls, columns)`` of every ``apply_matrix`` call
    from here on: the columns are those of its product, the selected block's
    size over the gate's rows."""
    calls = []
    apply_matrix = statevec.apply_matrix

    def spied(amps, matrix, targets, pos_controls=(), neg_controls=(), run=range(0), rows=None):
        view = qubit_view(amps, pos_controls, neg_controls, targets, run)
        if rows is not None:
            view = view[(slice(None),) * len(targets) + (slice(rows.start, rows.stop),)]
        calls.append((list(neg_controls), view.size >> len(targets)))
        apply_matrix(amps, matrix, targets, pos_controls, neg_controls, run, rows)

    monkeypatch.setattr(statevec, "apply_matrix", spied)
    return calls


def fill_cases(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """(fill, upto) pairs on and next to level boundaries 2^p - 1 and 2^p,
    and random ones, at most 24."""
    top = (1 << n) - 1
    edges = sorted({e for p in range(n + 1) for e in ((1 << p) - 1, 1 << p) if e <= top})
    cases = {(a, b) for a in edges for b in edges if a < b}
    cases |= {tuple(sorted(rng.choice(top + 1, size=2, replace=False).tolist())) for _ in range(8)}
    cases = sorted(cases)
    if len(cases) > 24:
        cases = [cases[i] for i in sorted(rng.choice(len(cases), size=24, replace=False))]
    return cases


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 13))
def test_insert_seq_matches_whole_register_levels(n, t):
    rng = np.random.default_rng(100 * n + t)
    for fill, upto in fill_cases(n, rng):
        db, expected = QdbState(schema(n), t), zero_register(n, t)
        if fill:
            db.insert_sequential(fill)
            whole_register_levels(expected, n, t, 0, fill)
            assert words(db.state.amps) == words(expected), fill
        db.insert_sequential(upto)
        whole_register_levels(expected, n, t, fill, upto)
        assert words(db.state.amps) == words(expected), (fill, upto)
        assert db.seq_fill() == upto


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("n", range(1, 13))
def test_insert_values_matches_whole_register_levels(n, t):
    rng = np.random.default_rng(200 * n + t)
    for fill, upto in fill_cases(n, rng):
        count = upto + 1
        records = sorted(rng.choice(1 << n, size=count, replace=False).tolist())
        db, expected = QdbState(schema(n), t), zero_register(n, t)
        if fill:
            db.insert_sequential(fill)
            whole_register_levels(expected, n, t, 0, fill)
        db.insert_values(records)
        whole_register_levels(expected, n, t, fill, upto)
        relabel(expected, n, t, count, records)
        assert words(db.state.amps) == words(expected), (fill, records)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_after_a_delete(t):
    # DELETE's post-selection zeroes the records it drops; INSERT SEQ then
    # refills them from the fill the register shows
    n = 6
    db = QdbState(schema(n), t).insert_sequential(40)
    db.delete(Comparison("k", ">", 20))
    assert db.seq_fill() == 20
    expected = db.state.amps.copy()
    db.insert_sequential(50)
    whole_register_levels(expected, n, t, 20, 50)
    assert words(db.state.amps) == words(expected)


def test_levels_restricted_to_the_prefix(monkeypatch):
    # (k:7) TEMP 2: level p leaves the lowest 2 of the bits above it free,
    # so its product is 16 columns per step; level 4 has only 2 bits above
    # it, and its 5 steps span the whole register's 16 columns each
    calls = spy_levels(monkeypatch)
    QdbState(schema(7), 2).insert_sequential(20)
    assert calls == [([0, 1, 2, 3], 16), ([0, 1, 2], 32), ([0, 1], 64), ([0], 128), ([], 80)]


def test_insert_seq_2047_at_2_20_amplitudes(monkeypatch):
    # 17 data and 3 temp qubits: the 11 levels multiply 16 columns per
    # record they add, where the whole register gives each 2^19
    calls = spy_levels(monkeypatch)
    QdbState(schema(17), 3).insert_sequential(2047)
    assert len(calls) == 11
    assert sum(columns for _, columns in calls) == 16 * 2047 <= 1 << 16


def with_amplitude(n: int, t: int, fill: int, index: int, value: complex) -> QdbState:
    """A register filled to ``fill`` with ``value`` at basis index ``index``
    added, entered through the constructor."""
    db = QdbState(schema(n), t).insert_sequential(fill)
    amps = db.state.amps.copy()
    amps[index] = value
    return QdbState(schema(n), t, state=StateVector(amps))


# a register the guard refuses: (t, basis index, value) in record 154 of
# (k:8) filled to 5.  Its low bits hold step values of levels 2 to 4, and
# its top bit keeps it out of every restricted level
NOT_PREFIX = {
    "negative zero": (2, (154 << 2) + 1, complex(-0.0, 0.0)),
    "negative zero imaginary part": (1, 154 << 1, complex(0.0, -0.0)),
    "dust": (2, 154 << 2, 1e-300),
    "temp residue": (3, (154 << 3) + 4, 1e-10),
}


@pytest.mark.parametrize("case", NOT_PREFIX)
def test_guard_falls_back_to_whole_register_levels(monkeypatch, case):
    n, fill, upto = 8, 5, 40
    t, index, value = NOT_PREFIX[case]
    db = with_amplitude(n, t, fill, index, value)
    assert db.seq_fill() == fill and not db.temp_alloc
    if case == "temp residue":
        # freed: its mass is below RESIDUE_TOL, but it is not exactly zero
        assert abs(value) ** 2 < RESIDUE_TOL and n not in db.clean_temps
    expected = db.state.amps.copy()
    calls = spy_levels(monkeypatch)
    db.insert_sequential(upto)
    whole_register_levels(expected, n, t, fill, upto)
    assert words(db.state.amps) == words(expected)
    assert all(neg == [] for neg, _ in calls) and len(calls) == 4


def test_norm_pass_reads_the_prefix(monkeypatch):
    # (k:12) TEMP 3: records 0 .. 2999 end in block 1 of the register's 2
    reads = []
    read = QdbState._read_state

    def spied(self, *args):
        result = read(self, *args)
        reads.append((args, result))
        return result

    monkeypatch.setattr(QdbState, "_read_state", spied)
    db = QdbState(schema(12), 3).insert_sequential(2999)
    [((stop,), (patterns, nonzero))] = reads
    assert stop == 3000 << 3 and db.state.amps.size == 2 * SCAN_BLOCK
    whole_patterns, whole_nonzero = read(db)
    assert patterns.tobytes() == whole_patterns.tobytes()
    assert np.array_equal(nonzero, whole_nonzero)
