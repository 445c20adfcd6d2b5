"""Kernels skip the subspaces where a free temp whose |1> half is exactly
zero is 1: the restricted call gives the full call's register.

Registers are compared as ``(amps + 0.0).tobytes()``, which reads ``-0.0``
as ``+0.0`` (a full call can negate or move the zeros it walks), and every
nonzero amplitude must match word for word, zero signs of its parts
included.
"""

from itertools import combinations

import numpy as np
import pytest

from helpers import FullViewStatements
from qqldb.boolcirc import Comparison, Const, Or, TruthTable, Var, apply_oracle
from qqldb.cli import Session
from qqldb.diffusion import apply_partial_diffusion
from qqldb.gates import NOT, CnotGate
from qqldb.qdb import SUPPORT_TOL, ApplyGate, QdbState, SafeKey
from qqldb.schema import TableSchema
from qqldb.statevec import StateVector, qubit_view, swap


def same(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal after ``+ 0.0``, and equal word for word where nonzero."""
    nonzero = np.flatnonzero(a != 0)
    return (
        (a + 0.0).tobytes() == (b + 0.0).tobytes()
        and np.array_equal(nonzero, np.flatnonzero(b != 0))
        and a[nonzero].tobytes() == b[nonzero].tobytes()
    )


def held_at_zero(m: int, zero, rng: np.random.Generator) -> np.ndarray:
    """A unit vector over ``m`` qubits with zeros of both signs, whose |1>
    halves of the qubits ``zero`` hold only zeros, of both signs.  Index 0
    is nonzero, so post-selecting any qubit on 0 is possible."""
    size = 1 << m
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps[rng.random(size) < 0.2] = complex(-0.0, 0.0)
    amps[rng.random(size) < 0.2] = complex(0.0, -0.0)
    amps[0] = 0.5
    amps /= np.linalg.norm(amps)
    index = np.arange(size)
    for q in zero:
        ones = (index >> (m - 1 - q)) & 1 == 1
        amps[ones] = np.where(rng.random(np.count_nonzero(ones)) < 0.5, 0.0, -0.0)
    return amps


def subsets(items):
    return [list(c) for k in range(len(items) + 1) for c in combinations(items, k)]


def cases(n: int, own_temp: bool):
    """(t, own temp or None, temps held at zero) for t 1..4 and every subset
    of the temps that are not the kernel's own."""
    for t in range(1, 5):
        temps = list(range(n, n + t))
        own = temps[-1 - (n % t)] if own_temp else None
        for zero in subsets([q for q in temps if q != own]):
            yield t, own, zero


def run_both(m: int, zero, rng, kernel) -> None:
    amps = held_at_zero(m, zero, rng)
    full, restricted = StateVector(amps.copy()), StateVector(amps.copy())
    kernel(full, [])
    kernel(restricted, zero)
    assert same(restricted.amps, full.amps), zero


N = range(1, 13)


@pytest.mark.parametrize("n", N)
def test_oracle_row_sets(n):
    rng = np.random.default_rng(100 + n)
    for t, target, zero in cases(n, own_temp=True):
        table = TruthTable(n, rng.random(1 << n) < 0.5)

        def oracle(state, skipped):
            apply_oracle(state, table, list(range(n)), target, skipped)

        run_both(n + t, zero, rng, oracle)


@pytest.mark.parametrize("n", N)
def test_cnot_halves(n):
    rng = np.random.default_rng(200 + n)
    for t, _, zero in cases(n, own_temp=False):
        others = [q for q in range(n + t) if q not in zero]
        target = int(rng.choice(others))
        pool = [q for q in others if q != target]
        controls = frozenset(int(q) for q in pool if rng.random() < 0.3)
        gate = CnotGate(controls, target)
        run_both(n + t, zero, rng, lambda state, skipped: state.apply_cnot(gate, skipped))


@pytest.mark.parametrize("n", N)
def test_record_rows(n):
    rng = np.random.default_rng(300 + n)
    for t, _, zero in cases(n, own_temp=False):
        free = [q for q in range(n, n + t) if q not in zero]
        pos = [q for q in free if rng.random() < 0.4]
        pairs = rng.permutation(1 << n)[: 2 * int(rng.integers(0, (1 << n) // 2 + 1))]
        a, b = pairs.reshape(-1, 2).T

        def record_swap(state, skipped):
            swap(state.amps, a, b, pos, skipped, run=range(n))

        run_both(n + t, zero, rng, record_swap)


@pytest.mark.parametrize("n", N)
def test_partial_diffusion(n):
    rng = np.random.default_rng(400 + n)
    for t, flag, zero in cases(n, own_temp=True):
        run_both(
            n + t, zero, rng,
            lambda state, skipped: apply_partial_diffusion(state, n, flag, skipped),
        )


@pytest.mark.parametrize("n", N)
def test_postselect_zeroing(n):
    rng = np.random.default_rng(500 + n)
    # on 0, as DELETE and RESTORE PURGE post-select
    for t, flag, zero in cases(n, own_temp=True):

        def postselect(state, skipped):
            state.postselect(flag, 0, zero_qubits=skipped)

        run_both(n + t, zero, rng, postselect)


@pytest.mark.parametrize("n", range(1, 9))
def test_support_scan(n):
    """``support`` skips the clean temps only where at most two temp columns
    stay; its records are those of the whole view's row masses, also for rows
    whose mass lies near the threshold."""
    rng = np.random.default_rng(600 + n)
    schema = TableSchema("s", (("k", n),))
    for t, safe, zero in cases(n, own_temp=True):
        for key in (None, SafeKey(safe, Const(1), 0)):
            m = n + t
            amps = held_at_zero(m, zero, rng)
            rows = amps.reshape(1 << n, -1)
            rows[rng.random(1 << n) < 0.5] *= 10.0 ** rng.uniform(-12, -7)
            rows[rng.random(1 << n) < 0.2] = 0
            rows[0, 0] = 1.0
            amps /= np.linalg.norm(amps)
            db = QdbState(schema, t=t, state=StateVector(amps), safe_key=key)
            view = qubit_view(amps, (), [safe] if key else [], (), range(n))
            mass = (view.real**2 + view.imag**2).reshape(1 << n, -1).sum(axis=1)
            expected = np.flatnonzero(mass > SUPPORT_TOL * SUPPORT_TOL)
            assert np.array_equal(db.support(), expected), (t, key, zero)


# A record spread over four temp columns whose mass is just above the
# support threshold when summed over the whole row of eight, and exactly on
# it when summed over the four columns alone.
STRADDLE = [float.fromhex(h) for h in (
    "0x1.c657aeefacaadp-33", "0x1.20ca8ac06de9ep-31",
    "0x1.36ab11928cb1ap-31", "0x1.4ac7640c71b27p-31",
)]


def test_support_keeps_the_whole_row_where_four_columns_stay():
    """With one clean temp of three and the other two free but not clean,
    four columns stay: leaving out the zero columns would regroup the row's
    sum and drop record 1, which the whole row keeps."""
    schema = TableSchema("s", (("k", 2),))
    amps = np.zeros(1 << 5, dtype=complex)
    amps[(1 << 3) + np.array([0, 2, 4, 6])] = STRADDLE
    amps[0] = np.sqrt(1 - np.sum(np.square(STRADDLE)))
    rows = (amps.reshape(4, 8).real ** 2).sum(axis=1)
    assert rows[1] > SUPPORT_TOL**2 >= (amps.reshape(4, 8)[1, ::2].real ** 2).sum()
    db = QdbState(schema, t=3, state=StateVector(amps))
    assert db.temp_alloc == {} and db.clean_temps == {4}
    assert db.support().tolist() == [0, 1]


# ------------------------------------------------------------ the record

AB = TableSchema("t", (("a", 2), ("b", 2)))
N_AB, T_AB = 4, 3


def dusty(amplitude: float, pattern: int) -> np.ndarray:
    """Records 0..15 at 1/4 in temp pattern 0, and ``amplitude`` on records 2
    and 7 in temp ``pattern``: dust in the |1> half of a free temp."""
    amps = np.zeros(1 << (N_AB + T_AB), dtype=complex)
    amps[np.arange(16) << T_AB] = 0.25
    amps[(np.array([2, 7]) << T_AB) | pattern] = amplitude
    return amps


def zero_half(amps: np.ndarray, qubit: int) -> bool:
    return not np.any(amps.reshape(1 << qubit, 2, -1)[:, 1])


def check_record(db: QdbState) -> None:
    for q in db.clean_temps:
        assert q not in db.temp_alloc and zero_half(db.state.amps, q), q


@pytest.mark.parametrize("amplitude", [1e-13, 1e-200])
@pytest.mark.parametrize("pattern", [0b010, 0b001, 0b011])
def test_dust_in_a_free_temp_is_moved_as_on_the_full_view(amplitude, pattern):
    """A register from outside with dust in a free temp's |1> half: its
    mass (1e-26, or 0 where 1e-200 squares to 0) is below the release bound,
    so the temp is free, but it is not exactly zero, so no kernel skips it.
    After every statement the register is the full view's."""
    amps = dusty(amplitude, pattern)
    db = QdbState(AB, t=T_AB, state=StateVector(amps.copy()))
    ref = FullViewStatements(amps.copy(), AB)
    assert db.temp_alloc == {}
    assert db.clean_temps == {4, 5, 6} - {q for q in (4, 5, 6) if pattern >> (6 - q) & 1}
    c = Comparison("a", ">=", 1)

    def step(statement, *args):
        getattr(ref, statement)(*args)
        check_record(db)
        assert same(db.state.amps, ref.state.amps), statement

    flag = db.select(c)
    step("select", c, flag)
    combiner = db.free_temps()[0]
    db.apply_where({"c": flag}, Var("c"), ApplyGate(NOT, (1,)))
    step("apply_not", flag, c, combiner, 1)
    qubit = db.free_temps()[0]
    db.delete(Comparison("b", "=", 2))
    step("delete", Comparison("b", "=", 2), qubit)
    safe = db.free_temps()[0]
    protected = Or(Comparison("a", "=", 0), Comparison("b", "=", 3))
    db.backup(protected)
    step("backup", protected, safe)
    db.update([(1, 12), (3, 8)])
    step("update", [(1, 12), (3, 8)], safe)
    db.restore(purge=True)
    step("restore_purge", protected, safe)


def test_negative_zeros_leave_a_temp_clean():
    """Only a nonzero part holds a temp out of the record: ``-0.0`` is zero."""
    amps = dusty(0.0, 0b011)
    amps.view(np.float64)[1::2] = -0.0
    amps[(np.array([2, 7]) << T_AB) | 0b011] = complex(-0.0, -0.0)
    db = QdbState(AB, t=T_AB, state=StateVector(amps))
    assert db.clean_temps == {4, 5, 6}


def test_a_post_selected_flag_is_clean():
    db = QdbState(AB, t=T_AB).insert_bulk(4)
    db.delete(Comparison("b", "=", 1))  # takes temp 4, and no other is held
    assert db.clean_temps == {4, 5, 6}
    db.select(Comparison("a", "=", 1))
    db.backup(Comparison("b", "=", 2))
    assert db.clean_temps == {6}
    db.restore(purge=True)  # the safe key, temp 5, is post-selected
    assert db.clean_temps == {5, 6}
    check_record(db)


FREE_TEMPS_SCRIPT = """
CREATE TABLE t (a:3, b:2) TEMP 3;
INSERT ALL 4;
SELECT c WHERE a >= 2;
APPLY NOT @ b BIT 0 WHEN c;
SELECT d WHERE b = 1;
SELECT f WHERE a = 1;
APPLY SWAP |00001> TO |11101> WHEN d AND NOT f;
SELECT g WHERE b = 3;
APPLY H @ a BIT 1 WHEN g;
DELETE WHERE b = 2;
BACKUP WHERE a < 2 OR b = 3;
UPDATE SET |00011> TO |11100>, |00100> TO |10000>;
RESTORE;
SELECT e WHERE b = 0;
RESTORE PURGE;
DELETE WHERE a = 7 AMPLIFY 1;
"""


def test_the_record_holds_after_every_statement():
    """Each temp in ``clean_temps`` is free and its |1> half exactly zero."""
    session = Session()
    for statement in filter(None, (s.strip() for s in FREE_TEMPS_SCRIPT.split(";"))):
        session.execute_text(statement + ";")
        check_record(session.db)
    assert session.db.clean_temps
