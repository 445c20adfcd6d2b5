import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import dense_embed, identity, random_state
from refmodel import RefDb
from qqldb import boolcirc
from qqldb.boolcirc import MAX_EXPR_DEPTH, And, Comparison, Const, Not, Or, Var, truth_table
from qqldb.cli import Session
from qqldb.errors import (
    ArgumentError,
    CapacityError,
    ImpossibleOutcomeError,
    QqlError,
    SchemaError,
    ValidationError,
)
from qqldb.gates import HADAMARD, NOT
from qqldb.qdb import ApplyGate, ApplySwap, QdbState, SafeKey, TempUse
from qqldb.qlang import parse_predicate, render_expr
from qqldb.schema import Record, TableSchema
from qqldb.statevec import StateVector

ID2 = TableSchema("t", (("id", 2),))
ID3 = TableSchema("t", (("id", 3),))
INV_SQRT2 = 1 / np.sqrt(2)
MAX_DOUBLE = sys.float_info.max


def db2(t=1) -> QdbState:
    return QdbState(ID2, t=t)


def db3(t=1) -> QdbState:
    return QdbState(ID3, t=t)


def copied(state: StateVector) -> StateVector:
    return StateVector(state.amps.copy())


class TestCreate:
    def test_zero_state(self):
        db = QdbState(ID3, t=1)
        assert db.state.num_qubits == 4
        assert db.state.amps[0] == 1.0
        assert db.support().tolist() == [0]

    def test_capacity(self):
        wide = TableSchema("wide", (("a", 21),))
        with pytest.raises(CapacityError):
            QdbState(wide, t=2, max_qubits=22)

    def test_table_bound(self):
        # within the qubit capacity, but no WHERE could build a 2^21 table:
        # refused before the register is allocated
        wide = TableSchema("wide", (("a", 21),))
        with pytest.raises(CapacityError, match="21 data bits exceed the 20-bit table bound"):
            QdbState(wide, t=1, max_qubits=22)
        assert QdbState(TableSchema("t", (("a", 20),)), t=1).n == 20

    def test_width_sum(self):
        two_fields = TableSchema("t", (("a", 2), ("b", 1)))
        db = QdbState(two_fields, t=2)
        assert db.state.num_qubits == 5
        assert db.n == 3


class TestCreateFromState:
    """The constructor given a state reads the sequence fill off it and holds
    every temp that carries |1> mass."""

    @staticmethod
    def state_on(records, n, t):
        amps = np.zeros(1 << (n + t), dtype=complex)
        amps[np.array(records) << t] = 1 / np.sqrt(len(records))
        return StateVector(amps)

    def test_fill_is_read_off_the_records(self):
        # a state holding only record 3 is not a sequence: INSERT SEQ refuses
        db = QdbState(ID2, t=1, state=self.state_on([3], 2, 1))
        with pytest.raises(QqlError, match="sequential insert requires"):
            db.insert_sequential(2)
        assert db.support().tolist() == [3]
        db = QdbState(ID3, t=1, state=self.state_on([0, 1, 2], 3, 1))
        assert db.insert_sequential(4).support().tolist() == [0, 1, 2, 3, 4]

    def test_loaded_holds_temps_by_the_residue_rule(self):
        n, t = 2, 3
        amps = np.zeros(1 << (n + t), dtype=complex)
        # temp n carries 1e-11 of mass, temp n + 1 carries 1e-13, n + 2 none
        amps[(1 << t) | 0b100] = np.sqrt(1e-11)
        amps[(2 << t) | 0b010] = np.sqrt(1e-13)
        amps[3 << t] = np.sqrt(1 - 1e-11 - 1e-13)
        db = QdbState(ID2, t, state=StateVector(amps))
        assert db.temp_alloc == {n: TempUse("residue")}
        assert db.selects == {} and db.safe_key is None
        assert db.free_temps() == [n + 1, n + 2]

    def test_loaded_keeps_the_safe_key_and_no_fill(self):
        db = db2(t=2).insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        key = db.safe_key
        loaded = QdbState(ID2, 2, state=copied(db.state), safe_key=key)
        assert loaded.safe_key == key and loaded.seq_fill() is None
        assert loaded.temp_alloc == {key.qubit: TempUse("safe", key.expr)}

    def test_select_refuses_the_only_temp_while_it_carries_mass(self):
        # record 1 stored with its temp at |1>: a flag written onto that temp
        # would mix with what it holds
        amps = np.zeros(8, dtype=complex)
        amps[(1 << 1) | 1] = 1
        db = QdbState(ID2, 1, state=StateVector(amps.copy()))
        with pytest.raises(QqlError, match="no free temporary qubit"):
            db.select(Comparison("id", "=", 1))
        assert db.state.amps.tobytes() == amps.tobytes()
        assert db.temp_alloc == {2: TempUse("residue")}

    def test_select_takes_the_temp_after_a_residue(self):
        n, t = 2, 3
        amps = np.zeros(1 << (n + t), dtype=complex)
        amps[(1 << t) | 0b100] = amps[2 << t] = INV_SQRT2
        db = QdbState(ID2, t, state=StateVector(amps))
        assert db.temp_alloc == {n: TempUse("residue")}
        assert db.select(Comparison("id", "=", 1)) == n + 1

    def test_residue_rule_beside_a_safe_key(self):
        # a backup and a select flag outlive the engine; the register alone
        # keeps the flag's mass, which the new engine holds as a residue
        db = db2(t=3).insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        key = db.safe_key
        assert db.select(Comparison("id", "<", 2)) == key.qubit + 1
        rebuilt = QdbState(ID2, 3, state=copied(db.state), safe_key=key)
        assert rebuilt.temp_alloc == {
            key.qubit: TempUse("safe", key.expr), key.qubit + 1: TempUse("residue"),
        }
        assert rebuilt.select(Comparison("id", "=", 0)) == key.qubit + 2

    @pytest.mark.parametrize("qubit", [0, 1, 3, 7, -1])
    def test_refuses_a_safe_key_off_the_temps(self, qubit):
        # a data qubit would become the live-subspace control; a qubit off
        # the register would fail in a later statement
        state = db2().insert_bulk(2).state
        key = SafeKey(qubit, Comparison("id", "=", 3), 1)
        with pytest.raises(ArgumentError, match=f"^safe qubit {qubit} is not a temp qubit$"):
            QdbState(ID2, 1, state=state, safe_key=key)

    @pytest.mark.parametrize(
        "expr, message",
        [
            (Comparison("zz", "=", 1), "unknown field 'zz' in table 't'"),
            (Comparison("id", "=", 4), "literal 4 does not fit field 'id' of width 2"),
            (Or(Var("id"), Not(Var("k"))), "unknown field 'k' in table 't'"),
        ],
        ids=["unknown field", "wide literal", "nested unknown field"],
    )
    @pytest.mark.parametrize("given_state", [False, True])
    def test_refuses_a_safe_predicate_off_the_schema(self, expr, message, given_state):
        # such a key used to enter through the API and be saved to a file
        # that LOAD refused
        amps = db2().insert_bulk(2).state.amps
        state = StateVector(amps.copy()) if given_state else None
        with pytest.raises(SchemaError, match=f"^{message}$"):
            QdbState(ID2, 1, state=state, safe_key=SafeKey(2, expr, 0))
        assert state is None or state.amps.tobytes() == amps.tobytes()

    @pytest.mark.parametrize("given_state", [False, True])
    def test_refuses_a_safe_constant_not_0_or_1(self, given_state):
        amps = db2().insert_bulk(2).state.amps
        state = StateVector(amps.copy()) if given_state else None
        with pytest.raises(ArgumentError, match="^constant must be 0 or 1$"):
            QdbState(ID2, 1, state=state, safe_key=SafeKey(2, Const(2), 0))
        assert state is None or state.amps.tobytes() == amps.tobytes()

    @pytest.mark.parametrize(
        "state", [np.zeros(8, dtype=complex), [1, 0, 0, 0, 0, 0, 0, 0]], ids=["ndarray", "list"]
    )
    def test_refuses_a_state_that_is_not_a_state_vector(self, state):
        before = np.array(state, dtype=complex).tobytes()
        with pytest.raises(ArgumentError, match="^state must be a StateVector, not "):
            QdbState(ID2, 1, state=state)
        assert np.array(state, dtype=complex).tobytes() == before

    @pytest.mark.parametrize("t", [1, 3])
    def test_refuses_a_state_of_another_size(self, t):
        state = db2(t=2).state
        with pytest.raises(ArgumentError, match="^provided state does not match"):
            QdbState(ID2, t, state=state)

    def test_refuses_a_register_that_is_not_a_unit_vector(self):
        # amplitudes 3 and 4: an engine on it would report a DELETE
        # probability of 16
        amps = np.zeros(8, dtype=complex)
        amps[[0, 2]] = [3, 4]
        with pytest.raises(ValidationError, match=r"^state norm 5\.0 is not 1 within 1e-09$"):
            QdbState(ID2, 1, state=StateVector(amps))

    @pytest.mark.parametrize(
        "parts",
        [
            *(pytest.param({5: complex(0, part)}, id=str(part))
              for part in [np.nan, np.inf, -np.inf, 1e200, 0.5]),
            pytest.param({0: complex(0.6, np.nan), 1: 0.8}, id="nan beside a unit vector"),
            pytest.param({0: np.inf}, id="inf real"),
            pytest.param({1: complex(0, -np.inf)}, id="-inf imaginary"),
            pytest.param({0: MAX_DOUBLE, 1: np.nan}, id="max and nan"),
            pytest.param({0: MAX_DOUBLE, 1: MAX_DOUBLE}, id="max twice"),
            pytest.param({1: complex(0, -MAX_DOUBLE)}, id="-max imaginary"),
            pytest.param({0: 1 + 1e-6}, id="1 + 1e-6"),
            pytest.param({1: 0.5j}, id="0.5j"),
        ],
    )
    def test_refuses_a_part_that_breaks_the_norm(self, parts):
        # raised as ValidationError, not as an overflow or invalid-value
        # warning of the pass
        amps = np.zeros(8, dtype=complex)
        amps[list(parts)] = list(parts.values())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^state norm .* is not 1 within 1e-09$"):
                QdbState(ID2, 1, state=StateVector(amps))

    @pytest.mark.parametrize("t", [1, 2, 3, 14, 15])
    @pytest.mark.parametrize("backup", [False, True])
    def test_loaded_fill_and_residue_match_two_passes(self, t, backup):
        # the fill by the rule written out, and the held temps by a pass of
        # their own over the temp patterns
        rng = np.random.default_rng(t)
        n = 16 - t
        amps = np.zeros(1 << (n + t), dtype=complex)
        rows = np.arange(1 << n)
        scattered = rng.choice(rows, min(50, rows.size), replace=False)
        for live in (rows[: rng.integers(1, 1 << n)], scattered):
            amps[:] = 0
            amps.reshape(1 << n, -1)[live, 0] = rng.normal(size=live.size)
            amps.reshape(1 << n, -1)[live[::3], -1] = 1e-7 * rng.normal(size=live[::3].size)
            amps /= np.linalg.norm(amps)
            schema = TableSchema("t", (("k", n),))
            key = SafeKey(n, Const(1), 1) if backup else None
            db = QdbState(schema, t, state=StateVector(amps.copy()), safe_key=key)
            found = db.support()
            sequential = not backup and np.array_equal(found, np.arange(found.size))
            fill = found.size - 1 if sequential else None
            patterns = np.zeros(1 << t)
            step = max(1 << 14, 1 << t)
            for start in range(0, amps.size, step):
                part = amps[start : start + step]
                patterns += (part.real**2 + part.imag**2).reshape(-1, 1 << t).sum(axis=0)
            held = {n + j for j in range(t) if patterns.reshape(1 << j, 2, -1)[:, 1].sum() >= 1e-12}
            assert db.seq_fill() == fill
            assert set(db.temp_alloc) == held | ({n} if backup else set())

    @pytest.mark.parametrize("t", [1, 2, 5, 15, 16])
    def test_loaded_masses_match_probability_of(self, t):
        # blocks of 2^14 amplitudes hold whole temp patterns also when t > 14
        rng = np.random.default_rng(t)
        n = 17 - t
        amps = rng.normal(size=1 << (n + t)) + 0j
        empty = [q for q in range(n, n + t) if rng.random() < 0.5]
        for q in empty:
            amps.reshape(1 << q, 2, -1)[:, 1] = 0
        amps /= np.linalg.norm(amps)
        db = QdbState(TableSchema("t", (("k", n),)), t, state=StateVector(amps))
        expected = [q for q in range(n, n + t) if db.state.probability_of(q, 1) >= 1e-12]
        assert sorted(db.temp_alloc) == expected
        assert sorted(set(range(n, n + t)) - set(expected)) == sorted(empty)


class TestInsertBulk:
    def test_full_superposition(self):
        db = db3().insert_bulk(3)
        assert db.support().tolist() == list(range(8))
        view = db.state.amps.reshape(8, 2)
        assert np.allclose(view[:, 0], 1 / np.sqrt(8))

    def test_zero_is_noop(self):
        db = db3().insert_bulk(0)
        assert db.support().tolist() == [0]

    def test_partial_superposition(self):
        db = db3().insert_bulk(2)
        assert db.support().tolist() == [0, 1, 2, 3]
        view = db.state.amps.reshape(8, 2)
        assert np.allclose(view[[0, 1, 2, 3], 0], 0.5)

    def test_exponent_out_of_range(self):
        with pytest.raises(ValueError):
            db3().insert_bulk(4)

    def test_nan_amplitude_fails_the_norm_check(self):
        # NaN compares false with everything, so a norm check written as
        # "drift > tolerance" would let it through
        db = db3()
        db.state.amps[-1] = np.nan
        with pytest.raises(ValidationError, match="nan"):
            db.insert_bulk(2)


class TestInsertNeedsFreeTemps:
    """An INSERT's Hadamards act in every temp branch, so every INSERT
    refuses while a temp is held, and INSERT ALL also on a non-fresh
    database; the refusal comes before any kernel."""

    @staticmethod
    def refused(setup: str, statement: str, cause: str) -> Session:
        session = Session()
        session.execute_text(setup)
        db = session.db
        before = (db.state.amps.tobytes(), dict(db.temp_alloc), db.safe_key)
        with pytest.raises(QqlError, match=cause):
            session.execute_text(statement)
        assert (db.state.amps.tobytes(), db.temp_alloc, db.safe_key) == before
        return session

    def test_insert_all_under_a_select_flag(self):
        # the flag would be copied onto every new record
        session = self.refused("CREATE TABLE t (k:2) TEMP 2; SELECT c WHERE k = 0;",
                               "INSERT ALL 2;", "every temporary qubit to be free")
        assert session.db.selects == {"c": 2}

    @pytest.mark.parametrize("statement", ["INSERT SEQ 2;", "INSERT VALUES |01>, |10>;"])
    def test_insert_under_a_select_flag(self, statement):
        self.refused("CREATE TABLE t (k:2) TEMP 2; SELECT c WHERE k = 0;",
                     statement, "every temporary qubit to be free")

    def test_a_drained_select_flag_is_freed_first(self, tmp_path):
        # the flag of a SELECT that matches no record carries no mass: INSERT
        # frees it, as a LOAD of the register does, so the session and its
        # SAVE/LOAD copy accept the INSERT alike
        path = tmp_path / "drained.qdb"
        live, loaded = Session(), Session()
        live.execute_text("CREATE TABLE t (k:2) TEMP 2; INSERT SEQ 1; SELECT c WHERE k = 3;")
        live.execute_text(f'SAVE "{path}";')
        loaded.execute_text(f'LOAD "{path}";')
        for session in (live, loaded):
            outputs = session.execute_text("INSERT SEQ 2;")
            assert outputs == ["ok: insert sequential to 2; support size 3"]
            assert session.db.temp_alloc == {}
        assert live.db.state.amps.tobytes() == loaded.db.state.amps.tobytes()

    def test_refusal_names_the_temps_that_stay_held(self):
        # c flags no record and would be freed, d flags record 1 and stays
        setup = ("CREATE TABLE t (k:2) TEMP 3; INSERT SEQ 1; "
                 "SELECT c WHERE k = 3; SELECT d WHERE k = 1;")
        session = self.refused(setup, "INSERT SEQ 2;", r"free \(held: 3\)$")
        assert session.db.selects == {"c": 2, "d": 3}

    def test_insert_all_under_a_backup(self):
        # the Hadamards would re-spread the protected copy; the restore then
        # gives what it gives without the refused statement
        setup = "CREATE TABLE t (k:2) TEMP 1; INSERT VALUES |01>, |10>; BACKUP WHERE k = 1;"
        session = self.refused(setup, "INSERT ALL 1;", "bulk insert requires a fresh database")
        plain = Session()
        plain.execute_text(setup)
        assert session.execute_text("RESTORE PURGE; SHOW;") == plain.execute_text(
            "RESTORE PURGE; SHOW;")

    def test_insert_all_on_a_filled_database(self):
        self.refused("CREATE TABLE t (k:2) TEMP 1; INSERT SEQ 1;",
                     "INSERT ALL 1;", "bulk insert requires a fresh database")

    def test_insert_all_on_the_fresh_record(self):
        db = db2().insert_bulk(0)
        assert db.insert_bulk(2).support().tolist() == [0, 1, 2, 3]


class TestInsertSequential:
    def test_two_steps_amplitudes(self):
        db = db3().insert_sequential(2)
        view = db.state.amps.reshape(8, 2)
        assert db.support().tolist() == [0, 1, 2]
        assert np.allclose(view[[0, 1, 2], 0], [0.5, INV_SQRT2, 0.5])

    @pytest.mark.parametrize("upto", range(1, 8))
    def test_support_is_prefix(self, upto):
        db = db3().insert_sequential(upto)
        assert db.support().tolist() == list(range(upto + 1))

    def test_incremental_continuation(self):
        db = db3().insert_sequential(2).insert_sequential(6)
        assert db.support().tolist() == list(range(7))

    def test_completes_register(self):
        db = db3().insert_sequential(7)
        assert db.support().tolist() == list(range(8))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            db3().insert_sequential(8)
        with pytest.raises(ValueError):
            db3().insert_sequential(0)

    def test_non_sequential_state_rejected(self):
        db = db3().insert_sequential(2)
        db.update([(1, 5)])
        with pytest.raises(QqlError):
            db.insert_sequential(4)

    def test_already_filled(self):
        db = db3().insert_sequential(5)
        with pytest.raises(ValueError):
            db.insert_sequential(3)


def seq_step_dense(k: int, n: int = 3) -> np.ndarray:
    """Dense matrix of sequential-insert step k, built via the independent
    controlled-embedding oracle."""
    p = k.bit_length() - 1
    target = n - 1 - p
    pos = [n - 1 - j for j in range(p) if (k >> j) & 1]
    neg = [n - 1 - j for j in range(p) if not (k >> j) & 1]
    return dense_embed(HADAMARD.matrix, [target], n, pos, neg)


class TestSequentialStepMatrices:
    def test_first_three_steps_equal_bulk_two_qubit_layer(self):
        # running steps 1..3 must equal the bulk layer that inserts four
        # records at once: Hadamard on both low data qubits
        product = seq_step_dense(3) @ seq_step_dense(2) @ seq_step_dense(1)
        bulk = np.kron(np.eye(2), np.kron(HADAMARD.matrix, HADAMARD.matrix))
        assert np.max(np.abs(product - bulk)) < 1e-12

    def test_each_step_adds_exactly_one_record(self):
        state = np.zeros(8, dtype=complex)
        state[0] = 1.0
        for k in range(1, 8):
            state = seq_step_dense(k) @ state
            support = sorted(np.nonzero(np.abs(state) > 1e-12)[0].tolist())
            assert support == list(range(k + 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_engine_matches_dense_matrices_exhaustively(self, n):
        schema = TableSchema("t", (("id", n),))
        db = QdbState(schema, t=1)
        dense_state = np.zeros(1 << n, dtype=complex)
        dense_state[0] = 1.0
        for k in range(1, 1 << n):
            db.insert_sequential(k)
            dense_state = seq_step_dense(k, n) @ dense_state
            engine_state = db.state.amps.reshape(1 << n, 2)[:, 0]
            assert np.max(np.abs(engine_state - dense_state)) < 1e-12
            assert db.support().tolist() == list(range(k + 1))


class TestInsertValues:
    def test_specific_records(self):
        db = db3().insert_values([5, 2, 7])
        assert db.support().tolist() == [2, 5, 7]

    def test_zero_record_alone_is_noop(self):
        db = db3().insert_values([0])
        assert db.support().tolist() == [0]
        assert np.allclose(db.state.amps[0], 1.0)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            db3().insert_values(list(range(9)))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            db3().insert_values([1, 1])

    def test_matches_direct_permutation_composition(self):
        # oracle: amplitudes of the sequential state, relabeled by an
        # explicitly composed permutation of basis indices
        requested = [6, 0, 3]
        db = db3().insert_values(requested)
        reference = db3().insert_sequential(2)
        amps = reference.state.amps.copy()
        sequence, target = {0, 1, 2}, set(requested)
        perm = np.arange(16)
        for a, b in zip(sorted(sequence - target), sorted(target - sequence)):
            perm[[2 * a, 2 * a + 1, 2 * b, 2 * b + 1]] = perm[
                [2 * b, 2 * b + 1, 2 * a, 2 * a + 1]
            ]
        expected = np.zeros_like(amps)
        expected[perm] = amps
        assert np.allclose(db.state.amps, expected)

    def test_record_objects_accepted(self):
        db = QdbState(TableSchema("t", (("a", 2), ("b", 1))), t=1)
        db.insert_values([Record((1, 1)), Record((0, 1))])
        assert db.support().tolist() == [1, 3]

    @pytest.mark.parametrize(
        "records", [np.array([[0, 5], [6, 7]]), np.array([[1]]), np.array(5)]
    )
    def test_array_not_1d_refused_before_a_kernel(self, records):
        # a 2-D array used to run the sequential steps, then fail in np.stack
        # with record 1 already inserted
        db = QdbState(TableSchema("t", (("k", 3),)), t=2)
        amps = db.state.amps.tobytes()
        with pytest.raises(ArgumentError, match="^record indices must be a 1-D array"):
            db.insert_values(records)
        assert db.state.amps.tobytes() == amps and db.temp_alloc == {}

    @pytest.mark.parametrize(
        "records, shown",
        [([[0, 5], [6, 7]], "[0, 5]"), (["a"], "'a'"), ([(0,)], "(0,)"), ([3, None], "None"),
         ([float("inf")], "inf"), ([0.0, 5.9], "0.0"), (["3", True], "'3'"),
         (np.array([1.0, 2.0]), repr(np.float64(1.0))), ([True, 3], "True"),
         ([2, False], "False")],
        ids=["nested lists", "text", "tuple", "None", "infinity", "floats", "digits",
             "float array", "true", "false"],
    )
    def test_record_not_an_index_refused_before_a_kernel(self, records, shown):
        # int() of such a record used to raise a raw TypeError or ValueError,
        # or to insert records 0 and 5 for [0.0, 5.9] and 1 and 3 for ["3", True]
        db = QdbState(TableSchema("t", (("k", 3),)), t=2)
        amps = db.state.amps.tobytes()
        with pytest.raises(ArgumentError) as failure:
            db.insert_values(records)
        assert str(failure.value) == f"record {shown} is not an integer"
        assert db.state.amps.tobytes() == amps and db.temp_alloc == {}

    @pytest.mark.parametrize(
        "records", [[5, 2, 7], [1, 2, 0], [7], [1, 9, -1], [-1, 9], [3, 6, 3], list(range(9))]
    )
    def test_integer_array_checked_like_a_list(self, records):
        outcomes = []
        for given in (records, np.array(records, dtype=np.int64)):
            db = db3()
            try:
                db.insert_values(given)
                outcomes.append(db.state.amps.tobytes())
            except (QqlError, ValueError) as exc:
                outcomes.append((type(exc), str(exc), db.state.amps.tobytes()))
        assert outcomes[0] == outcomes[1]


class TestUpdate:
    def test_known_five_record_example(self):
        db = db3().insert_values([0, 2, 3, 5, 6])
        before = db.state.amps.reshape(8, 2)[:, 0].copy()
        db.update([(3, 7)])
        after = db.state.amps.reshape(8, 2)[:, 0]
        assert db.support().tolist() == [0, 2, 5, 6, 7]
        # the moved record keeps its amplitude; all others untouched
        assert after[7] == pytest.approx(before[3])
        for untouched in (0, 2, 5, 6):
            assert after[untouched] == pytest.approx(before[untouched])

    def test_twice_undoes(self):
        db = db3().insert_values([0, 2, 3, 5, 6])
        before = db.state.amps.copy()
        db.update([(3, 7)])
        db.update([(3, 7)])
        assert np.allclose(db.state.amps, before)

    def test_two_swaps_at_once(self):
        db = db3().insert_values([0, 2, 3, 5, 6])
        db.update([(0, 4), (2, 1)])
        assert db.support().tolist() == [1, 3, 4, 5, 6]

    def test_amplitude_multiset_invariant(self):
        db = db3().insert_sequential(4)
        before = sorted(np.abs(db.state.amps).tolist())
        db.update([(1, 6), (2, 7)])
        assert sorted(np.abs(db.state.amps).tolist()) == pytest.approx(before)

    def test_uniqueness_violation(self):
        db = db3().insert_values([1, 2])
        with pytest.raises(SchemaError):
            db.update([(1, 2)])

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError):
            db3().update([(1, 2), (2, 3)])

    @pytest.mark.parametrize(
        "pairs",
        [np.array([1, 2, 5]), np.array([[1], [2], [5]]), np.array([1, 2, 3, 4]),
         np.array([[3, 4, 5], [6, 7, 0]]), [(1, 2, 3)], [1, 2]],
    )
    def test_array_not_of_pairs_refused(self, pairs):
        # an odd-sized array used to fail in a reshape, one of shape (2, 3)
        # ran as three pairs, and unpacking a sequence such as [(1, 2, 3)]
        # or [1, 2] raised a raw ValueError or TypeError
        db = db3(t=2).insert_values([1, 2])
        db.select(Comparison("id", "=", 1))
        amps, alloc = db.state.amps.tobytes(), dict(db.temp_alloc)
        with pytest.raises(ArgumentError, match=r"^update pairs must be of shape \(k, 2\), not "):
            db.update(pairs)
        assert db.state.amps.tobytes() == amps and db.temp_alloc == alloc

    @pytest.mark.parametrize(
        "pairs, shown",
        [([((0,), 1)], "(0,)"), ([(1, 2), (3, "a")], "'a'"), ([([0, 5], 6)], "[0, 5]"),
         ([(1.5, 6)], "1.5"), ([(True, 4)], "True")],
        ids=["tuple", "text", "list", "float", "bool"],
    )
    def test_record_not_an_index_refused(self, pairs, shown):
        db = db3(t=2).insert_values([1, 2])
        db.select(Comparison("id", "=", 1))
        amps, alloc = db.state.amps.tobytes(), dict(db.temp_alloc)
        with pytest.raises(ArgumentError) as failure:
            db.update(pairs)
        assert str(failure.value) == f"record {shown} is not an integer"
        assert db.state.amps.tobytes() == amps and db.temp_alloc == alloc

    def test_records_as_field_tuples(self):
        db = db2().insert_bulk(1)  # support {0, 1}
        db.update([(Record((1,)), Record((3,)))])
        assert db.support().tolist() == [0, 3]

    def test_first_colliding_pair_is_reported(self):
        db = db3().insert_values([1, 2, 3, 4])
        with pytest.raises(SchemaError, match="record 4 already exists"):
            db.update([(5, 6), (3, 4), (1, 2)])

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0, 4), (2, 1)], [(5, 6), (3, 4), (1, 2)], [(1, 2), (2, 7)], [(1, 8)],
            [(-1, 7), (9, 0)],
        ],
    )
    def test_integer_array_checked_like_a_list(self, pairs):
        outcomes = []
        for given in (pairs, np.array(pairs, dtype=np.int64)):
            db = db3().insert_values([0, 2, 3, 4])
            try:
                db.update(given)
                outcomes.append(db.state.amps.tobytes())
            except (QqlError, ValueError) as exc:
                outcomes.append((type(exc), str(exc), db.state.amps.tobytes()))
        assert outcomes[0] == outcomes[1]


class TestSelect:
    def test_flag_entangles_matching_records(self):
        db = db2(t=1).insert_bulk(2)
        flag = db.select(Comparison("id", "=", 3))
        assert flag == 2
        view = db.state.amps.reshape(4, 2)
        assert view[3, 0] == 0
        assert view[3, 1] == pytest.approx(0.5)
        for other in (0, 1, 2):
            assert view[other, 0] == pytest.approx(0.5)
            assert view[other, 1] == 0

    def test_const_zero_keeps_flag_clean(self):
        db = db2(t=1).insert_bulk(2)
        flag = db.select(Const(0))
        assert db.state.probability_of(flag, 1) == 0

    def test_two_selects_on_disjoint_predicates(self):
        db = db2(t=2).insert_bulk(2)
        db.select(Comparison("id", "=", 1))
        db.select(Comparison("id", ">=", 2))
        # expected full state assembled by hand: flags (f1, f2) per record
        expected = np.zeros(16, dtype=complex)
        for rec in range(4):
            f1 = int(rec == 1)
            f2 = int(rec >= 2)
            expected[(rec << 2) | (f1 << 1) | f2] = 0.5
        assert np.allclose(db.state.amps, expected)

    def test_no_free_temp(self):
        db = db2(t=1).insert_bulk(2)
        db.select(Const(1))
        with pytest.raises(QqlError):
            db.select(Const(1))

    def test_name_in_use_changes_nothing(self):
        db = db2(t=3).insert_bulk(2)
        db.select(Comparison("id", "=", 0), "c")
        amps, temps = db.state.amps.tobytes(), dict(db.temp_alloc)
        with pytest.raises(QqlError, match="select name 'c' is already in use"):
            db.select(Comparison("id", "=", 1), "c")
        assert db.state.amps.tobytes() == amps and db.temp_alloc == temps
        assert db.selects == {"c": 2}
        # nameless flags may be many
        assert db.select(Const(1)) == 3


def classical_apply_where(support, pred1, pred2, bit_mask):
    """Set-level oracle: flip bit_mask on records satisfying p1 AND NOT p2."""
    result = set()
    for rec in support:
        if pred1(rec) and not pred2(rec):
            result.add(rec ^ bit_mask)
        else:
            result.add(rec)
    return sorted(result)


class TestApplyWhere:
    def test_fig5_pipeline_against_classical_relabeling(self):
        db = db3(t=3).insert_bulk(3)
        c1 = db.select(Comparison("id", ">=", 4))
        c2 = db.select(Comparison("id", "=", 6))
        combiner = And(Var("c1"), Not(Var("c2")))
        # NOT on the last data qubit (bit 0 of id)
        db.apply_where({"c1": c1, "c2": c2}, combiner, ApplyGate(NOT, (2,)))
        expected = classical_apply_where(
            range(8), lambda r: r >= 4, lambda r: r == 6, 0b001
        )
        assert db.support().tolist() == expected

    def test_const_zero_combiner_is_noop(self):
        db = db2(t=2).insert_bulk(2)
        before = db.state.amps.copy()  # flags uncompute, so compare pre-select
        c1 = db.select(Comparison("id", "=", 1))
        db.apply_where({"c1": c1}, Const(0), ApplyGate(NOT, (1,)))
        assert np.allclose(db.state.amps, before)

    def test_identity_gate_is_noop(self):
        db = db2(t=2).insert_bulk(2)
        before = db.state.amps.copy()
        c1 = db.select(Comparison("id", "=", 1))
        db.apply_where({"c1": c1}, Var("c1"), ApplyGate(identity(1), (0,)))
        assert np.allclose(db.state.amps, before)

    def test_flags_freed_when_membership_preserved(self):
        db = db2(t=2).insert_bulk(2)
        c1 = db.select(Comparison("id", ">=", 2))
        # NOT on the low bit keeps id >= 2 membership intact
        db.apply_where({"c1": c1}, Var("c1"), ApplyGate(NOT, (1,)))
        assert db.free_temps() == [2, 3]
        assert db.support().tolist() == [0, 1, 2, 3]

    def test_dirty_flag_kept_as_residue(self):
        db = db2(t=2).insert_bulk(2)
        c1 = db.select(Comparison("id", "=", 1))
        # NOT on the low bit moves the matching record out of the predicate
        db.apply_where({"c1": c1}, Var("c1"), ApplyGate(NOT, (1,)))
        assert c1 not in db.free_temps()
        assert db.temp_alloc[c1].purpose == "residue"

    def test_swap_payload(self):
        db = db2(t=2).insert_bulk(2)
        c1 = db.select(Comparison("id", "<=", 1))
        db.apply_where({"c1": c1}, Var("c1"), ApplySwap(1, 2))
        # only the flagged component of record 1 moves; record 2's component
        # was unflagged and stays, so record 1 vanishes from the support
        assert db.support().tolist() == [0, 2, 3]

    @pytest.mark.parametrize(
        "operation",
        [
            ApplySwap(0, 99), ApplySwap(-1, 2), ApplyGate(NOT, (5,)), ApplyGate(NOT, (0, 1)),
            ApplySwap(1, 1),
        ],
    )
    def test_rejected_payload_leaves_state_untouched(self, operation):
        db = db2(t=3).insert_bulk(2)
        c1 = db.select(Comparison("id", "<=", 1))
        amps = db.state.amps.copy()
        alloc = dict(db.temp_alloc)
        # a record out of range is refused as UPDATE's and INSERT VALUES's are
        out_of_range = operation in (ApplySwap(0, 99), ApplySwap(-1, 2))
        with pytest.raises(SchemaError if out_of_range else ArgumentError):
            db.apply_where({"c1": c1}, Var("c1"), operation)
        assert db.state.amps.tobytes() == amps.tobytes()
        assert db.temp_alloc == alloc

    def test_requires_extra_temp(self):
        db = db2(t=1).insert_bulk(2)
        c1 = db.select(Const(1))
        with pytest.raises(QqlError):
            db.apply_where({"c1": c1}, Var("c1"), ApplyGate(NOT, (1,)))

    def test_combiner_table_over_the_bound_changes_nothing(self, monkeypatch):
        # the combiner's table is built, and fails, before its temp is taken
        session = Session()
        session.execute_text(
            "CREATE TABLE t (id:2) TEMP 4; INSERT ALL 2;"
            "SELECT c1 WHERE id >= 1; SELECT c2 WHERE id <= 2; SELECT c3 WHERE id != 2;"
        )
        db = session.db
        before = (db.state.amps.tobytes(), dict(db.temp_alloc), db.safe_key, dict(db.selects))
        monkeypatch.setattr(boolcirc, "MAX_TABLE_VARS", 2)
        with pytest.raises(SchemaError, match="table bound"):
            session.execute_text("APPLY NOT @ id BIT 0 WHEN c1 AND c2 AND c3;")
        assert (db.state.amps.tobytes(), db.temp_alloc, db.safe_key, db.selects) == before

    def test_apply_needs_no_register_sized_temporary(self):
        # 2^20 amplitudes; the flags are read in one blocked pass, not by a
        # sum over a half-register each
        session = Session()
        session.execute_text(
            "CREATE TABLE big (a:9, b:8) TEMP 3; INSERT ALL 17;"
            "SELECT x WHERE a < 256; SELECT y WHERE b >= 100;"
        )
        register = session.db.state.amps.nbytes
        for setup, apply in (("", "APPLY H @ a BIT 0 WHEN x AND y;"),
                             ("SELECT z WHERE a < 10;", "APPLY NOT @ b BIT 1 WHEN z;")):
            session.execute_text(setup)
            tracemalloc.start()
            try:
                session.execute_text(apply)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < register / 4, apply


class TestDelete:
    def test_uniform_delete_single_record(self):
        db = db2().insert_bulk(2)
        probability = db.delete(Comparison("id", "=", 3))
        assert probability == pytest.approx(0.75, abs=1e-12)
        assert db.support().tolist() == [0, 1, 2]
        view = db.state.amps.reshape(4, 2)
        assert np.allclose(view[[0, 1, 2], 0], 1 / np.sqrt(3))

    def test_const_zero_predicate(self):
        db = db2().insert_bulk(2)
        before = db.state.amps.copy()
        assert db.delete(Const(0)) == pytest.approx(1.0)
        assert np.allclose(db.state.amps, before)

    def test_all_match_is_impossible(self):
        db = db2().insert_bulk(2)
        with pytest.raises(ImpossibleOutcomeError):
            db.delete(Const(1))
        # failed delete must leave the state untouched and the temp free
        assert db.support().tolist() == [0, 1, 2, 3]
        assert db.free_temps() == [2]

    def test_probability_equals_nonmatching_mass(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            db = db3().insert_sequential(int(rng.integers(2, 8)))
            threshold = int(rng.integers(1, 8))
            view = db.state.amps.reshape(8, 2)
            mass = float(np.sum(np.abs(view[threshold:, 0]) ** 2))
            if mass > 1 - 1e-9:
                continue
            probability = db.delete(Comparison("id", ">=", threshold))
            assert probability == pytest.approx(1 - mass, abs=1e-12)

    def test_flag_qubit_freed(self):
        db = db2().insert_bulk(2)
        db.delete(Comparison("id", "=", 0))
        assert db.free_temps() == [2]

    def test_failed_delete_leaves_state_untouched(self):
        # 0.25 of the mass survives, below epsilon: the oracle is undone
        db = QdbState(ID2, t=2, epsilon=0.5).insert_sequential(3)
        amps, alloc = db.state.amps.tobytes(), dict(db.temp_alloc)
        with pytest.raises(ImpossibleOutcomeError):
            db.delete(Comparison("id", ">=", 1))
        assert db.state.amps.tobytes() == amps
        assert db.temp_alloc == alloc

    # a kept mass of 0.25 is sin^2(theta) for theta = pi / 6: one round of
    # amplification makes it sin^2(pi / 2) = 1, two or three rounds 0.25
    @pytest.mark.parametrize("amplify", [2, 3])
    def test_floor_applies_to_the_amplified_probability(self, amplify):
        db = QdbState(ID2, t=2, epsilon=0.5).insert_sequential(3)
        amps, alloc = db.state.amps.tobytes(), dict(db.temp_alloc)
        with pytest.raises(ImpossibleOutcomeError):
            db.delete(Comparison("id", ">=", 1), amplify)
        assert db.state.amps.tobytes() == amps
        assert db.temp_alloc == alloc
        probability = db.delete(Comparison("id", ">=", 1), amplify_iters=1)
        assert probability == pytest.approx(1.0, abs=1e-12)
        assert db.support().tolist() == [0]
        assert db.state.amps[0] == 1.0

    def test_delete_needs_no_register_copy(self):
        db = QdbState(TableSchema("t", (("k", 14),)), t=2).insert_sequential(3000)
        tracemalloc.start()
        try:
            db.delete(Comparison("k", "<", 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < db.state.amps.nbytes

    def test_amplified_delete_needs_no_register_copy(self):
        db = QdbState(TableSchema("t", (("k", 14),)), t=2).insert_sequential(3000)
        tracemalloc.start()
        try:
            db.delete(Comparison("k", "<", 1000), amplify_iters=10**30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < db.state.amps.nbytes

    @pytest.mark.parametrize(
        "iters", [1.5, 2.0, "1", None, True, False],
        ids=["half", "whole float", "text", "None", "true", "false"],
    )
    def test_amplify_count_must_be_an_integer(self, iters):
        # 1.5 used to report sin^2(4 theta), which no AMPLIFY q gives
        db = db3(t=2).insert_values([1, 2, 5])
        db.select(Comparison("id", "=", 1))
        amps, alloc = db.state.amps.tobytes(), dict(db.temp_alloc)
        with pytest.raises(ArgumentError) as failure:
            db.delete(Comparison("id", "=", 5), amplify_iters=iters)
        assert str(failure.value) == f"amplify_iters {iters!r} is not an integer"
        assert db.state.amps.tobytes() == amps and db.temp_alloc == alloc

    def test_numpy_integer_amplify_count_accepted(self):
        probabilities = []
        for iters in (1, np.int64(1)):
            db = db3().insert_bulk(3)
            probabilities.append(db.delete(Comparison("id", "=", 5), amplify_iters=iters))
        assert probabilities[0] == probabilities[1]

    def test_amplified_delete_reports_probability(self):
        # kept mass p = 7/8; one round gives sin^2(3 theta) = p (3 - 4p)^2
        db = db3().insert_bulk(3)
        plain = db3().insert_bulk(3)
        probability = db.delete(Comparison("id", "=", 5), amplify_iters=1)
        plain.delete(Comparison("id", "=", 5))
        assert probability == pytest.approx(0.875 * (3 - 4 * 0.875) ** 2, abs=1e-12)
        assert db.state.amps.tobytes() == plain.state.amps.tobytes()

    @pytest.mark.parametrize("amplify", [2**1023, 10**400])
    def test_huge_amplify_count_rejected_before_any_change(self, amplify):
        db = db2(t=2).insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        amps, alloc, key = db.state.amps.tobytes(), dict(db.temp_alloc), db.safe_key
        with pytest.raises(CapacityError):
            db.delete(Comparison("id", "=", 0), amplify)
        assert db.state.amps.tobytes() == amps
        assert db.temp_alloc == alloc
        assert db.safe_key == key

    def test_amplify_count_near_the_float_limit_runs(self):
        db = db2(t=2).insert_bulk(2)
        probability = db.delete(Comparison("id", "=", 0), 2**1022)
        assert 0 <= probability <= 1
        assert db.support().tolist() == [1, 2, 3]

    def test_amplified_delete_matches_reference_rounds(self):
        """On random real states, half of them under a backup: the register
        after DELETE ... AMPLIFY q is plain DELETE's bit for bit, and the
        reported probability is that of the reference model's q rounds."""
        rng = np.random.default_rng(61)
        case = 0
        while case < 200:
            n = int(rng.integers(1, 6))
            schema = TableSchema("t", (("id", n),))
            alpha = rng.normal(size=1 << n)
            alpha[rng.random(1 << n) < 0.3] = 0.0
            if not alpha.any():
                continue
            alpha /= np.linalg.norm(alpha)
            amps = np.zeros(1 << (n + 2), dtype=complex)
            amps[0::4] = alpha
            db = QdbState(schema, t=2, state=StateVector(amps))
            ref = RefDb(n, 2)
            ref.amps = {(r, 0): float(a) for r, a in enumerate(alpha) if a}
            if case % 2:
                literal = int(rng.integers(0, 1 << n))
                db.backup(Comparison("id", "<=", literal))
                ref.backup(lambda r, v=literal: r <= v)
            live = set(db.support())
            literal = int(rng.integers(0, 1 << n))
            if all(r >= literal for r in live):
                continue
            plain = QdbState(schema, t=2, state=copied(db.state))
            plain.safe_key, plain.temp_alloc = db.safe_key, dict(db.temp_alloc)
            q = int(rng.integers(0, 6))
            probability = db.delete(Comparison("id", ">=", literal), q)
            plain_probability = plain.delete(Comparison("id", ">=", literal))
            expected = ref.delete(lambda r: r >= literal, q)
            assert abs(probability - expected) < 1e-12, case
            if q == 0:
                assert probability == plain_probability, case
            assert db.state.amps.tobytes() == plain.state.amps.tobytes(), case
            assert set(db.support()) <= live, case
            assert db.support().tolist() == ref.support(), case
            # the reference's rounds may leave a global sign of -1
            view = db.state.amps.reshape(1 << n, 4)
            overlap = sum(view[key] * amp for key, amp in ref.amps.items())
            assert abs(abs(overlap) - 1) < 1e-12, case
            case += 1


class TestBackup:
    def test_uniform_example_amplitudes(self):
        db = db2().insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        view = db.state.amps.reshape(4, 2)
        assert np.allclose(view[:, 0], [0.25, 0.25, 0.25, 0.75])
        assert np.allclose(view[:, 1], [0, 0, 0, -0.5])
        assert abs(np.linalg.norm(db.state.amps) - 1) < 1e-9

    def test_match_count_on_safe_key(self):
        db = db3().insert_sequential(4)
        db.backup(Comparison("id", "<=", 2))
        assert db.safe_key.matches == 3

    def test_const_zero_inverts_about_global_mean(self):
        db = db2().insert_bulk(2)
        db.backup(Const(0))
        view = db.state.amps.reshape(4, 2)
        # no flag-1 part; every flag-0 amplitude maps to 2<a> - a = a (uniform)
        assert np.allclose(view[:, 1], 0)
        assert np.allclose(view[:, 0], 0.5)

    def test_single_active_backup(self):
        db = db2(t=2).insert_bulk(2)
        db.backup(Comparison("id", "=", 0))
        with pytest.raises(QqlError):
            db.backup(Comparison("id", "=", 1))

    def test_backup_formula_on_random_states(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            schema = TableSchema("r", (("id", n),))
            alpha = random_state(n, rng)
            amps = np.zeros(1 << (n + 1), dtype=complex)
            amps[0::2] = alpha
            db = QdbState(schema, t=1, state=StateVector(amps))
            threshold = int(rng.integers(1, 1 << n))  # leave both sides nonempty
            db.backup(Comparison("id", ">=", threshold))
            marked = np.arange(1 << n) >= threshold
            mean = alpha[~marked].sum() / (1 << n)
            view = db.state.amps.reshape(1 << n, 2)
            assert np.max(np.abs(view[~marked, 0] - (2 * mean - alpha[~marked]))) < 1e-12
            assert np.max(np.abs(view[marked, 0] - 2 * mean)) < 1e-12
            assert np.max(np.abs(view[marked, 1] + alpha[marked])) < 1e-12
            assert np.max(np.abs(view[~marked, 1])) < 1e-12


class TestSafeControlledOperations:
    def test_update_leaves_safe_untouched(self):
        db = db2().insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        safe_before = db.state.amps.reshape(4, 2)[:, 1].copy()
        db.update([(3, 1)])
        view = db.state.amps.reshape(4, 2)
        assert np.allclose(view[:, 1], safe_before)
        # live copies swapped: record 1 now carries the old record-3 amplitude
        assert view[1, 0] == pytest.approx(0.75)
        assert view[3, 0] == pytest.approx(0.25)

    def test_delete_leaves_safe_untouched(self):
        db = db2(t=2).insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        safe_mass_before = db.state.probability_of(2, 1)
        probability = db.delete(Comparison("id", "=", 0))
        assert probability < 1
        safe_mass_after = db.state.probability_of(2, 1)
        assert safe_mass_after > safe_mass_before  # renormalized upward, not erased
        assert 3 in db.support()

    def test_amplified_delete_leaves_safe_untouched(self):
        db = db2(t=2).insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        plain = QdbState(ID2, t=2, state=copied(db.state))
        plain.safe_key, plain.temp_alloc = db.safe_key, dict(db.temp_alloc)
        safe_before = db.state.amps.reshape(4, 4)[:, 2].copy()
        kept = plain.delete(Comparison("id", "=", 0))
        probability = db.delete(Comparison("id", "=", 0), amplify_iters=2)
        assert probability == pytest.approx(np.sin(5 * np.arcsin(np.sqrt(kept))) ** 2, abs=1e-12)
        assert db.state.amps.tobytes() == plain.state.amps.tobytes()
        # the protected copy is only renormalized with the rest of the kept mass
        assert np.allclose(db.state.amps.reshape(4, 4)[:, 2], safe_before / np.sqrt(kept))
        assert 3 in db.support() and 0 not in db.support()


class TestRestore:
    def test_backup_then_immediate_restore(self):
        db = db3().insert_bulk(3)
        db.backup(Comparison("id", "<=", 1))
        db.restore()
        assert 0 in db.support() and 1 in db.support()

    def test_restore_without_backup(self):
        with pytest.raises(QqlError):
            db2().restore()

    def test_corrupt_then_restore_recovers_record(self):
        db = db2().insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        db.update([(3, 1)])  # safe-controlled corruption
        db.restore()
        view = db.state.amps.reshape(4, 2)
        assert abs(view[3, 0]) > 1e-9  # |11> is live again
        assert 3 in db.support()

    def test_purge_clears_safe_key_and_frees_qubit(self):
        db = db2().insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        db.update([(3, 1)])
        probability = db.restore(purge=True)
        assert probability == pytest.approx(0.9375, abs=1e-12)
        assert db.safe_key is None
        assert db.free_temps() == [2]
        assert abs(np.linalg.norm(db.state.amps) - 1) < 1e-9

    def test_restore_without_purge_keeps_key(self):
        db = db2().insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        assert db.restore() is None
        assert db.safe_key is not None


class TestMeasure:
    def test_uniform_histogram(self):
        db = db2().insert_bulk(2)
        histogram = db.measure_records(4096, seed=3)
        assert sum(histogram.values()) == 4096
        for record, count in histogram.items():
            assert abs(count - 1024) <= 150

    def test_zero_state_is_deterministic(self):
        histogram = db3().measure_records(50, seed=0)
        assert histogram == {Record((0,)): 50}

    def test_seed_reproducibility(self):
        db = db2().insert_bulk(2)
        assert db.measure_records(200, seed=9) == db.measure_records(200, seed=9)

    def test_temp_bits_marginalized(self):
        db = db2(t=2).insert_bulk(2)
        db.select(Comparison("id", "=", 1))  # entangles a temp qubit
        histogram = db.measure_records(2000, seed=5)
        assert set(histogram) == {Record((r,)) for r in range(4)}

    @pytest.mark.parametrize(
        "shots", [2.5, 10.0, "10", None, True, False],
        ids=["half", "whole float", "text", "None", "true", "false"],
    )
    def test_shots_must_be_an_integer(self, shots):
        # a float count used to end in an AttributeError inside the sampler
        db = db2(t=2).insert_bulk(2)
        db.select(Comparison("id", "=", 1))
        amps, alloc = db.state.amps.tobytes(), dict(db.temp_alloc)
        with pytest.raises(ArgumentError) as failure:
            db.measure_counts(shots, 1)
        assert str(failure.value) == f"shots {shots!r} is not an integer"
        assert db.state.amps.tobytes() == amps and db.temp_alloc == alloc

    def test_numpy_integer_shots_accepted(self):
        # they used to end in an AttributeError inside the sampler
        db = db2().insert_bulk(2)
        indices, counts = db.measure_counts(np.int64(10), 1)
        expected_indices, expected_counts = db.measure_counts(10, 1)
        assert indices.tolist() == expected_indices.tolist()
        assert counts.tolist() == expected_counts.tolist()


class TestShowState:
    def test_zero_state_single_row(self):
        indices, amplitudes = db3().show_state()
        assert indices.tolist() == [0]
        assert amplitudes.tolist() == [1.0]

    def test_backup_rows(self):
        db = db2().insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        indices, amplitudes = db.show_state()
        by_bits = {(index >> 1, index & 1): amp for index, amp in zip(indices.tolist(), amplitudes)}
        assert by_bits[(0, 0)] == pytest.approx(0.25)
        assert by_bits[(3, 0)] == pytest.approx(0.75)
        assert by_bits[(3, 1)] == pytest.approx(-0.5)

    def test_probabilities_sum_to_one(self):
        db = db3().insert_sequential(5)
        _, amplitudes = db.show_state()
        assert np.sum(np.abs(amplitudes) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_rows_sorted_by_index(self):
        db = db3().insert_bulk(3)
        indices, _ = db.show_state()
        assert np.all(np.diff(indices) > 0)

    def test_skips_amplitudes_below_threshold(self):
        amps = np.zeros(16, dtype=complex)
        amps[[1, 6, 9]] = [0.6, 1e-13, 0.8j]
        db = QdbState(ID3, t=1, state=StateVector(amps))
        indices, amplitudes = db.show_state()
        assert indices.tolist() == [1, 9]
        assert amplitudes.tolist() == [0.6, 0.8j]

    def test_blocks_match_one_scan(self):
        # 2^17 amplitudes, several scan blocks; parts on both sides of 1e-12
        rng = np.random.default_rng(17)
        amps = random_state(17, rng)
        amps[rng.random(amps.size) < 0.5] = 0
        tiny = rng.random(amps.size) < 0.2
        amps[tiny] = 1e-12 * rng.uniform(0.5, 1.5, tiny.sum()) * (1 + 1j) / np.sqrt(2)
        amps /= np.linalg.norm(amps)
        db = QdbState(TableSchema("t", (("k", 15),)), t=2, state=StateVector(amps))
        indices, amplitudes = db.show_state()
        expected = np.flatnonzero(amps.real**2 + amps.imag**2 >= 1e-24)
        assert indices.tobytes() == expected.tobytes()
        assert amplitudes.tobytes() == amps[expected].tobytes()

    def test_scan_needs_no_register_sized_temporary(self):
        # 2^20 amplitudes, 2^10 live records
        db = QdbState(TableSchema("t", (("k", 18),)), t=2).insert_sequential(1023)
        tracemalloc.start()
        try:
            indices, _ = db.show_state()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert indices.size == 1024
        assert peak < db.state.amps.nbytes / 8


def nested(kind, depth: int):
    """A left-deep chain of ``kind`` (And, Or or Not) whose deepest leaf sits
    at level ``depth``."""
    expr = Comparison("id", "=", 1)
    for level in range(depth - 1):
        expr = Not(expr) if kind is Not else kind(expr, Comparison("id", "=", level % 3))
    return expr


class TestPredicateDepth:
    """Predicates built through the API are held to the parser's depth bound
    before anything changes."""

    @pytest.mark.parametrize("kind", [And, Or, Not])
    def test_deepest_accepted_predicate_runs(self, kind):
        expr = nested(kind, MAX_EXPR_DEPTH)
        db = db3(t=3).insert_bulk(3)
        db.select(expr)
        db.backup(expr)
        db.delete(expr)

    @pytest.mark.parametrize("kind", [And, Or, Not])
    def test_renderer_and_evaluator_take_the_deepest_accepted_predicate(self, kind):
        expr = nested(kind, MAX_EXPR_DEPTH)
        assert parse_predicate(render_expr(expr)) == expr
        assert truth_table(expr, ID3).bits.shape == (1 << ID3.num_bits,)

    @pytest.mark.parametrize("kind", [And, Or, Not])
    def test_renderer_and_evaluator_reject_a_deep_predicate(self, kind):
        # both recurse; the bound keeps them far from the recursion limit
        expr = nested(kind, 3000)
        with pytest.raises(SchemaError, match="nested deeper"):
            render_expr(expr)
        with pytest.raises(SchemaError, match="nested deeper"):
            truth_table(expr, ID3)

    @pytest.mark.parametrize("depth", [MAX_EXPR_DEPTH + 1, 3000])
    @pytest.mark.parametrize("kind", [And, Or, Not])
    @pytest.mark.parametrize("backup", [False, True])
    def test_deeper_predicate_rejected_before_any_change(self, kind, depth, backup):
        db = db3(t=3).insert_bulk(3)
        if backup:
            db.backup(Comparison("id", "=", 2))
        amps, alloc, key = db.state.amps.tobytes(), dict(db.temp_alloc), db.safe_key
        expr = nested(kind, depth)
        operations = [db.select, db.delete] + ([] if backup else [db.backup])
        for operation in operations:
            with pytest.raises(SchemaError, match="nested deeper"):
                operation(expr)
            assert db.state.amps.tobytes() == amps
            assert db.temp_alloc == alloc and db.safe_key == key
