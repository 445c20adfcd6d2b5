"""Every integer a caller hands the engine is read before the first kernel.

Each site below takes a count, index, qubit, width or literal through the
API.  A value that is not an integer (a float, a string, None, a ``bool`` or
a ``numpy.bool_``) must end in ``ArgumentError`` and leave the register, the
temp allocation, the safe key and ``clean_temps`` as they were, with every
clean temp's ``|1>`` half still exactly zero.  A numpy integer must act as
the Python int of the same value.

A statement built in code whose gate, bit, ket or field list is not of the
form the parser builds ends in a ``QqlError`` before any kernel, too.
"""

import numpy as np
import pytest

from qqldb.boolcirc import Comparison, Const, Not, Var
from qqldb.cli import Session
from qqldb.diffusion import apply_partial_diffusion
from qqldb.errors import ArgumentError, CompileError, QqlError, SchemaError
from qqldb.gates import HADAMARD
from qqldb.qdb import ApplyGate, ApplySwap, QdbState, SafeKey
from qqldb.qlang import (
    Apply, BitGate, CreateTable, Delete, FieldRec, InsertValues, KetRec, SwapGate, Update,
)
from qqldb.schema import Record, TableSchema
from qqldb.statevec import StateVector, Xorshift64Star, qubit_view

SCHEMA = TableSchema("t", (("a", 2), ("b", 2)))


def fresh() -> QdbState:
    return QdbState(SCHEMA, 3)


def busy() -> QdbState:
    """Records 0..5 with a select flag ``c`` on qubit 4; temps 5 and 6 are
    clean."""
    db = fresh().insert_sequential(5)
    db.select(Comparison("a", ">=", 1), "c")
    return db


# site: (database, call with the value, a valid integer for the site)
SITES = {
    "QdbState t": (fresh, lambda db, v: QdbState(SCHEMA, v), 2),
    "QdbState max_qubits": (fresh, lambda db, v: QdbState(SCHEMA, 3, v), 9),
    "SafeKey qubit": (
        busy, lambda db, v: QdbState(SCHEMA, 3, state=db.state, safe_key=SafeKey(v, Const(1), 0)),
        6,
    ),
    "SafeKey matches": (
        busy, lambda db, v: QdbState(SCHEMA, 3, state=db.state, safe_key=SafeKey(6, Const(1), v)),
        3,
    ),
    "insert_bulk r": (fresh, lambda db, v: db.insert_bulk(v), 2),
    "insert_sequential k": (fresh, lambda db, v: db.insert_sequential(v), 2),
    "insert_values record": (fresh, lambda db, v: db.insert_values([0, v]), 5),
    "update record": (busy, lambda db, v: db.update([(v, 9)]), 3),
    "ApplyGate target": (
        busy, lambda db, v: db.apply_where({"c": 4}, Var("c"), ApplyGate(HADAMARD, (v,))), 1,
    ),
    "ApplySwap index_a": (
        busy, lambda db, v: db.apply_where({"c": 4}, Var("c"), ApplySwap(v, 2)), 1,
    ),
    "ApplySwap index_b": (
        busy, lambda db, v: db.apply_where({"c": 4}, Var("c"), ApplySwap(1, v)), 9,
    ),
    "flag qubit": (busy, lambda db, v: db.apply_where({"c": v}, Var("c"), ApplySwap(1, 2)), 4),
    "delete amplify_iters": (busy, lambda db, v: db.delete(Comparison("a", "=", 1), v), 1),
    "measure shots": (busy, lambda db, v: db.measure_counts(v, 1), 10),
    "measure seed": (busy, lambda db, v: db.measure_counts(10, v), 7),
    "Xorshift64Star seed": (busy, lambda db, v: Xorshift64Star(v).next_u64(), 7),
    "StateVector.zero num_qubits": (fresh, lambda db, v: StateVector.zero(v), 3),
    "StateVector.zero max_qubits": (fresh, lambda db, v: StateVector.zero(3, v), 9),
    "apply_partial_diffusion n": (busy, lambda db, v: apply_partial_diffusion(db.state, v, 6), 4),
    "qubit_view qubit": (busy, lambda db, v: db.state.apply_controlled(HADAMARD, targets=[v]), 1),
    "postselect qubit": (busy, lambda db, v: db.state.postselect(v, 0), 4),
    "postselect bit": (busy, lambda db, v: db.state.postselect(4, v), 0),
    "Comparison literal": (busy, lambda db, v: db.backup(Comparison("a", ">", v)), 1),
    "Const value": (busy, lambda db, v: db.select(Const(v)), 1),
    "TableSchema width": (fresh, lambda db, v: QdbState(TableSchema("u", (("a", v),))), 2),
    "record value": (busy, lambda db, v: db.update([(SCHEMA.record(a=v), 9)]), 1),
    "encode value": (busy, lambda db, v: db.update([(Record((v, 0)), 9)]), 1),
    "decode index": (busy, lambda db, v: SCHEMA.decode(v), 5),
}

# 2.5 is the sequential insert that ran level 0's Hadamard before it raised
NOT_INTEGERS = {
    "1.5": 1.5, "2.5": 2.5, "float64": np.float64(2.0), "True": True, "bool_": np.True_,
    "text": "3", "None": None,
}


def snapshot(db: QdbState):
    return db.state.amps.tobytes(), dict(db.temp_alloc), db.safe_key, set(db.clean_temps)


def assert_clean_temps_zero(db: QdbState) -> None:
    for qubit in db.clean_temps:
        assert not np.any(qubit_view(db.state.amps, [qubit], (), ()))


@pytest.mark.parametrize("value", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
@pytest.mark.parametrize("site", SITES)
def test_not_an_integer_refused_before_a_kernel(site, value):
    make, call, _ = SITES[site]
    db = make()
    before = snapshot(db)
    with pytest.raises(ArgumentError, match="is not an integer$"):
        call(db, value)
    assert snapshot(db) == before
    assert_clean_temps_zero(db)


def outcome(db: QdbState, call, value):
    """What a call does: its result or its refusal, and the database after."""
    try:
        result = call(db, value)
    except QqlError as exc:
        result = (type(exc), str(exc))
    if isinstance(result, QdbState):
        result = snapshot(result)
    elif isinstance(result, StateVector):
        result = result.amps.tobytes()
    elif isinstance(result, tuple) and all(isinstance(r, np.ndarray) for r in result):
        result = [(r.dtype, r.tobytes()) for r in result]
    return repr(result), snapshot(db)


@pytest.mark.parametrize("kind", [np.int64, np.uint8])
@pytest.mark.parametrize("site", SITES)
def test_numpy_integer_acts_as_an_int(site, kind):
    make, call, valid = SITES[site]
    assert outcome(make(), call, kind(valid)) == outcome(make(), call, valid)


def test_flag_map_naming_one_qubit_twice_refused():
    # the two re-oracles on qubit 4 cancelled, and it was held as a residue
    db = busy()
    before = snapshot(db)
    with pytest.raises(ArgumentError, match="name one qubit twice$"):
        db.apply_where({"c": 4, "d": 4}, Var("c"), ApplySwap(1, 2))
    assert snapshot(db) == before


NOT_FLOORS = {
    "nan": np.nan, "inf": np.inf, "-inf": -np.inf, "negative": -0.25, "above 1": 1.5,
    "True": True, "bool_": np.True_, "text": "x", "None": None,
}


@pytest.mark.parametrize("value", NOT_FLOORS.values(), ids=NOT_FLOORS.keys())
def test_epsilon_not_a_floor_refused(value):
    with pytest.raises(ArgumentError, match="is not a real number from 0 to 1$"):
        QdbState(SCHEMA, 3, epsilon=value)
    db = busy()
    before = snapshot(db)
    with pytest.raises(ArgumentError, match="is not a real number from 0 to 1$"):
        db.state.postselect(4, 0, value)
    assert snapshot(db) == before


def fail(*args):
    raise MemoryError


@pytest.mark.parametrize("statement", ["delete", "restore purge"])
@pytest.mark.parametrize("how", ["probability_of raises", "epsilon not a floor"])
def test_failed_post_selection_undoes_its_oracle(monkeypatch, statement, how):
    """Any error from a post-selection, not only an impossible outcome,
    leaves the register, the temp records and ``clean_temps`` as they were.
    An epsilon of "x" used to raise after the oracle ran, leaving the marked
    records on a temp still listed in ``clean_temps``."""
    db = busy()
    if statement == "restore purge":
        db.backup(Comparison("b", "=", 0))
    before = snapshot(db)
    if how == "epsilon not a floor":
        db.epsilon = "x"
    else:
        monkeypatch.setattr(StateVector, "probability_of", fail)
    with pytest.raises(ArgumentError if how == "epsilon not a floor" else MemoryError):
        if statement == "delete":
            db.delete(Comparison("a", "=", 1))
        else:
            db.restore(purge=True)
    assert snapshot(db) == before
    assert_clean_temps_zero(db)


def api_session() -> Session:
    """A session on ``busy()``'s records and select flag ``c``."""
    session = Session()
    session.execute_text("CREATE TABLE t (a:2, b:2) TEMP 3; INSERT SEQ 5; SELECT c WHERE a >= 1;")
    return session


# command built in code: (error, message); "X" once ran a Hadamard, a field
# assigned twice took its last value, and the others raised a raw
# TypeError, ValueError or AttributeError
HOSTILE_COMMANDS = {
    "unknown gate": (Apply(BitGate("X", "a", 0), Var("c")),
                     CompileError, "unknown gate 'X'; expected NOT or H"),
    "gate not a name": (Apply(BitGate(None, "a", 0), Var("c")),
                        CompileError, "unknown gate None; expected NOT or H"),
    "bit a string": (Apply(BitGate("NOT", "a", "0"), Var("c")),
                     ArgumentError, "bit '0' is not an integer"),
    "bit a float": (Apply(BitGate("H", "a", 1.0), Var("c")),
                    ArgumentError, "bit 1.0 is not an integer"),
    "swap ket not 0s and 1s": (Apply(SwapGate(KetRec("0b01"), KetRec("0001")), Var("c")),
                               CompileError, "ket '0b01' is not a string of 0s and 1s"),
    "assignment of one": (InsertValues((FieldRec((("a",),)),)),
                          CompileError, r"assignments \(\('a',\),\) are not \(field name, value\)"),
    "assignment of three": (InsertValues((FieldRec((("a", 1, 2),)),)),
                            CompileError, r"assignments .* are not \(field name, value\) pairs"),
    "assignments not a sequence": (InsertValues((FieldRec(5),)),
                                   CompileError, "assignments 5 are not"),
    "assignment named by a number": (InsertValues((FieldRec(((1, 2),)),)),
                                     CompileError, r"assignments \(\(1, 2\),\) are not"),
    "field assigned twice": (InsertValues((FieldRec((("a", 1), ("a", 2))),)),
                             CompileError, "field 'a' is assigned twice$"),
    "record list not a tuple": (InsertValues(5),
                                CompileError, "record list 5 is not a tuple or list$"),
    "record not a record": (InsertValues((KetRec("0001"), 5)),
                            CompileError, "record 5 is not a KetRec or FieldRec$"),
    "pair list not a tuple": (Update(5), CompileError, "pair list 5 is not a tuple or list$"),
    "pair of one record": (Update(((KetRec("0000"),),)), CompileError,
                           r"pair \(KetRec\(bits='0000'\),\) is not a tuple or list of 2 records$"),
    "pair of three records": (Update(((KetRec("0000"), KetRec("0001"), KetRec("0010")),)),
                              CompileError, r"pair .* is not a tuple or list of 2 records$"),
    "flag not a name": (Apply(BitGate("NOT", "a", 0), Var(5)),
                        CompileError, r"unknown select name\(s\): 5$"),
    "gate not a gate": (Apply(5, Var("c")),
                        CompileError, "gate 5 is not a BitGate or SwapGate$"),
    "predicate not an expression": (Delete(5), CompileError, "not a BoolExpr: 5$"),
    "predicate node not an expression": (Delete(Not(5)), CompileError, "not a BoolExpr: 5$"),
}


@pytest.mark.parametrize("name", HOSTILE_COMMANDS)
def test_command_built_in_code_refused_before_a_kernel(name):
    command, error, message = HOSTILE_COMMANDS[name]
    session = api_session()
    before = snapshot(session.db)
    with pytest.raises(error, match=f"^{message}"):
        session.execute_command(command)
    assert snapshot(session.db) == before
    assert_clean_temps_zero(session.db)


@pytest.mark.parametrize("fields", [(("a",),), (("a", 2, 3),), (3,), 5])
def test_fields_not_pairs_refused(fields):
    with pytest.raises(SchemaError, match="^the fields of 't' are not"):
        TableSchema("t", fields)
    session = Session()
    with pytest.raises(CompileError, match="^the fields of 't' are not"):
        session.execute_command(CreateTable("t", fields, None))
    assert session.db is None
