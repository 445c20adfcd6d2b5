"""One rule for every name: a table, field or select name is exactly one
identifier token of the query lexer.

``TableSchema`` and ``QdbState.select`` refuse any other name with
``SchemaError``, so every schema SAVEs, and LOAD refuses, before it builds the
register, a file holding a name SAVE could not have written.  The rule is
checked against the character-loop lexer of ``helpers``, not against
``qlang.tokenize`` itself.
"""

import pytest
from helpers import reference_tokenize
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qqldb.boolcirc import Comparison
from qqldb.cli import Session
from qqldb.errors import QqlError, SchemaError, SessionFormatError
from qqldb.qdb import QdbState
from qqldb.schema import TableSchema

# keywords in mixed case; "ſ" upper-cases to "S" and "ß" to "SS"; non-ASCII
# letters and digits; the separators of a session file's SCHEMA line; blanks,
# NUL and lone surrogates
PIECES = st.sampled_from([
    "select", "SeLeCt", "Temp", "h", "ſ", "ſelect", "ß", "é", "名", "²", "٢", "_", ":",
    " ", "\t", "\n", "\0", "\udc80", "\ud800", "%", "-", "a", "Z", "k", "0", "9",
])
NAMES = st.lists(PIECES, max_size=4).map("".join)
NOT_STRINGS = st.one_of(st.integers(), st.binary(max_size=2), st.just(("a",)), st.floats())
VALUES = st.one_of(NAMES, NOT_STRINGS)
IDENTIFIERS = st.builds(
    lambda first, rest: first + "".join(rest),
    st.sampled_from(["_", "a", "Z", "é", "名", "ſ", "ß", "select", "Temp", "h"]),
    st.lists(st.sampled_from(["a", "_", "0", "9", "²", "٢", "é", "名", "ſ", "ß"]),
             max_size=3),
)


def is_identifier(name) -> bool:
    """Whether the reference lexer reads ``name`` as one identifier token."""
    if not isinstance(name, str):
        return False
    try:
        tokens = reference_tokenize(name)
    except QqlError:
        return False
    return [token[:2] for token in tokens] == [("ident", name), ("eof", "")]


@given(VALUES, VALUES)
@settings(max_examples=400, deadline=None, derandomize=True)
@example("t", "ſelect")
@example("t", "SELECT")
@example("TEMP", "k")
@example("t", "a\0b")
@example("t", "a%d")
@example("t", "\udc80")
@example("t", 5)
@example("é名", "a²٢")
def test_schema_accepts_exactly_identifiers(table, field):
    expected = is_identifier(table) and is_identifier(field)
    try:
        schema = TableSchema(table, ((field, 1),))
    except SchemaError as exc:
        assert not expected
        assert str(exc).endswith("is not an identifier")
    else:
        assert expected
        assert schema.fields == ((field, 1),)


@given(VALUES)
@settings(max_examples=200, deadline=None, derandomize=True)
@example("my flag")
@example("")
@example("SELECT")
def test_select_accepts_exactly_identifiers(name):
    # an APPLY combiner names its flags as the fields of a schema: a select
    # named "my flag" used to be taken here and refused at APPLY
    db = QdbState(TableSchema("t", (("k", 2),)), 2).insert_bulk(2)
    amps, temps = db.state.amps.tobytes(), dict(db.temp_alloc)
    try:
        qubit = db.select(Comparison("k", "=", 1), name)
    except SchemaError:
        assert not is_identifier(name)
        assert db.state.amps.tobytes() == amps and db.temp_alloc == temps
    else:
        assert is_identifier(name)
        assert db.selects == {name: qubit}


@given(IDENTIFIERS, st.lists(IDENTIFIERS, min_size=1, max_size=3, unique=True))
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_accepted_schema_saves_and_loads_back(tmp_path, table, fields):
    try:
        schema = TableSchema(table, tuple((field, 1) for field in fields))
    except SchemaError:  # a keyword, such as "select" or "h"
        assert not (is_identifier(table) and all(map(is_identifier, fields)))
        return
    session = Session()
    session.db = QdbState(schema, 1).insert_bulk(len(fields))
    path = str(tmp_path / "names.qdb")
    session.save_session(path)
    other = Session()
    other.load_session(path)
    assert other.db.schema == schema
    assert other.execute_text("SHOW; MEASURE 40 SEED 3;") == session.execute_text(
        "SHOW; MEASURE 40 SEED 3;")


# Files that used to load and answer MEASURE, and then could not be saved.
PROBES = {
    "NUL": "SCHEMA a\0b k:2",
    "percent sign": "SCHEMA t a%d:2",
    "long s": "SCHEMA t ſelect:2",
    "keyword field": "SCHEMA t SELECT:2",
    "keyword table": "SCHEMA TEMP k:2",
}


@pytest.mark.parametrize("schema_line", list(PROBES.values()), ids=list(PROBES))
def test_load_refuses_a_name_save_cannot_write(tmp_path, schema_line):
    path = tmp_path / "probe.qdb"
    path.write_text(f"QQLDB 1\n{schema_line}\nTEMP 1\nSAFE none\n0 0x1.0p+0 0x0.0p+0\n",
                    encoding="utf-8")
    session = Session()
    session.execute_text("CREATE TABLE old (k:3) TEMP 2; INSERT ALL 3;")
    db, amps = session.db, session.db.state.amps.tobytes()
    with pytest.raises(SessionFormatError, match="^malformed session file: .* not an identifier$"):
        session.load_session(str(path))
    assert session.db is db and db.state.amps.tobytes() == amps
    assert db.schema.name == "old"
