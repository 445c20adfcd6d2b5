import io
import math
import os
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import reference_read_session
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qqldb import cli
from qqldb.cli import (
    LOAD_CHUNK,
    Session,
    SessionConfig,
    format_amplitude,
    main,
    repl_loop,
    run_script,
    write_amplitudes,
)
from qqldb.errors import (
    ArgumentError,
    CapacityError,
    CompileError,
    ImpossibleOutcomeError,
    QqlError,
    SchemaError,
    SessionFormatError,
)
from qqldb.qdb import QdbState, SafeKey
from qqldb.qlang import MAX_EXPR_DEPTH, Load, Save, Show, parse_predicate
from qqldb.schema import TableSchema
from qqldb.statevec import StateVector

BACKUP_DEMO = """
CREATE TABLE t (id:2) TEMP 1;
INSERT ALL 2;
BACKUP WHERE id = 3;
SHOW;
"""

ROOT = Path(__file__).resolve().parent.parent

PIPELINE = """
CREATE TABLE t (id:3) TEMP 1;
INSERT SEQ 7;
SHOW;
"""


def write_script(tmp_path, text, name="script.qql"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRunScript:
    def test_backup_demo_amplitudes_in_transcript(self, tmp_path):
        path = write_script(tmp_path, BACKUP_DEMO)
        transcript, status = run_script(path, Session())
        assert status == 0
        assert "0.25" in transcript
        assert "0.75" in transcript
        assert "-0.5" in transcript

    def test_full_superposition_row_count(self, tmp_path):
        path = write_script(tmp_path, PIPELINE)
        transcript, status = run_script(path, Session())
        assert status == 0
        assert "8 component(s)" in transcript

    def test_empty_script(self, tmp_path):
        path = write_script(tmp_path, "")
        transcript, status = run_script(path, Session())
        assert transcript == ""
        assert status == 0

    def test_capacity_violation_nonzero_status(self, tmp_path):
        path = write_script(tmp_path, "CREATE TABLE big (x:25) TEMP 1;")
        transcript, status = run_script(path, Session())
        assert status == 1
        assert "error" in transcript

    def test_first_failure_aborts(self, tmp_path):
        path = write_script(tmp_path, "SHOW;\nCREATE TABLE t (a:1);\nSHOW;")
        transcript, status = run_script(path, Session())
        assert status == 1
        # the leading SHOW fails (no table) and nothing else runs
        assert transcript.count("error") == 1
        assert "component" not in transcript

    def test_script_not_utf8_is_an_error_line(self, tmp_path):
        path = tmp_path / "utf16.qql"
        path.write_bytes(b"\xff\xfeS\0H\0O\0W\0;\0\n\0")
        session = Session()
        transcript, status = run_script(str(path), session)
        assert status == 1
        assert transcript.startswith("error: 'utf-8' codec can't decode byte 0xff")
        assert transcript.count("\n") == 1
        assert session.db is None

    def test_syntax_error_reported_with_location(self, tmp_path):
        path = write_script(tmp_path, "CREATE TABLE (a:1);")
        transcript, status = run_script(path, Session())
        assert status == 1
        assert "1:14" in transcript

    def test_transcripts_byte_identical_across_runs(self, tmp_path):
        text = (
            "CREATE TABLE t (id:3) TEMP 2;\n"
            "INSERT ALL 3;\n"
            "DELETE WHERE id >= 6;\n"
            "MEASURE 500;\n"
            "MEASURE 250 SEED 9;\n"
            "SHOW;\n"
        )
        path = write_script(tmp_path, text)
        first, status_a = run_script(path, Session(SessionConfig(seed=42)))
        second, status_b = run_script(path, Session(SessionConfig(seed=42)))
        assert (status_a, status_b) == (0, 0)
        assert first == second

    def test_seed_changes_unseeded_measure(self, tmp_path):
        text = "CREATE TABLE t (id:2) TEMP 1;\nINSERT ALL 2;\nMEASURE 100;\n"
        path = write_script(tmp_path, text)
        a, _ = run_script(path, Session(SessionConfig(seed=1)))
        b, _ = run_script(path, Session(SessionConfig(seed=2)))
        assert a != b

    def test_failed_unseeded_measure_draws_no_seed(self):
        plain, failed = Session(), Session()
        for session in (plain, failed):
            session.execute_text("CREATE TABLE t (k:2) TEMP 1; INSERT ALL 2;")
        with pytest.raises(CapacityError, match="16777217 shots exceed"):
            failed.execute_text("MEASURE 16777217;")
        assert failed.execute_text("MEASURE 5;") == plain.execute_text("MEASURE 5;")

    def test_amplified_delete_keeps_plain_delete_rows(self, tmp_path):
        # kept mass 0.625; one round reports 0.625 * (3 - 4 * 0.625)^2
        script = (
            "CREATE TABLE w (k:4) TEMP 2;\n"
            "INSERT VALUES |0001>, |0011>, |0111>, |1000>, |1010>;\n"
            "DELETE WHERE k >= 8{}\nSHOW;\n"
        )
        amplified, status = run_script(
            write_script(tmp_path, script.format(" AMPLIFY 1;"), "a.qql"), Session()
        )
        plain, _ = run_script(write_script(tmp_path, script.format(";"), "p.qql"), Session())
        assert status == 0
        assert amplified.splitlines()[2] == "deleted; outcome probability 0.156250"
        assert plain.splitlines()[2] == "deleted; outcome probability 0.625000"
        rows = amplified.splitlines()[4:]
        assert [row.split()[1] for row in rows[:-1]] == ["(k=1)", "(k=3)", "(k=7)"]
        assert [row.split()[-1] for row in rows[:-1]] == ["0.400000", "0.400000", "0.200000"]
        assert amplified.splitlines()[3:] == plain.splitlines()[3:]

    def test_huge_amplify_count_is_an_error(self, tmp_path):
        path = write_script(
            tmp_path, "CREATE TABLE t (k:2) TEMP 2;\nINSERT ALL 2;\n"
            f"DELETE WHERE k = 1 AMPLIFY 1{'0' * 400};\nSHOW;\n",
        )
        transcript, status = run_script(path, Session())
        assert status == 1
        assert transcript.splitlines()[-1].startswith("error: AMPLIFY count too large")


# (statements before, refused statement, its message)
ARGUMENT_ERRORS = [
    ("", "INSERT ALL 99;", "bulk exponent 99 out of range 0..3"),
    ("", "INSERT SEQ 0;", "record index 0 out of range 1..7"),
    ("INSERT SEQ 3;", "INSERT SEQ 2;", "database already filled to 3"),
    ("", "INSERT VALUES (a=1), (a=1);", "duplicate records in INSERT VALUES"),
    ("INSERT SEQ 3;", "INSERT VALUES (a=1);", "1 records cannot cover the 4 already present"),
    ("INSERT ALL 2;", "MEASURE 0 SEED 3;", "shots must be >= 1"),
    ("", "UPDATE SET |001> TO |100>, |100> TO |101>;",
     "update pairs must be disjoint transpositions"),
    ("", "UPDATE SET |001> TO |001>;", "update pairs must be disjoint transpositions"),
    ("INSERT ALL 2; SELECT c WHERE a = 1;", "APPLY SWAP |001> TO |001> WHEN c;",
     "record 1 cannot be swapped with itself"),
]


@pytest.mark.parametrize("before, statement, message", ARGUMENT_ERRORS)
def test_argument_error_is_a_qql_error(before, statement, message):
    """A statement argument out of range, or at odds with the records present,
    raises an ArgumentError, a QqlError that is also a ValueError, and leaves
    the register and the temp allocation as they were."""
    session = Session()
    session.execute_text("CREATE TABLE t (a:3) TEMP 2;" + before)
    amps, alloc = session.db.state.amps.copy(), dict(session.db.temp_alloc)
    with pytest.raises(ArgumentError) as failure:
        session.execute_text(statement)
    assert isinstance(failure.value, QqlError) and isinstance(failure.value, ValueError)
    assert str(failure.value) == message
    assert session.db.state.amps.tobytes() == amps.tobytes()
    assert session.db.temp_alloc == alloc


# (refused statement, its message), each after a SELECT
COMPILE_ERRORS = [
    ("APPLY NOT @ a WHEN 1;", "WHEN clause references no select flags"),
    ("APPLY H @ zz WHEN c;", "unknown field 'zz' in table 't'"),
]


@pytest.mark.parametrize("statement, message", COMPILE_ERRORS)
def test_compile_error_leaves_the_session(statement, message):
    """A statement that does not bind raises CompileError and leaves the
    register, the temp allocation and the select names as they were."""
    session = Session()
    session.execute_text("CREATE TABLE t (a:3) TEMP 2; INSERT ALL 2; SELECT c WHERE a = 1;")
    amps, alloc = session.db.state.amps.copy(), dict(session.db.temp_alloc)
    with pytest.raises(CompileError) as failure:
        session.execute_text(statement)
    assert str(failure.value) == message
    assert session.db.state.amps.tobytes() == amps.tobytes()
    assert session.db.temp_alloc == alloc and session.db.selects == {"c": 3}


@pytest.mark.parametrize("statement, error, message", [
    ("CREATE TABLE t (k:2) TEMP 0;", ArgumentError, "need at least one temporary qubit"),
    # within the 22-qubit capacity, but no WHERE could build its truth table
    ("CREATE TABLE t (k:21) TEMP 1;", CapacityError, "21 data bits exceed the 20-bit table bound"),
    ("CREATE TABLE t (k:0);", CompileError, "field 'k' must be at least 1 bit wide"),
    ("CREATE TABLE t (a:1, a:2);", CompileError, "duplicate field names in table 't'"),
])
def test_create_refusal_is_a_qql_error(statement, error, message):
    session = Session()
    with pytest.raises(error) as failure:
        session.execute_text(statement)
    assert str(failure.value) == message
    assert session.db is None


@pytest.mark.parametrize("name", ["backup_demo", "select_apply_demo", "sequential_insert_demo"])
def test_script_transcript_matches_golden(name):
    """The transcript of each script in ``scripts/`` under the default seed,
    byte for byte as in ``tests/golden/<name>.txt``; regenerate one with
    ``python -m qqldb --script scripts/<name>.qql > tests/golden/<name>.txt``
    only for a deliberate change of output."""
    transcript, status = run_script(str(ROOT / "scripts" / f"{name}.qql"), Session())
    assert status == 0
    assert transcript.encode() == (ROOT / "tests" / "golden" / f"{name}.txt").read_bytes()


BACKUP_CHAIN = """
CREATE TABLE t (a:3, b:2) TEMP 2;
INSERT ALL 5;
SELECT c WHERE a >= 2;
DELETE WHERE b = 1;
BACKUP WHERE a < 4 AND b = 2;
UPDATE SET |00010> TO |11100>, |01000> TO |00001>;
RESTORE PURGE;
BACKUP WHERE a = 5 OR b = 0;
UPDATE SET |10100> TO |00011>;
RESTORE PURGE;
"""


def test_backup_chain_save_matches_golden(tmp_path):
    """The SAVE file after a backup chain, byte for byte as in
    ``tests/golden/backup_chain.qdb``.  INSERT ALL on |0...0> takes its closed
    form and no other statement runs a Hadamard, so no BLAS product is
    involved: the bytes are the same with any BLAS build, and pin the
    oracles, the post-selections and BACKUP's partial diffusion, the second
    time on amplitudes that the first one left unequal."""
    session = Session()
    session.execute_text(BACKUP_CHAIN)
    path = tmp_path / "backup_chain.qdb"
    session.execute_text(f'SAVE "{path}";')
    assert path.read_bytes() == (ROOT / "tests" / "golden" / "backup_chain.qdb").read_bytes()


FREE_TEMPS_CHAIN = """
CREATE TABLE t (a:3, b:2) TEMP 3;
INSERT ALL 4;
SELECT c WHERE a >= 2;
APPLY NOT @ b BIT 0 WHEN c;
SELECT d WHERE b = 1;
APPLY SWAP |00001> TO |11101> WHEN d;
DELETE WHERE b = 2;
BACKUP WHERE a < 2 OR b = 3;
UPDATE SET |00011> TO |11100>, |00100> TO |10000>;
RESTORE PURGE;
SELECT e WHERE b = 0;
BACKUP WHERE a = 7 OR b = 0;
RESTORE PURGE;
"""


def test_free_temps_chain_save_matches_golden(tmp_path):
    """The SAVE file after a chain that runs every kernel beside free temps,
    byte for byte as in ``tests/golden/free_temps_chain.qdb``: the oracles,
    the combiner CNOTs, the NOT and SWAP payloads, the record swap and the
    post-selections, and BACKUP's diffusion, which negates its flag-1 half,
    the first time with two free temps beside its flag and the second time
    with one beside it and a select flag held.  No Hadamard runs but INSERT
    ALL's closed form, so the bytes, zero signs of nonzero amplitudes'
    parts included, are the same with any BLAS build."""
    session = Session()
    session.execute_text(FREE_TEMPS_CHAIN)
    path = tmp_path / "free_temps_chain.qdb"
    session.execute_text(f'SAVE "{path}";')
    assert path.read_bytes() == (ROOT / "tests" / "golden" / "free_temps_chain.qdb").read_bytes()


HOSTILE = {
    "parentheses": "SELECT c WHERE " + "(" * 3000 + "1" + ")" * 3000 + ";\n",
    "conjunction": "SELECT c WHERE " + " AND ".join(["k=1"] * 3000) + ";\n",
    "long integer": "MEASURE 1" + "0" * 5000 + ";\n",
    "field named self": "INSERT VALUES (self = 1);\n",
}


class TestHostileText:
    """Query text the shell must reject with an error line, never a
    traceback."""

    @pytest.mark.parametrize("statement", HOSTILE.values(), ids=HOSTILE.keys())
    def test_script_reports_error(self, tmp_path, statement):
        path = write_script(tmp_path, "CREATE TABLE t (k:2) TEMP 2;\n" + statement)
        transcript, status = run_script(path, Session())
        assert status == 1
        assert transcript.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize("statement", HOSTILE.values(), ids=HOSTILE.keys())
    def test_shell_reports_error_and_goes_on(self, statement):
        stdout = io.StringIO()
        text = "CREATE TABLE t (k:2) TEMP 2;\n" + statement + "SHOW;\n"
        status = repl_loop(Session(SessionConfig(quiet=True)), io.StringIO(text), stdout)
        lines = stdout.getvalue().splitlines()
        assert status == 0
        assert lines[1].startswith("error: ")
        assert lines[-1] == "1 component(s), total probability 1.000000"

    def test_deepest_accepted_predicate_runs_everywhere(self, tmp_path):
        """A predicate at the depth limit parses, compiles, runs, is saved as
        the safe key and loads again."""
        chain = " OR ".join(f"k = {i % 4}" for i in range(MAX_EXPR_DEPTH))
        nested = "(" * (MAX_EXPR_DEPTH - 1) + "k = 1" + ")" * (MAX_EXPR_DEPTH - 1)
        path = tmp_path / "deep.qdb"
        session = Session()
        session.execute_text(
            f"CREATE TABLE t (k:2) TEMP 3; INSERT ALL 2; SELECT c WHERE {nested};"
            f"APPLY NOT @ k WHEN c; BACKUP WHERE {chain}; DELETE WHERE {nested};"
            f'SAVE "{path}";'
        )
        loaded = Session()
        loaded.execute_text(f'LOAD "{path}";')
        assert loaded.db.safe_key == session.db.safe_key


class TestSaveLoad:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("key", [None, "k >= 2", "NOT (k = 5 OR j) AND k < 7"])
    def test_engine_the_constructor_accepts_loads(self, tmp_path, seed, key):
        """An engine built through the API on any register and safe key its
        constructor accepts saves a file LOAD accepts, which gives the
        register back bit for bit (SAVE writes no zero amplitude, so a zero
        comes back as +0)."""
        schema = TableSchema("t", (("k", 3), ("j", 1)))
        amps = random_register(np.random.default_rng(seed), schema.num_bits + 2)
        safe_key = None if key is None else SafeKey(4 + seed % 2, parse_predicate(key), seed)
        session = Session()
        session.db = QdbState(schema, 2, state=StateVector(amps.copy()), safe_key=safe_key)
        path = str(tmp_path / "api.qdb")
        session.save_session(path)
        other = Session()
        other.load_session(path)
        assert other.db.state.amps.tobytes() == np.where(amps == 0, 0, amps).tobytes()
        assert (other.db.schema, other.db.t, other.db.safe_key, other.db.temp_alloc) == (
            schema, 2, safe_key, session.db.temp_alloc
        )

    @pytest.mark.parametrize(
        "name, fields",
        [("t", (("x:1", 1), ("c", 1))), ("t t", (("k", 1),)), ("t", (("a b", 1),)),
         ("t", (("TEMP", 1),)), ("", (("k", 1),)), ("t", (("1k", 1),)), ("t\nSAFE", (("k", 1),)),
         (5, (("k", 1),))],
        ids=["colon", "blank in table", "blank in field", "keyword", "empty", "digit first",
             "newline", "not a string"],
    )
    def test_save_refuses_a_name_load_would_misread(self, tmp_path, name, fields):
        # "x:1" used to save as "SCHEMA t x:1:1 c:1", which loaded a field x;
        # "t t" and "a b" saved files LOAD refused.  No schema holds such a
        # name now, so SAVE never meets one, and LOAD refuses the file SAVE
        # would have written.
        with pytest.raises(SchemaError, match="is not an identifier$"):
            TableSchema(name, fields)
        path = tmp_path / "bad.qdb"
        chunks = " ".join(f"{field}:{width}" for field, width in fields)
        path.write_text(f"QQLDB 1\nSCHEMA {name} {chunks}\nTEMP 1\nSAFE none\n")
        session = loaded_session()
        db, amps = session.db, session.db.state.amps.tobytes()
        with pytest.raises(SessionFormatError, match="^malformed session file: "):
            session.load_session(str(path))
        assert_unchanged(session, db, amps)

    @pytest.mark.parametrize("error", [OSError("disk full"), MemoryError()], ids=repr)
    def test_failed_save_keeps_the_previous_file(self, tmp_path, error):
        session = Session()
        session.execute_text("CREATE TABLE t (id:2) TEMP 1; INSERT ALL 2;")
        path = tmp_path / "state.qdb"
        session.save_session(str(path))
        before = path.read_bytes()
        session.execute_text("DELETE WHERE id = 1;")

        def fail_midway(handle, amps):
            handle.write(b"0 0x1.0p+0 0x0.0p+0\n")
            raise error

        with mock.patch.object(cli, "write_amplitudes", fail_midway):
            with pytest.raises(SessionFormatError if isinstance(error, OSError) else MemoryError):
                session.save_session(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["state.qdb"]

    def test_save_onto_a_directory_refused(self, tmp_path):
        (tmp_path / "dir").mkdir()
        session = Session()
        session.execute_text("CREATE TABLE t (id:2) TEMP 1;")
        with pytest.raises(SessionFormatError, match=f"^cannot write {tmp_path / 'dir'}: "):
            session.save_session(str(tmp_path / "dir"))
        assert os.listdir(tmp_path) == ["dir"]
        assert os.listdir(tmp_path / "dir") == []

    def test_save_into_a_missing_directory_refused(self, tmp_path):
        path = tmp_path / "missing" / "x.qdb"
        with pytest.raises(SessionFormatError,
                           match=f"^cannot write {path}: No such file or directory$"):
            Session().save_session(str(path))
        assert os.listdir(tmp_path) == []

    def test_descriptor_is_not_a_path(self, tmp_path):
        # load_session(fd) once loaded the file the descriptor held and closed it
        session = Session()
        session.execute_text("CREATE TABLE t (id:2) TEMP 1; INSERT ALL 2;")
        session.save_session(str(tmp_path / "state.qdb"))
        other = Session()
        fd = os.open(tmp_path / "state.qdb", os.O_RDONLY)
        try:
            for run in (other.load_session, lambda path: other.execute_command(Load(path)),
                        session.save_session, lambda path: session.execute_command(Save(path))):
                with pytest.raises(SessionFormatError, match=f"^session path {fd} is not a path$"):
                    run(fd)
            assert os.lseek(fd, 0, os.SEEK_CUR) == 0  # open, and not read
        finally:
            os.close(fd)
        for path in (None, 2.5):
            with pytest.raises(SessionFormatError, match="is not a path$"):
                session.save_session(path)
            with pytest.raises(SessionFormatError, match="is not a path$"):
                other.load_session(path)
        assert other.db is None
        assert os.listdir(tmp_path) == ["state.qdb"]

    def test_str_bytes_and_pathlike_paths(self, tmp_path):
        session = Session()
        session.execute_text("CREATE TABLE t (id:2) TEMP 1; INSERT ALL 2;")
        text = str(tmp_path / "state.qdb")
        for path in (text, os.fsencode(text), Path(text)):
            assert session.save_session(path) == f"saved session to {text}"
            other = Session()
            assert other.load_session(path) == f"loaded session from {text}"
            assert other.db.state.amps.tobytes() == session.db.state.amps.tobytes()
            assert os.listdir(tmp_path) == ["state.qdb"]

    def test_saved_file_mode_follows_the_umask(self, tmp_path):
        with open(tmp_path / "plain", "wb"):
            pass
        Session().save_session(str(tmp_path / "state.qdb"))
        assert os.stat(tmp_path / "state.qdb").st_mode == os.stat(tmp_path / "plain").st_mode

    @pytest.mark.parametrize("name", ["_k", "k2", "été", "Selected"])
    def test_identifier_names_round_trip(self, tmp_path, name):
        session = Session()
        session.db = QdbState(TableSchema(name, ((name, 2),)), 1).insert_bulk(2)
        path = str(tmp_path / "names.qdb")
        session.save_session(path)
        other = Session()
        other.load_session(path)
        assert other.db.schema == session.db.schema

    def test_round_trip_exact(self, tmp_path):
        session = Session()
        session.execute_text(
            "CREATE TABLE t (id:2) TEMP 1; INSERT ALL 2; BACKUP WHERE id = 3;"
        )
        path = str(tmp_path / "state.qdb")
        session.execute_text(f'SAVE "{path}";')
        amps_before = session.db.state.amps.copy()
        safe_before = session.db.safe_key

        other = Session()
        other.execute_text(f'LOAD "{path}";')
        assert np.array_equal(other.db.state.amps, amps_before)
        assert other.db.safe_key.qubit == safe_before.qubit
        assert other.db.safe_key.matches == safe_before.matches
        assert other.db.schema == session.db.schema
        assert other.db.t == session.db.t

    def test_show_identical_after_round_trip(self, tmp_path):
        session = Session()
        session.execute_text(
            "CREATE TABLE t (id:2) TEMP 1; INSERT ALL 2; BACKUP WHERE id = 3;"
        )
        show_before = session.execute_command(Show(True))
        path = str(tmp_path / "state.qdb")
        session.save_session(path)
        other = Session()
        other.load_session(path)
        show_after = other.execute_command(Show(True))
        assert show_before == show_after

    def test_restore_works_after_load(self, tmp_path):
        session = Session()
        session.execute_text(
            "CREATE TABLE t (id:2) TEMP 1;"
            "INSERT ALL 2;"
            "BACKUP WHERE id = 3;"
            "UPDATE SET |11> TO |01>;"
        )
        path = str(tmp_path / "state.qdb")
        session.save_session(path)
        other = Session()
        other.load_session(path)
        other.execute_text("RESTORE PURGE;")
        assert 3 in other.db.support()
        assert other.db.safe_key is None

    def test_sequential_fill_survives_round_trip(self, tmp_path):
        session = Session()
        session.execute_text("CREATE TABLE t (id:3) TEMP 1; INSERT SEQ 3;")
        path = str(tmp_path / "state.qdb")
        session.save_session(path)
        other = Session()
        other.load_session(path)
        other.execute_text("INSERT SEQ 5;")
        assert other.db.support().tolist() == list(range(6))

    @pytest.mark.parametrize("script, probe, expected", [
        ("CREATE TABLE t (k:4) TEMP 1; INSERT SEQ 3;"
         "UPDATE SET |0011> TO |1001>; UPDATE SET |1001> TO |0011>;",
         "INSERT SEQ 5;", "ok: insert sequential to 5; support size 6"),
        ("CREATE TABLE t (k:3) TEMP 1; INSERT ALL 1; DELETE WHERE k = 1;",
         "INSERT ALL 2;", "ok: insert bulk 4; support size 4"),
    ])
    def test_insert_on_records_back_at_a_sequence(self, tmp_path, script, probe, expected):
        # the live records are {0..k} again: the session and its copy both
        # read the fill off them
        session = Session()
        session.execute_text(script)
        path = str(tmp_path / "state.qdb")
        session.save_session(path)
        other = Session()
        other.load_session(path)
        assert session.execute_text(probe) == other.execute_text(probe) == [expected]

    def test_load_holds_a_residue_flag(self, tmp_path):
        # c's flag cannot return to |0> after the APPLY moves k=0 to k=1; the
        # file does not say so, and LOAD finds it by its mass
        path = tmp_path / "residue.qdb"
        script = (
            "CREATE TABLE t (k:2) TEMP 2; INSERT ALL 2; SELECT c WHERE k = 0;"
            'APPLY NOT @ k BIT 0 WHEN c;{} SELECT d WHERE k = 2; APPLY NOT @ k BIT 0 WHEN d;'
        )
        for middle in ("", f' SAVE "{path}"; LOAD "{path}";'):
            transcript, status = run_script(write_script(tmp_path, script.format(middle)), Session())
            assert status == 1
            assert transcript.splitlines()[-2:] == [
                "selected d on flag qubit 3", "error: no free temporary qubit for combiner"]

    def test_delete_releases_the_residue_it_drains(self, tmp_path):
        # the DELETE removes every record c's residue flag is 1 on: the
        # session frees that temp, as a LOAD of its file does
        path = tmp_path / "drained.qdb"
        script = (
            "CREATE TABLE t (k:2) TEMP 2; INSERT ALL 2; SELECT c WHERE k = 0;"
            "APPLY NOT @ k BIT 0 WHEN c; DELETE WHERE k <= 1;{} SELECT d WHERE k = 2;"
        )
        for middle in ("", f' SAVE "{path}"; LOAD "{path}";'):
            outputs = Session().execute_text(script.format(middle))
            assert outputs[-1] == "selected d on flag qubit 2"

    def test_delete_releases_the_select_it_drains(self, tmp_path):
        # the DELETE removes the one record c flags: the session frees c's
        # temp and name, as a LOAD of its file does
        path = str(tmp_path / "drained.qdb")
        session = Session()
        session.execute_text(
            "CREATE TABLE t (k:2) TEMP 2; INSERT SEQ 2; SELECT c WHERE k = 2; DELETE WHERE k = 2;"
        )
        session.save_session(path)
        restored = Session()
        restored.load_session(path)
        for copy in (session, restored):
            with pytest.raises(CompileError, match=r"^unknown select name\(s\): c$"):
                copy.execute_text("APPLY NOT @ k WHEN c;")
            assert copy.execute_text("INSERT SEQ 3;") == ["ok: insert sequential to 3; support size 4"]

    def test_load_holds_a_live_flag_without_its_name(self, tmp_path):
        path = str(tmp_path / "flag.qdb")
        session = Session()
        session.execute_text(
            f'CREATE TABLE t (k:2) TEMP 2; INSERT ALL 2; SELECT c WHERE k = 0; SAVE "{path}";'
            f'LOAD "{path}";'
        )
        assert session.db.temp_alloc[2].purpose == "residue"
        assert session.db.selects == {}
        assert session.execute_text("SELECT d WHERE k = 1;") == ["selected d on flag qubit 3"]
        with pytest.raises(CompileError, match="unknown select name"):
            session.execute_text("APPLY NOT @ k WHEN c;")

    def test_metadata_only_file_without_table(self, tmp_path):
        session = Session()
        path = str(tmp_path / "empty.qdb")
        session.save_session(path)
        with open(path) as handle:
            content = handle.read()
        assert content.splitlines()[0] == "QQLDB 1"
        other = Session()
        other.load_session(path)
        assert other.db is None

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.qdb"
        path.write_text("QQLDB 99\nSCHEMA none\n")
        with pytest.raises(SessionFormatError):
            Session().load_session(str(path))

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.qdb"
        path.write_text("QQLDB 1\nSCHEMA t id:2\nTEMP 1\nSAFE none\nnot numbers\n")
        with pytest.raises(SessionFormatError):
            Session().load_session(str(path))


    @pytest.mark.parametrize(
        "header, error",
        [
            ("SCHEMA t id:2\nTEMP 40", CapacityError),
            ("SCHEMA t a:40\nTEMP 1", CapacityError),
            ("SCHEMA t k:21\nTEMP 1", CapacityError),
            ("SCHEMA t id:2\nTEMP 0", SessionFormatError),
            ("SCHEMA t id:2\nTEMP -3", SessionFormatError),
        ],
    )
    def test_capacity_checked_before_allocation(self, tmp_path, header, error):
        # a crafted size must fail before numpy is asked for 2^(n + temp) amplitudes
        path = tmp_path / "huge.qdb"
        path.write_text(f"QQLDB 1\n{header}\nSAFE none\n0 0x1.0p+0 0x0.0p+0\n")
        session = Session()
        with pytest.raises(error):
            session.load_session(str(path))
        assert session.db is None


HEADER = "QQLDB 1\nSCHEMA t id:2\nTEMP 1\nSAFE none\n"
SCHEMA_FORM = "the SCHEMA line is not SCHEMA none or SCHEMA <table> <field>:<width> ..."


def loaded_session() -> Session:
    session = Session()
    session.execute_text("CREATE TABLE old (k:3) TEMP 2; INSERT ALL 3;")
    return session


def assert_unchanged(session: Session, db, amps: bytes) -> None:
    assert session.db is db
    assert session.db.state.amps.tobytes() == amps
    assert session.db.schema.name == "old"


class TestLoadRejects:
    @pytest.mark.parametrize(
        "body",
        [
            "-1 0x1.0p+0 0x0.0p+0\n",  # negative index: used to wrap to record 3
            "0 nan 0x0.0p+0\n",
            "0 0x1.0p+0 inf\n",
            "8 0x1.0p+0 0x0.0p+0\n",  # 2^(n + t) = 8
            "1 0x1.6a09e667f3bcdp-1 0x0.0p+0\n1 0x1.6a09e667f3bcdp-1 0x0.0p+0\n",
            "3 0x1.6a09e667f3bcdp-1 0x0.0p+0\n1 0x1.6a09e667f3bcdp-1 0x0.0p+0\n",
            "0 0x1.0p+0\n",
            "0 0x1.0p+0 0x0.0p+0 0x0.0p+0\n",
            "0 0x1.6a09e667f3bcdp-1\n0x0.0p+0 1 0x1.6a09e667f3bcdp-1 0x0.0p+0\n",
            "   \n0 0x1.0p+0 0x0.0p+0\n",
            "0 0x1p99999 0x0.0p+0\n",
            "99999999999999999999999 0x1.0p+0 0x0.0p+0\n",
            "0 0x1.0p-1 0x0.0p+0\n",  # norm 1/2
            "",
        ],
    )
    def test_bad_amplitude_lines(self, tmp_path, body):
        path = tmp_path / "bad.qdb"
        path.write_text(HEADER + body)
        session = loaded_session()
        db, amps = session.db, session.db.state.amps.tobytes()
        with pytest.raises(SessionFormatError):
            session.load_session(str(path))
        assert_unchanged(session, db, amps)

    @pytest.mark.parametrize(
        "safe",
        ["SAFE", "SAFE 0 1 id = 1", "SAFE 2 1 id = (", "SAFE 2 1 nosuch = 1", "SAFE x 1 id = 1"],
    )
    def test_bad_safe_line(self, tmp_path, safe):
        path = tmp_path / "bad.qdb"
        path.write_text(f"QQLDB 1\nSCHEMA t id:2\nTEMP 1\n{safe}\n0 0x1.0p+0 0x0.0p+0\n")
        session = loaded_session()
        db, amps = session.db, session.db.state.amps.tobytes()
        with pytest.raises(SessionFormatError, match="^malformed session file: "):
            session.load_session(str(path))
        assert_unchanged(session, db, amps)

    @pytest.mark.parametrize(
        "text, what",
        [
            ("QQLDB 1\n", "SCHEMA"),
            ("QQLDB 1\nTABLE t id:2\nTEMP 1\nSAFE none\n", "SCHEMA"),
            ("QQLDB 1\nSCHEMA t id:2\n", "TEMP"),
            ("QQLDB 1\nSCHEMA t id:2\nTEMPS 1\nSAFE none\n", "TEMP"),
            ("QQLDB 1\nSCHEMA t id:2\nTEMP 1\n", "SAFE"),
            ("QQLDB 1\nSCHEMA t id:2\nTEMP 1\nSAFETY none\n", "SAFE"),
        ],
        ids=["no SCHEMA", "other keyword for SCHEMA", "no TEMP", "other keyword for TEMP",
             "no SAFE", "other keyword for SAFE"],
    )
    def test_missing_header_line(self, tmp_path, text, what):
        path = tmp_path / "bad.qdb"
        path.write_text(text)
        session = loaded_session()
        db, amps = session.db, session.db.state.amps.tobytes()
        with pytest.raises(SessionFormatError, match=f"^missing {what} line$"):
            session.load_session(str(path))
        assert_unchanged(session, db, amps)

    def test_overflowing_parts_rejected_without_warning(self, tmp_path):
        # finite parts near the largest double used to overflow the norm
        path = tmp_path / "huge.qdb"
        path.write_text(HEADER + "0 0x1.fffffffffffffp+1023 -0x1.fffffffffffffp+1023\n")
        session = loaded_session()
        db, amps = session.db, session.db.state.amps.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SessionFormatError):
                session.load_session(str(path))
        assert_unchanged(session, db, amps)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("SCHEMA t id:2\nTEMP 1 7\nSAFE none", "the TEMP line is not TEMP <count>"),
            ("SCHEMA t id:2\nTEMP\nSAFE none", "the TEMP line is not TEMP <count>"),
            ("SCHEMA t id:2\nTEMP 1\nSAFE none junk here",
             "the SAFE line is not SAFE none or SAFE <qubit> <matches> <expr>"),
            ("SCHEMA t id:2\nTEMP 1\nSAFE 3",
             "the SAFE line is not SAFE none or SAFE <qubit> <matches> <expr>"),
            ("SCHEMA t id:2\nTEMP 1\nSAFE 2 1",
             "the SAFE line is not SAFE none or SAFE <qubit> <matches> <expr>"),
            ("SCHEMA none t k:2", SCHEMA_FORM),
            ("SCHEMA\nTEMP 1\nSAFE none", SCHEMA_FORM),
            ("SCHEMA t\nTEMP 1\nSAFE none", SCHEMA_FORM),
            ("SCHEMA t k:+2\nTEMP 1\nSAFE none", "'+2' in the SCHEMA line is not an integer"),
            ("SCHEMA t k:0_2\nTEMP 1\nSAFE none", "'0_2' in the SCHEMA line is not an integer"),
            ("SCHEMA t k:02\nTEMP 1\nSAFE none", "'02' in the SCHEMA line is not an integer"),
            ("SCHEMA t k:\u0662\nTEMP 1\nSAFE none",
             "'\u0662' in the SCHEMA line is not an integer"),
            ("SCHEMA t id:2\nTEMP +1\nSAFE none", "'+1' in the TEMP line is not an integer"),
            ("SCHEMA t id:2\nTEMP -0\nSAFE none", "'-0' in the TEMP line is not an integer"),
            ("SCHEMA t id:2\nTEMP 1\nSAFE 02 1 id = 1", "'02' in the SAFE line is not an integer"),
            ("SCHEMA t id:2\nTEMP 1\nSAFE 2 1_0 id = 1",
             "'1_0' in the SAFE line is not an integer"),
        ],
        ids=["TEMP with two fields", "TEMP alone", "SAFE none with more fields", "SAFE 3",
             "SAFE without a predicate", "SCHEMA none with fields", "SCHEMA alone",
             "SCHEMA without fields",
             "width with a plus sign", "width with an underscore", "width with a leading zero",
             "width in Arabic-Indic digits", "TEMP with a plus sign", "TEMP -0",
             "safe qubit with a leading zero", "safe matches with an underscore"],
    )
    def test_header_line_not_as_saved(self, tmp_path, header, message):
        # "TEMP 1 7" and "SAFE none junk here" used to load, their extra
        # fields dropped; "TEMP" and "SAFE 3" failed with "list index out of
        # range", "SCHEMA none t k:2" was a missing TEMP or SAFE line, and
        # "k:+2" loaded as width 2
        path = tmp_path / "bad.qdb"
        path.write_text(f"QQLDB 1\n{header}\n0 0x1.0p+0 0x0.0p+0\n", encoding="utf-8")
        session = loaded_session()
        db, amps = session.db, session.db.state.amps.tobytes()
        with pytest.raises(SessionFormatError) as refused:
            session.load_session(str(path))
        assert str(refused.value) == f"malformed session file: {message}"
        assert_unchanged(session, db, amps)

    def test_header_integer_beyond_the_conversion_limit(self, tmp_path):
        # int() refuses more than 4300 digits with a ValueError of its own
        path = tmp_path / "bad.qdb"
        path.write_text(f"QQLDB 1\nSCHEMA t id:2\nTEMP {'9' * 5000}\nSAFE none\n")
        session = loaded_session()
        db, amps = session.db, session.db.state.amps.tobytes()
        with pytest.raises(SessionFormatError, match="^malformed session file: "):
            session.load_session(str(path))
        assert_unchanged(session, db, amps)

    def test_header_lines_as_saved_load(self, tmp_path):
        path = tmp_path / "good.qdb"
        path.write_text("QQLDB 1\nSCHEMA t id:2\nTEMP 10\nSAFE 11 0 id = 3\n0 0x1.0p+0 0x0.0p+0\n")
        session = Session()
        session.load_session(str(path))
        assert (session.db.t, session.db.safe_key.qubit, session.db.safe_key.matches) == (10, 11, 0)

    @pytest.mark.parametrize("chunk", ["x:1:1", "x", "x:1:"])
    def test_field_not_name_width(self, tmp_path, chunk):
        # "x:1:1" used to load as a field named x
        path = tmp_path / "bad.qdb"
        path.write_text(f"QQLDB 1\nSCHEMA t {chunk} c:1\nTEMP 1\nSAFE none\n0 0x1.0p+0 0x0.0p+0\n")
        session = loaded_session()
        db, amps = session.db, session.db.state.amps.tobytes()
        with pytest.raises(SessionFormatError, match="^malformed session file: "):
            session.load_session(str(path))
        assert_unchanged(session, db, amps)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.qdb"
        path.write_bytes(HEADER.encode() + b"0 0x1.0p+0 \xff\n")
        with pytest.raises(SessionFormatError):
            Session().load_session(str(path))

    def test_non_canonical_literals_load(self, tmp_path):
        path = tmp_path / "hand.qdb"
        path.write_text(
            "QQLDB 1\n\nSCHEMA t id:2\nTEMP 1\nSAFE none\n"
            "0 0x1.0p-1 0\n"
            "2\t0x.8p0   -0x0p+0\n"
            "\n"
            "4 0X.8 0x0.0\n"
            "7 0x0.0p+0 0x1P-1 \n"
        )
        session = Session()
        session.load_session(str(path))
        expected = np.zeros(8, dtype=np.complex128)
        expected[[0, 2, 4]] = 0.5
        expected[2] = complex(0.5, -0.0)
        expected[7] = 0.5j
        assert session.db.state.amps.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("literal", ["0x1.0p+0", "0x.8p1"])
    def test_single_literal_loads(self, tmp_path, literal):
        path = tmp_path / "hand.qdb"
        path.write_text(HEADER + f"3 {literal} 0x0.0p+0\n")
        session = Session()
        session.load_session(str(path))
        assert session.db.support().tolist() == [1]
        assert session.db.state.amps[3] == 1.0

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.one_of(
            st.text(alphabet="0123456789abcdefpx.+- \t\nnaif_", max_size=120),
            st.lists(
                st.tuples(
                    st.integers(-3, 9),
                    st.one_of(st.floats(), st.sampled_from(["0x.8p1", "1", "-0x0p0", "zz"])),
                    st.one_of(st.floats(), st.just("0x1.0p+0")),
                ),
                max_size=6,
            ).map(lambda rows: "".join(
                f"{i} {re.hex() if isinstance(re, float) else re} "
                f"{im.hex() if isinstance(im, float) else im}\n"
                for i, re, im in rows
            )),
        )
    )
    def test_fuzzed_body_loads_or_is_rejected(self, tmp_path, body):
        path = tmp_path / "fuzz.qdb"
        path.write_text(HEADER + body)
        session = loaded_session()
        db, amps = session.db, session.db.state.amps.tobytes()
        try:
            session.load_session(str(path))
        except (SessionFormatError, CapacityError):
            assert_unchanged(session, db, amps)
        else:
            assert session.db.schema.name == "t"
            assert abs(np.linalg.norm(session.db.state.amps) - 1.0) <= 1e-9


def saved_file(path: Path, amps: np.ndarray, t: int = 2) -> bytes:
    """Write ``amps`` as SAVE writes a one-field table with ``t`` temps;
    returns the file's bytes."""
    n = amps.size.bit_length() - 1 - t
    buffer = io.BytesIO()
    buffer.write(f"QQLDB 1\nSCHEMA t k:{n}\nTEMP {t}\nSAFE none\n".encode())
    write_amplitudes(buffer, amps)
    path.write_bytes(buffer.getvalue())
    return buffer.getvalue()


def random_register(rng: np.random.Generator, qubits: int) -> np.ndarray:
    """A unit register with zero amplitudes, zero and negative-zero parts,
    real and imaginary ones, and subnormal parts."""
    size = 1 << qubits
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    amps[rng.random(size) < 0.3] = 0
    amps.real[rng.random(size) < 0.2] = 0
    amps.imag[rng.random(size) < 0.2] = -0.0
    if not amps.any():
        amps[0] = 1  # a few qubits can draw all zeros, which have no unit multiple
    amps /= np.linalg.norm(amps)
    tiny = (amps.imag == 0) & (rng.random(size) < 0.2)
    amps.imag[tiny] = 5e-324 * rng.integers(1, 1 << 40, size=tiny.sum())
    return amps


def load_outcome(path: Path):
    """What LOAD makes of a file: the register bytes, schema, temp count,
    held temps and safe key of the engine, or the class and message of the
    error."""
    session = Session()
    try:
        session.load_session(str(path))
    except QqlError as exc:
        return type(exc), str(exc)
    db = session.db
    return db.state.amps.tobytes(), db.schema, db.t, db.safe_key, db.temp_alloc


def assert_loads_as_reference(path: Path) -> None:
    outcome = load_outcome(path)
    with mock.patch.object(cli, "_read_session", reference_read_session):
        assert outcome == load_outcome(path)


LINES = (
    b"4 0x1.0000000000000p-1 0x0.0p+0\n"
    b"8 -0x1.0000000000000p-1 0x1.0000000000000p-1\n"
    b"12 0x1.0000000000000p-1 0x0.0p+0\n"
)
# LINES edited out of the writer's form, so the block is read by int and
# float.fromhex.
EDITS = {
    name: LINES.replace(old, new, 1)
    for name, (old, new) in {
        "uppercase hex": (b"0x1.0000000000000p-1 0x0", b"0X1.0000000000000P-1 0x0"),
        "12 digits": (b"0x1.0000000000000p-1", b"0x1.000000000000p-1"),
        "14 digits": (b"0x1.0000000000000p-1", b"0x1.00000000000000p-1"),
        "leading zero in the index": (b"4 0x", b"04 0x"),
        "9-digit index": (b"12 ", b"000000012 "),
        "leading zero in the exponent": (b"p-1 ", b"p-01 "),
        "plus sign": (b" 0x1.", b" +0x1."),
        "plus sign on the index": (b"4 0x", b"+4 0x"),
        "exponent 1024": (b"p-1 ", b"p+1024 "),
        "normal head below the normal range": (b"p-1 ", b"p-1023 "),
        "subnormal head with another exponent": (b"0x1.0000000000000p-1 ",
                                                 b"0x0.8000000000000p+0 "),
        "zero in another form": (b"0x0.0p+0", b"0x0p+0"),
        "tab": (b" 0x", b"\t0x"),
        "two spaces": (b" 0x", b"  0x"),
        "blank line": (b"\n8 ", b"\n\n8 "),
        "trailing space": (b"0x0.0p+0\n", b"0x0.0p+0 \n"),
        "non-ASCII space": (b"4 0x", "4\u00a00x".encode()),
        "non-UTF-8": (b"4 0x", b"4\xff0x"),
        "missing field": (b" 0x0.0p+0\n8", b"\n8"),
        "index not ascending": (b"12 ", b"8 "),
        "5-digit exponent": (b"0x0.0p+0\n", b"0x1.0000000000000p-10220\n"),
        "letters after the exponent": (b"p-1 ", b"p-1000z "),
        "letters after a 4-digit exponent": (b"p-1 ", b"p+1023zz "),
    }.items()
}
EDITS["no final newline"] = LINES[:-1]


class TestByteReader:
    """LOAD reads a file written in SAVE's own line form from its bytes, and
    any other file as the reference reader (int and float.fromhex) does."""

    @pytest.mark.parametrize("seed", range(4))
    def test_saved_register_loads_as_reference(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        amps = random_register(rng, 6 + 3 * seed)
        saved_file(tmp_path / "f.qdb", amps)
        assert_loads_as_reference(tmp_path / "f.qdb")
        session = Session()
        session.load_session(str(tmp_path / "f.qdb"))
        expected = np.where(amps == 0, 0, amps)  # zero amplitudes are not saved
        assert session.db.state.amps.tobytes() == expected.tobytes()

    def test_lines_in_the_writer_form(self, tmp_path):
        amps = np.zeros(64, dtype=complex)
        amps[[4, 8, 12]] = [0.5, -0.5 + 0.5j, 0.5]
        assert saved_file(tmp_path / "f.qdb", amps).endswith(LINES)

    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_edited_file_loads_as_reference(self, tmp_path, edit):
        assert EDITS[edit] != LINES
        path = tmp_path / "edited.qdb"
        path.write_bytes(b"QQLDB 1\nSCHEMA t k:4\nTEMP 2\nSAFE none\n" + EDITS[edit])
        assert_loads_as_reference(path)

    @pytest.mark.parametrize("header, error", [
        ("SCHEMA t k:+2\nTEMP 1\nSAFE none", "'+2' in the SCHEMA line is not an integer"),
        ("SCHEMA t k:2\nTEMP 1 7\nSAFE none", "the TEMP line is not TEMP <count>"),
        ("SCHEMA t k:2\nTEMP 1\nSAFE none junk", "the SAFE line is not SAFE none or"),
        ("SCHEMA t k:2\nTEMP\nSAFE none", "the TEMP line is not TEMP <count>"),
        ("SCHEMA t k:2\nTEMP 1\nSAFE none", None),
    ])
    def test_header_loads_as_reference(self, tmp_path, header, error):
        # the reference reads the header with cli's own reader
        path = tmp_path / "header.qdb"
        path.write_bytes(f"QQLDB 1\n{header}\n".encode() + b"1 0x1.0000000000000p+0 0x0.0p+0\n")
        assert_loads_as_reference(path)
        outcome = load_outcome(path)
        if error is None:
            assert isinstance(outcome[0], bytes)
        else:
            assert outcome[0] is SessionFormatError and error in outcome[1]

    @pytest.mark.parametrize("byte", [b"0", b"z", b"."])
    def test_byte_after_a_part_loads_as_reference(self, tmp_path, byte):
        # one line per part form: zero, subnormal, and 1- to 4-digit exponents
        values = [0.0, -5e-324, 1.0, 2.0**-10, -(2.0**100), 2.0**-1000, 2.0**1023, 0.75]
        amps = np.zeros(32, dtype=complex)
        amps[:len(values)] = np.array(values) + 0.5j
        lines = saved_file(tmp_path / "f.qdb", amps).split(b"\n")
        for at in range(4, 4 + len(values)):
            index, real, imag = lines[at].split(b" ")
            edited = lines[:at] + [b" ".join([index, real + byte, imag])] + lines[at + 1:]
            path = tmp_path / f"edited{at}.qdb"
            path.write_bytes(b"\n".join(edited))
            assert_loads_as_reference(path)

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_other_newlines_load_as_reference(self, tmp_path, newline):
        data = saved_file(tmp_path / "f.qdb", random_register(np.random.default_rng(3), 8))
        path = tmp_path / "crlf.qdb"
        path.write_bytes(data.replace(b"\n", newline))
        assert_loads_as_reference(path)
        assert load_outcome(path)[0] == load_outcome(tmp_path / "f.qdb")[0]

    @pytest.mark.parametrize("fault", ["parse", "ascending", "range", "both"])
    def test_fault_in_a_later_block(self, tmp_path, fault):
        # 2^13 nonzero amplitudes are two blocks; the faults sit in the second,
        # and with "both" an earlier one in the first
        data = saved_file(tmp_path / "f.qdb", random_register(np.random.default_rng(5), 13) + 1e-3)
        lines = data.split(b"\n")
        late = 4 + LOAD_CHUNK + 100
        index = lines[late].split(b" ")[0]
        lines[late] = {
            "parse": lines[late].replace(b"p", b"q", 1),
            "ascending": lines[late].replace(index, b"1", 1),
            "range": lines[late].replace(index, b"999999", 1),
            "both": lines[late].replace(b"p", b"q", 1),
        }[fault]
        if fault == "both":
            lines[10] = lines[10].replace(lines[10].split(b" ")[0], b"5", 1)
        path = tmp_path / "fault.qdb"
        path.write_bytes(b"\n".join(lines))
        assert_loads_as_reference(path)
        assert load_outcome(path)[0] is SessionFormatError

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**32 - 1),
        qubits=st.integers(3, 9),
        edits=st.lists(
            st.tuples(st.floats(0, 1, exclude_max=True),
                      st.sampled_from(b"0123456789abcdefABCDEFpPxX.+- \t\n\r\x00\xff\xc3"),
                      st.booleans()),
            max_size=2,
        ),
    )
    def test_mutated_file_loads_as_reference(self, tmp_path, seed, qubits, edits):
        # each edit replaces a byte, or inserts one, which can lengthen a part
        data = bytearray(saved_file(tmp_path / "f.qdb", random_register(
            np.random.default_rng(seed), qubits)))
        header = data.index(b"SAFE none\n") + len(b"SAFE none\n")
        for where, byte, insert in edits:
            at = header + int(where * (len(data) - header))
            if insert:
                data.insert(at, byte)
            elif at < len(data):
                data[at] = byte
        path = tmp_path / "mutated.qdb"
        path.write_bytes(bytes(data))
        assert_loads_as_reference(path)


class TestBytePathGuard:
    """Every block SAVE writes is read by the byte parser: a drift between
    writer and reader would otherwise only show as a slower LOAD."""

    def test_saved_blocks_never_fall_back(self, tmp_path):
        rng = np.random.default_rng(17)
        parts = rng.normal(size=2 * (3 * LOAD_CHUNK))
        parts[1::7] = 0.0
        specials = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                    -2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max, 1.0, -1.0]
        # each next to a nonzero part, so that its line is written
        pairs = [(value, 0.5) for value in specials] + [(-0.5, value) for value in specials]
        parts[: 2 * len(pairs)] = np.ravel(pairs)
        amps = np.zeros(1 << 14, dtype=complex)
        amps[:parts.size // 2] = parts.view(np.complex128)
        saved_file(tmp_path / "f.qdb", amps)
        with open(tmp_path / "f.qdb", encoding="utf-8") as handle, mock.patch.object(
            cli, "_read_tokens", side_effect=AssertionError("a block fell back")
        ):
            loaded = cli._read_session(handle, 22)
        expected = np.where(amps == 0, 0, amps)
        assert loaded[3].tobytes() == expected.tobytes()


class TestFailedRestore:
    def test_failed_purge_leaves_state_and_key(self):
        session = Session()
        session.execute_text(
            "CREATE TABLE t (id:2) TEMP 2; INSERT VALUES |00>;"
            "BACKUP WHERE id = 1; DELETE WHERE id != 1;"
        )
        db = session.db
        amps = db.state.amps.copy()
        key, alloc = db.safe_key, dict(db.temp_alloc)
        for _ in range(2):  # a retry fails the same way instead of undoing the restore
            with pytest.raises(ImpossibleOutcomeError):
                session.execute_text("RESTORE PURGE;")
            assert db.state.amps.tobytes() == amps.tobytes()
            assert db.safe_key == key
            assert db.temp_alloc == alloc


class TestFormatAmplitude:
    def test_real_six_significant_digits(self):
        assert format_amplitude(0.25 + 0j) == "0.25"
        assert format_amplitude(1 / 3 + 0j) == "0.333333"

    def test_negative_real(self):
        assert format_amplitude(-0.5 + 0j) == "-0.5"

    def test_complex_rendering(self):
        assert format_amplitude(0.5 + 0.25j) == "0.5+0.25i"
        assert format_amplitude(0.5 - 0.25j) == "0.5-0.25i"

    def test_full_precision_round_trips(self):
        value = 1 / 3
        assert float(format_amplitude(value + 0j, full=True)) == value


class TestRepl:
    def run_repl(self, text, **config):
        stdin = io.StringIO(text)
        stdout = io.StringIO()
        session = Session(SessionConfig(**config))
        status = repl_loop(session, stdin=stdin, stdout=stdout)
        return status, stdout.getvalue()

    def test_show_on_fresh_table(self):
        status, output = self.run_repl(
            "CREATE TABLE t (id:3) TEMP 1;\nSHOW;\n", quiet=True
        )
        assert status == 0
        assert "|0000>" in output
        assert "1 component(s)" in output

    def test_error_does_not_terminate_loop(self):
        status, output = self.run_repl(
            "INSERT ALL 1;\nCREATE TABLE t (id:1) TEMP 1;\nSHOW;\n", quiet=True
        )
        assert status == 0
        assert "error" in output
        assert "1 component(s)" in output

    def test_multiline_statement(self):
        status, output = self.run_repl(
            "CREATE TABLE t\n(id:2)\nTEMP 1;\nSHOW;\n", quiet=True
        )
        assert status == 0
        assert "1 component(s)" in output

    def test_unwritable_save_path_reported(self, tmp_path):
        path = tmp_path / "missing" / "x.qdb"
        status, output = self.run_repl(
            f'CREATE TABLE t (id:2) TEMP 1;\nSAVE "{path}";\nSHOW;\n', quiet=True
        )
        assert status == 0
        assert f"error: cannot write {path}" in output
        assert "1 component(s)" in output
        assert not path.parent.exists()

    def test_outputs_before_an_error_on_one_line_are_printed(self):
        status, output = self.run_repl(
            "CREATE TABLE t (a:2); INSERT ALL 2; DELETE WHERE a = 9; SHOW;\nSHOW;\n", quiet=True
        )
        lines = output.splitlines()
        assert status == 0
        assert lines[:3] == [
            "ok: table t (2 data + 3 temp qubits)",
            "ok: insert bulk 4; support size 4",
            "error: literal 9 does not fit field 'a' of width 2",
        ]
        # the SHOW after the error on its line does not run; the next line's does
        assert output.count("component(s)") == 1
        assert lines[-1] == "4 component(s), total probability 1.000000"

    def test_semicolon_in_a_comment_or_string_ends_nothing(self, tmp_path):
        path = tmp_path / "x;"
        status, output = self.run_repl(
            f'CREATE TABLE t (a:1); -- all rows;\nSAVE "{path}" -- a;\n;\nSHOW -- done;\n;\n',
            quiet=True,
        )
        assert status == 0
        assert output.splitlines()[:2] == ["ok: table t (1 data + 3 temp qubits)",
                                           f"saved session to {path}"]
        assert output.splitlines()[-1] == "1 component(s), total probability 1.000000"

    def test_line_the_lexer_refuses_ends_at_once(self):
        status, output = self.run_repl('SHOW "open\nCREATE TABLE t (a:1);\n', quiet=True)
        assert status == 0
        assert output.splitlines() == ["error: 1:6: unterminated string literal",
                                       "ok: table t (1 data + 3 temp qubits)"]

    @pytest.mark.parametrize("tail", ["\n", "-- a comment;\n\n", "  \t\n-- x\n"])
    def test_trailing_input_without_a_token_dropped(self, tail):
        _, output = self.run_repl("CREATE TABLE t (a:1);\n" + tail, quiet=True)
        assert output.splitlines() == ["ok: table t (1 data + 3 temp qubits)"]

    def test_trailing_statement_without_semicolon_reported(self):
        _, output = self.run_repl("CREATE TABLE t (a:1);\nSHOW -- ;\n", quiet=True)
        assert output.splitlines()[-1] == "error: trailing input without ';' discarded"

    def test_banner_suppressed_when_quiet(self):
        _, loud = self.run_repl("SHOW;\n")
        _, quiet = self.run_repl("SHOW;\n", quiet=True)
        assert "shell" in loud
        assert "shell" not in quiet


class TestMain:
    def test_script_exit_status(self, tmp_path):
        good = tmp_path / "good.qql"
        good.write_text("CREATE TABLE t (a:1) TEMP 1;\nSHOW;\n")
        assert main(["--script", str(good), "--quiet"]) == 0

    def test_script_failure_status(self, tmp_path):
        bad = tmp_path / "bad.qql"
        bad.write_text("INSERT ALL 1;\n")
        assert main(["--script", str(bad), "--quiet"]) == 1

    def test_usage_error_status(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--max-qubits", "not-a-number"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flags", [["--epsilon", "nan"], ["--epsilon", "inf"],
                                       ["--epsilon", "1.5"], ["--epsilon", "-0.1"]])
    def test_refused_setting_is_a_usage_error(self, tmp_path, flags, capsys):
        good = tmp_path / "good.qql"
        good.write_text("SHOW;\n")
        with pytest.raises(SystemExit) as excinfo:
            main([*flags, "--script", str(good)])
        assert excinfo.value.code == 2
        assert "is not a real number from 0 to 1" in capsys.readouterr().err

    def test_flag_defaults_are_the_config_defaults(self):
        args = cli.build_arg_parser().parse_args([])
        assert {name: getattr(args, name) for name in vars(SessionConfig())} == vars(
            SessionConfig()
        )

    def test_missing_script_file(self):
        assert main(["--script", "/nonexistent/path.qql", "--quiet"]) == 1


class TestSessionConfig:
    """Each setting is read once, when the config is built."""

    @pytest.mark.parametrize("value", [22.5, "22", None, True, np.True_])
    @pytest.mark.parametrize("setting", ["max_qubits", "seed"])
    def test_integer_setting_not_an_integer_refused(self, setting, value):
        with pytest.raises(ArgumentError, match=f"^{setting} .* is not an integer$"):
            SessionConfig(**{setting: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-300, 1.5, 2, True,
                                       np.True_, "x", "1e-12", None, 10**400],
                             ids=["nan", "inf", "-inf", "-1e-300", "1.5", "2", "True", "True_",
                                  "x", "text 1e-12", "None", "10**400"])
    def test_epsilon_not_a_floor_refused(self, value):
        with pytest.raises(ArgumentError, match="^epsilon .* is not a real number from 0 to 1$"):
            SessionConfig(epsilon=value)

    @pytest.mark.parametrize("value, read", [(0, 0.0), (1, 1.0), (np.int64(0), 0.0),
                                             (np.float32(0.5), 0.5), (1e-12, 1e-12)])
    def test_epsilon_read_as_a_float(self, value, read):
        config = SessionConfig(epsilon=value)
        assert type(config.epsilon) is float and config.epsilon == read

    def test_numpy_integers_read_as_ints(self):
        config = SessionConfig(max_qubits=np.int64(9), seed=np.uint8(3))
        assert (type(config.max_qubits), type(config.seed)) == (int, int)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SessionConfig().epsilon = "x"

    def test_load_is_not_blamed_for_the_config(self, tmp_path):
        # max_qubits=22.5 used to be taken here and make LOAD of a good file
        # fail with "malformed session file"
        path = str(tmp_path / "good.qdb")
        session = Session()
        session.execute_text("CREATE TABLE t (a:2);")
        session.save_session(path)
        with pytest.raises(ArgumentError):
            Session(SessionConfig(max_qubits=22.5))
        Session(SessionConfig(max_qubits=22)).load_session(path)
