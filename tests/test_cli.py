import io
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qqldb.cli import Session, SessionConfig, format_amplitude, main, repl_loop, run_script
from qqldb.errors import CapacityError, ImpossibleOutcomeError, SessionFormatError
from qqldb.qlang import Show

BACKUP_DEMO = """
CREATE TABLE t (id:2) TEMP 1;
INSERT ALL 2;
BACKUP WHERE id = 3;
SHOW;
"""

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


class TestSaveLoad:
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
        assert other.db.support() == list(range(6))

    def test_metadata_only_file_without_table(self, tmp_path):
        session = Session()
        path = str(tmp_path / "empty.qdb")
        session.save_session(path)
        content = open(path).read()
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
        with pytest.raises(SessionFormatError):
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
        assert session.db.support() == [1]
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
            assert abs(session.db.state.norm() - 1.0) <= 1e-9


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

    def test_missing_script_file(self):
        assert main(["--script", "/nonexistent/path.qql", "--quiet"]) == 1
