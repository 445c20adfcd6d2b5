"""``python -m qqldb`` run as a process: the shell over a stdin pipe, a
script against its golden transcript, and the exit statuses."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def qqldb(*args, stdin="", cwd=ROOT):
    """Run ``python -m qqldb`` with ``args`` from the source tree; returns the
    completed process with text output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qqldb", *args], input=stdin, capture_output=True, text=True,
        cwd=cwd, env=env, timeout=120,
    )


def test_shell_prints_every_output_before_an_error():
    run = qqldb("--quiet", stdin="CREATE TABLE t (a:2); INSERT ALL 2; DELETE WHERE a = 9;\n")
    assert run.returncode == 0
    assert run.stdout.splitlines() == [
        "ok: table t (2 data + 3 temp qubits)",
        "ok: insert bulk 4; support size 4",
        "error: literal 9 does not fit field 'a' of width 2",
    ]
    assert run.stderr == ""


def test_shell_ends_a_statement_at_a_semicolon_token():
    """A ``;`` in a comment ends nothing; a comment-only tail is dropped."""
    run = qqldb("--quiet", stdin="CREATE TABLE t (a:1);\nSHOW -- all rows;\n;\n-- done;\n\n")
    assert run.returncode == 0
    assert run.stdout.splitlines()[1:] == [
        "ket     record                    temp  amplitude                 probability",
        "|0000>  (a=0)                     000   1                           1.000000",
        "1 component(s), total probability 1.000000",
    ]


def test_shell_syntax_error_names_the_line_of_the_input():
    run = qqldb("--quiet", stdin="CREATE TABLE t (a:1);\n\nSHOW SHOW;\n")
    assert run.returncode == 0
    assert run.stdout.splitlines() == [
        "ok: table t (1 data + 3 temp qubits)",
        "error: 3:6: expected ;, found 'SHOW'",
    ]


def test_shell_counts_lines_across_statements_and_errors():
    """A statement over two lines, a lexer error, then a later statement."""
    stdin = "CREATE TABLE t\n  (a:1);\nSHOW $;\n-- note\n\nINSERT\n  ALL 9 9;\n"
    run = qqldb("--quiet", stdin=stdin)
    assert run.stdout.splitlines() == [
        "ok: table t (1 data + 3 temp qubits)",
        "error: 3:6: illegal character '$'",
        "error: 7:9: expected ;, found '9'",
    ]


def test_script_syntax_error_names_the_line_of_the_file(tmp_path):
    script = tmp_path / "bad.qql"
    script.write_text("CREATE TABLE t (a:1);\n\nSHOW SHOW;\n")
    run = qqldb("--script", str(script))
    assert run.returncode == 1
    assert run.stdout.splitlines() == ["error: 3:6: expected ;, found 'SHOW'"]


def test_script_matches_its_golden_transcript():
    run = qqldb("--script", "scripts/backup_demo.qql")
    assert run.returncode == 0
    assert run.stdout.encode() == (ROOT / "tests" / "golden" / "backup_demo.txt").read_bytes()


def test_failing_script_exits_1(tmp_path):
    script = tmp_path / "bad.qql"
    script.write_text("CREATE TABLE t (a:1);\nINSERT ALL 2;\n")
    run = qqldb("--script", str(script))
    assert run.returncode == 1
    assert run.stdout.splitlines() == [
        "ok: table t (1 data + 3 temp qubits)",
        "error: bulk exponent 2 out of range 0..1",
    ]


def test_script_that_is_not_utf8_exits_1(tmp_path):
    script = tmp_path / "utf16.qql"
    script.write_bytes(b"\xff\xfeS\0H\0O\0W\0;\0\n\0")
    run = qqldb("--script", str(script))
    assert run.returncode == 1
    assert run.stdout.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert run.stderr == ""


def test_refused_flag_is_a_usage_error():
    run = qqldb("--epsilon", "nan", "--script", "scripts/backup_demo.qql")
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.endswith("qqldb: error: epsilon nan is not a real number from 0 to 1\n")
