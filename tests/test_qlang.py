import tracemalloc
from unittest import mock

import numpy as np
import pytest
from helpers import reference_tokenize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qqldb import qlang
from qqldb.boolcirc import And, Comparison, Const, Not, Or, Var
from qqldb.cli import Session, SessionConfig
from qqldb.errors import CompileError, QqlError, QqlSyntaxError
from qqldb.qlang import (
    KEYWORDS,
    MAX_EXPR_DEPTH,
    MAX_INT_DIGITS,
    Apply,
    Backup,
    BitGate,
    CreateTable,
    Delete,
    FieldRec,
    InsertAll,
    InsertSeq,
    InsertValues,
    KetRec,
    Load,
    Measure,
    Restore,
    Save,
    Select,
    Show,
    SwapGate,
    Update,
    _bind_records,
    _Parser,
    _resolve_record,
    compile_command,
    parse_predicate,
    parse_text,
    render_command,
    render_expr,
    tokenize,
)


class TestTokenize:
    def test_keyword(self):
        tokens = tokenize("SELECT")
        assert tokens[0].kind == "keyword"
        assert tokens[0].text == "SELECT"

    def test_keywords_case_insensitive(self):
        assert tokenize("select")[0].text == "SELECT"

    def test_identifiers_case_sensitive(self):
        tokens = tokenize("Age age")
        assert [t.text for t in tokens[:2]] == ["Age", "age"]

    def test_ket_literal(self):
        token = tokenize("|011>")[0]
        assert token.kind == "ket"
        assert token.text == "|011>"

    def test_statement_token_count(self):
        # DELETE WHERE age >= 3 ;  ->  6 tokens + eof
        tokens = tokenize("DELETE WHERE age >= 3;")
        assert len(tokens) == 7
        assert [t.kind for t in tokens] == [
            "keyword", "keyword", "ident", "op", "int", "punct", "eof",
        ]

    def test_spans(self):
        tokens = tokenize("SHOW;\nMEASURE 10;")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[2].line, tokens[2].column) == (2, 1)
        assert (tokens[3].line, tokens[3].column) == (2, 9)

    def test_comments_skipped(self):
        tokens = tokenize("SHOW; -- everything after is ignored\n")
        assert len(tokens) == 3

    def test_illegal_character(self):
        with pytest.raises(QqlSyntaxError) as excinfo:
            tokenize("SELECT $")
        assert excinfo.value.column == 8

    def test_malformed_ket(self):
        with pytest.raises(QqlSyntaxError):
            tokenize("|012>")

    def test_unterminated_string(self):
        with pytest.raises(QqlSyntaxError):
            tokenize('SAVE "unclosed')


def lexed(tokenizer, text: str):
    """The (kind, text, line, column) list, or the error's message, line and
    column."""
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenizer(text)]
    except QqlSyntaxError as exc:
        return (exc.message, exc.line, exc.column)


# Pieces of the grammar, for texts that mostly lex; the free text draws any
# code point.
LEXEMES = st.sampled_from([
    "SELECT", "select", "age", "_x1", "ſelect", "a\u00b2", "\u0663", "\u00b2", "12abc", "0",
    "|0101>", "|>", "|01", "|012>", '"x.qdb"', '"open', '"two\nlines"', "--", "-- note",
    ">=", "<=", "!=", "!", ">", "<", "=", "(", ")", ",", ":", ";", "@", " ", "\t", "\r", "\n",
    "\x0b", "\u00a0",
])
LEX_TEXTS = st.one_of(st.text(), st.lists(st.one_of(LEXEMES, st.text(max_size=3))).map("".join))


class TestTokenizeMatchesReference:
    """The regular-expression lexer against the character loop it replaced:
    the same tokens, or the same error at the same place."""

    @given(LEX_TEXTS)
    @settings(max_examples=500, deadline=None, derandomize=True)
    @example("\u00b2")
    @example("\u0663")
    @example("a\u00b2 \u0663a")
    @example("12abc")
    @example("SHOW;\t\r\nMEASURE\t10;")
    @example("SHOW; \x0b")
    @example("SHOW; \t ")
    @example("SHOW;\n  -- trailing comment")
    @example("SHOW; --")
    @example('SAVE "unclosed')
    @example('SAVE "two\nlines";')
    @example("INSERT VALUES |0101>, |>;")
    @example("UPDATE SET |01")
    @example("|012>")
    @example("MEASURE " + "9" * MAX_INT_DIGITS + ";")
    @example("MEASURE " + "9" * (MAX_INT_DIGITS + 1) + ";")
    @example("")
    def test_same_tokens_or_error(self, text):
        assert lexed(tokenize, text) == lexed(reference_tokenize, text)


def parsed(parser, text: str):
    """The commands, or the error's type, message, line and column."""
    try:
        return parser(text)
    except QqlError as exc:
        return (type(exc), exc.message, exc.line, exc.column)


def parsed_from_tokens(text: str):
    return _Parser(tokenize(text)).parse_script()


# Record lists as runs of kets see them: kets of several widths, malformed
# ones, field tuples between them, "," and TO in any case as separators,
# blanks, newlines and comments inside, and lists cut short.  Each list is
# well formed, or has a few faults drawn in.
GOOD_ITEMS = ["|01>", "|10>", "|11>", "|00>", "|0110>", "|1>"]
ANY_ITEMS = GOOD_ITEMS + ["(a = 1)", "(a=1, b = 2)", "|012>", "|>", "|01", "()", "(a = 1"]
TO = ["TO", "to", "tO", "To"]
ANY_SEPARATORS = [",", *TO, ";", "T0", "TOx", ""]
BLANKS = ["", " ", "  ", "\t", "\r", "\n", " -- note\n", "\r\n"]
HEADS = {False: ["INSERT VALUES ", "insert values"], True: ["UPDATE SET ", "update set\t"]}
ANY_HEADS = ["INSERT VALUES ", "UPDATE SET ", "APPLY SWAP ", "SHOW; ", ""]
TAILS = [";", " WHEN c;", "", ",", " TO;", "; SHOW;", "\n"]


@st.composite
def record_lists(draw) -> str:
    statements = []
    for _ in range(draw(st.integers(1, 3))):
        pairs = draw(st.booleans())
        faults = draw(st.sampled_from([0, 0, 0.05, 0.3]))

        def faulty() -> bool:
            return draw(st.floats(0, 1)) < faults

        head = draw(st.sampled_from(ANY_HEADS if faulty() else HEADS[pairs]))
        pieces = []
        count = draw(st.integers(1, 7)) * (1 + pairs) - faulty()
        for k in range(count):
            fault = faulty()
            item = draw(st.sampled_from(ANY_ITEMS if fault else GOOD_ITEMS))
            blanks = BLANKS if fault else BLANKS[:2]
            pieces.append(draw(st.sampled_from(blanks)) + item + draw(st.sampled_from(blanks)))
            separator = draw(st.sampled_from(TO)) if pairs and k % 2 == 0 else ","
            pieces.append(draw(st.sampled_from(ANY_SEPARATORS)) if faulty() else separator)
        if pieces and not faulty():
            pieces.pop()  # no separator after the last item
        tail = draw(st.sampled_from(TAILS)) if faulty() else ";"
        statements.append(head + "".join(pieces) + tail)
    return "".join(statements)


def long_list(separators, count: int, width: int = 3) -> str:
    kets = [f"|{k % (1 << width):0{width}b}>" for k in range(count)]
    pieces = [piece for k, ket in enumerate(kets) for piece in (ket, separators[k % len(separators)])]
    return "".join(pieces[:-1])


class TestParseMatchesTokenParse:
    """``parse_text``, which reads a run of kets with one split, against the
    parser fed ``tokenize``'s tokens one by one: the same commands, or the
    same error at the same place."""

    @given(record_lists())
    @settings(max_examples=600, deadline=None, derandomize=True)
    @example("INSERT VALUES |01>, |10>;")
    @example("INSERT VALUES |01> TO |10>;")
    @example("UPDATE SET |01> TO |10>, |11> to |00>;")
    @example("UPDATE SET |01> TO |10>, |11>;")
    @example("UPDATE SET |01>, |10> TO |11>;")
    @example("UPDATE SET (a = 1) TO |01>, |10> TO |11>;")
    @example("APPLY SWAP |01> TO |10> WHEN c;")
    @example("INSERT VALUES |01>,\n|10>;")
    @example("INSERT VALUES |01>, |10>, |012>;")
    @example("INSERT VALUES |01>, |10>,;")
    @example("INSERT VALUES |01>, |10> -- note\n, |11>;")
    @example("|01>, |10>;")
    @example("INSERT VALUES " + long_list([", "], 1100) + ";")
    @example("UPDATE SET " + long_list([" TO ", ", "], 1100) + ";")
    @example("UPDATE SET (a = 1) TO " + long_list([", ", " TO "], 1101) + ";")
    @example("INSERT VALUES " + long_list([", "], 600) + " TO |01>;")
    def test_same_commands_or_error(self, text):
        assert parsed(parse_text, text) == parsed(parsed_from_tokens, text)

    @pytest.mark.parametrize("count", [2, 511, 512, 513, 1024, 1100])
    def test_long_lists_read_without_token_by_token_parsing(self, count):
        # a list longer than a run is several runs joined by ",", each of
        # them read with one split: no run is expanded into its tokens
        inserts = "INSERT VALUES " + long_list([", "], count) + ";"
        updates = "UPDATE SET " + long_list([" TO ", ", "], 2 * count) + ";"
        with mock.patch.object(qlang, "_expand", side_effect=AssertionError("expanded")):
            insert, update = parse_text(inserts + updates)
        assert (len(insert.records), len(update.pairs)) == (count, count)
        assert [insert, update] == parsed_from_tokens(inserts + updates)

    @given(LEX_TEXTS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_free_text(self, text):
        assert parsed(parse_text, text) == parsed(parsed_from_tokens, text)


class TestParse:
    def test_create_table(self):
        (cmd,) = parse_text("CREATE TABLE people (age:3, member:1) TEMP 2;")
        assert cmd == CreateTable("people", (("age", 3), ("member", 1)), 2)

    def test_create_without_temp(self):
        (cmd,) = parse_text("CREATE TABLE t (a:1);")
        assert cmd == CreateTable("t", (("a", 1),), None)

    def test_insert_all(self):
        assert parse_text("INSERT ALL 2;") == [InsertAll(2)]

    def test_insert_seq(self):
        assert parse_text("INSERT SEQ 6;") == [InsertSeq(6)]

    def test_insert_values_mixed_records(self):
        (cmd,) = parse_text("INSERT VALUES |011>, (age = 5, member = 1);")
        assert cmd == InsertValues(
            (KetRec("011"), FieldRec((("age", 5), ("member", 1))))
        )

    def test_update_kets(self):
        (cmd,) = parse_text("UPDATE SET |011> TO |111>;")
        assert cmd == Update(((KetRec("011"), KetRec("111")),))
        # which, on a 3-bit schema, is the record pair (3, 7)
        assert int("011", 2) == 3 and int("111", 2) == 7

    def test_delete(self):
        (cmd,) = parse_text("DELETE WHERE age >= 3;")
        assert cmd == Delete(Comparison("age", ">=", 3), 0)

    def test_delete_with_amplify(self):
        (cmd,) = parse_text("DELETE WHERE age = 0 AMPLIFY 2;")
        assert cmd == Delete(Comparison("age", "=", 0), 2)

    def test_select(self):
        (cmd,) = parse_text("SELECT c1 WHERE age != 2 AND member = 1;")
        assert cmd == Select(
            "c1", And(Comparison("age", "!=", 2), Comparison("member", "=", 1))
        )

    def test_backup(self):
        (cmd,) = parse_text("BACKUP WHERE id = 3;")
        assert cmd == Backup(Comparison("id", "=", 3))

    def test_apply_bit_gate(self):
        (cmd,) = parse_text("APPLY NOT @ age BIT 1 WHEN c1 AND NOT c2;")
        assert cmd == Apply(
            BitGate("NOT", "age", 1), And(Var("c1"), Not(Var("c2")))
        )

    def test_apply_swap(self):
        (cmd,) = parse_text("APPLY SWAP |00> TO |11> WHEN c1;")
        assert cmd == Apply(SwapGate(KetRec("00"), KetRec("11")), Var("c1"))

    def test_restore_variants(self):
        assert parse_text("RESTORE;") == [Restore(False)]
        assert parse_text("RESTORE PURGE;") == [Restore(True)]

    def test_measure(self):
        assert parse_text("MEASURE 4096;") == [Measure(4096, None)]
        assert parse_text("MEASURE 100 SEED 7;") == [Measure(100, 7)]

    def test_show_save_load(self):
        assert parse_text("SHOW;") == [Show(False)]
        assert parse_text("SHOW FULL;") == [Show(True)]
        assert parse_text('SAVE "a.qdb";') == [Save("a.qdb")]
        assert parse_text('LOAD "a.qdb";') == [Load("a.qdb")]

    def test_expression_precedence(self):
        (cmd,) = parse_text("DELETE WHERE a = 1 OR b = 2 AND NOT c = 3;")
        assert cmd.expr == Or(
            Comparison("a", "=", 1),
            And(Comparison("b", "=", 2), Not(Comparison("c", "=", 3))),
        )

    def test_parenthesised_expression(self):
        (cmd,) = parse_text("DELETE WHERE (a = 1 OR b = 2) AND c = 3;")
        assert cmd.expr == And(
            Or(Comparison("a", "=", 1), Comparison("b", "=", 2)),
            Comparison("c", "=", 3),
        )

    def test_missing_semicolon(self):
        with pytest.raises(QqlSyntaxError):
            parse_text("SHOW")

    def test_error_location_and_expectation(self):
        with pytest.raises(QqlSyntaxError) as excinfo:
            parse_text("DELETE age >= 3;")
        assert "WHERE" in str(excinfo.value)
        assert excinfo.value.line == 1

    def test_bare_var_rejected_in_data_expr(self):
        with pytest.raises(QqlSyntaxError):
            parse_text("DELETE WHERE member;")

    def test_multiple_statements(self):
        cmds = parse_text("SHOW; SHOW; MEASURE 5;")
        assert len(cmds) == 3


EXPRS = st.recursive(
    st.one_of(
        st.builds(
            Comparison,
            st.sampled_from(["age", "member"]),
            st.sampled_from([">", ">=", "<", "<=", "=", "!="]),
            st.integers(0, 7),
        ),
        st.builds(Const, st.sampled_from([0, 1])),
    ),
    lambda children: st.one_of(
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
    ),
    max_leaves=8,
)

RECS = st.one_of(
    st.builds(KetRec, st.text(alphabet="01", min_size=3, max_size=3)),
    st.builds(lambda v: FieldRec((("age", v),)), st.integers(0, 7)),
)

COMMANDS = st.one_of(
    st.builds(CreateTable, st.sampled_from(["t", "people"]),
              st.just((("age", 3), ("member", 1))), st.sampled_from([None, 1, 3])),
    st.builds(InsertAll, st.integers(0, 3)),
    st.builds(InsertSeq, st.integers(1, 7)),
    st.builds(lambda r: InsertValues((r,)), RECS),
    st.builds(lambda a, b: Update(((a, b),)), RECS, RECS),
    st.builds(Delete, EXPRS, st.integers(0, 3)),
    st.builds(Select, st.sampled_from(["c1", "c2"]), EXPRS),
    st.builds(
        Apply,
        st.one_of(
            st.builds(BitGate, st.sampled_from(["NOT", "H"]),
                      st.sampled_from(["age", "member"]), st.sampled_from([None, 0, 1])),
            st.builds(SwapGate, RECS, RECS),
        ),
        st.one_of(st.builds(Var, st.sampled_from(["c1", "c2"])),
                  st.builds(lambda a, b: And(Var(a), Not(Var(b))), st.just("c1"), st.just("c2"))),
    ),
    st.builds(Backup, EXPRS),
    st.builds(Restore, st.booleans()),
    st.builds(Measure, st.integers(1, 10000), st.sampled_from([None, 0, 7])),
    st.builds(Show, st.booleans()),
    st.builds(Save, st.sampled_from(["x.qdb", "state file.qdb"])),
    st.builds(Load, st.sampled_from(["x.qdb"])),
)


class TestRoundTrip:
    @given(COMMANDS)
    @settings(max_examples=300, deadline=None)
    def test_print_parse_round_trip(self, command):
        rendered = render_command(command)
        assert parse_text(rendered) == [command]

    @given(EXPRS)
    @settings(max_examples=300, deadline=None)
    def test_expr_round_trip(self, expr):
        assert parse_predicate(render_expr(expr)) == expr


# Words that crashed the shell before, sit beyond a limit or at the edge of
# the grammar, drawn as often as all other words together.
EDGE_WORDS = [
    "1" * 5000, "\u00b2", "(self", "(" * 400, " AND ".join(["age = 1"] * 1200), "-1", '"',
]
WORDS = st.one_of(
    st.sampled_from(EDGE_WORDS),
    st.sampled_from([*sorted(KEYWORDS), "age", "member", "c1", "x", "0", "1", "300", "|0101>",
                     "|01>", "(", ")", ",", ":", ";", "@", "=", "!=", "<", '"x.qdb"', "--", "\n"]),
    st.text(max_size=4),
)


def mutate(text: str, index: int, word: str, replace: bool) -> str:
    """``text`` with its space-separated word ``index`` replaced by, or
    preceded by, ``word``."""
    words = text.split(" ")
    index %= len(words)
    words[index : index + replace] = [word]
    return " ".join(words)


# Statements with one hole, each where some word of EDGE_WORDS once did harm.
HOLES = [
    "MEASURE {} SEED 1;", "INSERT ALL {};", "DELETE WHERE age = {} AMPLIFY 1;",
    "DELETE WHERE age = 1 AMPLIFY {};", "APPLY H @ age BIT {} WHEN c1;", "SELECT c2 WHERE {};",
    "SELECT c2 WHERE {} age = 1);", "BACKUP WHERE NOT ({});", "APPLY NOT @ age WHEN {};",
    "INSERT VALUES {} = 1);", "UPDATE SET {} TO |0101>;", "CREATE TABLE {} (a:1);", "SAVE {};",
]
TEXTS = st.one_of(
    st.builds(str.format, st.sampled_from(HOLES), WORDS),
    st.builds(mutate, COMMANDS.map(render_command), st.integers(0, 20), WORDS, st.booleans()),
    st.lists(st.one_of(WORDS, COMMANDS.map(render_command)), max_size=4).map(" ".join),
)


def compiles_or_is_rejected(text: str) -> None:
    """``text`` parses and binds against a fixed schema, or raises
    QqlSyntaxError or CompileError; any other exception fails the test."""
    session = fresh_session()
    session.execute_text("CREATE TABLE people (age:3, member:1) TEMP 3;")
    session.execute_text("SELECT c1 WHERE age > 2;")
    try:
        commands = parse_text(text)
    except QqlSyntaxError:
        return
    for command in commands:
        try:
            compile_command(command, session)
        except CompileError:
            pass


class TestFuzz:
    @given(TEXTS)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_text_compiles_or_is_rejected(self, text):
        compiles_or_is_rejected(text)

    @pytest.mark.parametrize("hole", HOLES)
    def test_edge_words_in_every_hole(self, hole):
        for word in EDGE_WORDS:
            compiles_or_is_rejected(hole.format(word))

    @pytest.mark.parametrize("too_deep", [False, True])
    def test_depth_limit(self, too_deep):
        depth = MAX_EXPR_DEPTH + too_deep
        for text in (
            " OR ".join(["age = 1"] * depth),
            "(" * depth + "age = 1" + ")" * depth,
            "NOT (" * (depth - 1) + "age = 1" + ")" * (depth - 1),
        ):
            if too_deep:
                with pytest.raises(QqlSyntaxError, match="nested deeper"):
                    parse_text(f"DELETE WHERE {text};")
            else:
                parse_text(f"DELETE WHERE {text};")

    def test_integer_literal_length_limit(self):
        longest = "9" * MAX_INT_DIGITS
        assert parse_text(f"MEASURE {longest};") == [Measure(int(longest))]
        with pytest.raises(QqlSyntaxError, match="integer literal"):
            parse_text(f"MEASURE 1{'0' * MAX_INT_DIGITS};")


def fresh_session(**config) -> Session:
    return Session(SessionConfig(**config))


class TestCompile:
    def test_data_command_without_table(self):
        with pytest.raises(CompileError):
            fresh_session().execute_text("INSERT ALL 2;")

    def test_unknown_field(self):
        session = fresh_session()
        session.execute_text("CREATE TABLE t (age:3);")
        with pytest.raises(CompileError):
            session.execute_text("DELETE WHERE salary > 1;")

    def test_width_overflow(self):
        session = fresh_session()
        session.execute_text("CREATE TABLE t (age:3);")
        with pytest.raises(CompileError):
            session.execute_text("DELETE WHERE age > 8;")

    def test_ket_width_checked_at_compile(self):
        session = fresh_session()
        session.execute_text("CREATE TABLE t (age:3);")
        with pytest.raises(CompileError):
            session.execute_text("UPDATE SET |01> TO |11>;")

    def test_second_create_rejected(self):
        session = fresh_session()
        session.execute_text("CREATE TABLE t (age:3);")
        with pytest.raises(CompileError):
            session.execute_text("CREATE TABLE u (x:1);")

    def test_unknown_select_name(self):
        session = fresh_session()
        session.execute_text("CREATE TABLE t (age:3); INSERT ALL 2;")
        with pytest.raises(CompileError):
            session.execute_text("APPLY NOT @ age WHEN c9;")

    def test_duplicate_select_name(self):
        session = fresh_session()
        session.execute_text("CREATE TABLE t (age:3); SELECT c1 WHERE age = 0;")
        with pytest.raises(CompileError):
            session.execute_text("SELECT c1 WHERE age = 1;")

    def test_field_assigned_twice(self):
        # INSERT VALUES (a = 1, a = 2) inserted the last value, record 8
        session = fresh_session()
        session.execute_text("CREATE TABLE t (a:2, b:2); INSERT SEQ 3; SELECT c WHERE a = 0;")
        before = session.db.state.amps.tobytes()
        for text in ("INSERT VALUES (a = 1, a = 2);", "UPDATE SET (a = 0) TO (b = 1, b = 1);",
                     "APPLY SWAP (b = 1, a = 1, b = 2) TO (a = 2) WHEN c;"):
            with pytest.raises(CompileError, match="^field '[ab]' is assigned twice$"):
                session.execute_text(text)
        assert session.db.state.amps.tobytes() == before

    def test_bit_out_of_range(self):
        session = fresh_session()
        session.execute_text("CREATE TABLE t (age:3); SELECT c1 WHERE age = 0;")
        with pytest.raises(CompileError):
            session.execute_text("APPLY NOT @ age BIT 3 WHEN c1;")

    def test_delete_routes_to_engine(self):
        session = fresh_session()
        outputs = session.execute_text(
            "CREATE TABLE t (id:2) TEMP 1; INSERT ALL 2; DELETE WHERE id = 3;"
        )
        assert "0.750000" in outputs[-1]
        assert session.db.support().tolist() == [0, 1, 2]

    def test_fig5_pipeline_end_to_end(self):
        session = fresh_session()
        session.execute_text(
            "CREATE TABLE t (id:3) TEMP 3;"
            "INSERT ALL 3;"
            "SELECT c1 WHERE id >= 4;"
            "SELECT c2 WHERE id = 6;"
            "APPLY NOT @ id BIT 0 WHEN c1 AND NOT c2;"
        )
        expected = sorted(
            (r ^ 1 if (r >= 4 and r != 6) else r) for r in range(8)
        )
        assert session.db.support().tolist() == sorted(set(expected))

    def test_apply_consumes_clean_flags(self):
        session = fresh_session()
        session.execute_text(
            "CREATE TABLE t (id:2) TEMP 2;"
            "INSERT ALL 2;"
            "SELECT c1 WHERE id >= 2;"
            "APPLY NOT @ id BIT 0 WHEN c1;"
        )
        assert session.db.selects == {}

    def test_gate_spec_bit_targets_low_bit(self):
        # NOT @ age BIT 0 flips the least significant bit of the field
        session = fresh_session()
        session.execute_text(
            "CREATE TABLE t (age:3) TEMP 2;"
            "INSERT VALUES (age = 4);"
            "SELECT c1 WHERE age = 4;"
            "APPLY NOT @ age BIT 0 WHEN c1;"
        )
        assert session.db.support().tolist() == [5]

    def test_h_gate_spec(self):
        session = fresh_session()
        session.execute_text(
            "CREATE TABLE t (age:1) TEMP 2;"
            "SELECT c1 WHERE age = 0;"
            "APPLY H @ age WHEN c1;"
        )
        assert session.db.support().tolist() == [0, 1]


class TestBindRecordLists:
    """Record lists bound at once, a list of kets as one byte matrix and any
    other list record by record, against binding each record on its own:
    the same indices, or the error of the first record that does not fit."""

    FIELDS = "CREATE TABLE t (a:3, b:2) TEMP 1;"

    @given(st.lists(st.one_of(
        st.text(alphabet="01", min_size=4, max_size=6).map(lambda bits: f"|{bits}>"),
        st.builds(lambda a, b: f"(a = {a}, b = {b})", st.integers(0, 8), st.integers(0, 4)),
    ), min_size=1, max_size=30))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_indices_or_error_as_one_by_one(self, records):
        session = fresh_session()
        session.execute_text(self.FIELDS)
        (command,) = parse_text("INSERT VALUES " + ", ".join(records) + ";")
        try:
            expected = [_resolve_record(rec, session.db.schema) for rec in command.records]
        except CompileError as exc:
            with pytest.raises(CompileError) as excinfo:
                compile_command(command, session)
            assert str(excinfo.value) == str(exc)
            return
        bound = _bind_records(command.records, session.db.schema)
        assert bound.dtype == np.int64 and bound.tolist() == expected

    # int(bits, 2) once read the first three as 2, 1 and 7
    KETS = {"underscore": "1_0", "0b": "0b1", "arabic-indic": "\u0661" * 3, "x": "1x1",
            "space": " 10", "int": 101, "bytes": b"101"}

    @pytest.mark.parametrize("bits", KETS.values(), ids=KETS.keys())
    def test_ket_built_in_code_not_of_0s_and_1s_refused(self, bits):
        session = fresh_session()
        session.execute_text("CREATE TABLE t (k:3) TEMP 1;")
        before = session.db.state.amps.tobytes()
        for command in (
            InsertValues((KetRec(bits),)),
            InsertValues((KetRec("001"), KetRec(bits))),
            InsertValues((FieldRec((("k", 1),)), KetRec(bits))),
            Update(((KetRec("000"), KetRec(bits)),)),
        ):
            with pytest.raises(CompileError, match=" is not a string of 0s and 1s$"):
                session.execute_command(command)
        assert session.db.state.amps.tobytes() == before


class TestHostileRecordLists:
    """A record list far longer or wider than its schema ends in the
    CompileError of its first misfit, and binding it builds nothing larger
    than the statement's text."""

    @staticmethod
    def bind_peak(session, command):
        tracemalloc.start()
        try:
            with pytest.raises(CompileError) as excinfo:
                compile_command(command, session)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return str(excinfo.value), peak

    def test_million_kets_one_of_the_wrong_width(self):
        session = fresh_session()
        session.execute_text("CREATE TABLE t (k:14) TEMP 1;")
        kets = [f"|{k % (1 << 14):014b}>" for k in range(10**6)]
        kets[-7] = "|0" + kets[-7][1:]
        text = "INSERT VALUES " + ", ".join(kets) + ";"
        (command,) = parse_text(text)
        message, peak = self.bind_peak(session, command)
        assert message == "ket of 15 bits does not match the 14-bit schema"
        assert peak < len(text)
        with pytest.raises(CompileError, match="^ket of 15 bits"):
            session.execute_command(command)
        assert session.db.support().tolist() == [0]

    def test_ket_of_a_million_bits(self):
        session = fresh_session()
        session.execute_text("CREATE TABLE t (k:14) TEMP 1;")
        for text in ("INSERT VALUES |" + "01" * 500_000 + ">;",
                     "UPDATE SET |" + "1" * 10**6 + "> TO |00000000000001>;"):
            message, peak = self.bind_peak(session, *parse_text(text))
            assert message == "ket of 1000000 bits does not match the 14-bit schema"
            assert peak < len(text)
