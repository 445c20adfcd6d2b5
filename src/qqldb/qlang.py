"""Lexer, parser and command compiler for the textual query language.

Grammar (statements end with ';'; keywords are case-insensitive, identifiers
case-sensitive; '--' starts a line comment):

    create   := "CREATE" "TABLE" ident "(" field {"," field} ")" ["TEMP" int]
    field    := ident ":" int
    insert   := "INSERT" ("ALL" int | "SEQ" int | "VALUES" rec {"," rec})
    update   := "UPDATE" "SET" rec "TO" rec {"," rec "TO" rec}
    delete   := "DELETE" "WHERE" expr ["AMPLIFY" int]
    select   := "SELECT" ident "WHERE" expr
    apply    := "APPLY" gatespec "WHEN" whenexpr
    gatespec := ("NOT" | "H") "@" ident ["BIT" int] | "SWAP" rec "TO" rec
    backup   := "BACKUP" "WHERE" expr
    restore  := "RESTORE" ["PURGE"]
    measure  := "MEASURE" int ["SEED" int]
    show     := "SHOW" ["FULL"]   save := "SAVE" string   load := "LOAD" string
    rec      := ket-literal | "(" ident "=" int {"," ident "=" int} ")"
    expr     := or-chain of and-chains of ["NOT"] atoms
    atom     := ident op int | int | "(" expr ")"        (whenexpr also: ident)
    op       := ">" | ">=" | "<" | "<=" | "=" | "!="

Parenthesised sub-expressions and bare 0/1 atoms are accepted as a superset
of the minimal grammar so that every predicate the engine can hold renders
back to parseable text.
"""

from __future__ import annotations

import re
import reprlib
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .boolcirc import (
    MAX_EXPR_DEPTH,
    And,
    BoolExpr,
    Comparison,
    Const,
    Not,
    Or,
    Var,
    expr_depth,
    validate_expr,
    walk_expr,
)
from .errors import ArgumentError, CompileError, QqlSyntaxError, SchemaError, as_int
from .gates import HADAMARD, NOT as NOT_GATE
from .qdb import DEFAULT_TEMP_QUBITS, ApplyGate, ApplySwap, QdbState
from .schema import TableSchema
from .statevec import check_shots

KEYWORDS = {
    "CREATE", "TABLE", "TEMP", "INSERT", "ALL", "SEQ", "VALUES", "UPDATE",
    "SET", "TO", "DELETE", "WHERE", "AMPLIFY", "SELECT", "APPLY", "WHEN",
    "BACKUP", "RESTORE", "PURGE", "MEASURE", "SEED", "SHOW", "FULL", "SAVE",
    "LOAD", "AND", "OR", "NOT", "BIT", "SWAP", "H",
}

# Longest integer literal: by default Python converts no text of more than
# 4300 digits to an int.
MAX_INT_DIGITS = 1000


class Token(NamedTuple):
    kind: str  # keyword | ident | int | ket | op | punct | string | eof
    text: str
    line: int
    column: int


# One alternative per token kind, each after optional blanks, tried in order;
# "bad" takes any other character but a blank, so blanks at the end of input
# match nothing and are skipped.  An identifier starts with a letter or "_" and
# goes on with "\w", which is exactly str.isalnum or "_"; "uword" is a run of
# "\w" with any other start, an identifier only if it starts with a letter.
# Integers are ASCII digits: int rejects other digits such as "²".
#
# A "run" is two or more ket literals on one line joined by "," or "TO" in any
# case, with blanks between them; it is one token of :func:`_lex`.  "kets"
# finds one with a character class, which keeps no backtracking state per ket:
# a ket, then up to ``RUN_SPAN`` characters a run can hold, to the last ">".
# When that text starts with kets of one width joined by one separator, or by
# two alternately, the longest prefix of whole periods of that pattern is the
# run (:func:`_template_run`).  Any other such text is read by ``_EXACT_RE``,
# whose "run" is the grammar's own and holds at most 512 kets, an even number,
# so that a longer list of pairs is several runs that each start at a pair.
_KET = r"\|[01]+>"
_RUN_SEPARATOR = r"[ \t\r]*(?:,|[Tt][Oo])[ \t\r]*"
RUN_SPAN = 1 << 14


def _token_re(kets: str) -> re.Pattern:
    return re.compile(
        rf"""[ \t\r]*(?:(?P<punct>[(),:;@])|{kets}|(?P<word>[A-Za-z_]\w*)
        |(?P<int>[0-9]+)|(?P<op>[<>!]=|[<>=])|(?P<newline>\n)|(?P<comment>--[^\n]*)
        |(?P<string>"[^"\n]*")|(?P<uword>\w+)|(?P<bad>[^ \t\r]))""",
        re.VERBOSE | re.DOTALL,
    )


_TOKEN_RE = _token_re(rf"(?P<kets>{_KET}(?:[ \t\r,TtOo|01>]{{0,{RUN_SPAN}}}>)?)")
_EXACT_RE = _token_re(rf"(?P<run>{_KET}(?:{_RUN_SEPARATOR}{_KET}){{1,511}})|(?P<ket>{_KET})")
_SEPARATOR_RE = re.compile(_RUN_SEPARATOR)
_ZERO_BITS = bytes.maketrans(b"1", b"0")
# The separators of a run, from the run without its first "|" and last ">",
# between its kets' bits; and its tokens.
_RUN_SPLIT = re.compile(r">[ \t\r]*(,|[Tt][Oo])[ \t\r]*\|")
_RUN_TOKENS = re.compile(rf"{_KET}|,|[Tt][Oo]")
_BITS = re.compile("[01]+")  # each ket's bits, in a run
# What a "bad" character that starts a malformed token means.
_LEXER_ERRORS = {
    "|": "malformed ket literal; expected |b...b> with bits 0/1",
    '"': "unterminated string literal",
}


class _Run(NamedTuple):
    """A run token of :func:`_lex`: ``count`` kets of ``width`` bits each
    whose separators, each "," or "TO", are ``seps`` repeated; a run of
    ``_EXACT_RE`` has None for both, read off its text when the parser asks."""

    kind: str  # "run"
    text: str
    line: int
    column: int
    count: int
    seps: Optional[tuple[str, ...]]
    width: Optional[int]


def tokenize(text: str, first_line: int = 1) -> list[Token]:
    """Deterministic token stream; errors carry line:column, with the text's
    first line numbered ``first_line``."""
    tokens: list[Token] = []
    for token in _lex(text, first_line):
        if token.kind == "run":
            tokens += _expand(token)
        else:
            tokens.append(token)
    return tokens


def _lex(text: str, first_line: int = 1) -> list:
    """:func:`tokenize`'s tokens, but each run of ket literals as one
    :class:`_Run` token: its text is the run's, from its first "|" to its
    last ">", and :func:`_expand` gives its tokens.  The "kets" text that is
    not a run of one pattern is read again by ``_EXACT_RE``, to its end."""
    tokens: list = []
    line, line_start, match = first_line, 0, None
    pos, exact_end = 0, -1
    while pos is not None:
        exact, restart = pos < exact_end, None
        for match in (_EXACT_RE if exact else _TOKEN_RE).finditer(text, pos):
            kind = match.lastgroup
            if kind == "newline":
                line, line_start = line + 1, match.end()
                continue
            if kind == "comment":
                continue
            word = match.group(kind)
            column = match.start(kind) - line_start + 1
            if kind == "kets":
                if word.index(">") + 1 == len(word):
                    tokens.append(Token("ket", word, line, column))
                    continue
                run = _template_run(word)
                if run is None:
                    exact_end, restart = match.end(), match.start(kind)
                    break
                end, count, seps = run
                tokens.append(_Run("run", word[:end], line, column, count, seps, word.index(">") - 1))
                if end < len(word):
                    restart = match.start(kind) + end
                    break
                continue
            if kind == "run":
                tokens.append(_Run(kind, word, line, column, word.count("|"), None, None))
            else:
                if kind == "word" or kind == "uword" and word[0].isalpha():
                    upper = word.upper()
                    kind, word = ("keyword", upper) if upper in KEYWORDS else ("ident", word)
                elif kind == "string":
                    word = word[1:-1]
                elif kind == "int" and len(word) > MAX_INT_DIGITS:
                    raise QqlSyntaxError(
                        f"integer literal of more than {MAX_INT_DIGITS} digits", line, column
                    )
                elif kind == "bad" or kind == "uword":
                    raise QqlSyntaxError(
                        _LEXER_ERRORS.get(word[0], f"illegal character {word[0]!r}"), line, column
                    )
                tokens.append(Token(kind, word, line, column))
            if exact and match.end() >= exact_end:
                restart = match.end()
                break
        pos = restart
    # a comment does not move the column, so one at the end of input holds it
    end = match.start("comment") if match and match.lastgroup == "comment" else len(text)
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens


def _template_run(kets: str) -> tuple[int, int, tuple[str, ...]] | None:
    """The length, ket count and separators of the run at the start of
    ``kets`` (a ket, then what a run can hold, to a ">") whose kets are all
    as wide as the first and whose separators repeat the first one, or the
    first two alternately; the run is the longest prefix of whole periods.
    None when that run has fewer than two kets.  One byte comparison with
    the pattern checks it, each 1 read as 0."""
    width = kets.index(">") + 1
    second = kets.find("|", width)
    if second < 0:
        return None
    seps = [kets[width:second]]
    third = kets.find("|", second + width)
    if third > 0 and kets[second + width:third] != seps[0]:
        seps.append(kets[second + width:third])
    if not all(map(_SEPARATOR_RE.fullmatch, seps)):
        return None
    unit = "".join(f"|{'0' * (width - 2)}>{sep}" for sep in seps).encode("ascii")
    periods = (len(kets) + len(seps[-1])) // len(unit)
    end = periods * len(unit) - len(seps[-1])
    if periods * len(seps) < 2 or (
            kets[:end].encode("ascii").translate(_ZERO_BITS) != (unit * periods)[:end]):
        return None
    return end, periods * len(seps), tuple(sep.strip(" \t\r").upper() for sep in seps)


def _expand(run: _Run) -> list[Token]:
    """The ket, "," and TO tokens of a run token, as :func:`tokenize` gives
    them: a run lies on one line."""
    tokens = []
    for match in _RUN_TOKENS.finditer(run.text):
        part = match.group()
        kind = "ket" if part[0] == "|" else "punct" if part == "," else "keyword"
        tokens.append(Token(kind, part.upper(), run.line, run.column + match.start()))
    return tokens


def _fits(run: _Run, pairs: bool) -> bool:
    """Whether a run's separators are all "," or, with ``pairs``,
    "TO , TO ... TO"."""
    seps = run.seps
    if seps is None:
        seps = tuple(sep.upper() for sep in _RUN_SPLIT.split(run.text[1:-1])[1::2])
    expected = ("TO", ",") if pairs else (",",)
    if pairs and run.count % 2:
        return False
    # both patterns repeat, so their first 2 * len(seps) places decide
    return all(seps[i % len(seps)] == expected[i % len(expected)]
               for i in range(min(run.count - 1, 2 * len(seps))))


# ---------------------------------------------------------------------- AST


class KetRec(NamedTuple):
    bits: str  # e.g. "011"


class _KetBlock(NamedTuple):
    """A run of ket literals kept as the parser read it: its text, from its
    first "|" to its last ">", its number of kets, and their width in bits,
    or -1 when they differ."""

    text: str
    count: int
    width: int

    def records(self) -> list[KetRec]:
        return list(map(KetRec, _BITS.findall(self.text)))


class RecordList(Sequence):
    """A parsed record list: records in order, a run of kets among them as
    one :class:`_KetBlock`.  It is the tuple of its records, or with
    ``pairs`` of its (source, target) pairs, as a sequence: it equals,
    hashes, iterates and indexes as that tuple does, and builds a block's
    ``KetRec``s only when they are read.  The binder reads the blocks'
    text."""

    __slots__ = ("items", "pairs", "_length")

    def __init__(self, items, pairs: bool = False):
        self.items = tuple(items)
        self.pairs = pairs
        length = sum(item.count if isinstance(item, _KetBlock) else 1 for item in self.items)
        self._length = length // 2 if pairs else length

    def records(self):
        """The records, one by one."""
        for item in self.items:
            if isinstance(item, _KetBlock):
                yield from item.records()
            else:
                yield item

    def __iter__(self):
        records = self.records()
        return zip(records, records) if self.pairs else records

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other):
        if isinstance(other, (tuple, RecordList)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class FieldRec:
    assignments: tuple[tuple[str, int], ...]


RecSpec = Union[KetRec, FieldRec]


@dataclass(frozen=True)
class BitGate:
    gate: str  # "NOT" | "H"
    field: str
    bit: Optional[int]


@dataclass(frozen=True)
class SwapGate:
    rec_a: RecSpec
    rec_b: RecSpec


GateSpec = Union[BitGate, SwapGate]


@dataclass(frozen=True)
class CreateTable:
    name: str
    fields: tuple[tuple[str, int], ...]
    temp: Optional[int]


@dataclass(frozen=True)
class InsertAll:
    r: int


@dataclass(frozen=True)
class InsertSeq:
    k: int


@dataclass(frozen=True)
class InsertValues:
    records: Sequence[RecSpec]  # a RecordList when parsed


@dataclass(frozen=True)
class Update:
    pairs: Sequence[tuple[RecSpec, RecSpec]]  # a RecordList of pairs when parsed


@dataclass(frozen=True)
class Delete:
    expr: BoolExpr
    amplify: int = 0


@dataclass(frozen=True)
class Select:
    name: str
    expr: BoolExpr


@dataclass(frozen=True)
class Apply:
    gate: GateSpec
    when: BoolExpr


@dataclass(frozen=True)
class Backup:
    expr: BoolExpr


@dataclass(frozen=True)
class Restore:
    purge: bool = False


@dataclass(frozen=True)
class Measure:
    shots: int
    seed: Optional[int] = None


@dataclass(frozen=True)
class Show:
    full: bool = False


@dataclass(frozen=True)
class Save:
    path: str


@dataclass(frozen=True)
class Load:
    path: str


Command = Union[
    CreateTable, InsertAll, InsertSeq, InsertValues, Update, Delete, Select,
    Apply, Backup, Restore, Measure, Show, Save, Load,
]


# ------------------------------------------------------------------- parser


class _Parser:
    """Recursive descent over tokens held in reverse, the next one last, so
    that a run token is replaced by its tokens in place at :meth:`peek` in
    time proportional to its length.  Only :meth:`peek` expands a run: it
    starts with a ket, so a test for any other kind reads it as its first
    token would be read."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens[::-1]
        self.nesting = 0

    def peek(self) -> Token:
        token = self.tokens[-1]
        if token.kind == "run":
            self.tokens[-1:] = _expand(token)[::-1]
            token = self.tokens[-1]
        return token

    def advance(self) -> Token:
        return self.tokens.pop()

    def fail(self, expected: str):
        token = self.peek()
        shown = token.text or "end of input"
        raise QqlSyntaxError(f"expected {expected}, found {shown!r}", token.line, token.column)

    def accept(self, kind: str, text: str) -> bool:
        token = self.tokens[-1]
        if token.kind == kind and token.text == text:
            self.tokens.pop()
            return True
        return False

    def accept_keyword(self, word: str) -> bool:
        return self.accept("keyword", word)

    def expect_keyword(self, word: str) -> Token:
        if self.peek().kind == "keyword" and self.peek().text == word:
            return self.advance()
        self.fail(f"keyword {word}")

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.advance()
        self.fail(text or kind)

    def expect_int(self) -> int:
        return int(self.expect("int").text)

    def expect_ident(self) -> str:
        return self.expect("ident").text

    # statements ---------------------------------------------------------

    def parse_script(self) -> list[Command]:
        commands = []
        while self.peek().kind != "eof":
            commands.append(self.parse_statement())
            self.expect("punct", ";")
        return commands

    def parse_statement(self) -> Command:
        token = self.peek()
        if token.kind != "keyword":
            self.fail("a statement keyword")
        handlers: dict[str, Callable[[], Command]] = {
            "CREATE": self._create,
            "INSERT": self._insert,
            "UPDATE": self._update,
            "DELETE": self._delete,
            "SELECT": self._select,
            "APPLY": self._apply,
            "BACKUP": self._backup,
            "RESTORE": self._restore,
            "MEASURE": self._measure,
            "SHOW": self._show,
            "SAVE": self._save,
            "LOAD": self._load,
        }
        handler = handlers.get(token.text)
        if handler is None:
            self.fail("a statement keyword")
        self.advance()
        return handler()

    def _create(self) -> Command:
        self.expect_keyword("TABLE")
        name = self.expect_ident()
        self.expect("punct", "(")
        fields = [self._field()]
        while self.accept("punct", ","):
            fields.append(self._field())
        self.expect("punct", ")")
        temp = self.expect_int() if self.accept_keyword("TEMP") else None
        return CreateTable(name, tuple(fields), temp)

    def _field(self) -> tuple[str, int]:
        name = self.expect_ident()
        self.expect("punct", ":")
        return (name, self.expect_int())

    def _insert(self) -> Command:
        if self.accept_keyword("ALL"):
            return InsertAll(self.expect_int())
        if self.accept_keyword("SEQ"):
            return InsertSeq(self.expect_int())
        self.expect_keyword("VALUES")
        items = [self._block(pairs=False) or self._rec()]
        while self.accept("punct", ","):
            items.append(self._block(pairs=False) or self._rec())
        return InsertValues(RecordList(items))

    def _block(self, pairs: bool) -> _KetBlock | None:
        """The run token at the head as one block, consumed, if its
        separators are all "," or, with ``pairs``, "TO , TO ... TO"; else
        None, and the run is left to the token-by-token rules."""
        token = self.tokens[-1]
        if token.kind != "run" or not _fits(token, pairs):
            return None
        self.tokens.pop()
        width = token.width
        if width is None:
            widths = set(map(len, _BITS.findall(token.text)))
            width = widths.pop() if len(widths) == 1 else -1
        return _KetBlock(token.text, token.count, width)

    def _rec(self) -> RecSpec:
        token = self.peek()
        if token.kind == "ket":
            self.tokens.pop()
            return KetRec(token.text[1:-1])
        if self.accept("punct", "("):
            assignments = [self._assignment()]
            while self.accept("punct", ","):
                assignments.append(self._assignment())
            self.expect("punct", ")")
            return FieldRec(tuple(assignments))
        self.fail("a record (ket literal or field tuple)")

    def _assignment(self) -> tuple[str, int]:
        name = self.expect_ident()
        self.expect("op", "=")
        return (name, self.expect_int())

    def _update(self) -> Command:
        self.expect_keyword("SET")
        items = self._pair_items()
        while self.accept("punct", ","):
            items += self._pair_items()
        return Update(RecordList(items, pairs=True))

    def _pair_items(self) -> list:
        block = self._block(pairs=True)
        return [block] if block else list(self._pair())

    def _pair(self) -> tuple[RecSpec, RecSpec]:
        src = self._rec()
        self.expect_keyword("TO")
        return (src, self._rec())

    def _delete(self) -> Command:
        self.expect_keyword("WHERE")
        expr = self.parse_expr(bare_vars=False)
        amplify = self.expect_int() if self.accept_keyword("AMPLIFY") else 0
        return Delete(expr, amplify)

    def _select(self) -> Command:
        name = self.expect_ident()
        self.expect_keyword("WHERE")
        return Select(name, self.parse_expr(bare_vars=False))

    def _apply(self) -> Command:
        gate = self._gatespec()
        self.expect_keyword("WHEN")
        return Apply(gate, self.parse_expr(bare_vars=True))

    def _gatespec(self) -> GateSpec:
        if self.accept_keyword("SWAP"):
            rec_a = self._rec()
            self.expect_keyword("TO")
            return SwapGate(rec_a, self._rec())
        token = self.peek()
        if token.kind == "keyword" and token.text in ("NOT", "H"):
            self.advance()
            self.expect("punct", "@")
            field = self.expect_ident()
            bit = self.expect_int() if self.accept_keyword("BIT") else None
            return BitGate(token.text, field, bit)
        self.fail("a gate spec (NOT, H or SWAP)")

    def _backup(self) -> Command:
        self.expect_keyword("WHERE")
        return Backup(self.parse_expr(bare_vars=False))

    def _restore(self) -> Command:
        return Restore(self.accept_keyword("PURGE"))

    def _measure(self) -> Command:
        shots = self.expect_int()
        seed = self.expect_int() if self.accept_keyword("SEED") else None
        return Measure(shots, seed)

    def _show(self) -> Command:
        return Show(self.accept_keyword("FULL"))

    def _save(self) -> Command:
        return Save(self.expect("string").text)

    def _load(self) -> Command:
        return Load(self.expect("string").text)

    # expressions --------------------------------------------------------

    def parse_expr(self, bare_vars: bool) -> BoolExpr:
        token = self.peek()
        expr = self._or_chain(bare_vars)
        if expr_depth(expr) > MAX_EXPR_DEPTH:
            self._too_deep(token)
        return expr

    def _too_deep(self, token: Token):
        raise QqlSyntaxError(
            f"predicate nested deeper than {MAX_EXPR_DEPTH} levels", token.line, token.column
        )

    def _or_chain(self, bare_vars: bool) -> BoolExpr:
        expr = self._and_chain(bare_vars)
        while self.accept_keyword("OR"):
            expr = Or(expr, self._and_chain(bare_vars))
        return expr

    def _and_chain(self, bare_vars: bool) -> BoolExpr:
        expr = self._unary(bare_vars)
        while self.accept_keyword("AND"):
            expr = And(expr, self._unary(bare_vars))
        return expr

    def _unary(self, bare_vars: bool) -> BoolExpr:
        if self.accept_keyword("NOT"):
            return Not(self._atom(bare_vars))
        return self._atom(bare_vars)

    def _atom(self, bare_vars: bool) -> BoolExpr:
        token = self.peek()
        if token.kind == "punct" and token.text == "(":
            if self.nesting == MAX_EXPR_DEPTH:
                self._too_deep(token)
            self.advance()
            self.nesting += 1
            expr = self._or_chain(bare_vars)
            self.nesting -= 1
            self.expect("punct", ")")
            return expr
        if token.kind == "int":
            self.advance()
            return Const(1 if int(token.text) else 0)
        if token.kind == "ident":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "op":
                self.advance()
                return Comparison(token.text, nxt.text, self.expect_int())
            if bare_vars:
                return Var(token.text)
            self.fail("a comparison operator")
        self.fail("a comparison" + (" or select name" if bare_vars else ""))


def parse_text(text: str, first_line: int = 1) -> list[Command]:
    """The commands of a script; the same as parsing :func:`tokenize`'s
    tokens, but a run of kets in an ``INSERT VALUES`` or ``UPDATE SET`` list
    is kept as one block of its record list."""
    return _Parser(_lex(text, first_line)).parse_script()


def parse_predicate(text: str) -> BoolExpr:
    """Parse a lone predicate (used by the session-file loader)."""
    parser = _Parser(_lex(text))
    expr = parser.parse_expr(bare_vars=True)
    if parser.peek().kind != "eof":
        parser.fail("end of predicate")
    return expr


# ----------------------------------------------------------------- rendering


def render_expr(expr: BoolExpr) -> str:
    if expr_depth(expr) > MAX_EXPR_DEPTH:
        raise SchemaError(f"predicate nested deeper than {MAX_EXPR_DEPTH} levels")
    return _render(expr, "or")


def _render(expr: BoolExpr, parent: str) -> str:
    if isinstance(expr, Comparison):
        return f"{expr.field} {expr.op} {expr.literal}"
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Not):
        inner = _render(expr.expr, "not")
        if isinstance(expr.expr, (And, Or, Not)):
            inner = f"({inner})"
        return f"NOT {inner}"
    if isinstance(expr, And):
        body = f"{_render(expr.left, 'and')} AND {_render(expr.right, 'and_r')}"
        if parent in ("not", "and_r"):
            return f"({body})"
        return body
    if isinstance(expr, Or):
        body = f"{_render(expr.left, 'or')} OR {_render(expr.right, 'or_r')}"
        if parent in ("not", "and", "and_r", "or_r"):
            return f"({body})"
        return body
    raise TypeError(f"not a BoolExpr: {expr!r}")


def _render_rec(rec: RecSpec) -> str:
    if isinstance(rec, KetRec):
        return f"|{rec.bits}>"
    inner = ", ".join(f"{name} = {value}" for name, value in rec.assignments)
    return f"({inner})"


def render_command(command: Command) -> str:
    """Canonical text form; re-parsing yields an identical command."""
    if isinstance(command, CreateTable):
        fields = ", ".join(f"{n}:{w}" for n, w in command.fields)
        tail = f" TEMP {command.temp}" if command.temp is not None else ""
        return f"CREATE TABLE {command.name} ({fields}){tail};"
    if isinstance(command, InsertAll):
        return f"INSERT ALL {command.r};"
    if isinstance(command, InsertSeq):
        return f"INSERT SEQ {command.k};"
    if isinstance(command, InsertValues):
        return "INSERT VALUES " + ", ".join(_render_rec(r) for r in command.records) + ";"
    if isinstance(command, Update):
        pairs = ", ".join(f"{_render_rec(a)} TO {_render_rec(b)}" for a, b in command.pairs)
        return f"UPDATE SET {pairs};"
    if isinstance(command, Delete):
        tail = f" AMPLIFY {command.amplify}" if command.amplify else ""
        return f"DELETE WHERE {render_expr(command.expr)}{tail};"
    if isinstance(command, Select):
        return f"SELECT {command.name} WHERE {render_expr(command.expr)};"
    if isinstance(command, Apply):
        if isinstance(command.gate, BitGate):
            bit = f" BIT {command.gate.bit}" if command.gate.bit is not None else ""
            gate = f"{command.gate.gate} @ {command.gate.field}{bit}"
        else:
            gate = f"SWAP {_render_rec(command.gate.rec_a)} TO {_render_rec(command.gate.rec_b)}"
        return f"APPLY {gate} WHEN {render_expr(command.when)};"
    if isinstance(command, Backup):
        return f"BACKUP WHERE {render_expr(command.expr)};"
    if isinstance(command, Restore):
        return "RESTORE PURGE;" if command.purge else "RESTORE;"
    if isinstance(command, Measure):
        tail = f" SEED {command.seed}" if command.seed is not None else ""
        return f"MEASURE {command.shots}{tail};"
    if isinstance(command, Show):
        return "SHOW FULL;" if command.full else "SHOW;"
    if isinstance(command, Save):
        return f'SAVE "{command.path}";'
    if isinstance(command, Load):
        return f'LOAD "{command.path}";'
    raise TypeError(f"not a Command: {command!r}")


# ----------------------------------------------------------------- compiler


def _need_db(session) -> QdbState:
    if session.db is None:
        raise CompileError("no table is open; run CREATE TABLE first")
    return session.db


def _bind_records(records, schema: TableSchema) -> np.ndarray:
    """A record list, a :class:`RecordList` (its records in order, both of
    each pair) or a sequence of records, as one array of basis indices; the
    first record that does not fit the schema raises.  Each stretch of
    blocks is read at once by :func:`_block_indices`, each stretch of single
    records by :func:`_record_indices`."""
    n = schema.num_bits
    items = records.items if isinstance(records, RecordList) else records
    pieces = []
    for blocks, group in groupby(items, lambda item: isinstance(item, _KetBlock)):
        group = list(group)
        if not blocks:
            pieces.append(_record_indices(group, schema))
            continue
        misfit = next((block for block in group if block.width != n), None)
        if misfit is not None:
            raise _width_error(_misfit(misfit, n), n)
        pieces.append(_block_indices(group, n))
    if len(pieces) == 1:
        return pieces[0]
    return np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)


def _record_indices(records, schema: TableSchema) -> np.ndarray:
    """Single records as one array of basis indices; the first record that
    does not fit raises.  Every ket is checked before any array is built; a
    list of kets is read as one byte matrix by :func:`_ket_indices`, any
    other list record by record."""
    n = schema.num_bits
    bits = [rec.bits for rec in records if isinstance(rec, KetRec)]
    if (set(map(type, bits)) - {str} or set(map(len, bits)) - {n}
            or "".join(bits).encode("ascii", "replace").translate(None, b"01")):
        for rec in records:  # raises at the first record that does not fit
            _resolve_record(rec, schema)
    if len(bits) == len(records):
        rows = np.frombuffer("".join(bits).encode("ascii"), dtype=np.uint8)
        return _ket_indices(rows.reshape(-1, n))
    return np.array([_resolve_record(rec, schema) for rec in records], dtype=np.int64)


# The characters of a run's separators.
_SEPARATOR_BYTES = b" \t\r,TtOo"


def _block_indices(blocks: list[_KetBlock], n: int) -> np.ndarray:
    """The basis indices of the kets of blocks of ``n``-bit kets.  Each
    block's text, its separators deleted, is the rows of a matrix of kets
    ``|b...b>``."""
    indices = np.empty(sum(block.count for block in blocks), dtype=np.int64)
    done = 0
    for block in blocks:
        kets = block.text.encode("ascii").translate(None, _SEPARATOR_BYTES)
        rows = np.frombuffer(kets, dtype=np.uint8).reshape(block.count, n + 2)
        indices[done:done + block.count] = _ket_indices(rows[:, 1:-1])
        done += block.count
    return indices


def _misfit(block: _KetBlock, n: int) -> int:
    """The width of the first ket of a block that is not ``n`` bits wide,
    found without a copy of the block's text."""
    if block.width >= 0:
        return block.width
    start = 0
    while (end := block.text.index(">", start)) - start - 1 == n:
        start = block.text.index("|", end)
    return end - start - 1


def _width_error(width: int, n: int) -> CompileError:
    return CompileError(f"ket of {width} bits does not match the {n}-bit schema")


def _ket_indices(rows: np.ndarray) -> np.ndarray:
    """The basis indices of kets whose bits, ASCII 0s and 1s, are the rows
    of a byte matrix: each row's low bits times the powers of two."""
    powers = 1 << np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
    return (rows & 1).astype(np.int64) @ powers


def _resolve_record(rec: RecSpec, schema: TableSchema) -> int:
    if isinstance(rec, KetRec):
        if not isinstance(rec.bits, str) or rec.bits.strip("01"):
            raise CompileError(f"ket {reprlib.repr(rec.bits)} is not a string of 0s and 1s")
        if len(rec.bits) != schema.num_bits:
            raise _width_error(len(rec.bits), schema.num_bits)
        return int(rec.bits, 2)
    if not isinstance(rec, FieldRec):
        raise CompileError(f"record {reprlib.repr(rec)} is not a KetRec or FieldRec")
    try:
        assignments = tuple(rec.assignments)
        values = dict(assignments)
        if len(values) < len(assignments):
            names = [name for name, _ in assignments]
            twice = next(name for i, name in enumerate(names) if name in names[:i])
            raise CompileError(f"field {twice!r} is assigned twice")
        return schema.encode(schema.record(**values))
    except SchemaError as exc:
        raise CompileError(str(exc)) from exc
    except ArgumentError:  # a value that is not an integer
        raise
    except (TypeError, ValueError):  # from tuple(), dict() or ** alone
        raise CompileError(f"assignments {reprlib.repr(rec.assignments)} "
                           "are not (field name, value) pairs") from None


def _listed(items, what: str, length: int | None = None):
    """A list of a statement built in code, as the parser builds it: a tuple
    or a list, of ``length`` items if given; anything else raises
    :class:`CompileError` before the records are bound."""
    if (not isinstance(items, (tuple, list, RecordList))
            or length is not None and len(items) != length):
        size = f" of {length} records" if length is not None else ""
        raise CompileError(f"{what} {reprlib.repr(items)} is not a tuple or list{size}")
    return items


def _validated(expr: BoolExpr, schema: TableSchema) -> BoolExpr:
    try:
        validate_expr(expr, schema)
    except (SchemaError, TypeError) as exc:  # TypeError: a node built in code
        raise CompileError(str(exc)) from exc
    return expr


def compile_command(command: Command, session) -> Callable[[], str]:
    """Bind a parsed command against the session: schema checks happen here,
    engine work happens when the returned action runs."""
    if isinstance(command, CreateTable):
        if session.db is not None:
            raise CompileError("a table is already open in this session")
        try:
            schema = TableSchema(command.name, command.fields)
        except SchemaError as exc:
            raise CompileError(str(exc)) from exc
        temp = command.temp if command.temp is not None else DEFAULT_TEMP_QUBITS

        def run_create() -> str:
            session.open_table(schema, temp)
            return (
                f"ok: table {schema.name} ({schema.num_bits} data + {temp} temp qubits)"
            )

        return run_create

    if isinstance(command, (Save, Load)):
        path = command.path
        if isinstance(command, Save):
            return lambda: session.save_session(path)
        return lambda: session.load_session(path)

    db = _need_db(session)
    schema = db.schema

    if isinstance(command, InsertAll):
        def run_insert_all() -> str:
            db.insert_bulk(command.r)
            return _fmt_insert(db, f"bulk {1 << command.r}", db.bulk_records)

        return run_insert_all
    if isinstance(command, InsertSeq):
        return lambda: _fmt_insert(db.insert_sequential(command.k), f"sequential to {command.k}")
    if isinstance(command, InsertValues):
        indices = _bind_records(_listed(command.records, "record list"), schema)
        return lambda: _fmt_insert(db.insert_values(indices), f"{len(indices)} values")
    if isinstance(command, Update):
        records = command.pairs
        if not (isinstance(records, RecordList) and records.pairs):
            listed = [_listed(pair, "pair", 2) for pair in _listed(records, "pair list")]
            records = [r for pair in listed for r in pair]
        pairs = _bind_records(records, schema).reshape(-1, 2)

        def run_update() -> str:
            db.update(pairs)
            return f"ok: updated {len(pairs)} pair(s)"

        return run_update
    if isinstance(command, Delete):
        expr = _validated(command.expr, schema)
        return lambda: f"deleted; outcome probability {db.delete(expr, command.amplify):.6f}"
    if isinstance(command, Select):
        expr = _validated(command.expr, schema)
        if command.name in db.selects:
            raise CompileError(f"select name {command.name!r} is already in use")
        return lambda: f"selected {command.name} on flag qubit {db.select(expr, command.name)}"
    if isinstance(command, Apply):
        names = {
            node.name if isinstance(node, Var) else node.field
            for node, _ in walk_expr(command.when)
            if isinstance(node, (Var, Comparison))
        }
        # str: a Var built in code may carry a name of any type
        missing = sorted(map(str, names - db.selects.keys()))
        if missing:
            raise CompileError(f"unknown select name(s): {', '.join(missing)}")
        if not names:
            raise CompileError("WHEN clause references no select flags")
        flags = {name: db.selects[name] for name in sorted(names)}
        if isinstance(command.gate, BitGate):
            if command.gate.gate not in ("NOT", "H"):
                raise CompileError(f"unknown gate {command.gate.gate!r}; expected NOT or H")
            try:
                width = schema.width_of(command.gate.field)
            except SchemaError as exc:
                raise CompileError(str(exc)) from exc
            bit = as_int(command.gate.bit, "bit") if command.gate.bit is not None else 0
            if bit < 0 or bit >= width:
                raise CompileError(
                    f"bit {bit} out of range for field {command.gate.field!r} of width {width}"
                )
            target = schema.offset_of(command.gate.field) + (width - 1 - bit)
            gate = NOT_GATE if command.gate.gate == "NOT" else HADAMARD
            operation = ApplyGate(gate, (target,))
        elif isinstance(command.gate, SwapGate):
            operation = ApplySwap(
                _resolve_record(command.gate.rec_a, schema),
                _resolve_record(command.gate.rec_b, schema),
            )
        else:
            raise CompileError(f"gate {reprlib.repr(command.gate)} is not a BitGate or SwapGate")
        when = command.when

        def run_apply() -> str:
            db.apply_where(flags, when, operation)
            return f"applied on flags {', '.join(sorted(flags))}"

        return run_apply
    if isinstance(command, Backup):
        expr = _validated(command.expr, schema)

        def run_backup() -> str:
            db.backup(expr)
            key = db.safe_key
            return f"backup active: {key.matches} records protected (safe qubit {key.qubit})"

        return run_backup
    if isinstance(command, Restore):
        def run_restore() -> str:
            probability = db.restore(command.purge)
            if probability is None:
                return "restored; safe key still active"
            return f"restored and purged; outcome probability {probability:.6f}"

        return run_restore
    if isinstance(command, Measure):
        def run_measure() -> str:
            check_shots(command.shots)  # before the seed stream moves
            seed = command.seed if command.seed is not None else session.next_measure_seed()
            return session.render_histogram(db.measure_counts(command.shots, seed), command.shots)

        return run_measure
    if isinstance(command, Show):
        return lambda: session.render_state(db.show_state(), command.full)
    raise CompileError(f"unsupported command {command!r}")


def _fmt_insert(db: QdbState, what: str, live: int | None = None) -> str:
    """The INSERT report; its support size is ``live`` when the statement
    knows it, else a scan's."""
    return f"ok: insert {what}; support size {db.support().size if live is None else live}"

