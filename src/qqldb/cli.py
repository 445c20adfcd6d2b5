"""Interactive shell, script runner and session persistence.

Session files are line-oriented UTF-8: a ``QQLDB 1`` header, the schema, the
temp-qubit count, the safe-key line, then one line per nonzero amplitude with
the real and imaginary parts as hexadecimal float literals for exact
round-trips.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import qlang
from .boolcirc import validate_expr
from .errors import CapacityError, QqlError, SessionFormatError, ValidationError
from .qdb import QdbState, SafeKey, TempUse, create_db
from .schema import TableSchema
from .statevec import DEFAULT_EPSILON, DEFAULT_MAX_QUBITS, StateVector, Xorshift64Star

FORMAT_HEADER = "QQLDB 1"
# Amplitude lines formatted (SAVE) or parsed (LOAD) per block: the block's
# byte matrix or token lists stay a few MiB whatever the register size.
SAVE_CHUNK = 1 << 16
LOAD_CHUNK = 1 << 12


@dataclass
class SessionConfig:
    max_qubits: int = DEFAULT_MAX_QUBITS
    seed: int = 1
    epsilon: float = DEFAULT_EPSILON
    quiet: bool = False


def format_amplitude(value: complex, full: bool = False) -> str:
    """6 significant digits by default; repr precision for the FULL dump."""
    re, im = value.real, value.imag
    if abs(im) < 1e-12:
        return repr(re) if full else f"{re:.6g}"
    if full:
        return f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}i"
    return f"{re:.6g}{'+' if im >= 0 else '-'}{abs(im):.6g}i"


class Session:
    """One interactive database session: at most one open table, a select-name
    registry, a transcript, and a seed stream for unseeded measurements."""

    def __init__(self, config: SessionConfig | None = None):
        self.config = config or SessionConfig()
        self.db: QdbState | None = None
        self.selects: dict[str, int] = {}
        self.transcript: list[str] = []
        self._seed_stream = Xorshift64Star(self.config.seed)

    # ------------------------------------------------------------- execution

    def next_measure_seed(self) -> int:
        return self._seed_stream.next_u64()

    def open_table(self, schema: TableSchema, temp: int) -> None:
        self.db = create_db(
            schema,
            t=temp,
            max_qubits=self.config.max_qubits,
            epsilon=self.config.epsilon,
        )
        self.selects = {}

    def execute_command(self, command: qlang.Command) -> str:
        action = qlang.compile_command(command, self)
        output = action()
        self.transcript.append(output)
        return output

    def execute_text(self, text: str) -> list[str]:
        outputs = []
        for command in qlang.parse_text(text):
            outputs.append(self.execute_command(command))
        return outputs

    # ------------------------------------------------------------- rendering

    def _record_label(self, record) -> str:
        assert self.db is not None
        parts = ", ".join(
            f"{name}={value}"
            for (name, _), value in zip(self.db.schema.fields, record.values)
        )
        return f"({parts})"

    def render_state(self, rows, full: bool = False) -> str:
        assert self.db is not None
        n, t = self.db.n, self.db.t
        lines = [f"{'ket':<{n + t + 2}}  {'record':<24}  {'temp':<{max(t, 4)}}  "
                 f"{'amplitude':<24}  probability"]
        total = 0.0
        for row in rows:
            ket = f"|{row.index:0{n + t}b}>"
            amp = format_amplitude(row.amplitude, full)
            lines.append(
                f"{ket:<{n + t + 2}}  {self._record_label(row.record):<24}  "
                f"{row.temp_bits:<{max(t, 4)}}  {amp:<24}  {row.probability:>10.6f}"
            )
            total += row.probability
        lines.append(f"{len(rows)} component(s), total probability {total:.6f}")
        return "\n".join(lines)

    def render_histogram(self, histogram, shots: int) -> str:
        """``histogram`` is the (data indices, counts) pair of
        :meth:`QdbState.measure_counts`, whose ascending indices are record
        order; each row is one ``%``-format of field values, padding and count."""
        assert self.db is not None
        indices, counts = histogram
        fields = self.db.schema.fields
        # the label "(name=value, ...)" is left-justified to 28 columns; its
        # length is that of the names and separators plus the value digits
        lengths = np.full(indices.size, sum(len(name) + 3 for name, _ in fields))
        powers = 10 ** np.arange(1, 19, dtype=np.int64)
        columns = []
        shift = self.db.n
        for _, width in fields:
            shift -= width
            values = (indices >> shift) & ((1 << width) - 1)
            lengths += np.searchsorted(powers, values, side="right") + 1
            columns.append(values.tolist())
        pads = [" " * k for k in range(29)]
        padding = map(pads.__getitem__, np.maximum(28 - lengths, 0).tolist())
        row = "(" + ", ".join(f"{name.replace('%', '%%')}=%d" for name, _ in fields) + ")"
        row += "%s  %8d  %10.6f"
        lines = [f"{'record':<28}  {'count':>8}  fraction"]
        lines += [
            row % values
            for values in zip(*columns, padding, counts.tolist(), (counts / shots).tolist())
        ]
        lines.append(f"{shots} shot(s), {indices.size} distinct record(s)")
        return "\n".join(lines)

    # ----------------------------------------------------------- persistence

    def save_session(self, path: str) -> str:
        lines = [FORMAT_HEADER]
        if self.db is None:
            lines.append("SCHEMA none")
        else:
            db = self.db
            fields = " ".join(f"{name}:{width}" for name, width in db.schema.fields)
            lines.append(f"SCHEMA {db.schema.name} {fields}")
            lines.append(f"TEMP {db.t}")
            if db.safe_key is None:
                lines.append("SAFE none")
            else:
                key = db.safe_key
                lines.append(
                    f"SAFE {key.qubit} {key.matches} {qlang.render_expr(key.expr)}"
                )
        try:
            with open(path, "wb") as handle:
                handle.write(("\n".join(lines) + "\n").encode("utf-8"))
                if self.db is not None:
                    write_amplitudes(handle, self.db.state.amps)
        except OSError as exc:
            raise SessionFormatError(f"cannot write {path}: {exc}") from exc
        return f"saved session to {path}"

    def load_session(self, path: str) -> str:
        """Replace the session by the file's.  Every check, of the header and
        of each amplitude line, runs before the current session is touched."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                loaded = _read_session(handle, self.config.max_qubits)
        except OSError as exc:
            raise SessionFormatError(f"cannot read {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise SessionFormatError(f"{path} is not UTF-8 text: {exc}") from exc
        if loaded is None:
            self.db = None
            self.selects = {}
            return f"loaded empty session from {path}"
        schema, temp, safe_key, amps = loaded
        try:
            state = StateVector.from_amplitudes(amps)
        except ValidationError as exc:
            raise SessionFormatError(f"malformed session file: {exc}") from exc
        db = QdbState(
            schema,
            t=temp,
            max_qubits=self.config.max_qubits,
            epsilon=self.config.epsilon,
            state=state,
        )
        if safe_key is not None:
            db.safe_key = safe_key
            db.temp_alloc[safe_key.qubit] = TempUse("safe", safe_key.expr)
            db._seq_fill = None
        else:
            support = db.support()
            db._seq_fill = (
                len(support) - 1 if support == list(range(len(support))) else None
            )
        self.db = db
        self.selects = {}
        return f"loaded session from {path}"


def write_amplitudes(handle, amps: np.ndarray) -> None:
    """Write one ``<index> <re> <im>`` line per nonzero amplitude, ascending by
    index, with the parts as ``float.hex`` literals.

    The lines are built as bytes from the float bit patterns, ``SAVE_CHUNK``
    lines at a time: each line is a row of a byte matrix whose unused columns
    hold 0, a byte no line contains, and the rows are joined by dropping them.
    """
    nonzero = np.flatnonzero(amps)
    if not nonzero.size:
        return
    digits = len(str(int(nonzero[-1])))
    hex_digits = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
    hex_pairs = np.stack([np.repeat(hex_digits, 16), np.tile(hex_digits, 16)], axis=1)
    # "p<exponent>" by biased exponent; exponent 0 (zero, subnormals) prints -1022
    exponents = np.array([f"p{e - 1023:+d}".encode() for e in range(2048)], dtype="S6")
    exponents[0] = b"p-1022"
    exponents = exponents.view(np.uint8).reshape(2048, 6)
    for start in range(0, nonzero.size, SAVE_CHUNK):
        indices = nonzero[start:start + SAVE_CHUNK]
        lines = np.zeros((indices.size, digits + 51), dtype=np.uint8)
        _decimal_columns(lines[:, :digits], indices)
        parts = amps[indices].view(np.uint64).reshape(-1, 2)
        for part, first in ((0, digits + 1), (1, digits + 26)):
            lines[:, first - 1] = ord(" ")
            _hex_columns(lines[:, first:first + 24], parts[:, part], hex_digits, hex_pairs, exponents)
        lines[:, -1] = ord("\n")
        handle.write(lines[lines != 0].tobytes())


def _decimal_columns(out: np.ndarray, values: np.ndarray) -> None:
    """Decimal digits of non-negative ``values`` into the columns of ``out``,
    right-aligned, with the leading zeros left 0."""
    rest = values
    for column in range(out.shape[1] - 1, -1, -1):
        rest, digit = np.divmod(rest, 10)
        out[:, column] = digit + ord("0")
    leading = out[:, :-1]
    leading[np.logical_and.accumulate(leading == ord("0"), axis=1)] = 0


def _hex_columns(out, bits, hex_digits, hex_pairs, exponents) -> None:
    """``float.hex`` of each double, given as its uint64 bit pattern, into the
    24 columns of ``out``: ``[-]0x1.<13 hex digits>p<exp>``, ``0x0.`` for
    subnormals, and ``[-]0x0.0p+0`` for zeros; unused columns stay 0."""
    magnitude = bits & np.uint64((1 << 63) - 1)
    biased = (magnitude >> np.uint64(52)).astype(np.intp)
    # big-endian bytes: byte 1 holds the first mantissa digit, bytes 2-7 the rest
    raw = magnitude.astype(">u8").view(np.uint8).reshape(-1, 8)
    out[bits != magnitude, 0] = ord("-")
    out[:, 1] = ord("0")
    out[:, 2] = ord("x")
    out[:, 3] = np.where(biased == 0, ord("0"), ord("1"))
    out[:, 4] = ord(".")
    out[:, 5] = hex_digits[raw[:, 1] & 15]
    out[:, 6:18] = hex_pairs[raw[:, 2:]].reshape(-1, 12)
    out[:, 18:] = exponents[biased]
    zero = magnitude == 0
    out[zero, 6:18] = 0
    out[zero, 18:] = exponents[1023]


def _next_line(handle, what: str) -> str:
    """The next non-empty line without its newline."""
    for line in handle:
        if line != "\n":
            return line.rstrip("\n")
    raise SessionFormatError(f"missing {what} line")


def _read_session(handle, max_qubits: int):
    """Parse an open session file into (schema, temp, safe key or None,
    amplitudes), or None for a file without a table.  The header is checked
    before the register is allocated, and every amplitude line is checked:
    three fields, a basis index in range and above the previous line's, and
    finite parts, read by ``int`` and ``float.fromhex``."""
    first = handle.readline()
    if first.rstrip("\n") != FORMAT_HEADER:
        found = first.rstrip("\n") if first else "empty file"
        raise SessionFormatError(f"unsupported session header: {found!r}")
    schema_parts = _next_line(handle, "SCHEMA").split()
    if schema_parts[:1] != ["SCHEMA"]:
        raise SessionFormatError("missing SCHEMA line")
    if schema_parts[1:] == ["none"]:
        return None
    temp_parts = _next_line(handle, "TEMP").split()
    safe_parts = _next_line(handle, "SAFE").split(maxsplit=2)
    if temp_parts[:1] != ["TEMP"]:
        raise SessionFormatError("missing TEMP line")
    if safe_parts[:1] != ["SAFE"]:
        raise SessionFormatError("missing SAFE line")
    try:
        schema = TableSchema(
            schema_parts[1],
            tuple((chunk.split(":")[0], int(chunk.split(":")[1])) for chunk in schema_parts[2:]),
        )
        temp = int(temp_parts[1])
        safe_key = None
        if safe_parts[1] != "none":
            matches_text, expr_text = safe_parts[2].split(maxsplit=1)
            expr = qlang.parse_predicate(expr_text)
            validate_expr(expr, schema)
            safe_key = SafeKey(int(safe_parts[1]), expr, int(matches_text))
    except (QqlError, ValueError, IndexError) as exc:
        raise SessionFormatError(f"malformed session file: {exc}") from exc
    if temp < 1:
        raise SessionFormatError(f"TEMP {temp} is below one temporary qubit")
    total = schema.num_bits + temp
    if total > max_qubits:
        raise CapacityError(
            f"{schema.num_bits} data + {temp} temp qubits exceed the "
            f"{max_qubits}-qubit capacity"
        )
    if safe_key is not None and not schema.num_bits <= safe_key.qubit < total:
        raise SessionFormatError(f"safe qubit {safe_key.qubit} is not a temp qubit")
    amps = np.zeros(1 << total, dtype=np.complex128)
    previous = -1
    while lines := list(islice(handle, LOAD_CHUNK)):
        if list(map(len, map(str.split, lines))).count(3) + lines.count("\n") != len(lines):
            raise SessionFormatError("an amplitude line does not have three fields")
        tokens = "".join(lines).split()
        count = len(tokens) // 3
        try:
            indices = np.fromiter(map(int, tokens[0::3]), dtype=np.int64, count=count)
            del tokens[0::3]
            values = np.fromiter(map(float.fromhex, tokens), dtype=np.float64, count=2 * count)
        except (ValueError, OverflowError) as exc:
            raise SessionFormatError(f"malformed amplitude line: {exc}") from exc
        if not count:
            continue
        if indices[0] < 0:
            raise SessionFormatError(f"negative basis index {indices[0]}")
        if indices[0] <= previous or np.any(indices[1:] <= indices[:-1]):
            raise SessionFormatError("basis indices are not strictly ascending")
        if indices[-1] >= amps.size:
            raise SessionFormatError(
                f"basis index {indices[-1]} out of range for {total} qubits"
            )
        if not np.all(np.isfinite(values)):
            raise SessionFormatError("amplitudes must be finite")
        amps[indices] = values.view(np.complex128)
        previous = indices[-1]
    return schema, temp, safe_key, amps


def run_script(path: str, session: Session) -> tuple[str, int]:
    """Execute a script file; the first failing statement aborts with a
    nonzero status.  Returns (transcript, status)."""
    lines: list[str] = []
    status = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return f"error: {exc}\n", 1
    try:
        commands = qlang.parse_text(text)
    except QqlError as exc:
        return f"error: {exc}\n", 1
    for command in commands:
        try:
            lines.append(session.execute_command(command))
        except (QqlError, ValueError) as exc:
            lines.append(f"error: {exc}")
            status = 1
            break
    transcript = "".join(line + "\n" for line in lines)
    return transcript, status


def repl_loop(session: Session, stdin=None, stdout=None) -> int:
    """Line-oriented shell: statements end with ';' and may span lines;
    errors are printed and never terminate the loop."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    def emit(text: str):
        print(text, file=stdout)

    if not session.config.quiet:
        emit("qqldb shell; statements end with ';' (Ctrl-D to exit)")
    buffer = ""
    for line in stdin:
        buffer += line
        if not buffer.strip().endswith(";"):
            continue
        try:
            for output in session.execute_text(buffer):
                emit(output)
        except (QqlError, ValueError) as exc:
            emit(f"error: {exc}")
        buffer = ""
    if buffer.strip():
        emit("error: trailing input without ';' discarded")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qqldb",
        description="Quantum database shell: records as basis states, "
        "queries as reversible circuits.",
    )
    parser.add_argument("--script", metavar="PATH", help="run a script instead of the shell")
    parser.add_argument("--max-qubits", type=int, default=DEFAULT_MAX_QUBITS)
    parser.add_argument("--seed", type=int, default=1, help="base seed for unseeded MEASUREs")
    parser.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                        help="post-selection probability floor")
    parser.add_argument("--quiet", action="store_true", help="suppress banner output")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    config = SessionConfig(
        max_qubits=args.max_qubits,
        seed=args.seed,
        epsilon=args.epsilon,
        quiet=args.quiet,
    )
    session = Session(config)
    if args.script:
        transcript, status = run_script(args.script, session)
        if not args.quiet:
            sys.stdout.write(transcript)
        return status
    return repl_loop(session)
