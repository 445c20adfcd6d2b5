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

import numpy as np

from . import qlang
from .errors import CapacityError, QqlError, SessionFormatError
from .qdb import QdbState, SafeKey, TempUse, create_db
from .schema import TableSchema
from .statevec import DEFAULT_EPSILON, DEFAULT_MAX_QUBITS, StateVector, Xorshift64Star

FORMAT_HEADER = "QQLDB 1"


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
        assert self.db is not None
        schema = self.db.schema
        lines = [f"{'record':<28}  {'count':>8}  fraction"]
        for record, count in sorted(histogram.items(), key=lambda kv: schema.encode(kv[0])):
            lines.append(
                f"{self._record_label(record):<28}  {count:>8}  {count / shots:>10.6f}"
            )
        lines.append(f"{shots} shot(s), {len(histogram)} distinct record(s)")
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
            amps = db.state.amps
            for index in np.nonzero(amps)[0].tolist():
                value = amps[index]
                lines.append(f"{index} {value.real.hex()} {value.imag.hex()}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return f"saved session to {path}"

    def load_session(self, path: str) -> str:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = [line.rstrip("\n") for line in handle]
        except OSError as exc:
            raise SessionFormatError(f"cannot read {path}: {exc}") from exc
        if not lines or lines[0] != FORMAT_HEADER:
            found = lines[0] if lines else "empty file"
            raise SessionFormatError(f"unsupported session header: {found!r}")
        body = [line for line in lines[1:] if line]
        if not body or not body[0].startswith("SCHEMA"):
            raise SessionFormatError("missing SCHEMA line")
        schema_parts = body[0].split()
        if schema_parts[1:] == ["none"]:
            self.db = None
            self.selects = {}
            return f"loaded empty session from {path}"
        try:
            schema = TableSchema(
                schema_parts[1],
                tuple(
                    (chunk.split(":")[0], int(chunk.split(":")[1]))
                    for chunk in schema_parts[2:]
                ),
            )
            if not body[1].startswith("TEMP "):
                raise SessionFormatError("missing TEMP line")
            temp = int(body[1].split()[1])
            safe_parts = body[2].split(maxsplit=2)
            if safe_parts[0] != "SAFE":
                raise SessionFormatError("missing SAFE line")
            if temp < 1:
                raise SessionFormatError(f"TEMP {temp} is below one temporary qubit")
            total = schema.num_bits + temp
            if total > self.config.max_qubits:
                raise CapacityError(
                    f"{schema.num_bits} data + {temp} temp qubits exceed the "
                    f"{self.config.max_qubits}-qubit capacity"
                )
            amps = np.zeros(1 << total, dtype=np.complex128)
            for line in body[3:]:
                index_text, re_text, im_text = line.split()
                amps[int(index_text)] = complex(
                    float.fromhex(re_text), float.fromhex(im_text)
                )
        except SessionFormatError:
            raise
        except (ValueError, IndexError) as exc:
            raise SessionFormatError(f"malformed session file: {exc}") from exc

        state = StateVector.from_amplitudes(amps)
        db = QdbState(
            schema,
            t=temp,
            max_qubits=self.config.max_qubits,
            epsilon=self.config.epsilon,
            state=state,
        )
        if safe_parts[1] != "none":
            qubit = int(safe_parts[1])
            matches_text, expr_text = safe_parts[2].split(maxsplit=1)
            expr = qlang.parse_predicate(expr_text)
            db.safe_key = SafeKey(qubit, expr, int(matches_text))
            db.temp_alloc[qubit] = TempUse("safe", expr)
            db._seq_fill = None
        else:
            support = db.support()
            db._seq_fill = (
                len(support) - 1 if support == list(range(len(support))) else None
            )
        self.db = db
        self.selects = {}
        return f"loaded session from {path}"


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
