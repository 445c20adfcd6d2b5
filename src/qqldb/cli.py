"""Interactive shell, script runner and session persistence.

Session files are line-oriented UTF-8: a ``QQLDB 1`` header, the schema, the
temp-qubit count, the safe-key line, then one line per nonzero amplitude with
the real and imaginary parts as hexadecimal float literals for exact
round-trips.
"""

from __future__ import annotations

import argparse
import functools
import os
import secrets
import sys
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import qlang
from .errors import QqlError, SessionFormatError, as_int, as_probability
from .qdb import QdbState, SafeKey, check_capacity
from .schema import TableSchema
from .statevec import DEFAULT_EPSILON, DEFAULT_MAX_QUBITS, StateVector, Xorshift64Star

FORMAT_HEADER = "QQLDB 1"
# Amplitude lines formatted (SAVE) or parsed (LOAD) per block: the block's
# byte matrix, word arrays or token lists stay below a MiB whatever the
# register size.
SAVE_CHUNK = 1 << 12
LOAD_CHUNK = 1 << 12
# From this many rows on, MEASURE's histogram is a byte matrix; below it, one
# ``%``-format per row, which passes the matrix's 110-170 us at 192-256 rows
# (a:5 b:5, 4096 shots; 2-core Xeon guest, Python 3.11, numpy 2.4).
BYTE_ROWS_FROM = 256


@dataclass(frozen=True)
class SessionConfig:
    """A session's settings, each read once, here: ``max_qubits`` and
    ``seed`` by :func:`errors.as_int`, ``epsilon`` by
    :func:`errors.as_probability`."""

    max_qubits: int = DEFAULT_MAX_QUBITS
    seed: int = 1
    epsilon: float = DEFAULT_EPSILON
    quiet: bool = False

    def __post_init__(self):
        object.__setattr__(self, "max_qubits", as_int(self.max_qubits, "max_qubits"))
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
        object.__setattr__(self, "epsilon", as_probability(self.epsilon, "epsilon"))


def format_amplitude(value: complex, full: bool = False) -> str:
    """6 significant digits by default; repr precision for the FULL dump."""
    re, im = value.real, value.imag
    if abs(im) < 1e-12:
        return repr(re) if full else f"{re:.6g}"
    if full:
        return f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}i"
    return f"{re:.6g}{'+' if im >= 0 else '-'}{abs(im):.6g}i"


class Session:
    """One interactive database session: at most one open table and a seed
    stream for unseeded measurements.  Outputs are returned to the caller,
    not kept."""

    def __init__(self, config: SessionConfig | None = None):
        self.config = config or SessionConfig()
        self.db: QdbState | None = None
        self._seed_stream = Xorshift64Star(self.config.seed)

    # ------------------------------------------------------------- execution

    def next_measure_seed(self) -> int:
        return self._seed_stream.next_u64()

    def open_table(self, schema: TableSchema, temp: int) -> None:
        self.db = QdbState(schema, temp, self.config.max_qubits, self.config.epsilon)

    def execute_command(self, command: qlang.Command) -> str:
        return qlang.compile_command(command, self)()

    def execute_text(self, text: str) -> list[str]:
        return [self.execute_command(command) for command in qlang.parse_text(text)]

    # ------------------------------------------------------------- rendering

    def _label_values(self, indices: np.ndarray) -> tuple[list, np.ndarray]:
        """Each field's values at data indices, and the length in code points
        of each record label ``(name=value, ...)``: that of the names and
        separators plus the value digits."""
        assert self.db is not None
        schema = self.db.schema
        lengths = np.full(indices.size, sum(len(name) + 3 for name, _ in schema.fields))
        powers = 10 ** np.arange(1, 19, dtype=np.int64)
        columns = []
        for name, _ in schema.fields:
            values = schema.field_values(indices, name)
            lengths += np.searchsorted(powers, values, side="right") + 1
            columns.append(values)
        return columns, lengths

    def _label_rows(self, indices: np.ndarray, width: int, before=(), after=()) -> np.ndarray:
        """The record labels ``(name=value, ...)`` of data indices as the
        rows of a UTF-8 byte matrix, each left-justified to ``width`` code
        points, between the columns of the byte matrices ``before`` and
        ``after``.  Unused bytes are 0, and :func:`_row_text` deletes them,
        as :func:`write_amplitudes` does.  The values' digits come from
        :func:`_decimal_words`."""
        columns, lengths = self._label_values(indices)
        blocks = list(before)
        for i, ((name, bits), values) in enumerate(zip(self.db.schema.fields, columns)):
            blocks.append(_constant_bytes(f"{', ' if i else '('}{name}=", indices.size))
            blocks.append(_digit_bytes(values, (1 << bits) - 1))
        blocks.append(_constant_bytes(")", indices.size))
        # spaces up to ``width`` code points, then 0s: row k of ``pads`` has k
        room = max(width - int(lengths.min(initial=width)), 0)
        pads = (np.arange(room) < np.arange(room + 1)[:, None]) * np.uint8(ord(" "))
        blocks.append(pads[np.maximum(width - lengths, 0)])
        return np.concatenate([*blocks, *after], axis=1)

    def _label_columns(self, indices: np.ndarray, width: int) -> tuple[str, list]:
        """A ``%``-format of the record label ``(name=value, ...)`` of data
        indices, left-justified to ``width`` columns, and its argument
        columns: one of values per field, then one of padding."""
        values, lengths = self._label_values(indices)
        columns = [column.tolist() for column in values]
        pads = [" " * k for k in range(width + 1)]
        columns.append(list(map(pads.__getitem__, np.maximum(width - lengths, 0).tolist())))
        label = "(" + ", ".join(f"{name}=%d" for name, _ in self.db.schema.fields) + ")%s"
        return label, columns

    def render_state(self, components, full: bool = False) -> str:
        """``components`` is the (basis indices, amplitudes) pair of
        :meth:`QdbState.show_state`; each row is the ket, the record label,
        the temp bits, the amplitude and its probability, a row of one byte
        matrix: the ket and the temp bits from the index bits, the label
        from :meth:`_label_rows`, and the amplitude and probability from
        :func:`_value_rows`, amplitudes being distinct in their bits (so
        -0.0 is not 0.0)."""
        assert self.db is not None
        n, t = self.db.n, self.db.t
        indices, amplitudes = components
        probabilities = amplitudes.real**2 + amplitudes.imag**2
        big_endian = indices.astype(">u8").view(np.uint8).reshape(-1, 8)
        bits = np.unpackbits(big_endian, axis=1) | np.uint8(ord("0"))
        values = _value_rows(amplitudes.view(np.dtype((np.void, 16))), lambda first: [
            "%-24s  %10.6f\n" % (format_amplitude(amp, full), probability)
            for amp, probability in zip(amplitudes[first].tolist(), probabilities[first].tolist())])
        rows = indices.size
        body = _row_text(self._label_rows(
            indices >> t, 24,
            before=[_constant_bytes("|", rows), bits[:, 64 - n - t:], _constant_bytes(">  ", rows)],
            after=[_constant_bytes("  ", rows), bits[:, 64 - t:],
                   _constant_bytes(" " * max(4 - t, 0) + "  ", rows), values],
        ))
        # the footer's total adds the probabilities left to right
        total = float(np.cumsum(probabilities)[-1]) if rows else 0.0
        return (f"{'ket':<{n + t + 2}}  {'record':<24}  {'temp':<{max(t, 4)}}  "
                f"{'amplitude':<24}  probability\n{body}"
                f"{rows} component(s), total probability {total:.6f}")

    def render_histogram(self, histogram, shots: int) -> str:
        """``histogram`` is the (data indices, counts) pair of
        :meth:`QdbState.measure_counts`, whose ascending indices are record
        order; each row is the record label, the count as ``%8d`` and the
        fraction as ``%10.6f``, a row of one byte matrix (:meth:`_label_rows`,
        :func:`_value_rows`), or below ``BYTE_ROWS_FROM`` rows one
        ``%``-format.  Distinct positive counts sum to at most ``shots``, so
        there are fewer than ``sqrt(2 * shots)`` of them."""
        indices, counts = histogram
        if indices.size < BYTE_ROWS_FROM:
            label, columns = self._label_columns(indices, 28)
            row = label + "  %8d  %10.6f\n"
            columns += [counts.tolist(), (counts / shots).tolist()]
            body = "".join(row % values for values in zip(*columns))
        else:
            values = _value_rows(counts, lambda first: [
                "  %8d  %10.6f\n" % (count, count / shots) for count in counts[first].tolist()])
            body = _row_text(self._label_rows(indices, 28, after=[values]))
        return (f"{'record':<28}  {'count':>8}  fraction\n{body}"
                f"{shots} shot(s), {indices.size} distinct record(s)")

    # ----------------------------------------------------------- persistence

    def save_session(self, path) -> str:
        """Write the session to a new file beside ``path``, then move it onto
        ``path``: a SAVE that fails leaves the previous file as it was."""
        path = _session_path(path)
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
                lines.append(f"SAFE {key.qubit} {key.matches} {qlang.render_expr(key.expr)}")
        # "xb" makes a new file whose mode follows the umask, as "wb" would
        temp = f"{path}.{secrets.token_hex(8)}.tmp"
        try:
            handle = open(temp, "xb")
            try:
                with handle:
                    handle.write(("\n".join(lines) + "\n").encode("utf-8"))
                    if self.db is not None:
                        write_amplitudes(handle, self.db.state.amps)
                os.replace(temp, path)
            except BaseException:
                os.remove(temp)
                raise
        except OSError as exc:
            raise SessionFormatError(f"cannot write {path}: {exc.strerror or exc}") from exc
        return f"saved session to {path}"

    def load_session(self, path) -> str:
        """Replace the session by the file's.  Every check, LOAD's and the
        engine constructor's, runs before the current session is touched."""
        path = _session_path(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                loaded = _read_session(handle, self.config.max_qubits)
        except OSError as exc:
            raise SessionFormatError(f"cannot read {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise SessionFormatError(f"{path} is not UTF-8 text: {exc}") from exc
        if loaded is None:
            self.db = None
            return f"loaded empty session from {path}"
        schema, temp, safe_key, amps = loaded
        try:
            self.db = QdbState(schema, temp, self.config.max_qubits, self.config.epsilon,
                               StateVector(amps), safe_key)
        except QqlError as exc:
            raise _malformed(exc) from exc
        return f"loaded session from {path}"


def _session_path(path) -> str:
    """A ``str``, ``bytes`` or ``os.PathLike`` path as a ``str``; no descriptor."""
    try:
        return os.fsdecode(path)
    except TypeError:
        raise SessionFormatError(f"session path {path!r} is not a path") from None


def write_amplitudes(handle, amps: np.ndarray) -> None:
    """Write one ``<index> <re> <im>`` line per nonzero amplitude, ascending by
    index, with the parts as ``float.hex`` literals.

    The lines are built as bytes from the float bit patterns, ``SAVE_CHUNK``
    lines at a time: each line is a row of a byte matrix whose unused columns
    hold 0, a byte no line contains, and the rows are joined by deleting them.
    The columns are filled from uint64 words of 8 bytes each, whose digits
    are computed with shifts, masks and multiplications.
    """
    nonzero = np.flatnonzero(amps != 0)
    if not nonzero.size:
        return
    width = len(str(int(nonzero[-1])))
    for start in range(0, nonzero.size, SAVE_CHUNK):
        indices = nonzero[start:start + SAVE_CHUNK]
        lines = np.zeros((indices.size, width + 51), dtype=np.uint8)
        lines[:, :width] = _digit_bytes(indices, int(nonzero[-1]))
        parts = _hex_words(amps[indices].view(np.uint64).reshape(-1)).astype("<u8", copy=False)
        parts = parts.view(np.uint8).reshape(-1, 2, 24)
        lines[:, width] = lines[:, width + 25] = ord(" ")
        lines[:, width + 1:width + 25] = parts[:, 0]
        lines[:, width + 26:width + 50] = parts[:, 1]
        lines[:, -1] = ord("\n")
        handle.write(lines.tobytes().translate(None, b"\0"))


def _digit_bytes(values: np.ndarray, top: int) -> np.ndarray:
    """The decimal digits of non-negative ``values`` up to ``top`` as ASCII
    rows as wide as ``top``'s, right-aligned, with leading bytes 0
    (:func:`_decimal_words`)."""
    digits = len(str(top))
    groups = -(-digits // 8)
    words = _decimal_words(values, groups).astype("<u8", copy=False)
    return words.view(np.uint8).reshape(-1, 8 * groups)[:, 8 * groups - digits:]


def _value_rows(keys: np.ndarray, texts) -> np.ndarray:
    """One ASCII row per entry of ``keys``, unused bytes 0: ``texts(first)``
    gives the text of each entry of ``first``, the first entry of each
    distinct key, formatted once and gathered into the rows of its key."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    encoded = [text.encode("ascii") for text in texts(first)]
    width = max(map(len, encoded), default=0)
    table = np.frombuffer(b"".join(row.ljust(width, b"\0") for row in encoded), dtype=np.uint8)
    return table.reshape(len(encoded), width)[inverse]


def _constant_bytes(text: str, rows: int) -> np.ndarray:
    """``rows`` rows of the UTF-8 bytes of ``text``, as a read-only view."""
    data = text.encode("utf-8")
    return np.broadcast_to(np.frombuffer(data, dtype=np.uint8), (rows, len(data)))


def _row_text(rows: np.ndarray) -> str:
    """The text of byte rows, their 0s deleted: no name holds a NUL."""
    return rows.tobytes().translate(None, b"\0").decode("utf-8")


def _bytes(b: int) -> int:
    """The word with the byte ``b`` in each of its 8 bytes."""
    return b * 0x0101010101010101


# The words of the low k bytes, for k = 0..8: bytes are read and written in
# little-endian words, so the low byte is the first.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _decimal_words(values: np.ndarray, groups: int) -> np.ndarray:
    """The decimal digits of non-negative ``values`` as ASCII, right-aligned
    in ``groups`` uint64 words of 8 digits each, most significant word first
    and the first digit of a word in its low byte; leading zeros are 0."""
    words = np.empty((values.size, groups), dtype=np.uint64)
    rest = values.astype(np.uint64)
    for g in reversed(range(groups)):
        group = rest
        if g:
            rest, group = np.divmod(rest, np.uint64(10**8))
        # one digit per byte: halves of 4 digits in 32-bit lanes, quarters of
        # 2 in 16-bit lanes, then digits, each split off by a multiply-shift
        # division that is exact below 10^8 (by 10^4), 10^4 (by 100) and
        # 100 (by 10)
        high = group * 3518437209 >> 45
        x = high | (group - high * 10000) << 32
        hundreds = x * 5243 >> 19 & 0x0000007F0000007F
        x = hundreds | (x - hundreds * 100) << 16
        tens = x * 103 >> 10 & 0x000F000F000F000F
        words[:, g] = tens | (x - tens * 10) << 8
    # bit 7 of every byte from the first significant digit on; the last
    # digit always counts, so zero prints as "0"
    significant = np.zeros(values.size, dtype=np.uint64)
    for g in range(groups):
        digits = words[:, g]
        mark = (digits + _bytes(0x7F)) & _bytes(0x80) | significant
        if g == groups - 1:
            mark |= 0x80 << 56
        mark |= mark << 8
        mark |= mark << 16
        mark |= mark << 32
        words[:, g] = (digits + _bytes(ord("0"))) & (mark >> 7) * 0xFF
        significant = (mark >> 63) * _bytes(0x80)
    return words


@functools.cache
def _exponent_words() -> np.ndarray:
    """``p<exponent>`` as ``float.hex`` writes it, as a little-endian word, by
    biased exponent; subnormals (0) print ``p-1022``.  Read-only."""
    words = [int.from_bytes(f"p{max(b, 1) - 1023:+d}".encode(), "little") for b in range(2048)]
    table = np.array(words, dtype=np.uint64)
    table.flags.writeable = False
    return table


def _hex_ascii(values: np.ndarray) -> np.ndarray:
    """The 8 lowercase hex digits of 32-bit ``values``, most significant
    first, as ASCII in uint64 words (first digit in the low byte)."""
    x = (values | values << 16) & 0x0000FFFF0000FFFF
    x = (x | x << 8) & 0x00FF00FF00FF00FF
    x = (x | x << 4) & _bytes(0x0F)
    x = x.byteswap()
    # a nibble of 10 or more carries into bit 4 when 6 is added
    return x + _bytes(ord("0")) + (x + _bytes(6) >> 4 & _bytes(1)) * (ord("a") - ord("0") - 10)


def _hex_value(words: np.ndarray) -> np.ndarray:
    """The inverse of :func:`_hex_ascii` on its outputs; any other bytes give
    some 32-bit value."""
    x = (words & _bytes(0x0F)) + (words >> 6 & _bytes(1)) * 9
    x = (x & 0x000F000F000F000F) << 4 | x >> 8 & 0x000F000F000F000F
    x = (x & 0x000000FF000000FF) << 8 | x >> 16 & 0x000000FF000000FF
    return (x & 0xFFFF) << 16 | x >> 32


_HEAD = int.from_bytes(b"0x0.", "little")


def _hex_words(bits: np.ndarray) -> np.ndarray:
    """``float.hex`` of each double, given as its uint64 bit pattern, as 24
    bytes in three uint64 words: ``[-]0x1.<13 hex digits>p<exp>``, ``0x0.``
    for subnormals, and ``[-]0x0.0p+0`` for zeros, at fixed columns (sign,
    head, digits, exponent) with unused bytes 0."""
    magnitude = bits & np.uint64((1 << 63) - 1)
    biased = magnitude >> 52
    # a zero keeps only its first digit, "0", and prints the exponent 0
    nonzero = np.where(magnitude == 0, np.uint64(0), np.uint64((1 << 64) - 1))
    high = _hex_ascii(magnitude >> 20 & 0xFFFFFFFF) & (nonzero | 0xFF)  # digits 1-8
    low = _hex_ascii((magnitude & 0xFFFFF) << 12) & nonzero  # digits 9-13, then 3 unused
    words = np.empty((bits.size, 3), dtype=np.uint64)
    head = _HEAD | (biased != 0).astype(np.uint64) << 16  # "0x0." or "0x1."
    words[:, 0] = (bits >> 63) * ord("-") | head << 8 | high << 40
    words[:, 1] = high >> 24 | low << 40
    exponent = _exponent_words()[biased | ~nonzero & 1023]
    words[:, 2] = low >> 24 & 0xFFFF | exponent << 16
    return words


_ZERO_PART = int.from_bytes(b"0x0.0p+0", "little")
_SEPARATORS = np.frombuffer(b"  \n", dtype=np.uint8)
# "0" in the bytes below the top k, for k = 0..8
_ZERO_DIGITS = np.array([_bytes(ord("0")) >> 8 * k for k in range(9)], dtype=np.uint64)


def _in_range(words: np.ndarray, low: int, high: int) -> np.ndarray:
    """Bit 7 of each byte of ``words`` is set where ``low <= byte <= high``;
    the bytes are ASCII, so no sum carries into the next byte."""
    return (words + _bytes(0x80 - low)) & ~(words + _bytes(0x7F - high)) & _bytes(0x80)


def _hex_digits(words: np.ndarray) -> np.ndarray:
    """Whether every byte of ASCII ``words`` is a lowercase hex digit."""
    digit = _in_range(words, ord("0"), ord("9")) | _in_range(words, ord("a"), ord("f"))
    return digit == _bytes(0x80)


def _parse_lines(text: str, count: int):
    """The basis indices and parts of ``count`` amplitude lines in the form
    :func:`write_amplitudes` writes, or None when any line is in another
    form.  That form is ``<index> <part> <part>\\n`` with the index in
    decimal without leading zeros (at most 8 digits here) and each part
    ``[-]0x1.<13 hex digits>p<exponent>`` in the normal range,
    ``[-]0x0.<13 hex digits>p-1022`` or ``[-]0x0.0p+0``, in lowercase and
    with the exponent signed and without leading zeros.

    Every field is read from its bytes as uint64 words, 8 bytes each: the
    digits by shifts, masks and multiplications, the double from its sign,
    exponent and mantissa fields.  On lines in this form ``int`` and
    ``float.fromhex`` read the same values.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    # 24 bytes of padding: a part's word reads reach 23 bytes past its start
    buf = np.frombuffer(data + bytes(24), dtype=np.uint8)
    # the separators of every line: two spaces, then a newline
    fields = np.flatnonzero(buf[: len(data)] <= ord(" "))
    if fields.size != 3 * count or np.any(buf[fields].reshape(-1, 3) != _SEPARATORS):
        return None
    fields = fields.reshape(-1, 3)
    starts = np.concatenate(([0], fields[:-1, 2] + 1))
    digits = fields[:, 0] - starts
    if digits.min() < 1 or digits.max() > 8 or np.any((buf[starts] == ord("0")) & (digits > 1)):
        return None
    # the 8 bytes, and the 24 bytes, from each offset of the buffer
    words = np.ndarray((len(data),), dtype="<u8", buffer=buf, strides=(1,))
    spans = np.ndarray((len(data),), dtype="V24", buffer=buf, strides=(1,))

    # the index's digits moved to the top bytes, "0" below them
    index = words[starts] << (8 * (8 - digits)).astype(np.uint64) | _ZERO_DIGITS[digits]
    ok = _in_range(index, ord("0"), ord("9")) == _bytes(0x80)
    index = (index & _bytes(0x0F)) * 2561 >> 8
    index = (index & 0x00FF00FF00FF00FF) * 6553601 >> 16
    index = (index & 0x0000FFFF0000FFFF) * 42949672960001 >> 32

    # each part from the byte before it, a space or its sign: bytes 1-4 the
    # head, 5-17 the digits, 18 "p", 19 the exponent's sign, 20-23 its digits
    first = fields[:, :2].reshape(-1) + 1
    negative = buf[first] == ord("-")
    length = fields[:, 1:].reshape(-1) - first - negative
    part = np.ascontiguousarray(spans[first + negative - 1].view("<u8").reshape(-1, 3).T,
                                dtype=np.uint64)
    high = part[0] >> 40 | part[1] << 24
    low = part[1] >> 40 | part[2] << 24  # digits 9-13, "p", sign, a digit
    parts_ok = _hex_digits(high) & _hex_digits(low & _LOW_BYTES[5] | 0x303030 << 40)
    mantissa = _hex_value(high) << 20 | _hex_value(low) >> 12
    # the exponent's value from its 1 to 4 digits, then its written form
    exponent = part[2] >> 32 << (8 * (4 - np.clip(length - 19, 0, 4))).astype(np.uint64)
    exponent = (exponent & 0x0F0F0F0F) * 2561 >> 8
    exponent = ((exponent & 0x00FF00FF) * 6553601 >> 16 & 0xFFFF).astype(np.int64)
    exponent *= 1 - 2 * ((part[2] >> 24 & 0xFF) == ord("-"))
    # out of the normal range, the written form is not the clipped one's
    biased = np.clip(exponent + 1023, 0, 2046).astype(np.uint64)
    # up to 8 written bytes against at most 6 in the table: the part ends
    # where its exponent does, and no part in the form is over 23 bytes long,
    # so none has bytes past the words read here
    written = part[2] >> 16 & _LOW_BYTES[np.clip(length - 17, 0, 8)]
    parts_ok &= (_exponent_words()[biased] == written) & (length <= 23)
    head = part[0] >> 8 & 0xFFFFFFFF
    normal = head == _HEAD | 1 << 16  # "0x1."
    parts_ok &= normal | (head == _HEAD) & (biased == 1)
    zero = length == 8
    parts_ok |= zero & ((part[0] >> 8 | part[1] << 56) == _ZERO_PART)
    if not (ok.all() and parts_ok.all()):
        return None
    bits = negative.astype(np.uint64) << 63 | (biased * normal << 52 | mantissa) * ~zero
    return index.astype(np.int64), bits.view(np.float64)


def _read_tokens(lines: list[str]):
    """The basis indices and parts of amplitude lines in any form ``int`` and
    ``float.fromhex`` read, with any whitespace between fields."""
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
    return indices, values


def _malformed(detail) -> SessionFormatError:
    return SessionFormatError(f"malformed session file: {detail}")


def _header_fields(handle, keyword: str, maxsplit: int = -1) -> list[str]:
    """The fields after ``keyword`` on the next non-empty line, which starts with it."""
    line = next((line for line in handle if line != "\n"), "")
    fields = line.rstrip("\n").split(maxsplit=maxsplit)
    if fields[:1] != [keyword]:
        raise SessionFormatError(f"missing {keyword} line")
    return fields[1:]


def _saved_int(text: str, line: str) -> int:
    """An integer of a header line as SAVE writes it, ``str`` of an int:
    ``int`` alone also reads ``+2``, ``0_2`` and ``02``."""
    if text.isascii() and text.removeprefix("-").isdigit() and str(int(text)) == text:
        return int(text)
    raise _malformed(f"{text!r} in the {line} line is not an integer")


def _read_header(handle, max_qubits: int):
    """The (schema, temp, safe key or None) of an open session file's header,
    or None for a file without a table.  Each header line must hold the
    fields SAVE writes; it, the capacity and ``TEMP >= 1`` are checked before
    any register is allocated (names, safe key and norm are checked by
    ``TableSchema`` and the engine)."""
    first = handle.readline()
    if first.rstrip("\n") != FORMAT_HEADER:
        found = first.rstrip("\n") if first else "empty file"
        raise SessionFormatError(f"unsupported session header: {found!r}")
    try:
        schema_fields = _header_fields(handle, "SCHEMA")
        if schema_fields == ["none"]:
            return None
        fields = [chunk.split(":") for chunk in schema_fields[1:]]
        if not fields or any(len(field) != 2 for field in fields):
            raise _malformed("the SCHEMA line is not SCHEMA none or "
                             "SCHEMA <table> <field>:<width> ...")
        schema = TableSchema(schema_fields[0], tuple((name, _saved_int(width, "SCHEMA"))
                                                     for name, width in fields))
        temp_fields = _header_fields(handle, "TEMP")
        if len(temp_fields) != 1:
            raise _malformed("the TEMP line is not TEMP <count>")
        temp = _saved_int(temp_fields[0], "TEMP")
        safe_fields = _header_fields(handle, "SAFE", maxsplit=3)
        safe_key = None
        if safe_fields != ["none"]:
            if len(safe_fields) != 3 or safe_fields[0] == "none":
                raise _malformed("the SAFE line is not SAFE none or SAFE <qubit> <matches> <expr>")
            qubit, matches, expr_text = safe_fields
            safe_key = SafeKey(_saved_int(qubit, "SAFE"), qlang.parse_predicate(expr_text),
                               _saved_int(matches, "SAFE"))
    except SessionFormatError:
        raise
    except (QqlError, ValueError) as exc:  # ValueError: over 4300 digits
        raise _malformed(exc) from exc
    if temp < 1:
        raise SessionFormatError(f"TEMP {temp} is below one temporary qubit")
    check_capacity(schema.num_bits, temp, max_qubits)
    return schema, temp, safe_key


def _read_session(handle, max_qubits: int):
    """Parse an open session file into (schema, temp, safe key or None,
    amplitudes), or None for a file without a table.  The header is read by
    :func:`_read_header`, and every amplitude line is checked: three fields,
    a basis index in range and above the previous line's, and finite parts.
    A block of lines in the writer's own form is read from its bytes; any
    other block by ``int`` and ``float.fromhex``."""
    header = _read_header(handle, max_qubits)
    if header is None:
        return None
    schema, temp, safe_key = header
    total = schema.num_bits + temp
    amps = np.zeros(1 << total, dtype=np.complex128)
    previous = -1
    while lines := list(islice(handle, LOAD_CHUNK)):
        parsed = _parse_lines("".join(lines), len(lines))
        indices, values = parsed if parsed is not None else _read_tokens(lines)
        if not indices.size:
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


def run_text(session: Session, text: str, emit, first_line: int = 1) -> int:
    """Parse ``text``, whose first line is line ``first_line`` of the input,
    then run its statements in order, handing each output to ``emit`` as its
    statement finishes.  The first ``QqlError`` or ``ValueError`` is handed
    over as one ``error: …`` line and ends the run with status 1."""
    try:
        for command in qlang.parse_text(text, first_line):
            emit(session.execute_command(command))
    except (QqlError, ValueError) as exc:
        emit(f"error: {exc}")
        return 1
    return 0


def run_script(path: str, session: Session) -> tuple[str, int]:
    """Execute a script file; the first failing statement aborts with a
    nonzero status.  Returns (transcript, status)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return f"error: {exc}\n", 1
    lines: list[str] = []
    status = run_text(session, text, lines.append)
    return "".join(line + "\n" for line in lines), status


def _ends_statement(line: str) -> bool:
    """Whether a shell line ends a statement: its last token is ``;`` (comments
    and strings never span lines), or the lexer refuses it."""
    try:
        return [token[:2] for token in qlang.tokenize(line)[-2:-1]] == [("punct", ";")]
    except QqlError:
        return True


def repl_loop(session: Session, stdin=None, stdout=None) -> int:
    """Line-oriented shell: a statement ends at a line whose last token is ';';
    each output is printed as its statement finishes; an error never ends the
    shell, and a syntax error's line is counted in the whole input."""
    emit = functools.partial(print, file=sys.stdout if stdout is None else stdout)
    if not session.config.quiet:
        emit("qqldb shell; statements end with ';' (Ctrl-D to exit)")
    buffer, first_line = "", 1
    for number, line in enumerate(sys.stdin if stdin is None else stdin, 1):
        buffer += line
        if _ends_statement(line):
            run_text(session, buffer, emit, first_line)
            buffer, first_line = "", number + 1
    if len(qlang.tokenize(buffer)) > 1:
        emit("error: trailing input without ';' discarded")
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qqldb",
        description="Quantum database shell: records as basis states, "
        "queries as reversible circuits.",
    )
    parser.add_argument("--script", metavar="PATH", help="run a script instead of the shell")
    parser.add_argument("--max-qubits", type=int)
    parser.add_argument("--seed", type=int, help="base seed for unseeded MEASUREs")
    parser.add_argument("--epsilon", type=float,
                        help="post-selection probability floor, from 0 to 1")
    parser.add_argument("--quiet", action="store_true", help="suppress banner output")
    parser.set_defaults(**vars(SessionConfig()))
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = vars(parser.parse_args(argv))
    script = args.pop("script")
    try:
        session = Session(SessionConfig(**args))
    except QqlError as exc:
        parser.error(str(exc))
    if script:
        transcript, status = run_script(script, session)
        if not session.config.quiet:
            sys.stdout.write(transcript)
        return status
    return repl_loop(session)
