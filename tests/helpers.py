"""Shared test oracles, kept independent of the kernels they check."""

from __future__ import annotations

import operator
from itertools import islice
from typing import Iterable

import numpy as np

from qqldb import cli
from qqldb.boolcirc import (
    And, BoolExpr, Comparison, Const, Not, Or, TruthTable, Var, apply_oracle,
    compile_to_cnots, to_reed_muller, truth_table,
)
from qqldb.cli import LOAD_CHUNK, format_amplitude
from qqldb.diffusion import apply_partial_diffusion
from qqldb.errors import CapacityError, QqlSyntaxError, SessionFormatError
from qqldb.gates import DENSE_LIMIT_QUBITS, HADAMARD, NOT, CnotGate, GateMatrix
from qqldb.qlang import KEYWORDS, MAX_INT_DIGITS, Token
from qqldb.schema import TableSchema
from qqldb.statevec import StateVector, swap, xorshift_uniform


def random_unitary(num_qubits: int, rng: np.random.Generator) -> GateMatrix:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    dim = 1 << num_qubits
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return GateMatrix(q)


def random_state(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return amps / np.linalg.norm(amps)


def reshape_probability_of(amps: np.ndarray, qubit: int, bit: int) -> float:
    """``StateVector.probability_of`` in its earlier form, as an oracle: the
    half where ``qubit`` equals ``bit`` as the middle index of a 3-axis
    reshape."""
    half = amps.reshape(1 << qubit, 2, -1)[:, bit, :]
    return float(np.sum(half.real**2 + half.imag**2))


def reshape_postselect(amps: np.ndarray, qubit: int, bit: int) -> float:
    """``StateVector.postselect`` without amplification or refusal, in its
    earlier form: zero the other half of the reshape, then renormalize."""
    prob = reshape_probability_of(amps, qubit, bit)
    amps.reshape(1 << qubit, 2, -1)[:, 1 - bit, :] = 0.0
    amps /= np.sqrt(prob)
    return prob


def dense_embed(
    matrix: np.ndarray,
    targets: list[int],
    num_qubits: int,
    pos_controls: list[int] | None = None,
    neg_controls: list[int] | None = None,
) -> np.ndarray:
    """Explicit 2^m x 2^m matrix for a (controlled) gate, built entry by entry
    straight from the definition; the comparison oracle for the stride kernel."""
    pos_controls = pos_controls or []
    neg_controls = neg_controls or []
    dim = 1 << num_qubits
    k = len(targets)

    def bit(index, qubit):
        return (index >> (num_qubits - 1 - qubit)) & 1

    full = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        satisfied = all(bit(col, q) == 1 for q in pos_controls) and all(
            bit(col, q) == 0 for q in neg_controls
        )
        if not satisfied:
            full[col, col] = 1.0
            continue
        col_local = 0
        for j, q in enumerate(targets):
            col_local |= bit(col, q) << (k - 1 - j)
        for row_local in range(1 << k):
            row = col
            for j, q in enumerate(targets):
                mask = 1 << (num_qubits - 1 - q)
                row = (row & ~mask) | (((row_local >> (k - 1 - j)) & 1) * mask)
            full[row, col] = matrix[row_local, col_local]
    return full


def untiled_apply(
    amps: np.ndarray,
    matrix: np.ndarray,
    targets: list[int],
    num_qubits: int,
    pos_controls: list[int] = (),
    neg_controls: list[int] = (),
    run: range = range(0),
    rows: range | None = None,
) -> None:
    """The controlled-unitary kernel without tiles: one product
    ``matrix @ block.reshape(2^k, -1)`` over the whole selected block of a
    ``moveaxis`` view with one axis per qubit (the run merged into one)."""
    k = len(targets)
    shape = (2,) * run.start + (1 << len(run),) + (2,) * (num_qubits - run.stop)

    def axis(q):
        return q if q < run.start else q - len(run) + 1

    moved = [axis(q) for q in (*pos_controls, *neg_controls, *targets)] + [run.start]
    view = np.moveaxis(amps.reshape(shape), moved, range(len(moved)))
    block = view[(1,) * len(pos_controls) + (0,) * len(neg_controls)]
    if rows is not None:
        block = block[(slice(None),) * k + (slice(rows.start, rows.stop),)]
    block[...] = (matrix @ block.reshape(1 << k, -1)).reshape(block.shape)


def reed_muller_brute_eval(monomials, assignment_bits: dict[int, int]) -> int:
    """Direct XOR-of-AND evaluation of a Reed-Muller form."""
    acc = 0
    for monomial in monomials:
        term = 1
        for var in monomial:
            term &= assignment_bits[var]
        acc ^= term
    return acc


# ---------------------------------------------------------------- predicates

_COMPARISONS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
}


def reference_eval(expr: BoolExpr, index: int, fields) -> bool:
    """A predicate at one data index, by recursion over the tree, with its
    own comparison table and its own field extraction (a slice of the index's
    binary digits).  ``truth_table`` is checked against it, and the
    conformance run's ``RefDb`` takes its predicates from it.  ``fields`` are
    the schema's (name, width) pairs, the first in the most significant
    bits."""
    if isinstance(expr, Const):
        return bool(expr.value)
    if isinstance(expr, Not):
        return not reference_eval(expr.expr, index, fields)
    if isinstance(expr, And):
        return reference_eval(expr.left, index, fields) and reference_eval(
            expr.right, index, fields
        )
    if isinstance(expr, Or):
        return reference_eval(expr.left, index, fields) or reference_eval(
            expr.right, index, fields
        )
    name = expr.field if isinstance(expr, Comparison) else expr.name
    digits = format(index, f"0{sum(width for _, width in fields)}b")
    start = 0
    for field_name, width in fields:
        if field_name == name:
            value = int(digits[start : start + width], 2)
            break
        start += width
    else:
        raise KeyError(f"unknown field {name!r}")
    if isinstance(expr, Var):
        return value != 0
    return _COMPARISONS[expr.op](value, expr.literal)


# ---------------------------------------------------------------- dense builders
# Dense matrices over whole (small) registers: the reference the in-place
# kernels are checked against.  Each is capped at the GateMatrix dense limit.


def gates_close(gate: GateMatrix, other: "GateMatrix | np.ndarray", tol: float = 1e-12) -> bool:
    """Same shape and entries within ``tol``."""
    other_mat = other.matrix if isinstance(other, GateMatrix) else np.asarray(other)
    return gate.matrix.shape == other_mat.shape and bool(
        np.max(np.abs(gate.matrix - other_mat)) <= tol
    )


def identity(num_qubits: int = 1) -> GateMatrix:
    if num_qubits < 1 or num_qubits > DENSE_LIMIT_QUBITS:
        raise CapacityError(f"identity size {num_qubits} outside dense limit")
    return GateMatrix(np.eye(1 << num_qubits))


def standard_gate(name: str, num_qubits: int = 1) -> GateMatrix:
    """Look up a named gate: ``not``, ``hadamard`` (alias ``h``) or ``identity``."""
    key = name.strip().lower()
    if key == "not":
        return NOT
    if key in ("hadamard", "h"):
        return HADAMARD
    if key in ("identity", "i"):
        return identity(num_qubits)
    raise ValueError(f"unknown gate name {name!r}")


def tensor_gates(u: GateMatrix, v: GateMatrix) -> GateMatrix:
    """Kronecker product; the first factor owns the most significant bits."""
    total = u.num_qubits + v.num_qubits
    if total > DENSE_LIMIT_QUBITS:
        raise CapacityError(f"tensor of {total} qubits exceeds dense limit")
    return GateMatrix(np.kron(u.matrix, v.matrix))


_KET0_PROJ = np.array([[1, 0], [0, 0]], dtype=np.complex128)
_KET1_PROJ = np.array([[0, 0], [0, 1]], dtype=np.complex128)


def controlled_lift(u: GateMatrix, control_value: int = 1) -> GateMatrix:
    """Extend ``u`` with one control qubit appended as the last (least
    significant) qubit: ``u`` acts where the control equals ``control_value``,
    identity elsewhere.
    """
    if control_value not in (0, 1):
        raise ValueError("control_value must be 0 or 1")
    if u.num_qubits + 1 > DENSE_LIMIT_QUBITS:
        raise CapacityError("controlled lift exceeds dense limit")
    eye = np.eye(u.matrix.shape[0])
    if control_value == 1:
        mat = np.kron(u.matrix, _KET1_PROJ) + np.kron(eye, _KET0_PROJ)
    else:
        mat = np.kron(u.matrix, _KET0_PROJ) + np.kron(eye, _KET1_PROJ)
    return GateMatrix(mat)


def permutation_gate(swaps: Iterable[tuple[int, int]], num_qubits: int) -> GateMatrix:
    """Identity with the listed basis-index column pairs swapped.

    The pairs must be disjoint transpositions, which makes the result
    self-inverse.
    """
    if num_qubits > DENSE_LIMIT_QUBITS:
        raise CapacityError(f"{num_qubits}-qubit permutation exceeds dense limit")
    dim = 1 << num_qubits
    seen: set[int] = set()
    mat = np.eye(dim, dtype=np.complex128)
    for a, b in swaps:
        for idx in (a, b):
            if idx < 0 or idx >= dim:
                raise ValueError(f"basis index {idx} out of range for {num_qubits} qubits")
            if idx in seen:
                raise ValueError(f"basis index {idx} appears in more than one swap pair")
            seen.add(idx)
        mat[:, [a, b]] = mat[:, [b, a]]
    return GateMatrix(mat)


def dense_partial_diffusion(n: int) -> GateMatrix:
    """Exact matrix product of the three factors of the partial diffusion
    operator over ``n`` data qubits and a last flag qubit, for n + 1 within
    the dense limit."""
    if n + 1 > DENSE_LIMIT_QUBITS:
        raise CapacityError(f"dense diffusion over {n + 1} qubits exceeds the dense limit")
    dim = 1 << (n + 1)
    spread = HADAMARD.matrix
    for _ in range(n - 1):
        spread = np.kron(spread, HADAMARD.matrix)
    spread = np.kron(spread, np.eye(2, dtype=np.complex128))
    core = -np.eye(dim, dtype=np.complex128)
    core[0, 0] += 2.0
    return GateMatrix(spread @ core @ spread)


class FullViewStatements:
    """The kernel calls of SELECT, single-flag APPLY NOT, UPDATE, DELETE,
    BACKUP and RESTORE PURGE as ``QdbState`` makes them, each on the whole
    register: no temp is skipped, whatever it holds.  The oracle for the
    engine's skipping of free temps whose |1> half is exactly zero.  It keeps
    no allocation: each statement is given the temps the engine takes (its
    first free one) and the safe key, if a backup is active."""

    def __init__(self, amps: np.ndarray, schema: TableSchema):
        self.state, self.schema = StateVector(amps), schema
        self.data = list(range(schema.num_bits))

    def _oracle(self, expr: BoolExpr, qubit: int, neg_controls=()) -> None:
        apply_oracle(self.state, truth_table(expr, self.schema), self.data, qubit, neg_controls)

    def select(self, expr: BoolExpr, qubit: int) -> None:
        self._oracle(expr, qubit)

    def apply_not(self, flag: int, expr: BoolExpr, combiner: int, target: int,
                  safe: int | None = None) -> None:
        """``APPLY NOT @ target WHEN flag``: the combiner is one CNOT."""
        cnot = CnotGate(frozenset([flag]), combiner)
        self.state.apply_cnot(cnot)
        swap(self.state.amps, 0, 1, [combiner], [safe] if safe is not None else [],
             leading=[target])
        self.state.apply_cnot(cnot)
        self._oracle(expr, flag)

    def update(self, pairs, safe: int | None = None) -> None:
        a, b = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        swap(self.state.amps, a, b, (), [safe] if safe is not None else [],
             run=range(len(self.data)))

    def delete(self, expr: BoolExpr, qubit: int, safe: int | None = None) -> float:
        self._oracle(expr, qubit, [safe] if safe is not None else [])
        return self.state.postselect(qubit, 0)

    def backup(self, expr: BoolExpr, qubit: int) -> None:
        self._oracle(expr, qubit)
        apply_partial_diffusion(self.state, len(self.data), qubit)

    def restore_purge(self, expr: BoolExpr, safe: int) -> float:
        return self.delete(expr, safe)


# ---------------------------------------------------------------- lexer


def reference_tokenize(text: str) -> list[Token]:
    """The query-language lexer as a loop over characters: the reference the
    regular-expression lexer ``qlang.tokenize`` is checked against."""
    tokens: list[Token] = []
    line, column = 1, 1
    i = 0
    length = len(text)

    def error(message: str):
        raise QqlSyntaxError(message, line, column)

    while i < length:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            column = 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if text.startswith("--", i):
            while i < length and text[i] != "\n":
                i += 1
            continue
        start_col = column
        if ch.isalpha() or ch == "_":
            j = i
            while j < length and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word.upper() in KEYWORDS else "ident"
            word_text = word.upper() if kind == "keyword" else word
            tokens.append(Token(kind, word_text, line, start_col))
            column += j - i
            i = j
            continue
        # ASCII only: str.isdigit also accepts digits such as "²" that int rejects
        if "0" <= ch <= "9":
            j = i
            while j < length and "0" <= text[j] <= "9":
                j += 1
            if j - i > MAX_INT_DIGITS:
                error(f"integer literal of more than {MAX_INT_DIGITS} digits")
            tokens.append(Token("int", text[i:j], line, start_col))
            column += j - i
            i = j
            continue
        if ch == "|":
            j = i + 1
            while j < length and text[j] in "01":
                j += 1
            if j == i + 1 or j >= length or text[j] != ">":
                error("malformed ket literal; expected |b...b> with bits 0/1")
            tokens.append(Token("ket", text[i : j + 1], line, start_col))
            column += j + 1 - i
            i = j + 1
            continue
        if ch == '"':
            j = i + 1
            while j < length and text[j] != '"':
                if text[j] == "\n":
                    error("unterminated string literal")
                j += 1
            if j >= length:
                error("unterminated string literal")
            tokens.append(Token("string", text[i + 1 : j], line, start_col))
            column += j + 1 - i
            i = j + 1
            continue
        matched = False
        for op in (">=", "<=", "!=", ">", "<", "="):
            if text.startswith(op, i):
                tokens.append(Token("op", op, line, start_col))
                column += len(op)
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in "(),:;@":
            tokens.append(Token("punct", ch, line, start_col))
            column += 1
            i += 1
            continue
        error(f"illegal character {ch!r}")
    tokens.append(Token("eof", "", line, column))
    return tokens


# ---------------------------------------------------------------- session files


def reference_read_session(handle, max_qubits: int):
    """The session-file reader with every amplitude line read by ``int`` and
    ``float.fromhex``, in blocks of ``LOAD_CHUNK`` lines: the reference the
    byte reader ``cli._read_session`` is checked against.  The header is
    read by ``cli._read_header``, the one reading of it.  Returns (schema,
    temp, safe key or None, amplitudes), or None for a file without a
    table."""
    header = cli._read_header(handle, max_qubits)
    if header is None:
        return None
    schema, temp, safe_key = header
    total = schema.num_bits + temp
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


# ---------------------------------------------------------------- read-out


def reference_label_columns(schema: TableSchema, indices: np.ndarray, width: int):
    """A ``%``-format of the record label ``(name=value, ...)`` of data
    indices, left-justified to ``width`` columns, and its argument columns:
    one of values per field, then one of padding.  ``Session._label_columns``
    as it was before the byte rows of ``Session._label_rows``, kept here as
    the oracle of both, so a change to either is checked against it."""
    fields = schema.fields
    lengths = np.full(indices.size, sum(len(name) + 3 for name, _ in fields))
    powers = 10 ** np.arange(1, 19, dtype=np.int64)
    columns = []
    for name, _ in fields:
        values = schema.field_values(indices, name)
        lengths += np.searchsorted(powers, values, side="right") + 1
        columns.append(values.tolist())
    pads = [" " * k for k in range(width + 1)]
    columns.append(list(map(pads.__getitem__, np.maximum(width - lengths, 0).tolist())))
    label = "(" + ", ".join(f"{name}=%d" for name, _ in fields) + ")%s"
    return label, columns


def reference_labels(schema: TableSchema, indices: np.ndarray, width: int) -> list[str]:
    label, columns = reference_label_columns(schema, indices, width)
    return [label % values for values in zip(*columns)]


def reference_histogram(schema: TableSchema, histogram, shots: int) -> str:
    """``Session.render_histogram`` as one ``%``-format per row."""
    indices, counts = histogram
    label, columns = reference_label_columns(schema, indices, 28)
    row = label + "  %8d  %10.6f"
    lines = [f"{'record':<28}  {'count':>8}  fraction"]
    lines += [
        row % values
        for values in zip(*columns, counts.tolist(), (counts / shots).tolist())
    ]
    lines.append(f"{shots} shot(s), {indices.size} distinct record(s)")
    return "\n".join(lines)


def reference_state(schema: TableSchema, t: int, components, full: bool = False) -> str:
    """``Session.render_state`` as one ``%``-format per row, each row's
    amplitude formatted on its own: the oracle of its byte rows, which format
    each distinct amplitude once."""
    n = schema.num_bits
    indices, amplitudes = components
    probabilities = amplitudes.real**2 + amplitudes.imag**2
    labels = reference_labels(schema, indices >> t, 24)
    index_list = indices.tolist()
    kets = [f"|{index:0{n + t}b}>" for index in index_list]
    temp_pad = " " * max(4 - t, 0)
    temps = [f"{index & ((1 << t) - 1):0{t}b}{temp_pad}" for index in index_list]
    amps = [format_amplitude(amp, full) for amp in amplitudes.tolist()]
    lines = [f"{'ket':<{n + t + 2}}  {'record':<24}  {'temp':<{max(t, 4)}}  "
             f"{'amplitude':<24}  probability"]
    lines += [
        "%s  %s  %s  %-24s  %10.6f" % values
        for values in zip(kets, labels, temps, amps, probabilities.tolist())
    ]
    total = float(np.cumsum(probabilities)[-1]) if indices.size else 0.0
    lines.append(f"{len(index_list)} component(s), total probability {total:.6f}")
    return "\n".join(lines)


def full_scan_sample(amps: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """``StateVector.sample`` as one ``np.cumsum`` over the whole register and
    one search: the oracle of the sampler that reads live columns only."""
    draws = xorshift_uniform(seed, shots)
    cumulative = np.cumsum(amps.real**2 + amps.imag**2)
    picks = np.searchsorted(cumulative, draws, side="right")
    # a draw at or above the total picks the last index
    return np.minimum(picks, amps.size - 1)


def monomial_combiner_gates(table: TruthTable, var_qubits, target: int):
    """One multi-controlled NOT per Reed-Muller monomial of the combiner, each
    with no negative controls: the combiner path that ``combiner_gates``
    takes only when the function has more satisfying patterns than
    monomials, kept as the oracle of the pattern path; it stands in for
    ``qqldb.qdb.combiner_gates``."""
    return [(gate, []) for gate in compile_to_cnots(to_reed_muller(table), var_qubits, target)]
