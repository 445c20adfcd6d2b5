"""WHERE predicates compiled to reversible circuits.

A predicate becomes a truth table over the data bits, the table becomes an
XOR-of-AND-monomials form via the positive-polarity binary Moebius transform
over GF(2), and each monomial becomes one multi-controlled NOT onto a target
qubit.  Oracles apply ``|x, y> -> |x, y XOR f(x)>`` directly from the table, as
one in-place basis permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArgumentError, SchemaError, as_int
from .gates import CnotGate
from .schema import TableSchema
from .statevec import StateVector, swap

MAX_TABLE_VARS = 20
# Deepest predicate tree, counting each AND, OR and NOT as a level: the
# evaluator and the renderer walk predicates recursively, and this bound
# keeps them far from Python's recursion limit.
MAX_EXPR_DEPTH = 100

_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


class BoolExpr:
    """Predicate tree: comparisons and boolean variables combined with
    AND/OR/NOT, plus constants."""

    __slots__ = ()


@dataclass(frozen=True)
class Comparison(BoolExpr):
    field: str
    op: str
    literal: int

    def __post_init__(self):
        if self.op not in _OPS:
            raise ArgumentError(f"unknown comparison operator {self.op!r}")
        object.__setattr__(self, "literal", as_int(self.literal, "literal"))


@dataclass(frozen=True)
class Var(BoolExpr):
    """Bare boolean variable: true when the named field is nonzero."""

    name: str


@dataclass(frozen=True)
class And(BoolExpr):
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True)
class Or(BoolExpr):
    left: BoolExpr
    right: BoolExpr


@dataclass(frozen=True)
class Not(BoolExpr):
    expr: BoolExpr


@dataclass(frozen=True)
class Const(BoolExpr):
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", as_int(self.value, "constant"))
        if self.value not in (0, 1):
            raise ArgumentError("constant must be 0 or 1")


@dataclass(frozen=True, eq=False)
class TruthTable:
    """Function values over all ``2^num_vars`` variable assignments.

    Entry ``bits[i]`` is f at the assignment whose binary expansion is ``i``
    with variable 0 as the most significant bit.
    """

    num_vars: int
    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool)
        if bits.shape != (1 << self.num_vars,):
            raise ArgumentError(
                f"table of {bits.size} entries does not match {self.num_vars} variables"
            )
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)


@dataclass(frozen=True)
class ReedMullerForm:
    """XOR of AND-monomials; each monomial is a set of variable indices and
    the empty monomial is the constant-1 term."""

    monomials: frozenset[frozenset[int]]

    def __post_init__(self):
        object.__setattr__(
            self, "monomials", frozenset(frozenset(m) for m in self.monomials)
        )


def walk_expr(expr: BoolExpr):
    """Every node of a predicate tree with its level, the root's being 1, in
    pre-order and without recursion."""
    stack = [(expr, 1)]
    while stack:
        node, level = stack.pop()
        yield node, level
        if isinstance(node, (And, Or)):
            stack += [(node.right, level + 1), (node.left, level + 1)]
        elif isinstance(node, Not):
            stack.append((node.expr, level + 1))


def expr_depth(expr: BoolExpr) -> int:
    """Level of the deepest node."""
    return max(level for _, level in walk_expr(expr))


def validate_expr(expr: BoolExpr, schema: TableSchema) -> None:
    """Check the depth, field references and literal widths against the
    schema."""
    for node, level in walk_expr(expr):
        if level > MAX_EXPR_DEPTH:
            raise SchemaError(f"predicate nested deeper than {MAX_EXPR_DEPTH} levels")
        if isinstance(node, Comparison):
            width = schema.width_of(node.field)
            if node.literal < 0 or node.literal >= 1 << width:
                raise SchemaError(
                    f"literal {node.literal} does not fit field {node.field!r} of width {width}"
                )
        elif isinstance(node, Var):
            schema.width_of(node.name)
        elif not isinstance(node, (And, Or, Not, Const)):
            raise TypeError(f"not a BoolExpr: {node!r}")


def _eval_vectorized(expr: BoolExpr, schema: TableSchema, indices: np.ndarray) -> np.ndarray:
    if isinstance(expr, Var):
        return schema.field_values(indices, expr.name) != 0
    if isinstance(expr, Comparison):
        return _OPS[expr.op](schema.field_values(indices, expr.field), expr.literal)
    if isinstance(expr, And):
        return _eval_vectorized(expr.left, schema, indices) & _eval_vectorized(
            expr.right, schema, indices
        )
    if isinstance(expr, Or):
        return _eval_vectorized(expr.left, schema, indices) | _eval_vectorized(
            expr.right, schema, indices
        )
    if isinstance(expr, Not):
        return ~_eval_vectorized(expr.expr, schema, indices)
    if isinstance(expr, Const):
        return np.full(indices.shape, bool(expr.value))
    raise TypeError(f"not a BoolExpr: {expr!r}")


def truth_table(expr: BoolExpr, schema: TableSchema) -> TruthTable:
    """Check the predicate with :func:`validate_expr`, then materialize it
    over every record of the schema."""
    validate_expr(expr, schema)
    n = schema.num_bits
    if n > MAX_TABLE_VARS:
        raise SchemaError(f"{n} data bits exceed the {MAX_TABLE_VARS}-bit table bound")
    indices = np.arange(1 << n, dtype=np.int64)
    return TruthTable(n, _eval_vectorized(expr, schema, indices))


def to_reed_muller(table: TruthTable) -> ReedMullerForm:
    """Positive-polarity binary Moebius transform over GF(2).

    An in-place butterfly: after processing every variable, entry ``mask``
    holds the coefficient of the monomial of the variables in ``mask``.
    """
    coeffs = table.bits.astype(np.uint8).copy()
    for level in range(table.num_vars):
        coeffs = coeffs.reshape(-1, 2, 1 << level)
        coeffs[:, 1, :] ^= coeffs[:, 0, :]
    coeffs = coeffs.reshape(-1)
    v = table.num_vars
    monomials = []
    for mask in np.nonzero(coeffs)[0]:
        monomials.append(frozenset(j for j in range(v) if (int(mask) >> (v - 1 - j)) & 1))
    return ReedMullerForm(frozenset(monomials))


def compile_to_cnots(
    form: ReedMullerForm,
    var_qubits: Sequence[int],
    target: int,
) -> list[CnotGate]:
    """One multi-controlled NOT per monomial, onto a fixed target qubit;
    variable j is the qubit ``var_qubits[j]``.

    Gate order is irrelevant to the computed function (XOR commutes); gates
    are emitted largest monomial first for determinism.
    """
    if target in var_qubits:
        raise ArgumentError(f"target qubit {target} collides with a variable qubit")
    ordered = sorted(form.monomials, key=lambda m: (-len(m), sorted(m)))
    return [CnotGate(frozenset(var_qubits[j] for j in monomial), target) for monomial in ordered]


def apply_oracle(
    state: StateVector,
    oracle: TruthTable,
    data_qubits: Sequence[int],
    target: int,
    neg_controls: Sequence[int] = (),
) -> StateVector:
    """XOR the predicate of the data qubits into the target qubit.

    The data qubits must be one ascending contiguous run, read with its first
    qubit as variable 0; they are left untouched and the target may be in any
    state.  The flip is one in-place permutation pass over the rows where the
    table is 1, whatever the predicate.  ``neg_controls`` further restricts
    it to components where those qubits are 0 (used to keep a backup safe
    inviolate).
    """
    if not isinstance(oracle, TruthTable):
        raise TypeError(f"oracle must be a TruthTable, got {type(oracle).__name__}")
    v = oracle.num_vars
    run = range(data_qubits[0], data_qubits[0] + v) if data_qubits else range(0)
    if len(data_qubits) != v or list(data_qubits) != list(run):
        raise ArgumentError(
            f"data qubits {list(data_qubits)} are not one ascending run of {v} qubits"
        )
    rows = np.flatnonzero(oracle.bits)
    swap(state.amps, (0, rows), (1, rows), neg_controls=neg_controls, leading=[target], run=run)
    return state
