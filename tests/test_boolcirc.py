import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_state, reed_muller_brute_eval, reference_eval
from qqldb import boolcirc
from qqldb.boolcirc import (
    And,
    Comparison,
    Const,
    Not,
    Or,
    ReedMullerForm,
    TruthTable,
    Var,
    apply_oracle,
    compile_to_cnots,
    to_reed_muller,
    truth_table,
    validate_expr,
)
from qqldb.errors import SchemaError
from qqldb.gates import CnotGate
from qqldb.schema import TableSchema
from qqldb.statevec import StateVector

BITS2 = TableSchema("bits", (("x0", 1), ("x1", 1)))
AGE = TableSchema("ages", (("age", 3),))

# the running example: x0 OR (NOT x1)
X0_OR_NOT_X1 = Or(Var("x0"), Not(Var("x1")))


class TestEvalExpr:
    def test_or_not_example(self):
        index = BITS2.encode(BITS2.record(x0=1, x1=1))
        assert truth_table(X0_OR_NOT_X1, BITS2).bits[index]

    def test_const_zero(self):
        assert not truth_table(Const(0), AGE).bits[5]

    def test_unsigned_compare(self):
        bits = truth_table(Comparison("age", ">=", 2), AGE).bits
        assert bits[5] and not bits[1]

    def test_unknown_field(self):
        with pytest.raises(SchemaError):
            truth_table(Comparison("salary", "=", 1), AGE)

    def test_literal_must_fit_width(self):
        with pytest.raises(SchemaError):
            validate_expr(Comparison("age", ">", 8), AGE)


class TestTruthTable:
    def test_const_one(self):
        table = truth_table(Const(1), BITS2)
        assert table.bits.tolist() == [True] * 4

    def test_or_not_example_enumerated(self):
        # enumerate the 4 assignments by hand: 00, 01, 10, 11
        table = truth_table(X0_OR_NOT_X1, BITS2)
        assert table.bits.tolist() == [True, False, True, True]

    def test_single_match_equality(self):
        table = truth_table(And(Comparison("x0", "=", 1), Comparison("x1", "=", 1)), BITS2)
        assert table.bits.tolist() == [False, False, False, True]

    def test_vectorized_matches_scalar_eval(self):
        rng = np.random.default_rng(0)
        schema = TableSchema("two", (("a", 2), ("b", 3)))
        for _ in range(20):
            expr = _random_expr(rng, schema, depth=3)
            table = truth_table(expr, schema)
            for index in range(1 << schema.num_bits):
                assert table.bits[index] == reference_eval(expr, index, schema.fields)

    def test_reference_is_independent_of_the_engine_table(self, monkeypatch):
        # a wrong comparison in the engine must not also pass as the reference
        expr = Comparison("age", ">=", 2)
        expected = [reference_eval(expr, index, AGE.fields) for index in range(8)]
        assert truth_table(expr, AGE).bits.tolist() == expected
        monkeypatch.setitem(boolcirc._OPS, ">=", boolcirc._OPS[">"])
        assert truth_table(expr, AGE).bits.tolist() != expected
        assert [reference_eval(expr, index, AGE.fields) for index in range(8)] == expected


def _random_expr(rng, schema, depth):
    if depth == 0 or rng.random() < 0.3:
        field, width = schema.fields[rng.integers(0, len(schema.fields))]
        op = ["<", "<=", ">", ">=", "=", "!="][rng.integers(0, 6)]
        return Comparison(field, op, int(rng.integers(0, 1 << width)))
    pick = rng.random()
    if pick < 0.4:
        return And(_random_expr(rng, schema, depth - 1), _random_expr(rng, schema, depth - 1))
    if pick < 0.8:
        return Or(_random_expr(rng, schema, depth - 1), _random_expr(rng, schema, depth - 1))
    return Not(_random_expr(rng, schema, depth - 1))


class TestReedMuller:
    def test_worked_example(self):
        # x0 OR NOT x1 == 1 xor x1 xor x0 x1
        form = to_reed_muller(truth_table(X0_OR_NOT_X1, BITS2))
        assert form.monomials == frozenset(
            {frozenset(), frozenset({1}), frozenset({0, 1})}
        )

    def test_all_zeros_table(self):
        form = to_reed_muller(TruthTable(2, np.zeros(4, dtype=bool)))
        assert form.monomials == frozenset()

    def test_random_tables_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            bits = rng.integers(0, 2, size=32).astype(bool)
            form = to_reed_muller(TruthTable(5, bits))
            for assignment in range(32):
                values = {j: (assignment >> (4 - j)) & 1 for j in range(5)}
                assert reed_muller_brute_eval(form.monomials, values) == bits[assignment]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, seed, num_vars):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=1 << num_vars).astype(bool)
        form = to_reed_muller(TruthTable(num_vars, bits))
        for assignment in range(1 << num_vars):
            values = {j: (assignment >> (num_vars - 1 - j)) & 1 for j in range(num_vars)}
            assert reed_muller_brute_eval(form.monomials, values) == bits[assignment]


class TestCompileToCnots:
    def test_worked_example_gate_list(self):
        form = ReedMullerForm(
            frozenset({frozenset(), frozenset({1}), frozenset({0, 1})})
        )
        gates = compile_to_cnots(form, [0, 1], target=2)
        assert gates == [
            CnotGate(frozenset({0, 1}), 2),
            CnotGate(frozenset({1}), 2),
            CnotGate(frozenset(), 2),
        ]

    def test_empty_form_empty_list(self):
        assert compile_to_cnots(ReedMullerForm(frozenset()), [0, 1], 2) == []

    def test_single_copy_gate(self):
        gates = compile_to_cnots(ReedMullerForm(frozenset({frozenset({0})})), [5], 7)
        assert gates == [CnotGate(frozenset({5}), 7)]

    def test_target_collision(self):
        with pytest.raises(ValueError):
            compile_to_cnots(ReedMullerForm(frozenset({frozenset({0})})), [2], 2)

    def test_gate_count_equals_monomial_count(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = int(rng.integers(1, 7))
            bits = rng.integers(0, 2, size=1 << v).astype(bool)
            form = to_reed_muller(TruthTable(v, bits))
            gates = compile_to_cnots(form, list(range(v)), v)
            assert len(gates) == len(form.monomials)

    @pytest.mark.parametrize("v", [1, 2, 3, 5, 8])
    def test_compiled_circuit_computes_f_on_all_basis_states(self, v):
        rng = np.random.default_rng(v)
        bits = rng.integers(0, 2, size=1 << v).astype(bool)
        table = TruthTable(v, bits)
        gates = compile_to_cnots(to_reed_muller(table), list(range(v)), v)
        for x in range(1 << v):
            amps = np.zeros(1 << (v + 1), dtype=complex)
            amps[x << 1] = 1.0  # |x, 0>
            state = StateVector(amps)
            for gate in gates:
                state.apply_cnot(gate)
            expected = (x << 1) | int(bits[x])
            assert state.amps[expected] == pytest.approx(1.0)


class TestApplyOracle:
    def test_select_entangles_matching_record(self):
        # uniform two data qubits, flag |0>: only |11> pairs with flag 1
        amps = np.zeros(8, dtype=complex)
        amps[[0, 2, 4, 6]] = 0.5
        state = StateVector(amps)
        table = truth_table(
            And(Comparison("x0", "=", 1), Comparison("x1", "=", 1)), BITS2
        )
        apply_oracle(state, table, [0, 1], 2)
        assert state.amps[0b110] == 0
        assert state.amps[0b111] == pytest.approx(0.5)
        for kept in (0b000, 0b010, 0b100):
            assert state.amps[kept] == pytest.approx(0.5)

    def test_const_zero_is_identity(self):
        rng = np.random.default_rng(4)
        state = StateVector(random_state(3, rng))
        before = state.amps.copy()
        apply_oracle(state, truth_table(Const(0), BITS2), [0, 1], 2)
        assert np.allclose(state.amps, before)

    def test_gate_list_and_table_paths_agree(self):
        # the compiled CNOT circuit, replayed gate by gate, equals the table oracle
        rng = np.random.default_rng(6)
        for v in (1, 2, 4, 6):
            bits = rng.integers(0, 2, size=1 << v).astype(bool)
            table = TruthTable(v, bits)
            gates = compile_to_cnots(to_reed_muller(table), list(range(v)), v)
            start = random_state(v + 1, rng)
            via_table = StateVector(start.copy())
            apply_oracle(via_table, table, list(range(v)), v)
            via_gates = StateVector(start.copy())
            for gate in gates:
                via_gates.apply_cnot(gate)
            assert np.max(np.abs(via_table.amps - via_gates.amps)) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_involution(self, seed, v):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=1 << v).astype(bool)
        table = TruthTable(v, bits)
        start = random_state(v + 1, rng)
        state = StateVector(start.copy())
        apply_oracle(state, table, list(range(v)), v)
        apply_oracle(state, table, list(range(v)), v)
        assert np.max(np.abs(state.amps - start)) < 1e-12

    def test_data_qubits_marginals_unchanged(self):
        rng = np.random.default_rng(7)
        state = StateVector(random_state(4, rng))
        table = truth_table(Comparison("x0", "!=", 0), BITS2)
        before = [state.probability_of(q, 1) for q in (0, 1)]
        apply_oracle(state, table, [0, 1], 3)
        after = [state.probability_of(q, 1) for q in (0, 1)]
        assert before == pytest.approx(after, abs=1e-12)

    def test_overlap_rejected(self):
        state = StateVector.zero(3)
        table = truth_table(Const(1), BITS2)
        with pytest.raises(ValueError):
            apply_oracle(state, table, [0, 1], 1)

    def test_noncontiguous_data_qubits(self):
        # data qubits must be one ascending contiguous run
        table = TruthTable(2, np.array([False, False, False, True]))
        for data in ([2, 0], [0, 2], [1, 0]):
            state = StateVector.zero(3)
            with pytest.raises(ValueError):
                apply_oracle(state, table, data, 1 if 1 not in data else 2)
            assert np.array_equal(state.amps, StateVector.zero(3).amps)

    def test_gate_list_rejected(self):
        gates = compile_to_cnots(to_reed_muller(TruthTable(1, [False, True])), [0], 1)
        with pytest.raises(TypeError):
            apply_oracle(StateVector.zero(2), gates, [0], 1)
