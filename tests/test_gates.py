import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    controlled_lift,
    dense_embed,
    gates_close,
    identity,
    permutation_gate,
    random_unitary,
    standard_gate,
    tensor_gates,
)
from qqldb.errors import CapacityError, ValidationError
from qqldb.gates import HADAMARD, NOT, CnotGate, GateMatrix, is_unitary
from qqldb.statevec import StateVector

# 3-qubit relabeling |011> <-> |111>: identity with columns 3 and 7 swapped
UPDATE_3_7 = np.array(
    [
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
    ],
    dtype=complex,
)

# two swaps in one operator: |000> <-> |100| and |010> <-> |001>
UPDATE_TWO_SWAP = np.array(
    [
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ],
    dtype=complex,
)


class TestStandardGates:
    def test_not_entries(self):
        assert np.array_equal(standard_gate("not").matrix, [[0, 1], [1, 0]])

    def test_hadamard_entries(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(standard_gate("hadamard").matrix, expected)

    def test_identity_entries(self):
        assert np.array_equal(standard_gate("identity").matrix, np.eye(2))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            standard_gate("toffoli")


class TestGateMatrixValidation:
    def test_rejects_shear(self):
        with pytest.raises(ValidationError):
            GateMatrix(np.array([[1, 1], [0, 1]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            GateMatrix(np.ones((2, 4)))

    def test_dense_limit(self):
        with pytest.raises(CapacityError):
            GateMatrix(np.eye(1 << 11))

    def test_entries_immutable(self):
        gate = identity(1)
        with pytest.raises(ValueError):
            gate.matrix[0, 0] = 5.0


class TestIsUnitary:
    def test_hadamard(self):
        assert is_unitary(HADAMARD.matrix)

    def test_shear_is_not(self):
        assert not is_unitary(np.array([[1, 1], [0, 1]]))

    def test_permutation_matrices_are_orthogonal(self):
        assert is_unitary(UPDATE_3_7)


class TestTensorGates:
    def test_identity_tensor_identity(self):
        assert gates_close(tensor_gates(identity(1), identity(1)), identity(2))

    def test_not_tensor_identity_action(self):
        gate = tensor_gates(NOT, identity(1))
        state = gate.matrix @ np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(state, [0, 0, 1, 0])  # |00> -> |10>

    def test_block_structure(self):
        rng = np.random.default_rng(5)
        u, v = random_unitary(1, rng), random_unitary(1, rng)
        combined = tensor_gates(u, v).matrix
        for i in range(2):
            for j in range(2):
                block = combined[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                assert np.allclose(block, u.matrix[i, j] * v.matrix)

    def test_dense_limit(self):
        with pytest.raises(CapacityError):
            tensor_gates(identity(6), identity(5))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_unitary(1, rng) for _ in range(3))
        left = tensor_gates(tensor_gates(a, b), c).matrix
        right = tensor_gates(a, tensor_gates(b, c)).matrix
        assert np.max(np.abs(left - right)) < 1e-12


class TestControlledLift:
    def test_lift_not_maps_xc_to_xxorc(self):
        lifted = controlled_lift(NOT, 1)
        expected = np.kron(NOT.matrix, [[0, 0], [0, 1]]) + np.kron(
            np.eye(2), [[1, 0], [0, 0]]
        )
        assert gates_close(lifted, expected)
        for x in range(2):
            for c in range(2):
                vec = np.zeros(4, dtype=complex)
                vec[2 * x + c] = 1.0
                out = lifted.matrix @ vec
                assert out[2 * (x ^ c) + c] == pytest.approx(1.0)

    def test_lift_identity_is_identity(self):
        assert gates_close(controlled_lift(identity(2), 1), np.eye(8))

    def test_control_zero_leaves_state(self):
        rng = np.random.default_rng(8)
        u = random_unitary(2, rng)
        lifted = controlled_lift(u, 1)
        # any state with the control qubit |0> is untouched
        state = np.zeros(8, dtype=complex)
        state[0b000] = 0.6
        state[0b110] = 0.8
        assert np.allclose(lifted.matrix @ state, state)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_value_conventions_related_by_not_conjugation(self, n):
        rng = np.random.default_rng(20 + n)
        u = random_unitary(n, rng)
        flip = np.kron(np.eye(1 << n), NOT.matrix)
        conjugated = flip @ controlled_lift(u, 1).matrix @ flip
        assert np.max(np.abs(conjugated - controlled_lift(u, 0).matrix)) < 1e-12


class TestCnotDense:
    """Multi-controlled NOTs as dense permutation matrices (the test oracle)."""

    def test_fig2_semantics(self):
        # controls {x0, x2}, target x3 over 4 qubits: x3 -> x3 xor x0 x2
        gate = dense_embed(NOT.matrix, [3], 4, [0, 2])
        for col in range(16):
            x0, x2, x3 = (col >> 3) & 1, (col >> 1) & 1, col & 1
            expected_row = (col & ~1) | (x3 ^ (x0 & x2))
            assert gate[expected_row, col] == 1.0

    def test_empty_controls_is_not(self):
        assert gates_close(NOT, dense_embed(NOT.matrix, [0], 1))

    def test_xor_truth_table(self):
        gate = dense_embed(NOT.matrix, [1], 2, [0])
        state = gate @ np.array([0, 0, 1, 0], dtype=complex)  # |10>
        assert np.allclose(state, [0, 0, 0, 1])  # |11>

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 8])
    def test_matches_state_engine_on_all_basis_states(self, m):
        rng = np.random.default_rng(m)
        for _ in range(3):
            size = int(rng.integers(0, m))
            qubits = list(rng.choice(m, size=size + 1, replace=False))
            gate = CnotGate(frozenset(qubits[:-1]), qubits[-1])
            dense = dense_embed(NOT.matrix, [gate.target], m, sorted(gate.controls))
            for basis in range(1 << m):
                amps = np.zeros(1 << m, dtype=complex)
                amps[basis] = 1.0
                s = StateVector(amps.copy())
                s.apply_cnot(gate)
                assert np.allclose(s.amps, dense @ amps)


class TestPermutationGate:
    def test_swap_3_7_reproduces_known_matrix(self):
        assert gates_close(permutation_gate([(3, 7)], 3), UPDATE_3_7)

    def test_two_swaps_reproduce_known_matrix(self):
        assert gates_close(permutation_gate([(0, 4), (2, 1)], 3), UPDATE_TWO_SWAP)

    def test_empty_swap_list_is_identity(self):
        assert gates_close(permutation_gate([], 3), np.eye(8))

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError):
            permutation_gate([(1, 2), (2, 3)], 3)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_disjoint_transpositions_self_inverse(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 6))
        indices = list(rng.permutation(1 << m))
        pair_count = int(rng.integers(0, len(indices) // 2 + 1))
        swaps = [(indices[2 * i], indices[2 * i + 1]) for i in range(pair_count)]
        gate = permutation_gate(swaps, m)
        assert np.max(np.abs(gate.matrix @ gate.matrix - np.eye(1 << m))) < 1e-12


class TestControlledDense:
    """The dense controlled-gate oracle against a textbook construction."""

    def test_matches_textbook_construction(self):
        rng = np.random.default_rng(42)
        u = random_unitary(1, rng)
        # control on qubit 0, target qubit 1: P0 (x) I + P1 (x) U
        expected = np.kron([[1, 0], [0, 0]], np.eye(2)) + np.kron(
            [[0, 0], [0, 1]], u.matrix
        )
        built = dense_embed(u.matrix, [1], 2, [0])
        assert np.max(np.abs(built - expected)) < 1e-12
