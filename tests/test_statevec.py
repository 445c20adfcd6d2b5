import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_embed,
    identity,
    random_state,
    random_unitary,
    reshape_postselect,
    reshape_probability_of,
)
from qqldb.errors import (
    ArgumentError,
    CapacityError,
    ImpossibleOutcomeError,
    QqlError,
    ValidationError,
)
from qqldb.gates import CnotGate, GateMatrix, HADAMARD, NOT
from qqldb.qdb import QdbState
from qqldb.schema import TableSchema
from qqldb.statevec import StateVector, Xorshift64Star, apply_matrix, qubit_view, swap

INV_SQRT2 = 1 / np.sqrt(2)
MAX_DOUBLE = sys.float_info.max


def bell_state() -> StateVector:
    s = StateVector.zero(2)
    s.apply_unitary(HADAMARD, [0])
    s.apply_cnot(CnotGate(frozenset({0}), 1))
    return s


class TestZeroState:
    def test_single_qubit(self):
        s = StateVector.zero(1)
        assert np.allclose(s.amps, [1, 0])

    def test_two_qubits_is_ket00(self):
        s = StateVector.zero(2)
        assert np.allclose(s.amps, [1, 0, 0, 0])

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            StateVector.zero(23, max_qubits=22)
        with pytest.raises(CapacityError):
            StateVector.zero(0)


def read_only(values) -> np.ndarray:
    amps = np.array(values, dtype=np.complex128)
    amps.flags.writeable = False
    return amps


def engine_on(values) -> QdbState:
    """An engine on a register whose first amplitudes are ``values``."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[: len(values)] = values
    return QdbState(TableSchema("t", (("id", 2),)), 1, state=StateVector(amps))


class TestFromAmplitudes:
    """A state is its buffer: the constructor takes the register's own array
    or refuses, and the norm is the engine's check, not the state's."""

    def test_complex_array_taken_over(self):
        amps = np.array([0, 1, 0, 0], dtype=np.complex128)
        state = StateVector(amps)
        assert state.amps is amps and state.num_qubits == 2

    def test_norm_is_not_checked(self):
        amps = np.array([3, 4], dtype=np.complex128)
        assert StateVector(amps).amps is amps

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param([0, 1, 0, 0], id="list"),
            pytest.param(np.array([0.0, 1.0, 0.0, 0.0]), id="float64"),
            pytest.param(np.zeros(8, dtype=np.complex128)[::2], id="strided"),
            pytest.param(np.array([0, 1, 0, 0], dtype=np.complex64), id="complex64"),
            pytest.param(np.array([0, 1, 0, 0], dtype=">c16"), id="big-endian"),
            pytest.param(np.zeros((2, 2), dtype=np.complex128), id="2-D"),
            pytest.param(read_only([0, 1, 0, 0]), id="read-only"),
        ],
    )
    def test_other_buffer_refused(self, values):
        with pytest.raises(ArgumentError) as info:
            StateVector(values)
        assert isinstance(info.value, QqlError) and isinstance(info.value, ValueError)
        assert str(info.value) == (
            "amplitudes must be a writable, C-contiguous, 1-D complex128 array"
        )

    @pytest.mark.parametrize("size", [0, 1, 3, 6])
    def test_size_not_a_power_of_two_refused(self, size):
        with pytest.raises(ArgumentError) as info:
            StateVector(np.zeros(size, dtype=np.complex128))
        assert str(info.value) == f"amplitude count {size} is not a power of two >= 2"

    @pytest.mark.parametrize(
        "values", [[MAX_DOUBLE, MAX_DOUBLE], [0, complex(0, -MAX_DOUBLE)], [1 + 1e-6, 0]]
    )
    def test_part_above_one_rejected_without_overflow(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                engine_on(values)

    @pytest.mark.parametrize(
        "values, error, message",
        [
            ([complex(0.6, np.nan), 0.8], ValidationError, "state norm nan is not 1 within 1e-09"),
            ([np.inf, 0], ValidationError, "state norm inf is not 1 within 1e-09"),
            ([0, complex(0, -np.inf)], ValidationError, "state norm inf is not 1 within 1e-09"),
            ([MAX_DOUBLE, np.nan], ValidationError, "state norm nan is not 1 within 1e-09"),
            ([0.5, 0], ValidationError, "state norm 0.5 is not 1 within 1e-09"),
            ([0, 0.5j, 0, 0], ValidationError, "state norm 0.5 is not 1 within 1e-09"),
            ([MAX_DOUBLE, MAX_DOUBLE], ValidationError, "state norm inf is not 1 within 1e-09"),
            ([1 + 1e-6, 0], ValidationError, "state norm 1.000001 is not 1 within 1e-09"),
        ],
    )
    def test_rejection_class_and_message(self, values, error, message):
        # every refusal is the norm's: a part that is not finite, or huge,
        # leaves it NaN or infinite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as info:
                engine_on(values)
        assert type(info.value) is error and str(info.value) == message


class TestApplyUnitary:
    def test_hadamard_on_zero(self):
        s = StateVector.zero(1).apply_unitary(HADAMARD, [0])
        assert np.allclose(s.amps, [INV_SQRT2, INV_SQRT2])

    def test_identity_is_noop(self):
        rng = np.random.default_rng(3)
        s = StateVector(random_state(3, rng))
        before = s.amps.copy()
        s.apply_unitary(identity(1), [1])
        assert np.allclose(s.amps, before)

    def test_bell_state_preparation(self):
        assert np.allclose(bell_state().amps, [INV_SQRT2, 0, 0, INV_SQRT2])

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            StateVector.zero(1).apply_unitary(np.array([[1, 1], [0, 1]]), [0])

    def test_rejects_a_raw_unitary_array(self):
        # GateMatrix's constructor is the one unitarity check
        state = StateVector.zero(2)
        with pytest.raises(ValidationError, match="gate must be a GateMatrix, not ndarray"):
            state.apply_controlled(np.eye(2), pos_controls=[0], targets=[1])
        assert state.amps.tolist() == [1, 0, 0, 0]

    def test_rejects_duplicate_targets(self):
        cnotish = GateMatrix(np.eye(4))
        with pytest.raises(ValueError):
            StateVector.zero(2).apply_unitary(cnotish, [0, 0])

    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            StateVector.zero(2).apply_unitary(HADAMARD, [2])

    def test_multi_qubit_targets_in_order(self):
        # NOT (x) I embedded on qubits [0, 1] of |00> flips qubit 0
        gate = GateMatrix(np.kron(NOT.matrix, np.eye(2)))
        s = StateVector.zero(2).apply_unitary(gate, [0, 1])
        assert np.allclose(s.amps, [0, 0, 1, 0])

    def test_reversed_target_order_swaps_roles(self):
        gate = GateMatrix(np.kron(NOT.matrix, np.eye(2)))
        s = StateVector.zero(2).apply_unitary(gate, [1, 0])
        assert np.allclose(s.amps, [0, 1, 0, 0])


class TestApplyControlled:
    def test_cnot_flips_when_control_set(self):
        s = StateVector(np.array([0, 0, 1, 0], dtype=complex))  # |10>
        s.apply_controlled(NOT, pos_controls=[0], targets=[1])
        assert np.allclose(s.amps, [0, 0, 0, 1])  # |11>

    def test_control_not_satisfied(self):
        s = StateVector(np.array([0, 1, 0, 0], dtype=complex))  # |01>
        s.apply_controlled(NOT, pos_controls=[0], targets=[1])
        assert np.allclose(s.amps, [0, 1, 0, 0])

    def test_negative_control_hadamard(self):
        # oracle: |0><0| (x) H + |1><1| (x) I applied to |00>
        proj0 = np.array([[1, 0], [0, 0]])
        proj1 = np.array([[0, 0], [0, 1]])
        dense = np.kron(proj0, HADAMARD.matrix) + np.kron(proj1, np.eye(2))
        expected = dense @ np.array([1, 0, 0, 0], dtype=complex)
        s = StateVector.zero(2).apply_controlled(HADAMARD, neg_controls=[0], targets=[1])
        assert np.allclose(s.amps, expected)
        assert np.allclose(s.amps, [INV_SQRT2, INV_SQRT2, 0, 0])

    def test_rejects_control_target_overlap(self):
        with pytest.raises(ValueError):
            StateVector.zero(2).apply_controlled(NOT, pos_controls=[1], targets=[1])


# (controls 1, controls 0, leading, run, message) that qubit_view refuses
# on 3 qubits
QUBIT_REFUSALS = [
    ([3], [], [0], range(0), "^qubit 3 out of range for 3 qubits$"),
    ([], [-1], [0], range(0), "^qubit -1 out of range for 3 qubits$"),
    ([], [], [0], range(1, 4), "^qubit 3 out of range for 3 qubits$"),
    ([1, 1], [], [0], range(0), r"^qubits \[1, 1, 0\] name a qubit twice$"),
    ([0], [], [0], range(0), r"^qubits \[0, 0\] name a qubit twice$"),
    ([], [2], [0, 2], range(0), r"^qubits \[2, 0, 2\] name a qubit twice$"),
    ([1], [], [], range(0, 3), r"^qubits \[1, 0, 1, 2\] name a qubit twice$"),
    ([], [], [1], range(1, 3), r"^qubits \[1, 1, 2\] name a qubit twice$"),
    ([], [], [0], range(2, 0, -1), r"^run range\(2, 0, -1\) is not an ascending step-1 range"),
    ([], [], [1], range(0, 3, 2), r"^run range\(0, 3, 2\) is not an ascending step-1 range"),
]
QUBIT_REFUSAL_IDS = [
    "past the register", "negative", "run past the register", "repeated control",
    "control is the target", "negative control is a target", "control inside the run",
    "target inside the run", "descending run", "run of step 2",
]


class TestQubitCheck:
    """``qubit_view`` is the one qubit check: the kernels built on it refuse
    what it refuses, before they change anything."""

    @pytest.mark.parametrize("pos, neg, leading, run, message", QUBIT_REFUSALS,
                             ids=QUBIT_REFUSAL_IDS)
    @pytest.mark.parametrize("kernel", ["qubit_view", "swap", "apply_matrix"])
    def test_refused_before_the_buffer_changes(self, kernel, pos, neg, leading, run, message):
        amps = np.arange(8, dtype=np.complex128)
        call = {
            "qubit_view": lambda: qubit_view(amps, pos, neg, leading, run),
            "swap": lambda: swap(amps, 0, 1, pos, neg, leading, run),
            "apply_matrix": lambda: apply_matrix(
                amps, np.eye(1 << len(leading))[::-1], leading, pos, neg, run
            ),
        }[kernel]
        with pytest.raises(ArgumentError, match=message):
            call()
        assert amps.tobytes() == np.arange(8, dtype=np.complex128).tobytes()

    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("qubit", [-1, 2])
    def test_postselect_refuses_a_qubit_off_the_register(self, qubit, bit):
        s = StateVector(np.full(4, 0.5, dtype=complex))
        with pytest.raises(ArgumentError, match=f"^qubit {qubit} out of range for 2 qubits$"):
            s.postselect(qubit, bit)
        assert s.amps.tobytes() == np.full(4, 0.5, dtype=complex).tobytes()

    def test_controls_in_any_order(self):
        amps = np.arange(32, dtype=np.complex128)
        for pos in ([4, 1, 2], [1, 2, 4], [2, 4, 1]):
            view = qubit_view(amps, pos, [3], [0])
            assert view.ravel().tolist() == [13, 29]


class TestKernelAgainstDenseMatrices:
    @pytest.mark.parametrize("num_qubits", [2, 3, 5, 8])
    def test_uncontrolled_matches_dense(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        for _ in range(5):
            k = int(rng.integers(1, min(3, num_qubits) + 1))
            targets = list(rng.choice(num_qubits, size=k, replace=False))
            gate = random_unitary(k, rng)
            amps = random_state(num_qubits, rng)
            expected = dense_embed(gate.matrix, targets, num_qubits) @ amps
            actual = amps.copy()
            apply_matrix(actual, gate.matrix, targets)
            assert np.max(np.abs(actual - expected)) < 1e-12

    @pytest.mark.parametrize("num_qubits", [3, 5, 7])
    def test_controlled_matches_dense(self, num_qubits):
        rng = np.random.default_rng(100 + num_qubits)
        for _ in range(5):
            qubits = list(rng.permutation(num_qubits))
            targets, pos, neg = [qubits[0]], [qubits[1]], [qubits[2]]
            gate = random_unitary(1, rng)
            amps = random_state(num_qubits, rng)
            expected = dense_embed(gate.matrix, targets, num_qubits, pos, neg) @ amps
            actual = amps.copy()
            apply_matrix(actual, gate.matrix, targets, pos, neg)
            assert np.max(np.abs(actual - expected)) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, seed, num_qubits):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 3))
        targets = list(rng.choice(num_qubits, size=k, replace=False))
        gate = random_unitary(k, rng)
        s1 = random_state(num_qubits, rng)
        s2 = random_state(num_qubits, rng)
        alpha, beta = rng.normal(size=2)
        combined = alpha * s1 + beta * s2
        apply_matrix(combined, gate.matrix, targets)
        for part in (s1, s2):
            apply_matrix(part, gate.matrix, targets)
        assert np.max(np.abs(combined - (alpha * s1 + beta * s2))) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(1, 7))
        s = StateVector(random_state(num_qubits, rng))
        for _ in range(4):
            k = int(rng.integers(1, min(2, num_qubits) + 1))
            targets = list(rng.choice(num_qubits, size=k, replace=False))
            s.apply_unitary(random_unitary(k, rng), targets)
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-9


class TestPostselect:
    def test_bell_collapse(self):
        s = bell_state()
        prob = s.postselect(1, 0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(s.amps, [1, 0, 0, 0])

    def test_deterministic_outcome(self):
        s = StateVector(np.array([0, 1, 0, 0], dtype=complex))  # |01>
        prob = s.postselect(1, 1)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(s.amps, [0, 1, 0, 0])

    def test_uniform_projector_arithmetic(self):
        # oracle: P = |0><0| (x) I, p = <psi|P|psi>
        amps = np.full(4, 0.5, dtype=complex)
        projector = np.kron([[1, 0], [0, 0]], np.eye(2))
        expected_p = float(np.real(amps.conj() @ projector @ amps))
        projected = projector @ amps
        projected /= np.linalg.norm(projected)
        s = StateVector(amps)
        prob = s.postselect(0, 0)
        assert prob == pytest.approx(expected_p, abs=1e-12)
        assert np.allclose(s.amps, projected)
        assert np.allclose(s.amps, [INV_SQRT2, INV_SQRT2, 0, 0])

    def test_impossible_outcome(self):
        s = StateVector.zero(2)
        with pytest.raises(ImpossibleOutcomeError):
            s.postselect(0, 1)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-12])
    def test_postselect_refuses_a_zero_probability(self, epsilon):
        # with epsilon 0 it used to divide by zero and leave [nan, nan]
        s = StateVector.zero(1)
        with pytest.raises(ImpossibleOutcomeError):
            s.postselect(0, 1, epsilon=epsilon)
        assert s.amps.tolist() == [1, 0]

    def test_postselect_then_probability_is_one(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = StateVector(random_state(4, rng))
            qubit = int(rng.integers(0, 4))
            bit = int(rng.integers(0, 2))
            try:
                s.postselect(qubit, bit)
            except ImpossibleOutcomeError:
                continue
            assert s.probability_of(qubit, bit) == pytest.approx(1.0, abs=1e-12)


class TestHalvesThroughQubitView:
    """``probability_of`` and ``postselect`` address the qubit's halves as a
    control of ``qubit_view``; the earlier reshape form is the oracle, and
    both must agree word for word."""

    @staticmethod
    def check(amps: np.ndarray, qubit: int, bit: int) -> None:
        expected = amps.copy()
        s = StateVector(amps)
        assert s.probability_of(qubit, bit) == reshape_probability_of(expected, qubit, bit)
        assert s.postselect(qubit, bit, epsilon=0.0) == reshape_postselect(expected, qubit, bit)
        assert s.amps.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", range(1, 13))
    def test_every_qubit_and_bit(self, m):
        rng = np.random.default_rng(700 + m)
        for qubit in range(m):
            for bit in (0, 1):
                self.check(random_state(m, rng), qubit, bit)

    def test_a_register_of_2_to_the_20(self):
        self.check(random_state(20, np.random.default_rng(720)), 7, 1)


class TestProbabilityOf:
    def test_uniform_symmetry(self):
        s = StateVector(np.full(4, 0.5, dtype=complex))
        for qubit in (0, 1):
            assert s.probability_of(qubit, 0) == pytest.approx(0.5, abs=1e-12)

    def test_basis_state(self):
        s = StateVector(np.array([0, 0, 0, 1], dtype=complex))  # |11>
        assert s.probability_of(0, 1) == pytest.approx(1.0)

    def test_bell_marginal(self):
        # direct sum of the two squared amplitudes carrying qubit 1 = 1
        s = bell_state()
        expected = abs(s.amps[1]) ** 2 + abs(s.amps[3]) ** 2
        assert s.probability_of(1, 1) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5, abs=1e-12)


class TestSampling:
    def test_deterministic_state(self):
        s = StateVector(np.array([0, 1, 0, 0], dtype=complex))
        picks = s.sample(100, seed=9)
        assert Counter(picks.tolist()) == {1: 100}

    def test_uniform_binomial_bound(self):
        s = StateVector(np.full(4, 0.5, dtype=complex))
        counts = Counter(s.sample(4096, seed=12345).tolist())
        assert sum(counts.values()) == 4096
        for outcome in range(4):
            assert abs(counts[outcome] - 1024) <= 150

    def test_same_seed_same_histogram(self):
        s = StateVector(np.full(8, 1 / np.sqrt(8), dtype=complex))
        assert np.array_equal(s.sample(500, seed=77), s.sample(500, seed=77))

    def test_different_seeds_differ(self):
        s = StateVector(np.full(8, 1 / np.sqrt(8), dtype=complex))
        assert not np.array_equal(s.sample(500, seed=1), s.sample(500, seed=2))

    def test_generator_reference_values(self):
        # hand-derived first output for seed 1: the shifts leave 2^25 + 1
        rng = Xorshift64Star(1)
        assert rng.next_u64() == ((1 << 25) | 1) * Xorshift64Star.MULTIPLIER % (1 << 64)


class TestRepr:
    def test_first_eight_terms(self):
        amps = np.zeros(1 << 4, dtype=complex)
        amps[[3, 9]] = [0.6, 0.8j]
        assert repr(StateVector(amps)) == (
            "StateVector(4 qubits: 0.6+0j|0011> + 0+0.8j|1001>)"
        )
        uniform = StateVector.zero(4).apply_unitary(HADAMARD, [3]).apply_unitary(HADAMARD, [2])
        uniform.apply_unitary(HADAMARD, [1]).apply_unitary(HADAMARD, [0])
        assert repr(uniform).count("|") == 8 and repr(uniform).endswith("0.25+0j|0111>)")

    def test_scan_reads_tiles_not_the_register(self):
        # the nonzero components sit in the last tile of a 2^20-amplitude register
        amps = np.zeros(1 << 20, dtype=complex)
        amps[-2:] = [0.6, 0.8]
        state = StateVector(amps)
        tracemalloc.start()
        try:
            text = repr(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.endswith(f"0.6+0j|{'1' * 19}0> + 0.8+0j|{'1' * 20}>)")
        assert peak < amps.nbytes / 8


class TestEntanglementWitness:
    def test_bell_state_has_no_product_decomposition(self):
        s = bell_state()
        amp_matrix = s.amps.reshape(2, 2)
        determinant = (
            amp_matrix[0, 0] * amp_matrix[1, 1] - amp_matrix[0, 1] * amp_matrix[1, 0]
        )
        assert abs(determinant) == pytest.approx(0.5, abs=1e-12)

    def test_product_state_determinant_vanishes(self):
        s = StateVector.zero(2).apply_unitary(HADAMARD, [0])
        amp_matrix = s.amps.reshape(2, 2)
        determinant = (
            amp_matrix[0, 0] * amp_matrix[1, 1] - amp_matrix[0, 1] * amp_matrix[1, 0]
        )
        assert abs(determinant) < 1e-12
