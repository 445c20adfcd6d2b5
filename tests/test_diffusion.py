import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_partial_diffusion, random_state
from qqldb.diffusion import apply_partial_diffusion
from qqldb.errors import CapacityError
from qqldb.statevec import StateVector


def interleave(alpha, beta):
    """Build the (n+1)-qubit amplitude vector from flag-0 and flag-1 parts."""
    amps = np.zeros(2 * len(alpha), dtype=complex)
    amps[0::2] = alpha
    amps[1::2] = beta
    return amps


class TestDenseConstruction:
    def test_dense_limit(self):
        with pytest.raises(CapacityError):
            dense_partial_diffusion(10)


class TestAction:
    def test_worked_two_qubit_example(self):
        # alpha = (1/2, 1/2, 1/2, 0), beta = (0, 0, 0, 1/2): the dense
        # operator is the oracle for the expected output
        alpha = np.array([0.5, 0.5, 0.5, 0.0])
        beta = np.array([0.0, 0.0, 0.0, 0.5])
        amps = interleave(alpha, beta)
        expected = dense_partial_diffusion(2).matrix @ amps

        state = StateVector(amps.copy())
        apply_partial_diffusion(state, 2, 2)
        assert np.max(np.abs(state.amps - expected)) < 1e-12
        # and the closed form: mean 3/8, a = 2<a> - alpha, beta negated
        assert np.allclose(state.amps[0::2], [0.25, 0.25, 0.25, 0.75])
        assert np.allclose(state.amps[1::2], [0, 0, 0, -0.5])

    def test_pi_applied_twice_is_identity(self):
        rng = np.random.default_rng(1)
        for n in (1, 3, 6, 10):
            start = random_state(n + 1, rng)
            state = StateVector(start.copy())
            apply_partial_diffusion(state, n, n)
            apply_partial_diffusion(state, n, n)
            assert np.max(np.abs(state.amps - start)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_fast_path_matches_dense(self, n):
        rng = np.random.default_rng(n)
        dense = dense_partial_diffusion(n).matrix
        for _ in range(3):
            start = random_state(n + 1, rng)
            state = StateVector(start.copy())
            apply_partial_diffusion(state, n, n)
            assert np.max(np.abs(state.amps - dense @ start)) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_flag1_magnitudes_preserved(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        start = random_state(n + 1, rng)
        state = StateVector(start.copy())
        apply_partial_diffusion(state, n, n)
        assert np.max(np.abs(np.abs(state.amps[1::2]) - np.abs(start[1::2]))) < 1e-12

    def test_mean_formula_holds_exactly(self):
        rng = np.random.default_rng(9)
        n = 4
        alpha = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps = interleave(alpha, np.zeros(1 << n))
        amps /= np.linalg.norm(amps)
        alpha = amps[0::2].copy()
        mean = alpha.mean()
        state = StateVector(amps.copy())
        apply_partial_diffusion(state, n, n)
        assert np.max(np.abs(state.amps[0::2] - (2 * mean - alpha))) < 1e-14

    def test_flag_qubit_with_spectators(self):
        # flag in the middle of the temp tail: each spectator assignment
        # transforms independently, verified against the dense operator
        # acting on (data, flag) for each spectator value
        rng = np.random.default_rng(10)
        n, t = 2, 2  # qubits: data 0..1, temps 2..3; flag = 2, spectator = 3
        start = random_state(n + t, rng)
        dense = dense_partial_diffusion(n).matrix
        expected = start.copy()
        for spectator in (0, 1):
            idxs = [
                (d << 2) | (f << 1) | spectator for d in range(4) for f in range(2)
            ]
            expected[idxs] = dense @ start[idxs]
        state = StateVector(start.copy())
        apply_partial_diffusion(state, n, 2)
        assert np.max(np.abs(state.amps - expected)) < 1e-12

    @pytest.mark.parametrize("n, t, flag", [(2, 3, 3), (3, 4, 5), (1, 5, 2), (10, 3, 11)])
    def test_spectators_on_both_sides_of_the_flag(self, n, t, flag):
        # against the dense operator on (data, flag) for each spectator value,
        # and bit for bit against one mean per column of the (2^n x 2^t) view
        rng = np.random.default_rng(100 * n + flag)
        m = n + t
        for _ in range(3):
            start = random_state(m, rng)
            state = StateVector(start.copy())
            apply_partial_diffusion(state, n, flag)

            flag_bit = 1 << (m - 1 - flag)
            columns = start.copy().reshape(1 << n, 1 << t)
            for column in range(1 << t):
                if not column & flag_bit:
                    alpha = columns[:, column]
                    alpha[...] = (2.0 + 0.0j) * alpha.mean() - alpha
                    columns[:, column | flag_bit] = -columns[:, column | flag_bit]
            assert state.amps.tobytes() == columns.tobytes()

            if n + 1 <= 8:
                dense = dense_partial_diffusion(n).matrix
                for column in range(1 << t):
                    if not column & flag_bit:
                        idxs = [
                            (d << t) | column | (f * flag_bit) for d in range(1 << n) for f in (0, 1)
                        ]
                        expected = dense @ start[idxs]
                        assert np.max(np.abs(state.amps[idxs] - expected)) < 1e-12

    def test_rejects_flag_in_data_region(self):
        state = StateVector.zero(3)
        with pytest.raises(ValueError):
            apply_partial_diffusion(state, 2, 1)

    @pytest.mark.parametrize("n, flag, message", [
        (0, 2, "need at least one data qubit"),
        (3, 3, "qubit 3 out of range for 3 qubits"),
        (2, 3, "qubit 3 out of range for 3 qubits"),
        (2, 1, "name a qubit twice"),
    ])
    def test_rejects_a_layout_that_does_not_fit(self, n, flag, message):
        state = StateVector.zero(3)
        with pytest.raises(ValueError, match=message):
            apply_partial_diffusion(state, n, flag)
        assert state.amps[0] == 1 and not state.amps[1:].any()
