import tracemalloc

import numpy as np
import pytest

from helpers import dense_embed, random_state
from qqldb.boolcirc import And, Comparison, Const, Not, Var
from qqldb.errors import (
    CapacityError,
    ImpossibleOutcomeError,
    QqlError,
    SchemaError,
)
from qqldb.gates import HADAMARD, NOT, identity
from qqldb.qdb import ApplyGate, ApplySwap, QdbState, create_db
from qqldb.schema import Record, TableSchema
from qqldb.statevec import StateVector

ID2 = TableSchema("t", (("id", 2),))
ID3 = TableSchema("t", (("id", 3),))
INV_SQRT2 = 1 / np.sqrt(2)


def db2(t=1) -> QdbState:
    return create_db(ID2, t=t)


def db3(t=1) -> QdbState:
    return create_db(ID3, t=t)


class TestCreate:
    def test_zero_state(self):
        db = create_db(ID3, t=1)
        assert db.state.num_qubits == 4
        assert db.state.amps[0] == 1.0
        assert db.support() == [0]

    def test_capacity(self):
        wide = TableSchema("wide", (("a", 21),))
        with pytest.raises(CapacityError):
            create_db(wide, t=2, max_qubits=22)

    def test_width_sum(self):
        two_fields = TableSchema("t", (("a", 2), ("b", 1)))
        db = create_db(two_fields, t=2)
        assert db.state.num_qubits == 5
        assert db.n == 3


class TestInsertBulk:
    def test_full_superposition(self):
        db = db3().insert_bulk(3)
        assert db.support() == list(range(8))
        view = db.state.amps.reshape(8, 2)
        assert np.allclose(view[:, 0], 1 / np.sqrt(8))

    def test_zero_is_noop(self):
        db = db3().insert_bulk(0)
        assert db.support() == [0]

    def test_partial_superposition(self):
        db = db3().insert_bulk(2)
        assert db.support() == [0, 1, 2, 3]
        view = db.state.amps.reshape(8, 2)
        assert np.allclose(view[[0, 1, 2, 3], 0], 0.5)

    def test_exponent_out_of_range(self):
        with pytest.raises(ValueError):
            db3().insert_bulk(4)


class TestInsertSequential:
    def test_two_steps_amplitudes(self):
        db = db3().insert_sequential(2)
        view = db.state.amps.reshape(8, 2)
        assert db.support() == [0, 1, 2]
        assert np.allclose(view[[0, 1, 2], 0], [0.5, INV_SQRT2, 0.5])

    @pytest.mark.parametrize("upto", range(1, 8))
    def test_support_is_prefix(self, upto):
        db = db3().insert_sequential(upto)
        assert db.support() == list(range(upto + 1))

    def test_incremental_continuation(self):
        db = db3().insert_sequential(2).insert_sequential(6)
        assert db.support() == list(range(7))

    def test_completes_register(self):
        db = db3().insert_sequential(7)
        assert db.support() == list(range(8))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            db3().insert_sequential(8)
        with pytest.raises(ValueError):
            db3().insert_sequential(0)

    def test_non_sequential_state_rejected(self):
        db = db3().insert_sequential(2)
        db.update([(1, 5)])
        with pytest.raises(QqlError):
            db.insert_sequential(4)

    def test_already_filled(self):
        db = db3().insert_sequential(5)
        with pytest.raises(ValueError):
            db.insert_sequential(3)


def seq_step_dense(k: int, n: int = 3) -> np.ndarray:
    """Dense matrix of sequential-insert step k, built via the independent
    controlled-embedding oracle."""
    p = k.bit_length() - 1
    target = n - 1 - p
    pos = [n - 1 - j for j in range(p) if (k >> j) & 1]
    neg = [n - 1 - j for j in range(p) if not (k >> j) & 1]
    return dense_embed(HADAMARD.matrix, [target], n, pos, neg)


class TestSequentialStepMatrices:
    def test_first_three_steps_equal_bulk_two_qubit_layer(self):
        # running steps 1..3 must equal the bulk layer that inserts four
        # records at once: Hadamard on both low data qubits
        product = seq_step_dense(3) @ seq_step_dense(2) @ seq_step_dense(1)
        bulk = np.kron(np.eye(2), np.kron(HADAMARD.matrix, HADAMARD.matrix))
        assert np.max(np.abs(product - bulk)) < 1e-12

    def test_each_step_adds_exactly_one_record(self):
        state = np.zeros(8, dtype=complex)
        state[0] = 1.0
        for k in range(1, 8):
            state = seq_step_dense(k) @ state
            support = sorted(np.nonzero(np.abs(state) > 1e-12)[0].tolist())
            assert support == list(range(k + 1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_engine_matches_dense_matrices_exhaustively(self, n):
        schema = TableSchema("t", (("id", n),))
        db = create_db(schema, t=1)
        dense_state = np.zeros(1 << n, dtype=complex)
        dense_state[0] = 1.0
        for k in range(1, 1 << n):
            db.insert_sequential(k)
            dense_state = seq_step_dense(k, n) @ dense_state
            engine_state = db.state.amps.reshape(1 << n, 2)[:, 0]
            assert np.max(np.abs(engine_state - dense_state)) < 1e-12
            assert db.support() == list(range(k + 1))


class TestInsertValues:
    def test_specific_records(self):
        db = db3().insert_values([5, 2, 7])
        assert db.support() == [2, 5, 7]

    def test_zero_record_alone_is_noop(self):
        db = db3().insert_values([0])
        assert db.support() == [0]
        assert np.allclose(db.state.amps[0], 1.0)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            db3().insert_values(list(range(9)))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            db3().insert_values([1, 1])

    def test_matches_direct_permutation_composition(self):
        # oracle: amplitudes of the sequential state, relabeled by an
        # explicitly composed permutation of basis indices
        requested = [6, 0, 3]
        db = db3().insert_values(requested)
        reference = db3().insert_sequential(2)
        amps = reference.state.amps.copy()
        sequence, target = {0, 1, 2}, set(requested)
        perm = np.arange(16)
        for a, b in zip(sorted(sequence - target), sorted(target - sequence)):
            perm[[2 * a, 2 * a + 1, 2 * b, 2 * b + 1]] = perm[
                [2 * b, 2 * b + 1, 2 * a, 2 * a + 1]
            ]
        expected = np.zeros_like(amps)
        expected[perm] = amps
        assert np.allclose(db.state.amps, expected)

    def test_record_objects_accepted(self):
        db = create_db(TableSchema("t", (("a", 2), ("b", 1))), t=1)
        db.insert_values([Record((1, 1)), Record((0, 1))])
        assert db.support() == [1, 3]


class TestUpdate:
    def test_known_five_record_example(self):
        db = db3().insert_values([0, 2, 3, 5, 6])
        before = db.state.amps.reshape(8, 2)[:, 0].copy()
        db.update([(3, 7)])
        after = db.state.amps.reshape(8, 2)[:, 0]
        assert db.support() == [0, 2, 5, 6, 7]
        # the moved record keeps its amplitude; all others untouched
        assert after[7] == pytest.approx(before[3])
        for untouched in (0, 2, 5, 6):
            assert after[untouched] == pytest.approx(before[untouched])

    def test_twice_undoes(self):
        db = db3().insert_values([0, 2, 3, 5, 6])
        before = db.state.amps.copy()
        db.update([(3, 7)])
        db.update([(3, 7)])
        assert np.allclose(db.state.amps, before)

    def test_two_swaps_at_once(self):
        db = db3().insert_values([0, 2, 3, 5, 6])
        db.update([(0, 4), (2, 1)])
        assert db.support() == [1, 3, 4, 5, 6]

    def test_amplitude_multiset_invariant(self):
        db = db3().insert_sequential(4)
        before = sorted(np.abs(db.state.amps).tolist())
        db.update([(1, 6), (2, 7)])
        assert sorted(np.abs(db.state.amps).tolist()) == pytest.approx(before)

    def test_uniqueness_violation(self):
        db = db3().insert_values([1, 2])
        with pytest.raises(SchemaError):
            db.update([(1, 2)])

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError):
            db3().update([(1, 2), (2, 3)])

    def test_records_as_field_tuples(self):
        db = db2().insert_bulk(1)  # support {0, 1}
        db.update([(Record((1,)), Record((3,)))])
        assert db.support() == [0, 3]


class TestSelect:
    def test_flag_entangles_matching_records(self):
        db = db2(t=1).insert_bulk(2)
        flag = db.select(Comparison("id", "=", 3))
        assert flag == 2
        view = db.state.amps.reshape(4, 2)
        assert view[3, 0] == 0
        assert view[3, 1] == pytest.approx(0.5)
        for other in (0, 1, 2):
            assert view[other, 0] == pytest.approx(0.5)
            assert view[other, 1] == 0

    def test_const_zero_keeps_flag_clean(self):
        db = db2(t=1).insert_bulk(2)
        flag = db.select(Const(0))
        assert db.state.probability_of(flag, 1) == 0

    def test_two_selects_on_disjoint_predicates(self):
        db = db2(t=2).insert_bulk(2)
        db.select(Comparison("id", "=", 1))
        db.select(Comparison("id", ">=", 2))
        # expected full state assembled by hand: flags (f1, f2) per record
        expected = np.zeros(16, dtype=complex)
        for rec in range(4):
            f1 = int(rec == 1)
            f2 = int(rec >= 2)
            expected[(rec << 2) | (f1 << 1) | f2] = 0.5
        assert np.allclose(db.state.amps, expected)

    def test_no_free_temp(self):
        db = db2(t=1).insert_bulk(2)
        db.select(Const(1))
        with pytest.raises(QqlError):
            db.select(Const(1))


def classical_apply_where(support, pred1, pred2, bit_mask):
    """Set-level oracle: flip bit_mask on records satisfying p1 AND NOT p2."""
    result = set()
    for rec in support:
        if pred1(rec) and not pred2(rec):
            result.add(rec ^ bit_mask)
        else:
            result.add(rec)
    return sorted(result)


class TestApplyWhere:
    def test_fig5_pipeline_against_classical_relabeling(self):
        db = db3(t=3).insert_bulk(3)
        c1 = db.select(Comparison("id", ">=", 4))
        c2 = db.select(Comparison("id", "=", 6))
        combiner = And(Var("c1"), Not(Var("c2")))
        # NOT on the last data qubit (bit 0 of id)
        db.apply_where({"c1": c1, "c2": c2}, combiner, ApplyGate(NOT, (2,)))
        expected = classical_apply_where(
            range(8), lambda r: r >= 4, lambda r: r == 6, 0b001
        )
        assert db.support() == expected

    def test_const_zero_combiner_is_noop(self):
        db = db2(t=2).insert_bulk(2)
        before = db.state.amps.copy()  # flags uncompute, so compare pre-select
        c1 = db.select(Comparison("id", "=", 1))
        db.apply_where({"c1": c1}, Const(0), ApplyGate(NOT, (1,)))
        assert np.allclose(db.state.amps, before)

    def test_identity_gate_is_noop(self):
        db = db2(t=2).insert_bulk(2)
        before = db.state.amps.copy()
        c1 = db.select(Comparison("id", "=", 1))
        db.apply_where({"c1": c1}, Var("c1"), ApplyGate(identity(1), (0,)))
        assert np.allclose(db.state.amps, before)

    def test_flags_freed_when_membership_preserved(self):
        db = db2(t=2).insert_bulk(2)
        c1 = db.select(Comparison("id", ">=", 2))
        # NOT on the low bit keeps id >= 2 membership intact
        db.apply_where({"c1": c1}, Var("c1"), ApplyGate(NOT, (1,)))
        assert db.free_temps() == [2, 3]
        assert db.support() == [0, 1, 2, 3]

    def test_dirty_flag_kept_as_residue(self):
        db = db2(t=2).insert_bulk(2)
        c1 = db.select(Comparison("id", "=", 1))
        # NOT on the low bit moves the matching record out of the predicate
        db.apply_where({"c1": c1}, Var("c1"), ApplyGate(NOT, (1,)))
        assert c1 not in db.free_temps()
        assert db.temp_alloc[c1].purpose == "residue"

    def test_swap_payload(self):
        db = db2(t=2).insert_bulk(2)
        c1 = db.select(Comparison("id", "<=", 1))
        db.apply_where({"c1": c1}, Var("c1"), ApplySwap(1, 2))
        # only the flagged component of record 1 moves; record 2's component
        # was unflagged and stays, so record 1 vanishes from the support
        assert db.support() == [0, 2, 3]

    @pytest.mark.parametrize(
        "operation",
        [ApplySwap(0, 99), ApplySwap(-1, 2), ApplyGate(NOT, (5,)), ApplyGate(NOT, (0, 1))],
    )
    def test_rejected_payload_leaves_state_untouched(self, operation):
        db = db2(t=3).insert_bulk(2)
        c1 = db.select(Comparison("id", "<=", 1))
        amps = db.state.amps.copy()
        alloc = dict(db.temp_alloc)
        with pytest.raises(ValueError):
            db.apply_where({"c1": c1}, Var("c1"), operation)
        assert db.state.amps.tobytes() == amps.tobytes()
        assert db.temp_alloc == alloc

    def test_requires_extra_temp(self):
        db = db2(t=1).insert_bulk(2)
        c1 = db.select(Const(1))
        with pytest.raises(QqlError):
            db.apply_where({"c1": c1}, Var("c1"), ApplyGate(NOT, (1,)))


class TestDelete:
    def test_uniform_delete_single_record(self):
        db = db2().insert_bulk(2)
        probability = db.delete(Comparison("id", "=", 3))
        assert probability == pytest.approx(0.75, abs=1e-12)
        assert db.support() == [0, 1, 2]
        view = db.state.amps.reshape(4, 2)
        assert np.allclose(view[[0, 1, 2], 0], 1 / np.sqrt(3))

    def test_const_zero_predicate(self):
        db = db2().insert_bulk(2)
        before = db.state.amps.copy()
        assert db.delete(Const(0)) == pytest.approx(1.0)
        assert np.allclose(db.state.amps, before)

    def test_all_match_is_impossible(self):
        db = db2().insert_bulk(2)
        with pytest.raises(ImpossibleOutcomeError):
            db.delete(Const(1))
        # failed delete must leave the state untouched and the temp free
        assert db.support() == [0, 1, 2, 3]
        assert db.free_temps() == [2]

    def test_probability_equals_nonmatching_mass(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            db = db3().insert_sequential(int(rng.integers(2, 8)))
            threshold = int(rng.integers(1, 8))
            view = db.state.amps.reshape(8, 2)
            mass = float(np.sum(np.abs(view[threshold:, 0]) ** 2))
            if mass > 1 - 1e-9:
                continue
            probability = db.delete(Comparison("id", ">=", threshold))
            assert probability == pytest.approx(1 - mass, abs=1e-12)

    def test_flag_qubit_freed(self):
        db = db2().insert_bulk(2)
        db.delete(Comparison("id", "=", 0))
        assert db.free_temps() == [2]

    def test_failed_delete_leaves_state_untouched(self):
        # 0.25 of the mass survives, below epsilon: the oracle is undone
        db = QdbState(ID2, t=2, epsilon=0.5).insert_sequential(3)
        amps, alloc, fill = db.state.amps.tobytes(), dict(db.temp_alloc), db._seq_fill
        with pytest.raises(ImpossibleOutcomeError):
            db.delete(Comparison("id", ">=", 1))
        assert db.state.amps.tobytes() == amps
        assert db.temp_alloc == alloc
        assert db._seq_fill == fill

    def test_delete_needs_no_register_copy(self):
        db = create_db(TableSchema("t", (("k", 14),)), t=2).insert_sequential(3000)
        tracemalloc.start()
        try:
            db.delete(Comparison("k", "<", 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < db.state.amps.nbytes

    def test_amplified_delete_reports_probability(self):
        db = db3().insert_bulk(3)
        probability = db.delete(Comparison("id", "=", 5), amplify_iters=1)
        assert 0 < probability <= 1
        assert abs(db.state.norm() - 1) < 1e-9


class TestBackup:
    def test_uniform_example_amplitudes(self):
        db = db2().insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        view = db.state.amps.reshape(4, 2)
        assert np.allclose(view[:, 0], [0.25, 0.25, 0.25, 0.75])
        assert np.allclose(view[:, 1], [0, 0, 0, -0.5])
        assert abs(db.state.norm() - 1) < 1e-9

    def test_match_count_in_log(self):
        db = db3().insert_sequential(4)
        db.backup(Comparison("id", "<=", 2))
        entry = db.log[-1]
        assert entry.op == "backup"
        assert entry.info["matches"] == 3
        assert db.safe_key.matches == 3

    def test_const_zero_inverts_about_global_mean(self):
        db = db2().insert_bulk(2)
        db.backup(Const(0))
        view = db.state.amps.reshape(4, 2)
        # no flag-1 part; every flag-0 amplitude maps to 2<a> - a = a (uniform)
        assert np.allclose(view[:, 1], 0)
        assert np.allclose(view[:, 0], 0.5)

    def test_single_active_backup(self):
        db = db2(t=2).insert_bulk(2)
        db.backup(Comparison("id", "=", 0))
        with pytest.raises(QqlError):
            db.backup(Comparison("id", "=", 1))

    def test_backup_formula_on_random_states(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            schema = TableSchema("r", (("id", n),))
            alpha = random_state(n, rng)
            amps = np.zeros(1 << (n + 1), dtype=complex)
            amps[0::2] = alpha
            db = QdbState(schema, t=1, state=StateVector(n + 1, amps))
            threshold = int(rng.integers(1, 1 << n))  # leave both sides nonempty
            db.backup(Comparison("id", ">=", threshold))
            marked = np.arange(1 << n) >= threshold
            mean = alpha[~marked].sum() / (1 << n)
            view = db.state.amps.reshape(1 << n, 2)
            assert np.max(np.abs(view[~marked, 0] - (2 * mean - alpha[~marked]))) < 1e-12
            assert np.max(np.abs(view[marked, 0] - 2 * mean)) < 1e-12
            assert np.max(np.abs(view[marked, 1] + alpha[marked])) < 1e-12
            assert np.max(np.abs(view[~marked, 1])) < 1e-12


class TestSafeControlledOperations:
    def test_update_leaves_safe_untouched(self):
        db = db2().insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        safe_before = db.state.amps.reshape(4, 2)[:, 1].copy()
        db.update([(3, 1)])
        view = db.state.amps.reshape(4, 2)
        assert np.allclose(view[:, 1], safe_before)
        # live copies swapped: record 1 now carries the old record-3 amplitude
        assert view[1, 0] == pytest.approx(0.75)
        assert view[3, 0] == pytest.approx(0.25)

    def test_delete_leaves_safe_untouched(self):
        db = db2(t=2).insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        safe_mass_before = db.state.probability_of(2, 1)
        probability = db.delete(Comparison("id", "=", 0))
        assert probability < 1
        safe_mass_after = db.state.probability_of(2, 1)
        assert safe_mass_after > safe_mass_before  # renormalized upward, not erased
        assert 3 in db.support()

    def test_amplified_delete_rejected_under_backup(self):
        db = db2(t=2).insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        with pytest.raises(QqlError):
            db.delete(Comparison("id", "=", 0), amplify_iters=2)


class TestRestore:
    def test_backup_then_immediate_restore(self):
        db = db3().insert_bulk(3)
        db.backup(Comparison("id", "<=", 1))
        db.restore()
        assert 0 in db.support() and 1 in db.support()

    def test_restore_without_backup(self):
        with pytest.raises(QqlError):
            db2().restore()

    def test_corrupt_then_restore_recovers_record(self):
        db = db2().insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        db.update([(3, 1)])  # safe-controlled corruption
        db.restore()
        view = db.state.amps.reshape(4, 2)
        assert abs(view[3, 0]) > 1e-9  # |11> is live again
        assert 3 in db.support()

    def test_purge_clears_safe_key_and_frees_qubit(self):
        db = db2().insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        db.update([(3, 1)])
        probability = db.restore(purge=True)
        assert probability == pytest.approx(0.9375, abs=1e-12)
        assert db.safe_key is None
        assert db.free_temps() == [2]
        assert abs(db.state.norm() - 1) < 1e-9

    def test_restore_without_purge_keeps_key(self):
        db = db2().insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        assert db.restore() is None
        assert db.safe_key is not None


class TestMeasure:
    def test_uniform_histogram(self):
        db = db2().insert_bulk(2)
        histogram = db.measure_records(4096, seed=3)
        assert sum(histogram.values()) == 4096
        for record, count in histogram.items():
            assert abs(count - 1024) <= 150

    def test_zero_state_is_deterministic(self):
        histogram = db3().measure_records(50, seed=0)
        assert histogram == {Record((0,)): 50}

    def test_seed_reproducibility(self):
        db = db2().insert_bulk(2)
        assert db.measure_records(200, seed=9) == db.measure_records(200, seed=9)

    def test_temp_bits_marginalized(self):
        db = db2(t=2).insert_bulk(2)
        db.select(Comparison("id", "=", 1))  # entangles a temp qubit
        histogram = db.measure_records(2000, seed=5)
        assert set(histogram) == {Record((r,)) for r in range(4)}


class TestShowState:
    def test_zero_state_single_row(self):
        rows = db3().show_state()
        assert len(rows) == 1
        assert rows[0].index == 0
        assert rows[0].amplitude == 1.0

    def test_backup_rows(self):
        db = db2().insert_bulk(2)
        db.backup(Comparison("id", "=", 3))
        rows = db.show_state()
        amplitudes = {(row.record.values[0], row.temp_bits): row.amplitude for row in rows}
        assert amplitudes[(0, "0")] == pytest.approx(0.25)
        assert amplitudes[(3, "0")] == pytest.approx(0.75)
        assert amplitudes[(3, "1")] == pytest.approx(-0.5)

    def test_probabilities_sum_to_one(self):
        db = db3().insert_sequential(5)
        rows = db.show_state()
        assert sum(row.probability for row in rows) == pytest.approx(1.0, abs=1e-9)

    def test_rows_sorted_by_index(self):
        db = db3().insert_bulk(3)
        rows = db.show_state()
        indices = [row.index for row in rows]
        assert indices == sorted(indices)
