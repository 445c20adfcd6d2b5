"""Byte-identity of the vectorised read-out and persistence paths against
their scalar definitions: the xorshift64* lanes against the scalar generator,
the live-column sampler against one search of the whole register, the
MEASURE histogram and the SHOW table against their per-record formulas and
the earlier ``%``-format rows, and the session-file hex writer against
``float.hex``."""

import io
import itertools
import sys
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from helpers import full_scan_sample, reference_histogram, reference_labels, reference_state

from qqldb import cli, statevec
from qqldb.cli import Session, _decimal_words, format_amplitude, write_amplitudes
from qqldb.errors import CapacityError, SchemaError, SessionFormatError
from qqldb.qdb import QdbState
from qqldb.schema import TableSchema
from qqldb.statevec import (
    MAX_SHOTS,
    SCAN_BLOCK,
    StateVector,
    Xorshift64Star,
    xorshift_uniform,
)

SEEDS = [0, 1, (1 << 64) - 1]
# around the lane boundaries: the chunk length is a power of two near sqrt(count)
COUNTS = [1, 2, 3, 4, 5, 15, 16, 17, 63, 64, 65, 255, 256, 257, 1023, 1024, 1025, 4097, 100_000]


def scalar_draws(seed: int, count: int) -> np.ndarray:
    rng = Xorshift64Star(seed)
    # the top 53 bits of each word over 2^53
    return np.array([(rng.next_u64() >> 11) / float(1 << 53) for _ in range(count)])


class TestLaneSampler:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", COUNTS)
    def test_draws_match_scalar_stream(self, seed, count):
        assert xorshift_uniform(seed, count).tobytes() == scalar_draws(seed, count).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_picks_match_scalar_inverse_cdf(self, seed):
        rng = np.random.default_rng(7)
        amps = rng.normal(size=256) + 1j * rng.normal(size=256)
        state = StateVector(amps / np.linalg.norm(amps))
        cumulative = np.cumsum(state.amps.real**2 + state.amps.imag**2)
        picks = [
            min(int(np.searchsorted(cumulative, draw, side="right")), 255)
            for draw in scalar_draws(seed, 3000).tolist()
        ]
        assert state.sample(3000, seed).tobytes() == np.array(picks, dtype=np.intp).tobytes()

    def test_blocked_search_matches_one_search(self, monkeypatch):
        # runs of zero amplitudes, some across block boundaries, and draws
        # equal to cumulative values (at block ends too), in no run, at the
        # total and above it
        rng = np.random.default_rng(3)
        size = 4 * SCAN_BLOCK
        amps = rng.normal(size=size) + 1j * rng.normal(size=size)
        for start, stop in [(0, 10), (SCAN_BLOCK - 5, 2 * SCAN_BLOCK + 7), (size - 40, size)]:
            amps[start:stop] = 0
        amps[rng.random(size) < 0.3] = 0
        amps /= np.linalg.norm(amps)
        cumulative = np.cumsum(amps.real**2 + amps.imag**2)
        ends = np.arange(1, 5) * SCAN_BLOCK - 1
        draws = np.concatenate([
            cumulative[ends], cumulative[ends[:-1] + 1], cumulative[rng.integers(0, size, 500)],
            [0.0, cumulative[-1], np.nextafter(cumulative[-1], 2), 1.0, 1.5],
            rng.random(2000),
        ])
        rng.shuffle(draws)
        monkeypatch.setattr(statevec, "xorshift_uniform", lambda seed, count: draws.copy())
        picks = StateVector(amps).sample(draws.size, seed=1)
        expected = np.minimum(np.searchsorted(cumulative, draws, side="right"), size - 1)
        assert picks.tobytes() == expected.astype(np.intp).tobytes()

    @pytest.mark.parametrize("qubits", [1, 13, 14, 15, 17])
    def test_picks_match_one_search_on_sparse_states(self, qubits):
        rng = np.random.default_rng(qubits)
        amps = rng.normal(size=1 << qubits) * (rng.random(1 << qubits) < 0.1) + 0j
        amps[rng.integers(0, 1 << qubits)] = 1
        state = StateVector(amps / np.linalg.norm(amps))
        cumulative = np.cumsum(state.amps.real**2 + state.amps.imag**2)
        draws = xorshift_uniform(11, 5000)
        expected = np.minimum(np.searchsorted(cumulative, draws, side="right"), amps.size - 1)
        assert state.sample(5000, 11).tobytes() == expected.astype(np.intp).tobytes()

    def test_no_register_sized_temporary(self):
        state = StateVector(np.full(1 << 20, 2.0**-10, dtype=complex))
        shots = 1000
        tracemalloc.start()
        try:
            state.sample(shots, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an eighth of the 16 MiB register, plus a few arrays of shots
        assert peak < state.amps.nbytes // 8 + 8 * 8 * shots

    @pytest.mark.parametrize("shots", [MAX_SHOTS + 1, 10**30])
    def test_shot_ceiling_checked_before_allocation(self, shots):
        state = StateVector.zero(16)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                state.sample(shots, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # not even the 2^16-entry probability array was made
        assert peak < 1 << 16

    def test_measure_statement_over_ceiling(self):
        session = Session()
        session.execute_text("CREATE TABLE t (id:2) TEMP 1;")
        with pytest.raises(CapacityError):
            session.execute_text(f"MEASURE {MAX_SHOTS + 1} SEED 3;")


def per_record_histogram(session: Session, shots: int, seed: int) -> str:
    """The MEASURE text as the per-record formula writes it: decode, sort by
    encoded index, one label per record."""
    schema = session.db.schema
    histogram = session.db.measure_records(shots, seed)
    lines = [f"{'record':<28}  {'count':>8}  fraction"]
    for record, count in sorted(histogram.items(), key=lambda kv: schema.encode(kv[0])):
        label = "(" + ", ".join(
            f"{name}={value}" for (name, _), value in zip(schema.fields, record.values)
        ) + ")"
        lines.append(f"{label:<28}  {count:>8}  {count / shots:>10.6f}")
    lines.append(f"{shots} shot(s), {len(histogram)} distinct record(s)")
    return "\n".join(lines)


class TestHistogramText:
    @pytest.mark.parametrize(
        "fields",
        ["a:3, bb:5, c:4", "x:1, long_field_name:6, y:5", "p:4, q:4, r:4"],
    )
    @pytest.mark.parametrize("seed", [0, 5, (1 << 64) - 1])
    def test_matches_per_record_formula(self, fields, seed):
        session = Session()
        session.execute_text(
            f"CREATE TABLE t ({fields}) TEMP 2; INSERT ALL 12; SELECT s WHERE {fields[0]} = 1;"
            f"APPLY H @ {fields[0]} BIT 0 WHEN s;"
        )
        (text,) = session.execute_text(f"MEASURE 5000 SEED {seed};")
        assert text == per_record_histogram(session, 5000, seed)

    def test_single_record(self):
        session = Session()
        session.execute_text("CREATE TABLE t (id:2) TEMP 1;")
        (text,) = session.execute_text("MEASURE 3 SEED 1;")
        assert text == per_record_histogram(session, 3, 1)


def label_session(fields, t: int = 1) -> Session:
    """A session whose renderers see ``fields`` and ``t`` temp qubits; only
    the schema and the qubit counts are read, so no register is built, and
    the widths may exceed the engine's."""
    session = Session()
    schema = TableSchema("t", tuple(fields))
    session.db = SimpleNamespace(schema=schema, n=schema.num_bits, t=t)
    return session


def random_records(rng, fields, size: int) -> np.ndarray:
    bits = sum(width for _, width in fields)
    return np.unique(rng.integers(0, 1 << bits, size, dtype=np.int64))


def both_renderers():
    """Runs the loop body with the byte matrix, then with one ``%``-format
    per row, rendering every size."""
    for start in (0, 1 << 62):
        with mock.patch.object(cli, "BYTE_ROWS_FROM", start):
            yield


def check_histogram(fields, indices, counts, shots: int) -> None:
    session = label_session(fields)
    histogram = (indices, np.asarray(counts, dtype=np.int64))
    expected = reference_histogram(session.db.schema, histogram, shots)
    for _ in both_renderers():
        assert session.render_histogram(histogram, shots) == expected


def check_labels(fields, indices) -> None:
    session = label_session(fields)
    expected = reference_labels(session.db.schema, indices, 24)
    rows = session._label_rows(indices, 24)
    assert [cli._row_text(row[None]) for row in rows] == expected
    label, columns = session._label_columns(indices, 24)
    assert [label % values for values in zip(*columns)] == expected


class TestHistogramRows:
    """``render_histogram``'s byte rows and per-row format against one
    ``%``-format per row."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_histograms(self, seed):
        rng = np.random.default_rng(seed)
        fields = [(f"f{i}", int(rng.integers(1, 11))) for i in range(int(rng.integers(1, 7)))]
        indices = random_records(rng, fields, int(rng.integers(1, 3000)))
        shots = int(rng.choice([1, 7, 1000, 100_000, MAX_SHOTS, int(rng.integers(1, MAX_SHOTS))]))
        check_histogram(fields, indices, rng.integers(1, shots + 1, indices.size), shots)

    @pytest.mark.parametrize("shots", [128, 4096, MAX_SHOTS])
    def test_ties_at_powers_of_two(self, shots):
        # counts of shots / 2^k, and the odd multiples of shots / 2^7: 10^6
        # of them over shots is a whole number and exactly one half, a tie,
        # which % rounds to even on the exact double, down or up
        counts = [shots >> k for k in range(shots.bit_length())]
        counts += [(shots >> 7) * odd for odd in range(1, 128, 2)]
        ties = sum(count * 10**6 % shots * 2 == shots for count in counts)
        assert ties == 65
        check_histogram([("id", 7)], np.arange(len(counts)), counts, shots)

    def test_whole_and_smallest_fraction(self):
        check_histogram([("id", 2)], np.array([1]), [MAX_SHOTS], MAX_SHOTS)
        check_histogram([("id", 2)], np.array([0, 3]), [1, MAX_SHOTS - 1], MAX_SHOTS)
        check_histogram([("id", 2)], np.array([2]), [1], 1)

    def test_most_distinct_counts(self):
        # distinct positive counts 1..k sum to k(k+1)/2 shots: 5792 is the
        # most that MAX_SHOTS allows, each count formatted once
        shots = 5792 * 5793 // 2
        assert shots == 16_776_528 <= MAX_SHOTS < 5793 * 5794 // 2
        counts = np.random.default_rng(5).permutation(np.arange(1, 5793))
        check_histogram([("id", 13)], np.arange(5792), counts, shots)

    def test_labels_longer_than_the_column(self):
        fields = [("a_rather_long_field_name", 6), ("another_one", 4)]
        indices = random_records(np.random.default_rng(1), fields, 300)
        check_histogram(fields, indices, np.arange(1, indices.size + 1), 10**6)

    # "a%d", "a\0b" and "\udc80" once reached the renderers from session
    # files; they are not identifiers, and no schema holds them now
    @pytest.mark.parametrize(
        "name", ["größe", "名前", "x" * 25 + "é", "a%d", "a\0b", "\udc80"]
    )
    def test_non_ascii_and_other_names(self, name):
        fields = [(name, 4), ("v", 3)]
        if name in ("a%d", "a\0b", "\udc80"):
            with pytest.raises(SchemaError, match="is not an identifier$"):
                label_session(fields)
            return
        indices = np.arange(1 << 7)
        check_histogram(fields, indices, np.arange(1, indices.size + 1), 9000)
        check_labels(fields, indices)

    @pytest.mark.parametrize(
        "count, width",
        [(k, w) for k in range(1, 7) for w in (1, 3, 8, 10, 20) if k * w <= 60],
    )
    def test_fields_and_widths(self, count, width):
        rng = np.random.default_rng(count * 100 + width)
        fields = [(f"f{i}", width) for i in range(count)]
        indices = random_records(rng, fields, 500)
        top = (1 << count * width) - 1
        indices = np.unique(np.concatenate([indices, [0, top]]))
        check_histogram(fields, indices, rng.integers(1, 5000, indices.size), 5000)
        check_labels(fields, indices)

    def test_empty_label_column(self):
        check_labels([("id", 3)], np.array([], dtype=np.int64))

    def test_byte_matrix_from_its_row_count(self, monkeypatch):
        session = label_session([("a", 5), ("b", 5)])
        built = []
        for name in ("_label_rows", "_label_columns"):
            original = getattr(Session, name)
            monkeypatch.setattr(
                Session, name,
                lambda self, *args, name=name, original=original, **kwargs:
                    built.append(name) or original(self, *args, **kwargs),
            )
        for rows in (0, 1, cli.BYTE_ROWS_FROM - 1, cli.BYTE_ROWS_FROM, 1 << 10):
            indices = np.arange(rows)
            built.clear()
            session.render_state((indices << 1, np.ones(rows, dtype=complex)))
            session.render_histogram((indices, np.ones(rows, dtype=np.int64)), max(rows, 1))
            # SHOW is a byte matrix at every row count; MEASURE from BYTE_ROWS_FROM
            builder = "_label_rows" if rows >= cli.BYTE_ROWS_FROM else "_label_columns"
            assert built == ["_label_rows", builder]


def check_state(fields, t: int, indices, amplitudes, full: bool = False) -> None:
    session = label_session(fields, t)
    components = (np.asarray(indices, dtype=np.int64), np.asarray(amplitudes, dtype=complex))
    assert session.render_state(components, full) == reference_state(
        session.db.schema, t, components, full)


def random_components(rng, fields, t: int, size: int):
    """Ascending basis indices of a register of ``fields`` and ``t`` temps."""
    bits = sum(width for _, width in fields) + t
    return np.unique(rng.integers(0, 1 << bits, size, dtype=np.int64))


class TestShowRows:
    """``render_state``'s byte rows, which format each distinct amplitude
    once, against one ``%``-format per row of each row's own amplitude."""

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("full", [False, True])
    def test_signed_zero_parts(self, t, full):
        # every pair of parts from +0.0, -0.0 and +-0.5, each in several rows
        parts = [0.0, -0.0, 0.5, -0.5]
        values = [complex(re, im) for re in parts for im in parts]
        assert len({np.array(v).tobytes() for v in values}) == 16
        rng = np.random.default_rng(t)
        indices = random_components(rng, [("a", 6)], t, 300)
        check_state([("a", 6)], t, indices, rng.choice(values, indices.size), full)

    @pytest.mark.parametrize("full", [False, True])
    def test_imaginary_part_at_the_cut(self, full):
        # |im| just below, at and just above 1e-12, where the amplitude
        # gains its imaginary part in the text
        cut = [np.nextafter(1e-12, 0), 1e-12, np.nextafter(1e-12, 1)]
        values = [complex(0.25, sign * im) for im in cut for sign in (1, -1)]
        indices = np.arange(0, 600, 2)
        check_state([("k", 9)], 1, indices, np.resize(values, indices.size), full)

    @pytest.mark.parametrize("full", [False, True])
    def test_amplitude_texts_longer_than_the_column(self, full):
        values = [complex(-1.23456789e-05, -1.23456789e-05), complex(-1 / 3, 2 / 3),
                  complex(1e-300, -1e100), complex(-0.1, 0.0)]
        assert max(len(format_amplitude(v, full)) for v in values) > 24
        indices = np.arange(400)
        check_state([("a", 5), ("b", 4)], 2, indices, np.resize(values, indices.size), full)

    @pytest.mark.parametrize("name", ["größe", "名前", "x" * 25 + "é"])
    def test_non_ascii_names(self, name):
        rng = np.random.default_rng(len(name))
        fields = [(name, 4), ("v", 3)]
        indices = random_components(rng, fields, 3, 700)
        check_state(fields, 3, indices, rng.choice([0.5, -0.5j, 0.25], indices.size))

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("full", [False, True])
    def test_all_amplitudes_distinct(self, t, full):
        rng = np.random.default_rng(10 + t)
        fields = [("a", 5), ("bb", 6)]
        indices = random_components(rng, fields, t, 1500)
        amplitudes = rng.normal(size=indices.size) + 1j * rng.normal(size=indices.size)
        amplitudes[rng.random(indices.size) < 0.3] = rng.normal()  # some real
        check_state(fields, t, indices, amplitudes, full)

    @pytest.mark.parametrize("size", [0, 1, 255, 256, 257, 3000])
    def test_repeated_amplitudes(self, size):
        rng = np.random.default_rng(size)
        fields = [("k", 14)]
        indices = random_components(rng, fields, 2, size)
        values = [2.0**-6, -(2.0**-6), 2.0**-6 * 1j, 0.1 + 0.2j]
        check_state(fields, 2, indices, rng.choice(values, indices.size))

    @pytest.mark.parametrize("rows", [3, 100, 255, 256])
    def test_show_in_a_session(self, rows):
        # rows - split records from INSERT SEQ, then H splits each k < split
        # into k and k + 256: SHOW renders exactly ``rows`` components
        split = rows // 3
        session = Session()
        session.execute_text(f"CREATE TABLE t (k:9) TEMP 2; INSERT SEQ {rows - split - 1};")
        session.execute_text(f"SELECT s WHERE k < {split}; APPLY H @ k BIT 8 WHEN s;")
        components = session.db.show_state()
        assert components[0].size == rows
        expected = reference_state(session.db.schema, 2, components, True)
        (text,) = session.execute_text("SHOW FULL;")
        assert text == expected


class TestLiveColumnSampler:
    """``StateVector.sample`` over the view where ``zero_qubits`` are 0 picks
    as one search of the whole register's cumulative sum does."""

    @staticmethod
    def state_with_zero_temps(rng, n: int, t: int, zeros) -> np.ndarray:
        m = n + t
        amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        amps[rng.random(1 << m) < 0.2] = 0
        index = np.arange(1 << m)
        for q in zeros:
            amps[index >> (m - 1 - q) & 1 == 1] = 0
        return amps / np.linalg.norm(amps)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_picks_match_the_full_scan(self, n):
        rng = np.random.default_rng(n)
        for t in range(1, 5):
            temps = range(n, n + t)
            for size in range(t + 1):
                for zeros in itertools.combinations(temps, size):
                    amps = self.state_with_zero_temps(rng, n, t, zeros)
                    shots, seed = int(rng.integers(1, 3000)), int(rng.integers(0, 1 << 63))
                    picks = StateVector(amps).sample(shots, seed, zeros)
                    expected = full_scan_sample(amps, shots, seed).astype(np.intp)
                    assert picks.tobytes() == expected.tobytes(), (n, t, zeros)

    def test_held_middle_temp(self):
        # temps 6 and 8 clean, 7 held between them: the view's rows are strided
        rng = np.random.default_rng(5)
        amps = self.state_with_zero_temps(rng, 6, 3, [6, 8])
        for seed in range(5):
            picks = StateVector(amps).sample(4000, seed, [6, 8])
            assert picks.tobytes() == full_scan_sample(amps, 4000, seed).astype(np.intp).tobytes()
            assert not np.any(picks & 0b101)

    @pytest.mark.parametrize("zeros", [(), (4,), (4, 6)])
    def test_total_below_the_top_draws_picks_the_last_index(self, zeros):
        rng = np.random.default_rng(2)
        amps = self.state_with_zero_temps(rng, 4, 3, zeros) * np.sqrt(0.5)
        draws = xorshift_uniform(9, 2000)
        picks = StateVector(amps).sample(2000, 9, zeros)
        total = np.cumsum(amps.real**2 + amps.imag**2)[-1]
        assert np.all(picks[draws >= total] == amps.size - 1)
        assert np.any(draws >= total)
        assert picks.tobytes() == full_scan_sample(amps, 2000, 9).astype(np.intp).tobytes()

    def test_held_middle_temp_view_not_copied(self):
        # 2^20 amplitudes, temps 17 and 19 clean: a copy of the live view
        # would be a quarter of the register
        n, t = 17, 3
        amps = np.zeros(1 << n + t, dtype=complex)
        amps.reshape(-1, 2, 2, 2)[:, 0, :, 0] = 2.0**-9
        state, shots = StateVector(amps), 1000
        tracemalloc.start()
        try:
            picks = state.sample(shots, 5, [17, 19])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < amps.nbytes // 8 + 8 * 8 * shots
        assert picks.tobytes() == full_scan_sample(amps, shots, 5).astype(np.intp).tobytes()

    def test_measure_skips_the_clean_temps(self, monkeypatch):
        # temp 5 holds a residue; temps 4 and 6 are clean
        rng = np.random.default_rng(8)
        amps = self.state_with_zero_temps(rng, 4, 3, [4, 6])
        db = QdbState(TableSchema("t", (("a", 4),)), 3, state=StateVector(amps.copy()))
        assert sorted(db.clean_temps) == [4, 6]
        calls = []
        sample = StateVector.sample
        monkeypatch.setattr(
            StateVector, "sample", lambda self, *args: calls.append(args) or sample(self, *args)
        )
        indices, counts = db.measure_counts(5000, 3)
        assert calls == [(5000, 3, [4, 6])]
        expected = np.unique(full_scan_sample(amps, 5000, 3) >> 3, return_counts=True)
        assert indices.tobytes() == expected[0].tobytes()
        assert counts.tobytes() == expected[1].tobytes()


def per_row_state(session: Session, full: bool) -> str:
    """The SHOW text as the per-row formula writes it: decode each nonzero
    component's record, format each field, add the probabilities left to
    right."""
    db = session.db
    n, t = db.n, db.t
    amps = db.state.amps
    lines = [f"{'ket':<{n + t + 2}}  {'record':<24}  {'temp':<{max(t, 4)}}  "
             f"{'amplitude':<24}  probability"]
    total, count = 0.0, 0
    for index in range(amps.size):
        amp = complex(amps[index])
        probability = amp.real * amp.real + amp.imag * amp.imag
        if probability < 1e-24:
            continue
        record = db.schema.decode(index >> t)
        label = "(" + ", ".join(
            f"{name}={value}" for (name, _), value in zip(db.schema.fields, record.values)
        ) + ")"
        temp = format(index & ((1 << t) - 1), f"0{t}b")
        lines.append(
            f"{f'|{index:0{n + t}b}>':<{n + t + 2}}  {label:<24}  {temp:<{max(t, 4)}}  "
            f"{format_amplitude(amp, full):<24}  {probability:>10.6f}"
        )
        total += probability
        count += 1
    lines.append(f"{count} component(s), total probability {total:.6f}")
    return "\n".join(lines)


class TestStateText:
    @pytest.mark.parametrize(
        "fields, temp",
        [("id:3", 1), ("a:3, bb:5, c:2", 2), ("x:1, long_field_name:6, y:3", 5), ("p:2, q:2", 7)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_row_formula(self, fields, temp, seed):
        session = Session()
        session.execute_text(f"CREATE TABLE t ({fields}) TEMP {temp};")
        size = session.db.state.amps.size
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=size) + 1j * rng.normal(size=size) * (rng.random(size) < 0.5)
        amps[rng.random(size) < 0.4] = 0
        amps[rng.random(size) < 0.05] = 1e-13
        state = StateVector(amps / np.linalg.norm(amps))
        session.db = QdbState(session.db.schema, temp, state=state)
        for full in (False, True):
            (text,) = session.execute_text("SHOW FULL;" if full else "SHOW;")
            assert text == per_row_state(session, full)


def hex_lines(values: np.ndarray) -> list[str]:
    """One session-file line per pair of doubles (real, imaginary)."""
    amps = np.ascontiguousarray(values, dtype=np.float64).view(np.complex128)
    buffer = io.BytesIO()
    write_amplitudes(buffer, amps)
    return buffer.getvalue().decode().splitlines()


class TestHexWriter:
    SPECIAL = [
        0.0, -0.0, 5e-324, -5e-324, -2.2250738585072014e-308, 2.225073858507201e-308,
        sys.float_info.max, -sys.float_info.max, 1.0, -1.5, 0.1, 1 / 3,
    ]

    @pytest.mark.parametrize("value", SPECIAL)
    def test_special_values(self, value):
        # a nonzero partner keeps the line in the file whatever ``value`` is
        for real, imag in ((value, 1.0), (1.0, value)):
            assert hex_lines(np.array([real, imag])) == [f"0 {real.hex()} {imag.hex()}"]

    def test_random_doubles(self):
        bits = np.random.default_rng(11).integers(0, 1 << 63, 40_000, dtype=np.int64)
        bits = bits.astype(np.uint64) | (np.arange(bits.size, dtype=np.uint64) << np.uint64(63))
        values = bits.view(np.float64)
        values = np.where(np.isfinite(values), values, 1.0)
        expected = [
            f"{i} {re.hex()} {im.hex()}"
            for i, (re, im) in enumerate(values.reshape(-1, 2).tolist())
            if re or im
        ]
        assert hex_lines(values) == expected

    def test_non_finite_parts_keep_their_form(self, tmp_path):
        # no unit register has them; written as before, LOAD rejects them
        assert hex_lines(np.array([np.inf, -np.nan])) == [
            "0 0x1.0000000000000p+1024 -0x1.8000000000000p+1024"
        ]
        path = tmp_path / "inf.qdb"
        path.write_text("QQLDB 1\nSCHEMA t id:2\nTEMP 1\nSAFE none\n"
                        "0 0x1.0000000000000p+1024 0x0.0p+0\n")
        with pytest.raises(SessionFormatError, match="malformed amplitude line"):
            Session().load_session(str(path))

    def test_zero_amplitudes_skipped(self):
        # amplitude i is (values[2i], values[2i + 1]); amplitude 5 is -0 - 0j
        values = np.zeros(16)
        values[[3, 8, 9, 10, 11]] = [0.5, -0.0, -2.0, -0.0, -0.0]
        assert hex_lines(values) == [
            f"1 {0.0.hex()} {0.5.hex()}",
            f"4 {(-0.0).hex()} {(-2.0).hex()}",
        ]


class TestDecimalWriter:
    @pytest.mark.parametrize("groups", [1, 2, 3])
    def test_digits_match_str(self, groups):
        rng = np.random.default_rng(groups)
        top = 10 ** min(8 * groups, 18)
        values = np.concatenate([
            [0, 1, 9, 10, 99, 100, 10**7, 10**8 - 1],
            [10**k for k in range(8, 18) if 10**k < top],
            [10**k - 1 for k in range(9, 19) if 10**k <= top],
            rng.integers(0, top, 2000),
        ]).astype(np.int64)
        words = _decimal_words(values, groups).view(np.uint8).reshape(values.size, 8 * groups)
        texts = [row.tobytes().replace(b"\0", b"").decode() for row in words]
        assert texts == [str(v) for v in values.tolist()]
        # the digits are right-aligned: only leading bytes are 0
        assert all(row.tobytes().lstrip(b"\0").isdigit() for row in words)
