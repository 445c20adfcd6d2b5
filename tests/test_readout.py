"""Byte-identity of the vectorised read-out and persistence paths against
their scalar definitions: the xorshift64* lanes against the scalar generator,
the MEASURE histogram and the SHOW table against their per-record formulas,
and the session-file hex writer against ``float.hex``."""

import io
import sys
import tracemalloc

import numpy as np
import pytest

from qqldb import statevec
from qqldb.cli import Session, _decimal_words, format_amplitude, write_amplitudes
from qqldb.errors import CapacityError, SessionFormatError
from qqldb.qdb import QdbState
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
