"""Reference computations the benchmark checks qqldb's outputs against.

Nothing here calls into qqldb: the sampler is written from the README's
specification (xorshift64*, top 53 bits, inverse CDF), the session-file
reader parses the documented ``QQLDB 1`` format, and support, norm and
record labels are recomputed from the raw amplitude buffer.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter

import numpy as np

MASK64 = (1 << 64) - 1
NORM_TOL = 1e-9
SUPPORT_TOL = 1e-9
# outputs print probabilities with 6 decimals
PRINTED_PROB_TOL = 5e-7 + 1e-12

_ROW = re.compile(r"^\((.*?)\)\s+(\d+)\s+\S+$")
_PROB = re.compile(r"outcome probability (\d+\.\d+)")
_PROTECTED = re.compile(r"^backup active: (\d+) records protected \(safe qubit (\d+)\)$")
_COMPONENTS = re.compile(r"^(\d+) component\(s\), total probability (\d+\.\d+)$")


class CheckFailure(Exception):
    """An output of the engine disagrees with the benchmark's own computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


class Xorshift64Star:
    """xorshift64*: shifts 12/25/27, multiplier 0x2545F4914F6CDD1D, a zero
    seed replaced by 0x9E3779B97F4A7C15, doubles from the top 53 bits."""

    def __init__(self, seed: int):
        self.state = (seed & MASK64) or 0x9E3779B97F4A7C15

    def uniform(self, count: int) -> list[float]:
        s = self.state
        out = []
        for _ in range(count):
            s ^= s >> 12
            s ^= (s << 25) & MASK64
            s ^= s >> 27
            out.append((((s * 0x2545F4914F6CDD1D) & MASK64) >> 11) / 9007199254740992.0)
        self.state = s
        return out


def draw_records(amps: np.ndarray, shots: int, seed: int, temp_bits: int) -> Counter:
    """Histogram of data-register indices drawn by inverse CDF over |amp|^2."""
    probs = amps.real**2 + amps.imag**2
    cumulative = np.cumsum(probs)
    del probs
    picks = np.searchsorted(cumulative, Xorshift64Star(seed).uniform(shots), side="right")
    np.clip(picks, 0, amps.size - 1, out=picks)
    return Counter((picks >> temp_bits).tolist())


def encode(values: tuple[int, ...], widths: tuple[int, ...]) -> int:
    index = 0
    for value, width in zip(values, widths):
        index = (index << width) | value
    return index


def label(index: int, fields: tuple[tuple[str, int], ...]) -> str:
    parts = []
    shift = sum(w for _, w in fields)
    for name, width in fields:
        shift -= width
        parts.append(f"{name}={(index >> shift) & ((1 << width) - 1)}")
    return "(" + ", ".join(parts) + ")"


def check_histogram(output: str, amps: np.ndarray, shots: int, seed: int,
                    fields: tuple[tuple[str, int], ...], temp_bits: int) -> None:
    """The rendered MEASURE histogram equals the benchmark's own draw."""
    names = [n for n, _ in fields]
    widths = tuple(w for _, w in fields)
    lines = output.split("\n")
    seen: dict[int, int] = {}
    for line in lines[1:-1]:
        match = _ROW.match(line)
        expect(match is not None, f"unreadable histogram row {line!r}")
        pairs = [p.split("=") for p in match.group(1).split(", ")]
        expect([p[0] for p in pairs] == names, f"histogram row {line!r} has wrong fields")
        index = encode(tuple(int(p[1]) for p in pairs), widths)
        expect(index not in seen, f"record {index} listed twice in histogram")
        seen[index] = int(match.group(2))
    drawn = draw_records(amps, shots, seed, temp_bits)
    expect(lines[-1] == f"{shots} shot(s), {len(drawn)} distinct record(s)",
           f"histogram footer {lines[-1]!r}")
    if seen != dict(drawn):
        wrong = sorted(set(seen.items()) ^ set(drawn.items()))[:3]
        raise CheckFailure(f"MEASURE {shots} SEED {seed}: histogram differs from reference draw at {wrong}")


def printed_probability(output: str) -> float:
    match = _PROB.search(output)
    expect(match is not None, f"no outcome probability in {output!r}")
    return float(match.group(1))


def check_probability(output: str, expected: float, what: str) -> None:
    got = printed_probability(output)
    expect(abs(got - expected) <= PRINTED_PROB_TOL,
           f"{what}: printed probability {got} but expected {expected:.9f}")


def protected_count(output: str) -> int:
    match = _PROTECTED.match(output)
    expect(match is not None, f"unexpected BACKUP output {output!r}")
    return int(match.group(1))


def check_show(output: str, amps: np.ndarray) -> None:
    """SHOW lists one row per component with |amp| >= 1e-12 and a total of 1."""
    mags = amps.real**2 + amps.imag**2
    rows = int(np.count_nonzero(mags >= 1e-24))
    lines = output.split("\n")
    match = _COMPONENTS.match(lines[-1])
    expect(match is not None, f"unexpected SHOW footer {lines[-1]!r}")
    expect(int(match.group(1)) == rows == len(lines) - 2,
           f"SHOW listed {match.group(1)} components, state has {rows}")
    expect(match.group(2) == "1.000000", f"SHOW total probability {match.group(2)}")


def check_norm(amps: np.ndarray) -> None:
    norm = float(np.sqrt(np.vdot(amps, amps).real))
    expect(abs(norm - 1.0) <= NORM_TOL, f"norm drifted to {norm!r}")


def live_support(amps: np.ndarray, n: int, t: int, safe_qubit: int | None) -> np.ndarray:
    """Records with mass in the safe-key-0 columns (all columns without a backup)."""
    view = amps.reshape(1 << n, 1 << t)
    mass = np.zeros(1 << n)
    safe_bit = 0 if safe_qubit is None else 1 << (t - 1 - (safe_qubit - n))
    for column in range(1 << t):
        if not column & safe_bit:
            mass += view[:, column].real ** 2 + view[:, column].imag ** 2
    return np.nonzero(mass > SUPPORT_TOL * SUPPORT_TOL)[0]


def state_digest(amps: np.ndarray) -> str:
    """Digest of the amplitude values; -0.0 and 0.0 hash alike, since a
    session file stores only nonzero amplitudes."""
    digest = hashlib.sha256()
    chunk = 1 << 16
    for start in range(0, amps.size, chunk):
        digest.update((amps[start:start + chunk] + 0.0).view(np.uint8))
    return digest.hexdigest()


def read_session_file(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Header lines, basis indices and complex amplitudes of a session file."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    head = text.split("\n", 4)
    expect(len(head) == 5 and head[0] == "QQLDB 1" and text.endswith("\n"),
           f"bad session file framing in {path}")
    fields = head[4].split()
    expect(len(fields) % 3 == 0, f"amplitude lines of {path} do not have three fields")
    count = len(fields) // 3
    indices = np.fromiter(map(int, fields[0::3]), np.int64, count)
    values = np.empty(count, dtype=np.complex128)
    values.real = np.fromiter(map(float.fromhex, fields[1::3]), np.float64, count)
    values.imag = np.fromiter(map(float.fromhex, fields[2::3]), np.float64, count)
    return head[1:4], indices, values


def check_saved(path: str, header: list[str], indices: np.ndarray, values: np.ndarray,
                tol: float) -> int:
    """The session file holds the given header (the SAFE line up to the
    predicate, which is given as a prefix) and, within ``tol``, exactly
    the amplitudes ``values`` at the ascending basis ``indices`` (zero
    elsewhere); returns the number of amplitudes stored."""
    got_header, got_indices, got_values = read_session_file(path)
    expect(got_header[:2] == header[:2] and got_header[2].startswith(header[2]),
           f"session header {got_header} does not match {header}")
    expect(bool(np.all(np.diff(got_indices) > 0)), "session indices not strictly ascending")
    union = np.union1d(got_indices, indices)
    got = np.zeros(union.size, dtype=np.complex128)
    got[np.searchsorted(union, got_indices)] = got_values
    want = np.zeros(union.size, dtype=np.complex128)
    want[np.searchsorted(union, indices)] = values
    error = float(np.max(np.abs(got - want))) if union.size else 0.0
    expect(error <= tol, f"saved amplitudes differ from the reference by {error:.3e}")
    return int(got_indices.size)
