"""The benchmark's three workloads.

A workload is a function ``round(harness, seed, index)`` that drives fresh
``qqldb.cli.Session`` objects with generated statement text through
``harness.execute`` and checks every output against a computation made
apart from the engine: closed forms over the record values
(:class:`RecordModel`), the sparse reference interpreter ``tests/refmodel.py``
and the sampler and session-file reader in ``checks.py``.  Each round draws
its inputs from ``random.Random(f"<workload>/<seed>/<index>")`` and always
executes the same number of statements.
"""

from __future__ import annotations

import copy
import math
import os
import random
from typing import Callable

import numpy as np
from qqldb.cli import Session
from refmodel import RefDb

from checks import (
    check_histogram,
    check_probability,
    check_saved,
    check_show,
    expect,
    label,
    live_support,
    protected_count,
    state_digest,
)

AMP_TOL = 1e-12
WORK_DIR = os.path.join("perfbench", "out")


def _column_bit(n: int, t: int, qubit: int) -> int:
    return 1 << (t - 1 - (qubit - n))


def _flag_mass(amps: np.ndarray, n: int, t: int, qubit: int) -> float:
    view = amps.reshape(1 << n, 1 << t)
    bit = _column_bit(n, t, qubit)
    return sum(
        float(np.vdot(view[:, c], view[:, c]).real) for c in range(1 << t) if c & bit
    )


def _kets(indices, n: int) -> str:
    return ", ".join(f"|{i:0{n}b}>" for i in indices)


class RecordModel:
    """Amplitudes of a register whose temp qubits are all |0>, except an
    optional safe key: ``live[r]`` sits on the all-zero temp column and
    ``safe[r]`` on the safe-key column.  Every operator is its closed form
    on these two real vectors."""

    def __init__(self, n: int, t: int, live: np.ndarray):
        self.n, self.t = n, t
        self.live = np.asarray(live, dtype=np.float64)
        self.safe: np.ndarray | None = None
        self.safe_bit = 0

    def mass(self, mask: np.ndarray) -> float:
        return float(np.sum(self.live[mask] ** 2))

    def swap(self, pairs) -> None:
        for a, b in pairs:
            self.live[[a, b]] = self.live[[b, a]]

    def flip_bit(self, region: np.ndarray, bit: int) -> None:
        """NOT on record bit ``bit`` where ``region`` (closed under the flip) holds."""
        index = np.nonzero(region)[0]
        self.live[index] = self.live[index ^ (1 << bit)]

    def hadamard_bit(self, region: np.ndarray, bit: int) -> None:
        low = np.nonzero(region & ((np.arange(self.live.size) >> bit) & 1 == 0))[0]
        high = low | (1 << bit)
        x0, x1 = self.live[low], self.live[high]
        self.live[low] = (x0 + x1) * math.sqrt(0.5)
        self.live[high] = (x0 - x1) * math.sqrt(0.5)

    def delete(self, match: np.ndarray) -> float:
        probability = self.mass(~match)
        self.live = np.where(match, 0.0, self.live) / math.sqrt(probability)
        return probability

    def backup(self, match: np.ndarray, safe_bit: int) -> int:
        """Oracle onto the safe key, then partial diffusion; returns the
        number of live records protected."""
        matches = int(np.count_nonzero(match & (self.live != 0)))
        self.safe = -np.where(match, self.live, 0.0)
        rest = np.where(match, 0.0, self.live)
        self.live = 2.0 * rest.mean() - rest
        self.safe_bit = safe_bit
        return matches

    def restore_purge(self, match: np.ndarray) -> tuple[float, np.ndarray]:
        """Oracle again, post-select the safe key on 0; returns the
        probability and the records that were protected."""
        protected = np.nonzero(self.safe)[0]
        live = np.where(match, self.safe, self.live)
        probability = float(np.sum(live**2))
        self.live = live / math.sqrt(probability)
        self.safe, self.safe_bit = None, 0
        return probability, protected

    def compare(self, amps: np.ndarray, what: str) -> None:
        view = amps.reshape(1 << self.n, 1 << self.t)
        error = float(np.max(np.abs(view[:, 0] - self.live)))
        if self.safe is not None:
            error = max(error, float(np.max(np.abs(view[:, self.safe_bit] - self.safe))))
        expect(error <= AMP_TOL, f"after {what}: amplitudes off the closed form by {error:.3e}")
        for column in range(1, 1 << self.t):
            if column != self.safe_bit:
                expect(not np.any(view[:, column]), f"after {what}: temp column {column} not |0>")

    def saved_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Basis indices and values a session file of this state holds."""
        records = np.nonzero(self.live)[0]
        return records << self.t, self.live[records].astype(np.complex128)


def _save_load(h, session: Session, name: str, header: list[str], indices, values,
               tol: float) -> None:
    """SAVE then LOAD: the file holds the expected amplitudes, and the loaded
    state equals the saved one."""
    path = os.path.join(WORK_DIR, f"{name}.qdb")
    digest = state_digest(session.db.state.amps)
    _execute_expect(h, session, f'SAVE "{path}";', f"saved session to {path}")
    h.saved(os.path.getsize(path), check_saved(path, header, indices, values, tol))
    _execute_expect(h, session, f'LOAD "{path}";', f"loaded session from {path}")
    expect(state_digest(session.db.state.amps) == digest, "LOAD(SAVE(s)) differs from s")
    os.remove(path)


def _execute_expect(h, session: Session, text: str, output: str) -> None:
    out = h.execute(session, text)
    expect(out == output, f"{text[:60]}: output {out!r}, expected {output!r}")


# --------------------------------------------------------------- large-mix


def large_mix(h, seed: int, index: int) -> None:
    """The fixed statement mix on a 2^21-amplitude register (a:9, b:9 TEMP 3)."""
    rng = random.Random(f"large-mix/{seed}/{index}")
    n, t = 18, 3
    fields = (("a", 9), ("b", 9))
    record = np.arange(1 << n)
    a, b = record >> 9, record & 511
    s = Session()
    _execute_expect(h, s, "CREATE TABLE big (a:9, b:9) TEMP 3;",
                    "ok: table big (18 data + 3 temp qubits)")
    check_show(h.execute(s, "SHOW;"), s.db.state.amps)

    _execute_expect(h, s, "INSERT ALL 18;", f"ok: insert bulk {1 << n}; support size {1 << n}")
    model = RecordModel(n, t, np.full(1 << n, 2.0 ** (-n / 2)))
    model.compare(s.db.state.amps, "INSERT ALL")

    # Literal ranges are narrow so that every seed selects, deletes and
    # protects about the same share of records: the work per statement stays
    # the same while the records involved change with the seed.
    a1, b1 = 2 * rng.randrange(124, 132), 2 * rng.randrange(124, 132)
    _execute_expect(h, s, f"SELECT c1 WHERE a >= {a1};", f"selected c1 on flag qubit {n}")
    mass = _flag_mass(s.db.state.amps, n, t, n)
    expect(abs(mass - (512 - a1) / 512) <= 1e-12, f"SELECT c1 flag mass {mass}")
    _execute_expect(h, s, f"SELECT c2 WHERE b < {b1};", f"selected c2 on flag qubit {n + 1}")
    mass = _flag_mass(s.db.state.amps, n, t, n + 1)
    expect(abs(mass - b1 / 512) <= 1e-12, f"SELECT c2 flag mass {mass}")

    # a >= a1 with a1 even holds for a and a ^ 1 alike, so both flags uncompute
    _execute_expect(h, s, "APPLY H @ a BIT 0 WHEN c1 AND NOT c2;", "applied on flags c1, c2")
    model.hadamard_bit((a >= a1) & (b >= b1), 9)
    expect(not s.db.temp_alloc, f"temps still held after APPLY: {s.db.temp_alloc}")
    model.compare(s.db.state.amps, "APPLY")

    d1, d2 = rng.randrange(60, 68), rng.randrange(120, 136)
    out = h.execute(s, f"DELETE WHERE a < {d1} AND b >= {d2};")
    check_probability(out, model.delete((a < d1) & (b >= d2)), "DELETE")
    model.compare(s.db.state.amps, "DELETE")

    k1, k2 = rng.randrange(376, 392), rng.randrange(512)
    protect = (b >= k1) | (a == k2)
    out = h.execute(s, f"BACKUP WHERE b >= {k1} OR a = {k2};")
    matches = model.backup(protect, _column_bit(n, t, n))
    expect(protected_count(out) == matches, f"BACKUP reported {out!r}, expected {matches}")
    model.compare(s.db.state.amps, "BACKUP")

    ends = rng.sample(range(1 << n), 64)
    pairs = list(zip(ends[0::2], ends[1::2]))
    text = ", ".join(f"{label(x, fields)} TO {label(y, fields)}" for x, y in pairs)
    _execute_expect(h, s, f"UPDATE SET {text};", f"ok: updated {len(pairs)} pair(s)")
    model.swap(pairs)
    model.compare(s.db.state.amps, "UPDATE")

    out = h.execute(s, "RESTORE PURGE;")
    probability, protected = model.restore_purge(protect)
    check_probability(out, probability, "RESTORE PURGE")
    model.compare(s.db.state.amps, "RESTORE PURGE")
    live = live_support(s.db.state.amps, n, t, None)
    expect(np.isin(protected, live).all(), "a protected record is not live after RESTORE PURGE")

    shots, measure_seed = 100_000, rng.randrange(1, 1 << 63)
    out = h.execute(s, f"MEASURE {shots} SEED {measure_seed};")
    check_histogram(out, s.db.state.amps, shots, measure_seed, fields, t)

    _save_load(h, s, f"large-mix-{seed}", ["SCHEMA big a:9 b:9", "TEMP 3", "SAFE none"],
               *model.saved_entries(), AMP_TOL)


# ------------------------------------------------------------- write-chain


def write_chain(h, seed: int, index: int) -> None:
    """Long controlled-Hadamard chains, one long INSERT VALUES, UPDATEs of
    hundreds of pairs with and without a backup, and an amplified DELETE,
    on a 2^16-amplitude register (k:14 TEMP 2)."""
    rng = random.Random(f"write-chain/{seed}/{index}")
    n, t = 14, 2
    fields = (("k", 14),)

    # Amplified DELETE on inputs that do not depend on the seed.  Its
    # diffusion step reflects about the uniform superposition of all 2^14
    # records, which brings back deleted and never-inserted records, so the
    # record-set check fails on every round (counted as failed).
    s = Session()
    _execute_expect(h, s, "CREATE TABLE chain (k:14) TEMP 2;", "ok: table chain (14 data + 2 temp qubits)")
    _execute_expect(h, s, "INSERT SEQ 2047;", "ok: insert sequential to 2047; support size 2048")
    expect(np.array_equal(live_support(s.db.state.amps, n, t, None), np.arange(2048)),
           "INSERT SEQ 2047 support")
    h.execute(s, "DELETE WHERE k >= 1024 AMPLIFY 2;")
    h.fault(np.array_equal(live_support(s.db.state.amps, n, t, None), np.arange(1024)),
            "DELETE ... AMPLIFY left matching or never-inserted records live")

    s = Session()
    _execute_expect(h, s, "CREATE TABLE w (k:14) TEMP 2;", "ok: table w (14 data + 2 temp qubits)")
    # narrow ranges keep the work per round steady across seeds (see large_mix)
    fill = rng.randrange(1950, 2050)
    _execute_expect(h, s, f"INSERT SEQ {fill};",
                    f"ok: insert sequential to {fill}; support size {fill + 1}")
    expect(np.array_equal(live_support(s.db.state.amps, n, t, None), np.arange(fill + 1)),
           f"INSERT SEQ {fill} support")

    records = sorted(rng.sample(range(1 << n), rng.randrange(3200, 3300)))
    _execute_expect(h, s, f"INSERT VALUES {_kets(records, n)};",
                    f"ok: insert {len(records)} values; support size {len(records)}")
    expect(np.array_equal(live_support(s.db.state.amps, n, t, None), records),
           "INSERT VALUES support differs from the requested set")
    view = s.db.state.amps.reshape(1 << n, 1 << t)
    expect(not np.any(view.imag) and not np.any(view[:, 1:]), "INSERT left temps or phases")
    model = RecordModel(n, t, view[:, 0].real.copy())

    absent = sorted(set(range(1 << n)) - set(records))
    pairs = list(zip(rng.sample(records, 300), rng.sample(absent, 300)))
    _update_exact(h, s, pairs, n, t, model)
    check_show(h.execute(s, "SHOW;"), s.db.state.amps)

    record = np.arange(1 << n)
    cut = 2 * rng.randrange(3900, 4100)
    _execute_expect(h, s, f"SELECT c1 WHERE k >= {cut};", f"selected c1 on flag qubit {n}")
    mass = _flag_mass(s.db.state.amps, n, t, n)
    expect(abs(mass - model.mass(record >= cut)) <= 1e-12, f"SELECT flag mass {mass}")
    _execute_expect(h, s, "APPLY NOT @ k BIT 0 WHEN c1;", "applied on flags c1")
    model.flip_bit(record >= cut, 0)
    model.compare(s.db.state.amps, "APPLY")

    low = rng.randrange(950, 1050)
    out = h.execute(s, f"DELETE WHERE k < {low};")
    check_probability(out, model.delete(record < low), "DELETE")
    model.compare(s.db.state.amps, "DELETE")
    expect(np.array_equal(live_support(s.db.state.amps, n, t, None), np.nonzero(model.live)[0]),
           "DELETE support")

    high = rng.randrange(10900, 11100)
    out = h.execute(s, f"BACKUP WHERE k >= {high};")
    matches = model.backup(record >= high, _column_bit(n, t, n))
    expect(protected_count(out) == matches, f"BACKUP reported {out!r}, expected {matches}")
    model.compare(s.db.state.amps, "BACKUP")

    ends = rng.sample(range(1 << n), 600)
    _update_exact(h, s, list(zip(ends[0::2], ends[1::2])), n, t, model)

    out = h.execute(s, "RESTORE PURGE;")
    probability, protected = model.restore_purge(record >= high)
    check_probability(out, probability, "RESTORE PURGE")
    model.compare(s.db.state.amps, "RESTORE PURGE")
    live = live_support(s.db.state.amps, n, t, None)
    expect(np.isin(protected, live).all(), "a protected record is not live after RESTORE PURGE")

    shots, measure_seed = 2000, rng.randrange(1, 1 << 63)
    out = h.execute(s, f"MEASURE {shots} SEED {measure_seed};")
    check_histogram(out, s.db.state.amps, shots, measure_seed, fields, t)

    _save_load(h, s, f"write-chain-{seed}", ["SCHEMA w k:14", "TEMP 2", "SAFE none"],
               *model.saved_entries(), AMP_TOL)


def _update_exact(h, s: Session, pairs, n: int, t: int, model: RecordModel) -> None:
    """UPDATE moves each live amplitude to its partner unchanged, bit for bit;
    a protected copy behind the safe key stays where it is."""
    before = s.db.state.amps.reshape(1 << n, 1 << t).copy()
    text = ", ".join(f"|{x:0{n}b}> TO |{y:0{n}b}>" for x, y in pairs)
    _execute_expect(h, s, f"UPDATE SET {text};", f"ok: updated {len(pairs)} pair(s)")
    live_columns = [c for c in range(1 << t) if not c & model.safe_bit]
    expected = before.copy()
    for x, y in pairs:
        expected[np.ix_([x, y], live_columns)] = before[np.ix_([y, x], live_columns)]
    expect(np.array_equal(s.db.state.amps.reshape(1 << n, 1 << t), expected),
           "UPDATE did not move each amplitude to its partner unchanged")
    model.swap(pairs)


# ----------------------------------------------------------- small-scripts


class _Expr:
    """A generated predicate: its query text and a Python evaluation that
    follows the grammar's precedence (NOT over AND over OR)."""

    def __init__(self, rng: random.Random, atoms: list[tuple[str, Callable]]):
        chosen = rng.sample(atoms, len(atoms))
        joins = [rng.choice(("AND", "OR")) for _ in range(len(atoms) - 1)]
        negate = [rng.random() < 0.25 for _ in atoms]
        self.text = self._render(chosen, joins, negate)
        self._terms = [(fn, neg) for (_, fn), neg in zip(chosen, negate)]
        self._joins = joins

    @staticmethod
    def _render(chosen, joins, negate) -> str:
        words = []
        for i, ((text, _), neg) in enumerate(zip(chosen, negate)):
            if i:
                words.append(joins[i - 1])
            words.append(f"NOT {text}" if neg else text)
        return " ".join(words)

    def __call__(self, value) -> bool:
        groups = [[]]
        for i, (fn, neg) in enumerate(self._terms):
            if i and self._joins[i - 1] == "OR":
                groups.append([])
            groups[-1].append(fn(value) != neg)
        return any(all(group) for group in groups)


_OPS = {
    ">": lambda x, y: x > y, ">=": lambda x, y: x >= y, "<": lambda x, y: x < y,
    "<=": lambda x, y: x <= y, "=": lambda x, y: x == y, "!=": lambda x, y: x != y,
}


class _SmallScript:
    """One generated script, mirrored statement by statement on RefDb; a
    statement is emitted only when the reference shows it succeeds."""

    BODY = ("select_apply", "delete", "backup", "restore", "update", "show", "measure",
            "save_load")
    WEIGHTS = (3, 2, 1, 1, 2, 1, 2, 1)

    def __init__(self, h, rng: random.Random, fields, t: int, name: str):
        self.h, self.rng, self.fields, self.t = h, rng, fields, t
        self.n = sum(w for _, w in fields)
        self.ref = RefDb(self.n, t)
        self.session = Session()
        self.flag_count = 0
        self.safe_matches = 0
        self.name = name

    # ------------------------------------------------------------ plumbing

    def field_value(self, record: int, field: str) -> int:
        shift = self.n
        for name, width in self.fields:
            shift -= width
            if name == field:
                return (record >> shift) & ((1 << width) - 1)
        raise KeyError(field)

    def predicate(self) -> _Expr:
        atoms = []
        for _ in range(self.rng.randint(1, 3)):
            field, width = self.rng.choice(self.fields)
            op = self.rng.choice(tuple(_OPS))
            literal = self.rng.randrange(1 << width)
            atoms.append((
                f"{field} {op} {literal}",
                lambda r, f=field, o=_OPS[op], v=literal: o(self.field_value(r, f), v),
            ))
        return _Expr(self.rng, atoms)

    def execute(self, text: str) -> str:
        return self.h.execute(self.session, text)

    def verify(self, text: str) -> None:
        db, ref, n = self.session.db, self.ref, self.n
        safe = db.safe_key.qubit if db.safe_key is not None else None
        support = live_support(db.state.amps, n, self.t, safe).tolist()
        expect(support == ref.support(), f"{text[:60]}: support differs from RefDb")
        free = [q - n for q in range(n, n + self.t) if q not in db.temp_alloc]
        expect(free == ref.free_temps(), f"{text[:60]}: free temps {free} != {ref.free_temps()}")
        ref_safe = None if ref.safe_temp is None else n + ref.safe_temp
        expect(safe == ref_safe, f"{text[:60]}: safe key {safe} != {ref_safe}")

    def reference_state(self) -> np.ndarray:
        dense = np.zeros(1 << (self.n + self.t))
        for (record, temps), amp in self.ref.amps.items():
            dense[(record << self.t) | temps] = amp
        return dense

    def step(self, text: str, output: str | None, mirror) -> str:
        out = self.execute(text)
        mirror()
        if output is not None:
            expect(out == output, f"{text[:60]}: output {out!r}, expected {output!r}")
        self.verify(text)
        return out

    # ----------------------------------------------------------- statements

    def run(self) -> None:
        n, t = self.n, self.t
        fields = ", ".join(f"{name}:{width}" for name, width in self.fields)
        self.step(f"CREATE TABLE s ({fields}) TEMP {t};",
                  f"ok: table s ({n} data + {t} temp qubits)", lambda: None)
        self.insert()
        for _ in range(self.rng.randint(5, 9)):
            getattr(self, self.rng.choices(self.BODY, self.WEIGHTS)[0])()
        if self.ref.safe_temp is not None:
            self.restore()

    def insert(self) -> None:
        n, rng, ref = self.n, self.rng, self.ref
        kind = rng.randrange(3)
        if kind == 0:
            r = rng.randint(1, n)
            self.step(f"INSERT ALL {r};", f"ok: insert bulk {1 << r}; support size {1 << r}",
                      lambda: ref.insert_bulk(r))
        elif kind == 1:
            k = rng.randint(1, min((1 << n) - 1, 64))
            self.step(f"INSERT SEQ {k};", f"ok: insert sequential to {k}; support size {k + 1}",
                      lambda: ref.insert_seq(k))
        else:
            records = sorted(rng.sample(range(1 << n), rng.randint(1, min(1 << n, 48))))
            self.step(f"INSERT VALUES {_kets(records, n)};",
                      f"ok: insert {len(records)} values; support size {len(records)}",
                      lambda: ref.insert_values(records))

    def select_apply(self) -> None:
        rng, ref, n = self.rng, self.ref, self.n
        k = rng.randint(1, 2)
        if len(ref.free_temps()) < k + 1:
            return
        flags = {}
        for _ in range(k):
            self.flag_count += 1
            name = f"c{self.flag_count}"
            pred = self.predicate()
            j = ref.free_temps()[0]
            self.step(f"SELECT {name} WHERE {pred.text};",
                      f"selected {name} on flag qubit {n + j}", lambda: ref.select(pred))
            flags[name] = j
        combiner = _Expr(rng, [(name, lambda v, nm=name: v[nm] == 1) for name in flags])
        roll = rng.random()
        if roll < 0.7:
            field, width = rng.choice(self.fields)
            bit = rng.randrange(width)
            gate = "NOT" if roll < 0.45 else "H"
            offset = 0
            for name, w in self.fields:
                if name == field:
                    break
                offset += w
            payload = n - offset - width + bit
            text = f"APPLY {gate} @ {field} BIT {bit} WHEN {combiner.text};"
            kind = gate.lower()
        else:
            payload = tuple(rng.sample(range(1 << n), 2))
            text = (f"APPLY SWAP {label(payload[0], self.fields)} TO "
                    f"{label(payload[1], self.fields)} WHEN {combiner.text};")
            kind = "swap"
        self.step(text, f"applied on flags {', '.join(sorted(flags))}",
                  lambda: ref.apply_where(flags, combiner, kind, payload))

    def delete(self) -> None:
        if not self.ref.free_temps():
            return
        pred = self.predicate()
        if all(pred(r) for r in self.ref.support()):
            return
        trial = copy.deepcopy(self.ref)
        try:
            probability = trial.delete(pred)
        except ValueError:
            return
        if probability < 1e-3:
            return
        out = self.execute(f"DELETE WHERE {pred.text};")
        self.ref = trial
        self.verify("DELETE")
        check_probability(out, probability, f"DELETE WHERE {pred.text}")

    def backup(self) -> None:
        ref = self.ref
        if ref.safe_temp is not None or not ref.free_temps():
            return
        pred = self.predicate()
        matches = sum(1 for r in ref.support() if pred(r))
        qubit = self.n + ref.free_temps()[0]
        self.step(f"BACKUP WHERE {pred.text};",
                  f"backup active: {matches} records protected (safe qubit {qubit})",
                  lambda: ref.backup(pred))
        self.safe_matches = matches

    def restore(self) -> None:
        ref = self.ref
        if ref.safe_temp is None:
            return
        trial = copy.deepcopy(ref)
        try:
            probability = trial.restore(True)
        except ValueError:
            probability = 0.0
        if probability >= 1e-3:
            out = self.execute("RESTORE PURGE;")
            self.ref = trial
            self.verify("RESTORE PURGE")
            check_probability(out, probability, "RESTORE PURGE")
        else:
            self.step("RESTORE;", "restored; safe key still active", lambda: ref.restore(False))

    def update(self) -> None:
        rng, ref, n = self.rng, self.ref, self.n
        live = ref.support()
        if ref.safe_temp is None:
            absent = sorted(set(range(1 << n)) - set(live))
            if not absent:
                return
            m = rng.randint(1, min(3, len(live), len(absent)))
            pairs = list(zip(rng.sample(live, m), rng.sample(absent, m)))
        else:
            ends = rng.sample(range(1 << n), 2 * rng.randint(1, min(3, 1 << (n - 1))))
            pairs = list(zip(ends[0::2], ends[1::2]))
        text = ", ".join(f"{label(x, self.fields)} TO {label(y, self.fields)}" for x, y in pairs)
        self.step(f"UPDATE SET {text};", f"ok: updated {len(pairs)} pair(s)",
                  lambda: ref.update(pairs))

    def show(self) -> None:
        out = self.execute("SHOW FULL;" if self.rng.random() < 0.3 else "SHOW;")
        self.verify("SHOW")
        check_show(out, self.session.db.state.amps)

    def measure(self) -> None:
        shots, seed = self.rng.randint(100, 500), self.rng.randrange(1, 1 << 63)
        out = self.execute(f"MEASURE {shots} SEED {seed};")
        self.verify("MEASURE")
        amps = self.session.db.state.amps
        error = float(np.max(np.abs(amps - self.reference_state())))
        expect(error <= 1e-9, f"state differs from RefDb by {error:.3e} before MEASURE")
        check_histogram(out, amps, shots, seed, self.fields, self.t)

    def save_load(self) -> None:
        ref, n = self.ref, self.n
        if any(use[0] != "safe" for use in ref.alloc.values()):
            return
        safe = "SAFE none" if ref.safe_temp is None else (
            f"SAFE {n + ref.safe_temp} {self.safe_matches} ")
        fields = " ".join(f"{name}:{width}" for name, width in self.fields)
        dense = self.reference_state()
        indices = np.nonzero(dense)[0]
        _save_load(self.h, self.session, self.name,
                   [f"SCHEMA s {fields}", f"TEMP {self.t}", safe],
                   indices, dense[indices].astype(np.complex128), 1e-9)
        self.verify("LOAD")


def small_scripts(h, seed: int, index: int) -> None:
    """One short generated script on a register of 2 to 10 data bits."""
    rng = random.Random(f"small-scripts/{seed}/{index}")
    n = rng.randint(2, 10)
    split = rng.randint(1, n - 1) if rng.random() < 0.5 else n
    fields = (("a", split), ("b", n - split)) if split < n else (("a", n),)
    _SmallScript(h, rng, fields, rng.choice((3, 4)), f"small-scripts-{seed}").run()


WORKLOADS = {
    "large-mix": (large_mix, "CREATE TABLE big (a:9, b:9) TEMP 3;"),
    "small-scripts": (small_scripts, "CREATE TABLE s (a:3, b:3) TEMP 3;"),
    "write-chain": (write_chain, "CREATE TABLE w (k:14) TEMP 2;"),
}
