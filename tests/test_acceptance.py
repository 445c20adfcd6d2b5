"""Acceptance suite: one test per criterion, each printing a pass line.

Derived expectations come from independent oracles: explicit dense matrices,
classical gate-list replays, closed-form amplitude arithmetic, and the sparse
reference interpreter in refmodel.py.
"""

import copy
import math
import time

import numpy as np
import pytest

from helpers import (
    dense_embed,
    dense_partial_diffusion,
    permutation_gate,
    random_state,
    reference_eval,
)
from refmodel import RefDb
from qqldb.boolcirc import (
    And,
    BoolExpr,
    Comparison,
    Const,
    Not,
    Or,
    Var,
    compile_to_cnots,
    to_reed_muller,
    truth_table,
)
from qqldb.cli import Session, SessionConfig, run_script
from qqldb.diffusion import apply_partial_diffusion
from qqldb.errors import QqlError
from qqldb.gates import CnotGate, HADAMARD
from qqldb.qdb import QdbState
from qqldb.qlang import render_expr
from qqldb.schema import TableSchema
from qqldb.statevec import StateVector


def report(num: int, text: str):
    print(f"[criterion {num:02d}] PASS - {text}")


# --------------------------------------------------------------------- 1


def test_criterion_01_boolean_circuit_worked_example():
    schema = TableSchema("bits", (("x0", 1), ("x1", 1)))
    expr = Or(Var("x0"), Not(Var("x1")))
    gates = compile_to_cnots(to_reed_muller(truth_table(expr, schema)), [0, 1], 2)
    assert gates == [
        CnotGate(frozenset({0, 1}), 2),
        CnotGate(frozenset({1}), 2),
        CnotGate(frozenset(), 2),
    ]
    for x0 in (0, 1):
        for x1 in (0, 1):
            amps = np.zeros(8, dtype=complex)
            amps[(x0 << 2) | (x1 << 1)] = 1.0  # |x0 x1, 0>
            state = StateVector(amps)
            for gate in gates:
                state.apply_cnot(gate)
            expected = (x0 << 2) | (x1 << 1) | (x0 | (1 - x1))
            assert state.amps[expected] == pytest.approx(1.0)
    report(1, "x0 OR NOT x1 compiles to the three expected gates and maps all 4 inputs")


# --------------------------------------------------------------------- 2


def classical_gate_replay(gates, v: int) -> np.ndarray:
    """Replay a fixed-target CNOT list classically over all assignments."""
    assignments = np.arange(1 << v)
    acc = np.zeros(1 << v, dtype=bool)
    for gate in gates:
        term = np.ones(1 << v, dtype=bool)
        for q in gate.controls:
            term &= (assignments >> (v - 1 - q)) & 1 == 1
        acc ^= term
    return acc


def test_criterion_02_reed_muller_oracle_equivalence():
    rng = np.random.default_rng(2024)
    from qqldb.boolcirc import TruthTable

    for case in range(200):
        v = int(rng.integers(1, 9))
        bits = rng.integers(0, 2, size=1 << v).astype(bool)
        table = TruthTable(v, bits)
        gates = compile_to_cnots(to_reed_muller(table), list(range(v)), v)
        replay = classical_gate_replay(gates, v)
        assert np.array_equal(replay, bits), f"case {case}, v={v}"
    report(2, "200 random tables (v <= 8): compiled CNOT lists reproduce f exactly")


# --------------------------------------------------------------------- 3


def test_criterion_03_update_matrices():
    single = np.eye(8)
    single[:, [3, 7]] = single[:, [7, 3]]
    built = permutation_gate([(3, 7)], 3)
    assert np.array_equal(built.matrix.real, single)

    double = np.eye(8)
    double[:, [0, 4]] = double[:, [4, 0]]
    double[:, [2, 1]] = double[:, [1, 2]]
    built2 = permutation_gate([(0, 4), (2, 1)], 3)
    assert np.array_equal(built2.matrix.real, double)

    for gate in (built, built2):
        assert np.max(np.abs(gate.matrix @ gate.matrix - np.eye(8))) < 1e-12
    report(3, "both 8x8 update permutations reproduced entry-for-entry; squares are identity")


# --------------------------------------------------------------------- 4


def seq_step_dense(k: int, n: int = 3) -> np.ndarray:
    p = k.bit_length() - 1
    target = n - 1 - p
    pos = [n - 1 - j for j in range(p) if (k >> j) & 1]
    neg = [n - 1 - j for j in range(p) if not (k >> j) & 1]
    return dense_embed(HADAMARD.matrix, [target], n, pos, neg)


def test_criterion_04_sequential_insertion():
    db = QdbState(TableSchema("t", (("id", 3),)), t=1)
    for k in range(1, 8):
        db.insert_sequential(k)
        assert db.support().tolist() == list(range(k + 1)), f"after step {k}"
    # first three steps compose to the bulk layer inserting four records:
    # Hadamard on both low data qubits
    product = seq_step_dense(3) @ seq_step_dense(2) @ seq_step_dense(1)
    bulk_layer = np.kron(np.eye(2), np.kron(HADAMARD.matrix, HADAMARD.matrix))
    assert np.max(np.abs(product - bulk_layer)) < 1e-12
    report(4, "support after each step k is exactly {0..k}; steps 1-3 equal the bulk layer")


# --------------------------------------------------------------------- 5


def test_criterion_05_partial_diffusion():
    rng = np.random.default_rng(5)
    for case in range(100):
        n = int(rng.integers(1, 9))
        dense = dense_partial_diffusion(n).matrix
        start = random_state(n + 1, rng)
        state = StateVector(start.copy())
        apply_partial_diffusion(state, n, n)
        assert np.max(np.abs(state.amps - dense @ start)) < 1e-12, f"case {case}"

    for n in (1, 4, 8):
        start = random_state(n + 1, rng)
        state = StateVector(start.copy())
        apply_partial_diffusion(state, n, n)
        apply_partial_diffusion(state, n, n)
        assert np.max(np.abs(state.amps - start)) < 1e-12
    report(5, "fast path matches the dense operator on 100 random states; D^2 = I")


# --------------------------------------------------------------------- 6


def test_criterion_06_backup_amplitudes():
    rng = np.random.default_rng(6)
    for case in range(100):
        n = int(rng.integers(1, 9))
        schema = TableSchema("r", (("id", n),))
        alpha = random_state(n, rng)
        amps = np.zeros(1 << (n + 1), dtype=complex)
        amps[0::2] = alpha
        db = QdbState(schema, t=1, state=StateVector(amps))
        threshold = int(rng.integers(1, 1 << n))
        db.backup(Comparison("id", ">=", threshold))
        marked = np.arange(1 << n) >= threshold
        mean = alpha[~marked].sum() / (1 << n)
        view = db.state.amps.reshape(1 << n, 2)
        assert np.max(np.abs(view[~marked, 0] - (2 * mean - alpha[~marked]))) < 1e-12
        assert np.max(np.abs(view[marked, 0] - 2 * mean)) < 1e-12
        assert np.max(np.abs(view[marked, 1] + alpha[marked])) < 1e-12
        assert abs(np.linalg.norm(db.state.amps) - 1) < 1e-9, f"case {case}"

    # uniform n=2 case against the independent dense-matrix oracle
    oracle = np.eye(8)[:, [0, 1, 2, 3, 4, 5, 7, 6]]  # flip flag for record 3
    dense = dense_partial_diffusion(2).matrix
    start = np.zeros(8, dtype=complex)
    start[0::2] = 0.5
    expected = dense @ (oracle @ start)
    db = QdbState(TableSchema("t", (("id", 2),)), t=1)
    db.insert_bulk(2)
    db.backup(Comparison("id", "=", 3))
    assert np.max(np.abs(db.state.amps - expected)) < 1e-12
    view = db.state.amps.reshape(4, 2)
    assert np.allclose(view[:, 0], [0.25, 0.25, 0.25, 0.75])
    assert view[3, 1] == pytest.approx(-0.5)
    report(6, "backup amplitudes satisfy a=2<a>-a_i, b=2<a>, c=-a_i on 100 random cases")


# --------------------------------------------------------------------- helpers for 7 and 9


def predicate_fn(expr: BoolExpr, schema: TableSchema):
    return lambda rec: reference_eval(expr, rec, schema.fields)


def random_comparison(rng, schema) -> BoolExpr:
    field, width = schema.fields[rng.integers(0, len(schema.fields))]
    op = ["<", "<=", ">", ">=", "=", "!="][rng.integers(0, 6)]
    return Comparison(field, op, int(rng.integers(0, 1 << width)))


def random_predicate(rng, schema, depth: int = 2) -> BoolExpr:
    if depth == 0 or rng.random() < 0.45:
        return random_comparison(rng, schema)
    pick = rng.random()
    if pick < 0.4:
        return And(random_predicate(rng, schema, depth - 1), random_predicate(rng, schema, depth - 1))
    if pick < 0.8:
        return Or(random_predicate(rng, schema, depth - 1), random_predicate(rng, schema, depth - 1))
    return Not(random_predicate(rng, schema, depth - 1))


def combiner_evaluator(expr: BoolExpr):
    def evaluate(e, values):
        if isinstance(e, Var):
            return values[e.name]
        if isinstance(e, And):
            return evaluate(e.left, values) & evaluate(e.right, values)
        if isinstance(e, Or):
            return evaluate(e.left, values) | evaluate(e.right, values)
        if isinstance(e, Not):
            return 1 - evaluate(e.expr, values)
        if isinstance(e, Const):
            return e.value
        raise TypeError(e)

    return lambda values: bool(evaluate(expr, values))


class Mirror:
    """Drives the engine through query text and the reference interpreter
    through mirrored closed-form calls, asserting agreement at every step."""

    def __init__(self, seed: int, path: str | None = None):
        """``path`` is the session file of the SAVE/LOAD move; without it the
        move is never drawn."""
        self.rng = np.random.default_rng(seed)
        n = int(self.rng.integers(2, 7))
        t = int(self.rng.integers(2, 4))
        if n >= 2 and self.rng.random() < 0.5:
            w = int(self.rng.integers(1, n))
            fields = (("a", w), ("b", n - w))
        else:
            fields = (("a", n),)
        self.schema = TableSchema("t", fields)
        self.session = Session(SessionConfig(seed=int(self.rng.integers(1, 2**31))))
        fields_text = ", ".join(f"{name}:{width}" for name, width in fields)
        self.session.execute_text(f"CREATE TABLE t ({fields_text}) TEMP {t};")
        self.ref = RefDb(n, t)
        self.n, self.t = n, t
        self.select_count = 0
        self.path = path

    @property
    def db(self) -> QdbState:
        return self.session.db

    def check(self, statement: str):
        assert self.db.support().tolist() == self.ref.support(), statement
        engine_free = sorted(q - self.n for q in self.db.free_temps())
        assert engine_free == self.ref.free_temps(), statement
        assert (self.db.safe_key is not None) == (self.ref.safe_temp is not None), statement

    def run(self, statement: str, mirror):
        self.session.execute_text(statement)
        mirror()
        self.check(statement)

    # ---- statement emitters; each returns True if it ran

    def do_insert_all(self) -> bool:
        if self.ref.seq_fill() != 0 or self.ref.held():
            return False
        r = int(self.rng.integers(1, self.n + 1))
        self.run(f"INSERT ALL {r};", lambda: self.ref.insert_bulk(r))
        return True

    def do_insert_seq(self) -> bool:
        fill = self.ref.seq_fill()
        if fill is None or fill >= (1 << self.n) - 1 or self.ref.held():
            return False
        upto = int(self.rng.integers(fill + 1, 1 << self.n))
        self.run(f"INSERT SEQ {upto};", lambda: self.ref.insert_seq(upto))
        return True

    def do_insert_values(self) -> bool:
        fill = self.ref.seq_fill()
        if fill is None or self.ref.held():
            return False
        low, high = max(1, fill + 1), 1 << self.n
        if low > high:
            return False
        count = int(self.rng.integers(low, high + 1))
        records = sorted(self.rng.choice(1 << self.n, size=count, replace=False).tolist())
        kets = ", ".join(f"|{r:0{self.n}b}>" for r in records)
        self.run(f"INSERT VALUES {kets};", lambda: self.ref.insert_values(records))
        return True

    def do_update(self) -> bool:
        live = self.db.support().tolist()
        if not live:
            return False
        if self.db.safe_key is None:
            absent = sorted(set(range(1 << self.n)) - set(live))
            if not absent:
                return False
            src = int(self.rng.choice(live))
            dst = int(self.rng.choice(absent))
        else:
            pair = self.rng.choice(1 << self.n, size=2, replace=False)
            src, dst = int(pair[0]), int(pair[1])
        stmt = f"UPDATE SET |{src:0{self.n}b}> TO |{dst:0{self.n}b}>;"
        self.run(stmt, lambda: self.ref.update([(src, dst)]))
        return True

    def do_delete(self, keep_select: bool = False) -> bool:
        """DELETE WHERE a random predicate.  With ``keep_select`` a named
        SELECT runs first and its flag is held across the DELETE, whose
        predicate is half the time the select's own: that drains the flag,
        which is then freed, as a LOAD of the session file frees it."""
        if len(self.db.free_temps()) < 1 + keep_select:
            return False
        live = self.db.support().tolist()
        if not live:
            return False
        expr = selected = random_predicate(self.rng, self.schema)
        if keep_select and self.rng.random() < 0.5:
            expr = random_predicate(self.rng, self.schema)
        pred = predicate_fn(expr, self.schema)
        if all(pred(r) for r in live):
            return False
        safe_bit = self.ref._safe_bit()
        kept_mass = sum(
            a * a
            for (rec, temps), a in self.ref.amps.items()
            if not pred(rec) or temps & safe_bit
        )
        q = int(self.rng.integers(0, 4))
        # the closed form only filters draws; the printed probability is
        # checked against the reference's amplification rounds
        if math.sin((2 * q + 1) * math.asin(min(1.0, math.sqrt(kept_mass)))) ** 2 < 1e-6:
            return False
        if keep_select:
            self.select_count += 1
            select_pred = predicate_fn(selected, self.schema)
            self.run(
                f"SELECT c{self.select_count} WHERE {render_expr(selected)};",
                lambda: self.ref.select(select_pred),
            )
        tail = f" AMPLIFY {q}" if q else ""
        statement = f"DELETE WHERE {render_expr(expr)}{tail};"
        (out,) = self.session.execute_text(statement)
        probability = self.ref.delete(pred, q)
        assert abs(float(out.rsplit(" ", 1)[1]) - probability) <= 5e-7 + 1e-12, statement
        self.check(statement)
        return True

    def do_select_delete(self) -> bool:
        return self.do_delete(keep_select=True)

    def do_select_apply(self) -> bool:
        k = int(self.rng.integers(1, 3))
        if len(self.db.free_temps()) < k + 1:
            return False
        names = []
        for _ in range(k):
            self.select_count += 1
            name = f"c{self.select_count}"
            expr = random_predicate(self.rng, self.schema)
            pred = predicate_fn(expr, self.schema)
            self.run(
                f"SELECT {name} WHERE {render_expr(expr)};",
                lambda: self.ref.select(pred),
            )
            names.append(name)
        if k == 1:
            combiner = Var(names[0]) if self.rng.random() < 0.7 else Not(Var(names[0]))
        else:
            left = Var(names[0]) if self.rng.random() < 0.7 else Not(Var(names[0]))
            right = Var(names[1]) if self.rng.random() < 0.7 else Not(Var(names[1]))
            combiner = And(left, right) if self.rng.random() < 0.6 else Or(left, right)
        flags_local = {
            name: self.db.selects[name] - self.n for name in sorted(names)
        }
        fn = combiner_evaluator(combiner)

        roll = self.rng.random()
        if roll < 0.45:
            field, width = self.schema.fields[self.rng.integers(0, len(self.schema.fields))]
            bit = int(self.rng.integers(0, width))
            significance = self.n - self.schema.offset_of(field) - width + bit
            stmt = f"APPLY NOT @ {field} BIT {bit} WHEN {render_expr(combiner)};"
            mirror = lambda: self.ref.apply_where(flags_local, fn, "not", significance)
        elif roll < 0.7:
            field, width = self.schema.fields[self.rng.integers(0, len(self.schema.fields))]
            bit = int(self.rng.integers(0, width))
            significance = self.n - self.schema.offset_of(field) - width + bit
            stmt = f"APPLY H @ {field} BIT {bit} WHEN {render_expr(combiner)};"
            mirror = lambda: self.ref.apply_where(flags_local, fn, "h", significance)
        else:
            pair = self.rng.choice(1 << self.n, size=2, replace=False)
            a, b = int(pair[0]), int(pair[1])
            stmt = (
                f"APPLY SWAP |{a:0{self.n}b}> TO |{b:0{self.n}b}> "
                f"WHEN {render_expr(combiner)};"
            )
            mirror = lambda: self.ref.apply_where(flags_local, fn, "swap", (a, b))
        self.run(stmt, mirror)
        return True

    def do_backup(self) -> bool:
        if self.db.safe_key is not None or not self.db.free_temps():
            return False
        live = self.db.support().tolist()
        if len(live) < 2:
            return False
        expr = random_predicate(self.rng, self.schema)
        pred = predicate_fn(expr, self.schema)
        matches = sum(1 for r in live if pred(r))
        if matches == 0 or matches == len(live):
            return False
        self.run(f"BACKUP WHERE {render_expr(expr)};", lambda: self.ref.backup(pred))
        return True

    def do_restore(self) -> bool:
        if self.db.safe_key is None:
            return False
        purge = bool(self.rng.random() < 0.7)
        stmt = "RESTORE PURGE;" if purge else "RESTORE;"
        self.run(stmt, lambda: self.ref.restore(purge))
        return True

    def do_measure(self) -> bool:
        shots = int(self.rng.integers(16, 128))
        seed = int(self.rng.integers(0, 2**31))
        self.run(f"MEASURE {shots} SEED {seed};", lambda: None)
        return True

    def do_show(self) -> bool:
        self.run("SHOW;", lambda: None)
        return True

    def do_save_load(self) -> bool:
        if self.path is None:
            return False
        self.run(f'SAVE "{self.path}";', lambda: None)
        self.run(f'LOAD "{self.path}";', self.ref.load)
        return True

    def step(self):
        moves = [
            (self.do_insert_all, 1),
            (self.do_insert_seq, 2),
            (self.do_insert_values, 2),
            (self.do_update, 3),
            (self.do_delete, 3),
            (self.do_select_apply, 3),
            (self.do_select_delete, 1),
            (self.do_backup, 2),
            (self.do_restore, 2),
            (self.do_measure, 1),
            (self.do_show, 1),
            (self.do_save_load, 1),
        ]
        names = np.arange(len(moves))
        weights = np.array([w for _, w in moves], dtype=float)
        order = self.rng.choice(names, size=len(moves), replace=False, p=weights / weights.sum())
        for idx in order:
            if moves[idx][0]():
                return


# --------------------------------------------------------------------- 7


def test_criterion_07_restore_round_trip():
    rng = np.random.default_rng(7)
    for scenario in range(50):
        mirror = Mirror(seed=int(rng.integers(0, 2**31)))
        # populate
        if not mirror.do_insert_all():
            mirror.do_insert_values() or mirror.do_insert_seq()
        live = mirror.db.support().tolist()
        if len(live) < 2:
            continue
        # choose a backup predicate with a proper nonempty match subset
        expr = None
        for _ in range(30):
            candidate = random_predicate(mirror.rng, mirror.schema)
            pred = predicate_fn(candidate, mirror.schema)
            matches = [r for r in live if pred(r)]
            if 0 < len(matches) < len(live):
                expr, backed_up = candidate, matches
                break
        if expr is None:
            continue
        pred = predicate_fn(expr, mirror.schema)
        mirror.run(f"BACKUP WHERE {render_expr(expr)};", lambda: mirror.ref.backup(pred))
        for _ in range(int(mirror.rng.integers(1, 4))):
            mirror.do_update()
        purge = bool(mirror.rng.random() < 0.5)
        stmt = "RESTORE PURGE;" if purge else "RESTORE;"
        mirror.run(stmt, lambda: mirror.ref.restore(purge))
        support_after = set(mirror.db.support())
        for record in backed_up:
            assert record in support_after, f"scenario {scenario}: lost record {record}"
    report(7, "50 random backup/corrupt/restore scenarios return every protected record")


# --------------------------------------------------------------------- 8


def test_criterion_08_delete_probability_and_support():
    rng = np.random.default_rng(8)
    for case in range(100):
        n = int(rng.integers(2, 7))
        schema = TableSchema("t", (("id", n),))
        db = QdbState(schema, t=1)
        style = rng.random()
        if style < 0.4:
            db.insert_bulk(int(rng.integers(1, n + 1)))
        elif style < 0.7:
            db.insert_sequential(int(rng.integers(1, 1 << n)))
        else:
            count = int(rng.integers(1, (1 << n) + 1))
            db.insert_values(sorted(rng.choice(1 << n, size=count, replace=False).tolist()))
        live = db.support().tolist()
        expr = random_predicate(rng, schema)
        pred = predicate_fn(expr, schema)
        matching = {r for r in live if pred(r)}
        if matching == set(live):
            continue
        indices, amplitudes = db.show_state()
        probabilities = amplitudes.real**2 + amplitudes.imag**2
        matching_mass = sum(
            p for r, p in zip((indices >> db.t).tolist(), probabilities.tolist()) if pred(r)
        )
        probability = db.delete(expr)
        assert probability == pytest.approx(1 - matching_mass, abs=1e-12), f"case {case}"
        assert db.support().tolist() == sorted(set(live) - matching), f"case {case}"
    report(8, "delete probability equals the non-matching mass; support is the set difference")


# --------------------------------------------------------------------- 9


def test_criterion_09_set_model_conformance(tmp_path):
    rng = np.random.default_rng(9)
    scripts = 0
    statements = 0
    while scripts < 1000:
        mirror = Mirror(seed=int(rng.integers(0, 2**31)), path=str(tmp_path / "mirror.qdb"))
        steps = int(rng.integers(5, 11))
        for _ in range(steps):
            mirror.step()
            statements += 1
        scripts += 1
    report(9, f"{scripts} randomized scripts ({statements} statements) agree with the reference")


def engine_snapshot(mirror: Mirror):
    db = mirror.db
    # temp_alloc holds the select names
    return (db, db.state.amps.tobytes(), dict(db.temp_alloc), db.safe_key,
            mirror.session._seed_stream._state)


def failing_statements(mirror: Mirror, missing: str) -> list[str]:
    """Statements that must fail in the mirror's current state."""
    db, n = mirror.db, mirror.n
    name, width = mirror.schema.fields[0]
    live = db.support().tolist()
    statements = [
        "DELETE WHERE nosuch = 0;",
        f"SELECT z WHERE {name} = {1 << width};",
        f"DELETE WHERE {name} >= 0;",
        f"APPLY NOT @ {name} WHEN nosuch;",
        "MEASURE 16777217;",
        f'LOAD "{missing}";',
    ]
    if db.safe_key is None and len(live) >= 2:
        statements.append(f"UPDATE SET |{live[0]:0{n}b}> TO |{live[-1]:0{n}b}>;")
    fill = mirror.ref.seq_fill()
    if fill is None:
        statements.append(f"INSERT SEQ {(1 << n) - 1};")
    elif mirror.ref.held() and fill < (1 << n) - 1:
        statements.append(f"INSERT SEQ {fill + 1};")
    if fill != 0 or mirror.ref.held():
        statements.append("INSERT ALL 1;")
    if db.safe_key is None:
        statements.append("RESTORE;")
    else:
        statements.append(f"BACKUP WHERE {name} = 0;")
    if not db.free_temps():
        statements.append(f"SELECT z WHERE {name} = 0;")
        if db.selects:
            statements.append(f"APPLY NOT @ {name} WHEN {min(db.selects)};")
    return statements


def inject_failures(mirror: Mirror, missing: str) -> list[str]:
    """Run each failing statement; returns their error messages."""
    messages = []
    for statement in failing_statements(mirror, missing):
        before = engine_snapshot(mirror)
        with pytest.raises(QqlError) as failure:
            mirror.session.execute_text(statement)
        assert engine_snapshot(mirror) == before, statement
        mirror.check(statement)
        messages.append(str(failure.value))
    return messages


def insert_probes(rng, n: int, fill: int | None) -> list[str]:
    """INSERT ALL 1, INSERT SEQ one past ``fill`` (of the last record when
    there is no fill or none past it) and INSERT VALUES of a random record
    set, mostly large enough to cover the fill."""
    upto = fill + 1 if fill is not None and fill + 1 < 1 << n else (1 << n) - 1
    count = int(rng.integers((fill or 0) + 1, (1 << n) + 1))
    kets = ", ".join(f"|{r:0{n}b}>" for r in sorted(rng.choice(1 << n, count, replace=False)))
    return ["INSERT ALL 1;", f"INSERT SEQ {upto};", f"INSERT VALUES {kets};"]


def insert_outcome(session: Session, statement: str):
    try:
        return session.execute_text(statement)
    except (QqlError, ValueError) as exc:
        return type(exc), str(exc)


def test_save_load_copy_accepts_the_same_inserts(tmp_path):
    # LOAD(SAVE(s)) answers every INSERT as s does: after each statement of
    # 200 mirrored scripts, each probe runs on a copy of the live session
    # and on a session loaded from its SAVE file
    rng = np.random.default_rng(13)
    saved = str(tmp_path / "copy.qdb")
    probes = 0
    for _ in range(200):
        mirror = Mirror(seed=int(rng.integers(0, 2**31)), path=str(tmp_path / "mirror.qdb"))
        for _ in range(int(rng.integers(5, 11))):
            mirror.step()
            mirror.session.execute_text(f'SAVE "{saved}";')
            for statement in insert_probes(rng, mirror.n, mirror.ref.seq_fill()):
                live, restored = copy.deepcopy(mirror.session), Session()
                restored.execute_text(f'LOAD "{saved}";')
                live_outcome = insert_outcome(live, statement)
                assert live_outcome == insert_outcome(restored, statement), statement
                probes += 1
    report(9, f"{probes} INSERTs answered alike by a session and its SAVE/LOAD copy")


def test_failed_statements_change_nothing(tmp_path):
    # ROADMAP aim 3: a statement either completes or leaves the register,
    # the temp allocation, the safe key, the select names and the seed stream
    # as they were, and the script goes on agreeing with
    # the reference
    rng = np.random.default_rng(2024)
    missing = str(tmp_path / "missing.qdb")
    messages = []
    for _ in range(200):
        mirror = Mirror(seed=int(rng.integers(0, 2**31)), path=str(tmp_path / "mirror.qdb"))
        for _ in range(int(rng.integers(5, 11))):
            mirror.step()
            messages += inject_failures(mirror, missing)
        # take every free temp with a select flag, then fail for want of one
        while mirror.db.free_temps():
            mirror.select_count += 1
            expr = random_predicate(mirror.rng, mirror.schema)
            pred = predicate_fn(expr, mirror.schema)
            mirror.run(f"SELECT c{mirror.select_count} WHERE {render_expr(expr)};",
                       lambda: mirror.ref.select(pred))
        messages += inject_failures(mirror, missing)
    for cause in ("unknown field", "does not fit field", "matches every live record",
                  "unknown select name", "shots exceed", "cannot read", "already exists",
                  "sequential insert requires", "no active backup", "already active",
                  "bulk insert requires a fresh database",
                  "insert requires every temporary qubit to be free",
                  "no free temporary qubit for select", "no free temporary qubit for combiner"):
        assert any(cause in message for message in messages), cause


# --------------------------------------------------------------------- 10


SCRIPT_FOR_DETERMINISM = """
CREATE TABLE t (id:3) TEMP 2;
INSERT SEQ 6;
SELECT c1 WHERE id >= 4;
APPLY NOT @ id BIT 0 WHEN c1;
DELETE WHERE id = 2;
MEASURE 400;
BACKUP WHERE id <= 1;
SHOW;
MEASURE 300 SEED 17;
"""


def test_criterion_10_determinism_and_persistence(tmp_path):
    script = tmp_path / "determinism.qql"
    script.write_text(SCRIPT_FOR_DETERMINISM)
    first, status_a = run_script(str(script), Session(SessionConfig(seed=99)))
    second, status_b = run_script(str(script), Session(SessionConfig(seed=99)))
    assert status_a == 0 and status_b == 0
    assert first == second

    session = Session(SessionConfig(seed=99))
    session.execute_text(
        "CREATE TABLE t (id:2) TEMP 1; INSERT ALL 2; BACKUP WHERE id = 3;"
    )
    path = str(tmp_path / "round.qdb")
    session.save_session(path)
    reloaded = Session()
    reloaded.load_session(path)
    assert np.array_equal(reloaded.db.state.amps, session.db.state.amps)
    assert reloaded.db.safe_key.qubit == session.db.safe_key.qubit
    report(10, "fixed-seed transcripts byte-identical; session round-trip is bit-exact")


# --------------------------------------------------------------------- 11


def test_criterion_11_performance_floor():
    n = 20
    schema = TableSchema("big", (("id", n),))
    db = QdbState(schema, t=1, max_qubits=22)
    db.insert_bulk(n)
    expr = And(Comparison("id", ">=", 1 << 10), Comparison("id", "<", 3 << 10))
    start = time.perf_counter()
    table = truth_table(expr, schema)
    from qqldb.boolcirc import apply_oracle

    apply_oracle(db.state, table, db.data_qubits, n)
    apply_partial_diffusion(db.state, n, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"oracle + diffusion took {elapsed:.3f}s"
    report(11, f"oracle + partial diffusion on 2^21 amplitudes in {elapsed:.3f}s (< 2s)")
