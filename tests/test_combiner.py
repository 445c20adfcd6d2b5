"""APPLY's combiner flipped once per satisfying flag pattern against the
Reed-Muller monomial path, for every Boolean function of one to three flags:
the same outputs, register and temp allocation, and 2 * min(patterns,
monomials) CNOT passes."""

import copy
import itertools

import numpy as np
import pytest
from helpers import monomial_combiner_gates

from qqldb import qdb
from qqldb.boolcirc import TruthTable, to_reed_muller
from qqldb.cli import Session
from qqldb.errors import QqlError
from qqldb.gates import CnotGate
from qqldb.statevec import StateVector

FLAGS = ["c1", "c2", "c3"]
PAYLOADS = ["H @ a BIT 0", "NOT @ b BIT 1", "SWAP (a=1, b=2) TO (a=3, b=0)"]


def flagged_session(flags: int) -> Session:
    """Sixteen records and ``flags`` select flags that split them unevenly."""
    session = Session()
    predicates = ["a >= 2", "b < 2", "a = 1 OR b = 3"]
    session.execute_text(
        "CREATE TABLE t (a:2, b:2) TEMP 4; INSERT ALL 4;"
        + "".join(f"SELECT {FLAGS[i]} WHERE {predicates[i]};" for i in range(flags))
    )
    return session


def when_text(bits: tuple[int, ...], flags: int) -> str:
    """The function whose truth table is ``bits`` (flag 0 the most significant
    variable) as a WHEN clause naming every flag: its disjunctive normal form,
    or ``c1 AND NOT c1 AND …`` for the constant 0."""
    names = FLAGS[:flags]
    terms = [
        " AND ".join(name if pattern >> (flags - 1 - j) & 1 else f"NOT {name}"
                     for j, name in enumerate(names))
        for pattern, bit in enumerate(bits) if bit
    ]
    if not terms:
        return " AND ".join(names + ["NOT c1"])
    return " OR ".join(f"({term})" for term in terms)


def run_apply(session: Session, text: str):
    """APPLY on a copy of ``session``: its output or error, the register after
    + 0.0 (so -0.0 reads as 0.0), the temp allocation, and how many CNOTs ran."""
    session = copy.deepcopy(session)
    calls = []
    apply_cnot = StateVector.apply_cnot

    def counted(self, *args):
        calls.append(args)
        return apply_cnot(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StateVector, "apply_cnot", counted)
        try:
            (output,) = session.execute_text(text)
        except QqlError as exc:
            output = f"error: {exc}"
    amps = session.db.state.amps + 0.0
    return output, amps.tobytes(), dict(session.db.temp_alloc), len(calls)


@pytest.mark.parametrize("flags", [1, 2, 3])
@pytest.mark.parametrize("payload", PAYLOADS)
def test_every_function_matches_the_monomial_path(flags, payload):
    session = flagged_session(flags)
    for bits in itertools.product((0, 1), repeat=1 << flags):
        text = f"APPLY {payload} WHEN {when_text(bits, flags)};"
        output, amps, alloc, cnots = run_apply(session, text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qdb, "combiner_gates", monomial_combiner_gates)
            expected = run_apply(session, text)
        assert (output, amps, alloc) == expected[:3], text
        assert output.startswith("applied on flags"), output
        table = TruthTable(flags, np.array(bits, dtype=bool))
        patterns, monomials = sum(bits), len(to_reed_muller(table).monomials)
        assert cnots == 2 * min(patterns, monomials), text
        assert expected[3] == 2 * monomials


def test_pattern_gates_take_the_zero_flags_as_negative_controls():
    # c1 AND NOT c2: one pattern against the monomials c1 and c1·c2
    table = TruthTable(2, np.array([0, 0, 1, 0], dtype=bool))
    assert qdb.combiner_gates(table, [5, 6], 7) == [(CnotGate(frozenset([5]), 7), [6])]
    # c1 XOR c2: two patterns against two monomials, so the patterns
    table = TruthTable(2, np.array([0, 1, 1, 0], dtype=bool))
    assert qdb.combiner_gates(table, [5, 6], 7) == [
        (CnotGate(frozenset([6]), 7), [5]), (CnotGate(frozenset([5]), 7), [6])
    ]
    # c1 OR c2 OR c3: seven patterns against seven monomials, so the patterns
    table = TruthTable(3, np.array([0] + [1] * 7, dtype=bool))
    gates = qdb.combiner_gates(table, [4, 5, 6], 7)
    assert [(sorted(gate.controls), zeros) for gate, zeros in gates] == [
        ([6], [4, 5]), ([5], [4, 6]), ([5, 6], [4]), ([4], [5, 6]),
        ([4, 6], [5]), ([4, 5], [6]), ([4, 5, 6], []),
    ]
    # the constant 1 on three flags: one monomial against eight patterns
    table = TruthTable(3, np.ones(8, dtype=bool))
    assert qdb.combiner_gates(table, [4, 5, 6], 7) == [(CnotGate(frozenset(), 7), [])]
