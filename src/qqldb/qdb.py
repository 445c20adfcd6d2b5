"""The query-operator engine: a schema-aware database session whose records
live as basis states of one quantum register.

Layout: the first ``n`` qubits hold the record bits, the last ``t`` qubits are
temporaries for oracle flags, combiners and the backup safe key.  INSERT is
Hadamard layers or controlled-Hadamard steps, UPDATE is a basis permutation,
SELECT entangles a flag qubit through an oracle, DELETE post-selects a flag,
BACKUP/RESTORE pair an oracle with partial diffusion.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .boolcirc import (
    BoolExpr,
    apply_oracle,
    compile_to_cnots,
    to_reed_muller,
    truth_table,
    validate_expr,
)
from .diffusion import DiffusionParams, apply_partial_diffusion
from .errors import CapacityError, ImpossibleOutcomeError, QqlError, SchemaError
from .gates import HADAMARD, GateMatrix
from .schema import Record, TableSchema
from .statevec import DEFAULT_EPSILON, DEFAULT_MAX_QUBITS, StateVector

DEFAULT_TEMP_QUBITS = 3
SUPPORT_TOL = 1e-9
RESIDUE_TOL = 1e-12
# Amplitudes per block of the support scan.
SUPPORT_BLOCK = 1 << 14


@dataclass
class LogEntry:
    op: str
    info: dict


@dataclass(frozen=True)
class StateRow:
    """One nonzero component: record bits, temp bits, amplitude, probability."""

    index: int
    record: Record
    temp_bits: str
    amplitude: complex
    probability: float


@dataclass
class TempUse:
    purpose: str
    expr: BoolExpr | None = None


@dataclass(frozen=True)
class SafeKey:
    qubit: int
    expr: BoolExpr
    matches: int


@dataclass(frozen=True)
class ApplyGate:
    """Named-gate payload for conditional application: a small unitary on an
    ordered tuple of data qubits."""

    gate: GateMatrix
    targets: tuple[int, ...]


@dataclass(frozen=True)
class ApplySwap:
    """Record-swap payload for conditional application: exchange two basis
    indices of the data register."""

    index_a: int
    index_b: int


RecordLike = Union[Record, int]


class QdbState:
    """A database session: state vector over ``n + t`` qubits plus temp-qubit
    allocation, the optional safe key, and an operation log.

    Single writer; every operation mutates in place.  Amplitude
    non-uniformity after sequential inserts and after a backup is inherent and
    surfaced by :meth:`show_state` rather than corrected.
    """

    def __init__(
        self,
        schema: TableSchema,
        t: int = DEFAULT_TEMP_QUBITS,
        max_qubits: int = DEFAULT_MAX_QUBITS,
        epsilon: float = DEFAULT_EPSILON,
        state: StateVector | None = None,
    ):
        if t < 1:
            raise ValueError("need at least one temporary qubit")
        n = schema.num_bits
        if n + t > max_qubits:
            raise CapacityError(
                f"{n} data + {t} temp qubits exceed the {max_qubits}-qubit capacity"
            )
        if state is not None and state.num_qubits != n + t:
            raise ValueError("provided state does not match schema plus temp count")
        self.schema = schema
        self.t = t
        self.max_qubits = max_qubits
        self.epsilon = epsilon
        self.state = state if state is not None else StateVector.zero(n + t, max_qubits)
        self.temp_alloc: dict[int, TempUse] = {}
        self.safe_key: SafeKey | None = None
        self.log: list[LogEntry] = []
        self._seq_fill: int | None = 0

    # ------------------------------------------------------------------ layout

    @property
    def n(self) -> int:
        return self.schema.num_bits

    @property
    def data_qubits(self) -> list[int]:
        return list(range(self.n))

    def free_temps(self) -> list[int]:
        return [q for q in range(self.n, self.n + self.t) if q not in self.temp_alloc]

    def _alloc_temp(self, purpose: str, expr: BoolExpr | None = None) -> int:
        free = self.free_temps()
        if not free:
            raise QqlError(f"no free temporary qubit for {purpose}")
        qubit = free[0]
        self.temp_alloc[qubit] = TempUse(purpose, expr)
        return qubit

    def _free_temp(self, qubit: int) -> None:
        self.temp_alloc.pop(qubit, None)

    def _temp_column_mask(self, qubit: int) -> int:
        """Bit of ``qubit`` inside a temp-column index (temp qubits only)."""
        return 1 << (self.t - 1 - (qubit - self.n))

    def _view(self) -> np.ndarray:
        return self.state.amps.reshape(1 << self.n, 1 << self.t)

    def _live_columns(self) -> list[int]:
        if self.safe_key is None:
            return list(range(1 << self.t))
        safe_bit = self._temp_column_mask(self.safe_key.qubit)
        return [c for c in range(1 << self.t) if not c & safe_bit]

    def support(self) -> list[int]:
        """Live record indices: data values carrying probability mass in the
        safe-key-0 subspace (all columns when no backup is active)."""
        view = self._view()
        columns = self._live_columns()
        step = max(1, SUPPORT_BLOCK >> self.t)
        found = []
        # in blocks of rows, so the temporaries stay far below the register
        for start in range(0, view.shape[0], step):
            part = view[start : start + step]
            mass = (part.real**2 + part.imag**2)[:, columns].sum(axis=1)
            found.append(np.flatnonzero(mass > SUPPORT_TOL * SUPPORT_TOL) + start)
        return np.concatenate(found).tolist()

    # ------------------------------------------------------------------ insert

    def insert_bulk(self, r: int) -> "QdbState":
        """Insert ``2^r`` records at once: a Hadamard on each of the r least
        significant data qubits, yielding records 0 .. 2^r - 1 on a fresh
        database."""
        n = self.n
        if r < 0 or r > n:
            raise ValueError(f"bulk exponent {r} out of range 0..{n}")
        for q in range(n - r, n):
            self.state.apply_unitary(HADAMARD, [q])
        self.state._assert_norm()
        self._seq_fill = (1 << r) - 1 if self._seq_fill == 0 else None
        self.log.append(LogEntry("insert_bulk", {"r": r}))
        return self

    def _seq_steps(self, upto_k: int) -> None:
        """Sequential steps ``_seq_fill + 1`` to ``upto_k``.  Step k adds
        record k: a Hadamard on the bit ``p = floor(log2 k)``, controlled on
        the p low data bits holding ``k - 2^p``.  The steps of one level p
        share target and control qubits and differ only in the control value,
        so they touch disjoint amplitudes and run as one gate restricted to
        that range of values."""
        n = self.n
        k = self._seq_fill + 1
        while k <= upto_k:
            p = k.bit_length() - 1
            last = min(upto_k, (2 << p) - 1)
            self.state.apply_controlled(
                HADAMARD, targets=[n - 1 - p], run=range(n - p, n),
                rows=range(k - (1 << p), last - (1 << p) + 1),
            )
            k = last + 1
        self.state._assert_norm()

    def insert_sequential(self, upto_k: int) -> "QdbState":
        """Insert records one at a time until the support is {0, ..., upto_k}."""
        n = self.n
        if upto_k < 1 or upto_k > (1 << n) - 1:
            raise ValueError(f"record index {upto_k} out of range 1..{(1 << n) - 1}")
        if self._seq_fill is None:
            raise QqlError("sequential insert requires a fresh or sequentially filled database")
        if upto_k <= self._seq_fill:
            raise ValueError(f"database already filled to {self._seq_fill}")
        self._seq_steps(upto_k)
        self._seq_fill = upto_k
        self.log.append(LogEntry("insert_sequential", {"upto": upto_k}))
        return self

    def insert_values(self, records: Sequence[RecordLike]) -> "QdbState":
        """Make the support exactly the requested record set: sequential
        insertion of the right count, then one permutation that relabels the
        sequence onto the targets."""
        count = len(records)
        if count < 1 or count > 1 << self.n:
            raise CapacityError(f"{count} records do not fit {self.n} data bits")
        indices = [self._as_index(r) for r in records]
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate records in INSERT VALUES")
        if self._seq_fill is None:
            raise QqlError("insert requires a fresh or sequentially filled database")
        if count - 1 < self._seq_fill:
            raise ValueError(
                f"{count} records cannot cover the {self._seq_fill + 1} already present"
            )
        if count - 1 > self._seq_fill:
            self._seq_steps(count - 1)
        sequence = set(range(count))
        requested = set(indices)
        swaps = list(zip(sorted(sequence - requested), sorted(requested - sequence)))
        self._swap_records(swaps, self._live_columns())
        self._seq_fill = count - 1 if requested == sequence else None
        self.log.append(LogEntry("insert_values", {"records": sorted(requested)}))
        return self

    def _as_index(self, record: RecordLike) -> int:
        if isinstance(record, Record):
            return self.schema.encode(record)
        index = int(record)
        if index < 0 or index >= 1 << self.n:
            raise SchemaError(f"record index {index} out of range for {self.n} data bits")
        return index

    # ------------------------------------------------------------------ update

    def _swap_records(self, pairs: Sequence[tuple[int, int]], columns: Sequence[int]) -> None:
        """Exchange the data rows of every disjoint index pair within the given
        temp columns, as one fancy-index assignment on the (2^n data x 2^t
        temp) view."""
        if not pairs:
            return
        a, b = np.array(pairs, dtype=np.int64).T
        rows, sources = np.concatenate([a, b]), np.concatenate([b, a])
        view = self._view()
        view[np.ix_(rows, columns)] = view[np.ix_(sources, columns)]

    def update(self, pairs: Sequence[tuple[RecordLike, RecordLike]]) -> "QdbState":
        """Relabel records by disjoint transpositions; amplitudes ride along
        untouched.  Under an active backup the permutation is controlled on
        the safe key being 0, so the protected copy never moves."""
        swaps = [(self._as_index(src), self._as_index(dst)) for src, dst in pairs]
        flat = [i for pair in swaps for i in pair]
        if len(set(flat)) != len(flat):
            raise ValueError("update pairs must be disjoint transpositions")
        if self.safe_key is None:
            # uniqueness within the live database; a backup smears support
            # over every basis state, so the check only makes sense without one.
            # A pair whose source is absent acts as the reverse move (that is
            # how applying the same update twice undoes it), so only a pair
            # with both endpoints live is a collision.
            live = set(self.support())
            for src, dst in swaps:
                if src in live and dst in live:
                    raise SchemaError(
                        f"record {dst} already exists; update would break uniqueness"
                    )
        self._swap_records(swaps, self._live_columns())
        self._seq_fill = None
        self.log.append(LogEntry("update", {"pairs": swaps}))
        return self

    # ------------------------------------------------------------------ select / apply

    def select(self, expr: BoolExpr) -> int:
        """Entangle a fresh temp qubit with the predicate: matching records
        end up flagged |1>.  Returns the flag's qubit index."""
        validate_expr(expr, self.schema)
        table = truth_table(expr, self.schema)
        qubit = self._alloc_temp("select", expr)
        apply_oracle(self.state, table, self.data_qubits, qubit)
        self.log.append(LogEntry("select", {"qubit": qubit}))
        return qubit

    def apply_where(
        self,
        flags: Mapping[str, int],
        combiner: BoolExpr,
        operation: Union[ApplyGate, ApplySwap],
        uncompute_flags: bool = True,
    ) -> "QdbState":
        """Combine select flags onto one extra temp qubit and apply the
        operation controlled on it (and on the safe key being 0 when a backup
        is active).

        The combiner circuit is always uncomputed.  Flag oracles are
        re-applied afterwards by default; a flag whose record moved across
        its own predicate cannot return to |0> exactly, and such a qubit is
        kept allocated as residue instead of being handed out again.
        """
        flag_map = dict(flags)
        for name, qubit in flag_map.items():
            use = self.temp_alloc.get(qubit)
            if use is None or use.purpose != "select":
                raise QqlError(f"{name!r} ({qubit}) is not an active select flag")
        mini = TableSchema("_flags", tuple((name, 1) for name in flag_map))
        validate_expr(combiner, mini)
        self._check_operation(operation)
        combiner_qubit = self._alloc_temp("combiner")
        gates = compile_to_cnots(
            to_reed_muller(truth_table(combiner, mini)),
            [flag_map[name] for name in flag_map],
            combiner_qubit,
        )
        for gate in gates:
            self.state.apply_cnot(gate)

        neg = [self.safe_key.qubit] if self.safe_key else []
        if isinstance(operation, ApplyGate):
            self.state.apply_controlled(
                operation.gate, [combiner_qubit], neg, list(operation.targets)
            )
            self.state._assert_norm()
        else:
            comb_bit = self._temp_column_mask(combiner_qubit)
            live = [c for c in self._live_columns() if c & comb_bit]
            self._swap_records([(operation.index_a, operation.index_b)], live)

        for gate in reversed(gates):
            self.state.apply_cnot(gate)
        self._free_temp(combiner_qubit)

        if uncompute_flags:
            for qubit in flag_map.values():
                expr = self.temp_alloc[qubit].expr
                apply_oracle(
                    self.state, truth_table(expr, self.schema), self.data_qubits, qubit
                )
                if self.state.probability_of(qubit, 1) < RESIDUE_TOL:
                    self._free_temp(qubit)
                else:
                    self.temp_alloc[qubit] = TempUse("residue")
        self._seq_fill = None
        self.log.append(LogEntry("apply_where", {"flags": sorted(flag_map)}))
        return self

    def _check_operation(self, operation: Union[ApplyGate, ApplySwap]) -> None:
        """Reject a payload before any gate runs, so a failed APPLY leaves
        the state and the temp allocation untouched."""
        if isinstance(operation, ApplyGate):
            targets = operation.targets
            if len(set(targets)) != len(targets) or not all(0 <= q < self.n for q in targets):
                raise ValueError(f"gate targets {targets} are not distinct data qubits")
            if operation.gate.num_qubits != len(targets):
                raise ValueError(
                    f"{operation.gate.num_qubits}-qubit gate does not fit {len(targets)} targets"
                )
        elif isinstance(operation, ApplySwap):
            for idx in (operation.index_a, operation.index_b):
                if idx < 0 or idx >= 1 << self.n:
                    raise ValueError(f"record index {idx} out of range")
        else:
            raise TypeError(f"unsupported operation payload {operation!r}")

    # ------------------------------------------------------------------ delete

    def delete(self, expr: BoolExpr, amplify_iters: int = 0) -> float:
        """Mark matching records on a temp flag, optionally run
        oracle/diffusion rounds, then post-select the flag on 0.  Returns the
        outcome probability at measurement time."""
        validate_expr(expr, self.schema)
        if amplify_iters < 0:
            raise ValueError("amplify_iters must be >= 0")
        if amplify_iters > 0 and self.safe_key is not None:
            raise QqlError("amplification is not supported while a backup is active")
        table = truth_table(expr, self.schema)
        live = self.support()
        if live and all(table.bits[r] for r in live):
            raise ImpossibleOutcomeError("predicate matches every live record")
        qubit = self._alloc_temp("delete", expr)
        neg = [self.safe_key.qubit] if self.safe_key else []
        # amplification is not a permutation, so only it needs a snapshot; a
        # lone oracle is undone by applying it again
        snapshot = self.state.amps.copy() if amplify_iters else None
        try:
            apply_oracle(self.state, table, self.data_qubits, qubit, neg_controls=neg)
            for i in range(amplify_iters):
                if i:
                    apply_oracle(self.state, table, self.data_qubits, qubit, neg_controls=neg)
                apply_partial_diffusion(self.state, DiffusionParams(self.n), flag_qubit=qubit)
            if amplify_iters:
                self.state._assert_norm()
            probability = self.state.postselect(qubit, 0, self.epsilon)
        except ImpossibleOutcomeError:
            if snapshot is None:
                apply_oracle(self.state, table, self.data_qubits, qubit, neg_controls=neg)
            else:
                self.state.amps[:] = snapshot
            self._free_temp(qubit)
            raise
        self._free_temp(qubit)
        self._seq_fill = None
        self.log.append(
            LogEntry("delete", {"probability": probability, "amplify": amplify_iters})
        )
        return probability

    # ------------------------------------------------------------------ backup / restore

    def backup(self, expr: BoolExpr) -> "QdbState":
        """Protect matching records: oracle onto a fresh temp qubit (the safe
        key) followed by partial diffusion, which leaves the original copy
        entangled with |1> and re-spreads a working copy in the |0> subspace."""
        if self.safe_key is not None:
            raise QqlError("a backup is already active; restore it first")
        validate_expr(expr, self.schema)
        table = truth_table(expr, self.schema)
        matches = sum(1 for r in self.support() if table.bits[r])
        qubit = self._alloc_temp("safe", expr)
        apply_oracle(self.state, table, self.data_qubits, qubit)
        apply_partial_diffusion(self.state, DiffusionParams(self.n), flag_qubit=qubit)
        self.state._assert_norm()
        self.safe_key = SafeKey(qubit, expr, matches)
        self._seq_fill = None
        self.log.append(LogEntry("backup", {"qubit": qubit, "matches": matches}))
        return self

    def restore(self, purge: bool = False) -> float | None:
        """Re-apply the backup oracle: protected records flip back into the
        live subspace, records currently matching the predicate move into the
        (now stale) safe.  With ``purge`` the stale contents are removed by a
        post-selection and the safe key is released; otherwise the key stays
        active.  Returns the purge probability, or None without purge."""
        if self.safe_key is None:
            raise QqlError("no active backup to restore")
        safe = self.safe_key
        table = truth_table(safe.expr, self.schema)
        apply_oracle(self.state, table, self.data_qubits, safe.qubit)
        probability = None
        if purge:
            try:
                probability = self.state.postselect(safe.qubit, 0, self.epsilon)
            except ImpossibleOutcomeError:
                # the oracle is a swap, so applying it again undoes it exactly
                apply_oracle(self.state, table, self.data_qubits, safe.qubit)
                raise
            self._free_temp(safe.qubit)
            self.safe_key = None
        self._seq_fill = None
        self.log.append(LogEntry("restore", {"purge": purge, "probability": probability}))
        return probability

    # ------------------------------------------------------------------ read-out

    def measure_counts(self, shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample full basis indices and truncate the temp bits.  Returns the
        distinct data-register indices drawn, ascending (which is record
        order), and how often each was drawn."""
        picks = self.state.sample(shots, seed)
        indices, counts = np.unique(picks >> self.t, return_counts=True)
        self.log.append(LogEntry("measure", {"shots": shots, "seed": seed}))
        return indices, counts

    def measure_records(self, shots: int, seed: int) -> Counter:
        """:meth:`measure_counts` keyed by decoded records."""
        indices, counts = self.measure_counts(shots, seed)
        return Counter(dict(zip(map(self.schema.decode, indices.tolist()), counts.tolist())))

    def show_state(self) -> list[StateRow]:
        """All components with |amplitude| >= 1e-12, ascending by basis index."""
        amps = self.state.amps
        mags = amps.real**2 + amps.imag**2
        rows = []
        for index in np.nonzero(mags >= 1e-24)[0].tolist():
            rows.append(
                StateRow(
                    index=index,
                    record=self.schema.decode(index >> self.t),
                    temp_bits=format(index & ((1 << self.t) - 1), f"0{self.t}b"),
                    amplitude=complex(amps[index]),
                    probability=float(mags[index]),
                )
            )
        return rows


def create_db(
    schema: TableSchema,
    t: int = DEFAULT_TEMP_QUBITS,
    max_qubits: int = DEFAULT_MAX_QUBITS,
    epsilon: float = DEFAULT_EPSILON,
) -> QdbState:
    """All-zeros register over n + t qubits; the all-zeros record is present."""
    return QdbState(schema, t=t, max_qubits=max_qubits, epsilon=epsilon)
