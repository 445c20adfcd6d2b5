"""The query-operator engine: a schema-aware database session whose records
live as basis states of one quantum register.

Layout: the first ``n`` qubits hold the record bits, the last ``t`` qubits are
temporaries for oracle flags, combiners and the backup safe key.  INSERT is
Hadamard layers or controlled-Hadamard steps, UPDATE is a basis permutation,
SELECT entangles a flag qubit through an oracle, DELETE post-selects a flag,
BACKUP/RESTORE pair an oracle with partial diffusion.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .boolcirc import (
    MAX_TABLE_VARS,
    BoolExpr,
    TruthTable,
    apply_oracle,
    compile_to_cnots,
    to_reed_muller,
    truth_table,
    validate_expr,
)
from .diffusion import apply_partial_diffusion
from .errors import (
    ArgumentError,
    CapacityError,
    ImpossibleOutcomeError,
    QqlError,
    SchemaError,
    ValidationError,
    as_int,
    as_probability,
)
from .gates import HADAMARD, NOT, CnotGate, GateMatrix
from .schema import Record, TableSchema, check_identifier
from .statevec import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_QUBITS,
    SCAN_BLOCK,
    StateVector,
    qubit_view,
    swap,
)

DEFAULT_TEMP_QUBITS = 3
NORM_TOL = 1e-9
SUPPORT_TOL = 1e-9
RESIDUE_TOL = 1e-12


@dataclass
class TempUse:
    purpose: str
    expr: BoolExpr | None = None
    name: str | None = None  # a select flag's name


@dataclass(frozen=True)
class SafeKey:
    qubit: int
    expr: BoolExpr
    matches: int

    def __post_init__(self):
        object.__setattr__(self, "qubit", as_int(self.qubit, "safe qubit"))
        object.__setattr__(self, "matches", as_int(self.matches, "matches"))


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
Operation = Union[ApplyGate, ApplySwap]


def check_capacity(n: int, t: int, max_qubits: int) -> None:
    """Refuse a register of ``n`` data and ``t`` temp qubits beyond the qubit
    capacity, or a table too wide for any WHERE to build its truth table."""
    if n + t > max_qubits:
        raise CapacityError(f"{n} data + {t} temp qubits exceed the {max_qubits}-qubit capacity")
    if n > MAX_TABLE_VARS:
        raise CapacityError(f"{n} data bits exceed the {MAX_TABLE_VARS}-bit table bound")


def _check_norm(norm: float) -> None:
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValidationError(f"state norm {norm} is not 1 within {NORM_TOL}")


def combiner_gates(
    table: TruthTable, var_qubits: Sequence[int], target: int
) -> list[tuple[CnotGate, list[int]]]:
    """The multi-controlled NOTs that XOR the function of ``table`` into the
    target qubit, each with the qubits it takes as negative controls;
    variable j is the qubit ``var_qubits[j]``.

    When the function has no more satisfying patterns than Reed-Muller
    monomials, there is one NOT per pattern, controlled on its 1s and
    negatively on its 0s.  The patterns are disjoint, so together they touch
    no more amplitudes than the monomials do.  Otherwise there is one NOT per
    monomial (:func:`compile_to_cnots`): the patterns can number up to 2^v
    where the monomials stay few, as for a NAND of v flags (2^v - 1 patterns,
    2 monomials).  Both are the permutation that flips the target where the
    function is 1, so they move every amplitude to the same place.
    """
    form = to_reed_muller(table)
    patterns = np.flatnonzero(table.bits).tolist()
    if len(patterns) > len(form.monomials):
        return [(gate, []) for gate in compile_to_cnots(form, var_qubits, target)]
    v = table.num_vars
    gates = []
    for pattern in patterns:
        bits = [(var_qubits[j], pattern >> (v - 1 - j) & 1) for j in range(v)]
        ones = frozenset(q for q, bit in bits if bit)
        gates.append((CnotGate(ones, target), [q for q, bit in bits if not bit]))
    return gates


class QdbState:
    """A database session: state vector over ``n + t`` qubits plus temp-qubit
    allocation and the optional safe key.

    Single writer; every operation mutates in place.  Amplitude
    non-uniformity after sequential inserts and after a backup is inherent and
    surfaced by :meth:`show_state` rather than corrected.

    ``clean_temps`` records the free temps whose |1> half is exactly zero.
    The permutations, the post-selections' zeroing and division and BACKUP's
    diffusion take them as negative controls and skip the subspaces where
    one is 1, which hold only zeros.  The engine's kernels keep the record
    true; writing ``state.amps`` from outside voids it, so a register from
    outside enters through the constructor.
    """

    def __init__(
        self,
        schema: TableSchema,
        t: int = DEFAULT_TEMP_QUBITS,
        max_qubits: int = DEFAULT_MAX_QUBITS,
        epsilon: float = DEFAULT_EPSILON,
        state: StateVector | None = None,
        safe_key: SafeKey | None = None,
    ):
        """A database on a zero register, or on ``state``, a register from
        outside such as a session file's.  That keeps the amplitudes and the
        backup's ``safe_key``, but not what the other temps held: one pass over
        it checks the norm, and :meth:`_release_temps` holds each other temp
        that carries mass as a nameless residue.  The safe key's qubit and
        predicate, the layout and the norm are checked here, and only here."""
        n = schema.num_bits
        t, max_qubits = as_int(t, "t"), as_int(max_qubits, "max_qubits")
        epsilon = as_probability(epsilon, "epsilon")
        if t < 1:
            raise ArgumentError("need at least one temporary qubit")
        check_capacity(n, t, max_qubits)
        if safe_key is not None:
            if not n <= safe_key.qubit < n + t:
                raise ArgumentError(f"safe qubit {safe_key.qubit} is not a temp qubit")
            validate_expr(safe_key.expr, schema)
        if state is not None:
            if not isinstance(state, StateVector):
                raise ArgumentError(f"state must be a StateVector, not {type(state).__name__}")
            if state.num_qubits != n + t:
                raise ArgumentError("provided state does not match schema plus temp count")
        self.schema = schema
        self.t = t
        self.epsilon = epsilon
        self.temp_alloc: dict[int, TempUse] = {}
        self.clean_temps = set(range(n, n + t))
        self.safe_key = safe_key
        self.bulk_records: int | None = None
        if safe_key is not None:
            self.temp_alloc[safe_key.qubit] = TempUse("safe", safe_key.expr)
        if state is None:
            self.state = StateVector.zero(n + t, max_qubits)
        else:
            self.state = state
            self._release_temps()

    def _read_state(self, stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The mass of each temp pattern, summed by one pass in blocks of whole
        rows of them, and whether any of its amplitudes is nonzero, read off
        the parts' bits ORed together in the same blocks: a mass can round to
        0 where an amplitude is not.  The norm, read off the masses' sum, must
        be 1 (a part not finite, or huge, makes it NaN or infinite without a
        warning).

        With ``stop``, the caller knows every amplitude from index ``stop`` on
        to be +0: the pass ends with the block that holds index ``stop - 1``.
        A skipped block would add only +0 to each sum, so the results are
        those of the whole pass."""
        amps, width = self.state.amps, 1 << self.t
        patterns, step = np.zeros(width), max(SCAN_BLOCK, width)
        end = amps.size if stop is None else min(amps.size, -(-stop // step) * step)
        bits = np.zeros(2 * width, dtype=np.uint64)
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, end, step):
                part = amps[start : start + step]
                # the squares added in place: the same sums, one temporary fewer
                mass = part.real**2
                mass += part.imag**2
                patterns += mass.reshape(-1, width).sum(axis=0)
                # ORed down the block's first axis first: long rows run fast
                words = part.view(np.uint64).reshape(min(32, part.size >> self.t), -1)
                bits |= np.bitwise_or.reduce(
                    np.bitwise_or.reduce(words, axis=0).reshape(-1, 2 * width), axis=0
                )
            _check_norm(float(np.sqrt(patterns.sum())))
        # a part is nonzero when a bit besides its sign is set
        return patterns, (bits.reshape(-1, 2) << np.uint64(1)).any(axis=1)

    def _scan_temps(self) -> tuple[list[int], list[int]]:
        """The temps the release rule holds, read off one pass: the safe key,
        and each other temp while its |1> mass is at least ``RESIDUE_TOL``,
        select flags included; and the other temps whose |1> half is exactly
        zero."""
        patterns, nonzero = self._read_state()
        held, clean = [], []
        for j in range(self.t):
            q, mass = self.n + j, patterns.reshape(1 << j, 2, -1)[:, 1].sum()
            if q in self._live_controls() or mass >= RESIDUE_TOL:
                held.append(q)
            elif not nonzero.reshape(1 << j, 2, -1)[:, 1].any():
                clean.append(q)
        return held, clean

    def _release_temps(self) -> None:
        """Free each temp the release rule does not hold; one it holds without
        a use is held as a nameless residue.  LOAD, APPLY and post-selections
        go by it, and it refreshes ``clean_temps``."""
        held, clean = self._scan_temps()
        for q in range(self.n, self.n + self.t):
            if q in held:
                self.temp_alloc.setdefault(q, TempUse("residue"))
            else:
                self.temp_alloc.pop(q, None)
        self.clean_temps = set(clean)

    def _skipped(self, *own: int) -> list[int]:
        """``clean_temps`` but the kernel's ``own`` qubits and any temp in
        ``temp_alloc``, ascending: negative controls that leave out only
        zeros."""
        return sorted(self.clean_temps.difference(own, self.temp_alloc))

    # ------------------------------------------------------------------ layout

    @property
    def n(self) -> int:
        return self.schema.num_bits

    @property
    def data_qubits(self) -> list[int]:
        return list(range(self.n))

    @property
    def selects(self) -> dict[str, int]:
        """Select names to their flag qubits, as a new dict."""
        return {use.name: q for q, use in self.temp_alloc.items() if use.name}

    def free_temps(self) -> list[int]:
        return [q for q in range(self.n, self.n + self.t) if q not in self.temp_alloc]

    def _first_free_temp(self, purpose: str) -> int:
        """The temp qubit a statement will use; nothing is recorded.  Only a
        temp that outlives its statement enters ``temp_alloc``, and only once
        the statement's kernels have run, so a failed statement leaves the
        allocation as it was."""
        free = self.free_temps()
        if not free:
            raise QqlError(f"no free temporary qubit for {purpose}")
        return free[0]

    def _check_temps_free(self) -> None:
        """Refuse while the release rule holds a temp, and change nothing;
        otherwise free every temp, as a LOAD of the register would.  Hadamards
        in every temp branch would copy a held flag onto the new records and
        re-spread a backup's protected copy."""
        if self.temp_alloc:
            held, clean = self._scan_temps()
            if held:
                raise QqlError(
                    "insert requires every temporary qubit to be free "
                    f"(held: {', '.join(map(str, held))})"
                )
            self.temp_alloc.clear()
            self.clean_temps = set(clean)

    def _live_controls(self) -> list[int]:
        """The safe key as a negative control when a backup is active: the
        live database is the safe-key-0 subspace."""
        return [self.safe_key.qubit] if self.safe_key else []

    def support(self) -> np.ndarray:
        """Live record indices, ascending, as an int64 array: data values
        carrying probability mass in the safe-key-0 subspace (the whole
        register when no backup is active).

        The clean temps are skipped when that leaves at most two temp
        columns: a row's mass then has at most two terms that can be
        nonzero, and adding exact zeros to them in any grouping rounds no
        differently.  With more columns, leaving zeros out could regroup the
        sum."""
        skipped = self._skipped()
        if self.t - len(self._live_controls()) - len(skipped) > 1:
            skipped = []
        view = qubit_view(
            self.state.amps, (), [*self._live_controls(), *skipped], (), range(self.n)
        )
        step = max(1, SCAN_BLOCK >> self.t)
        found = []
        # in blocks of rows, so the temporaries stay far below the register
        for start in range(0, view.shape[0], step):
            part = view[start : start + step]
            mass = (part.real**2 + part.imag**2).reshape(len(part), -1).sum(axis=1)
            found.append(np.flatnonzero(mass > SUPPORT_TOL * SUPPORT_TOL) + start)
        return np.concatenate(found)

    def seq_fill(self) -> int | None:
        """The sequence fill, read off the register: ``k`` when no backup is
        active and the live records are exactly ``0..k``, otherwise None.
        Every INSERT goes by it, so a SAVE/LOAD copy accepts the same ones."""
        live = self.support()
        sequential = self.safe_key is None and live.size and live[-1] == live.size - 1
        return live.size - 1 if sequential else None

    # ------------------------------------------------------------------ insert

    def insert_bulk(self, r: int) -> "QdbState":
        """Insert ``2^r`` records at once: a Hadamard on each of the r least
        significant data qubits, yielding records 0 .. 2^r - 1 on a fresh
        database.  On the register |0...0>, bit for bit, that layer has a
        closed form, written by one strided fill; any other fresh register
        (a LOAD's or an API caller's) runs the r Hadamards.  ``bulk_records``
        is then ``2^r``, the live records the closed form writes (each has
        mass about 2^-r, with r at most ``MAX_TABLE_VARS``, far above
        ``SUPPORT_TOL``²), or None after the Hadamards, whose live records
        only a scan can tell."""
        n = self.n
        r = as_int(r, "bulk exponent")
        if r < 0 or r > n:
            raise ArgumentError(f"bulk exponent {r} out of range 0..{n}")
        if self.seq_fill() != 0:
            raise QqlError("bulk insert requires a fresh database")
        self._check_temps_free()
        amps = self.state.amps
        if amps[0] == 1 and not np.any(amps.view(np.uint64)[1:]):
            # every Hadamard meets pairs (x, +0), which the kernel maps to
            # round(s*x) with a +0 imaginary part: each record gets s applied
            # r times, rounded each time.  Another amplitude at index 0, such
            # as 1j, can come out with a zero of the other sign, so only an
            # exact 1 takes this path
            s, value = HADAMARD.matrix[0, 0].real, 1.0
            for _ in range(r):
                value *= s
            amps[: (1 << r) << self.t : 1 << self.t] = value
            # the fill's norm is known without reading the register back
            _check_norm(math.sqrt((1 << r) * value * value))
            self.bulk_records = 1 << r
        else:
            self.bulk_records = None
            for q in range(n - r, n):
                self.state.apply_controlled(HADAMARD, targets=[q])
            self._read_state()
        return self

    def _seq_steps(self, fill: int, upto_k: int) -> None:
        """Sequential steps ``fill + 1`` to ``upto_k``.  Step k adds
        record k: a Hadamard on the bit ``p = floor(log2 k)``, controlled on
        the p low data bits holding ``k - 2^p``.  The steps of one level p
        share target and control qubits and differ only in the control value,
        so they touch disjoint amplitudes and run as one gate restricted to
        that range of values.

        Level p gives mass only to records below 2^(p+1).  When every word
        of the records above ``fill`` is +0, checked once, each level takes
        the data bits above p as negative controls, but for the lowest
        ``max(0, 4 - t)`` of them, and the norm pass reads only up to the
        last record inserted.  Each product is then the whole view or a
        multiple of 16 columns wide, and zgemm rounds every column of it as
        the whole-register product does (see :func:`statevec.apply_matrix`);
        a narrower one could give a zero of the other sign.  A register with
        any other word above ``fill`` gets the whole-register levels."""
        n, t, amps = self.n, self.t, self.state.amps
        prefix = not np.any(amps.view(np.uint64)[2 * ((fill + 1) << t) :])
        k = fill + 1
        while k <= upto_k:
            p = k.bit_length() - 1
            last = min(upto_k, (2 << p) - 1)
            high = range(max(0, n - 1 - p - max(0, 4 - t)) if prefix else 0)
            self.state.apply_controlled(
                HADAMARD, neg_controls=high, targets=[n - 1 - p], run=range(n - p, n),
                rows=range(k - (1 << p), last - (1 << p) + 1),
            )
            k = last + 1
        self._read_state((upto_k + 1) << t if prefix else None)

    def insert_sequential(self, upto_k: int) -> "QdbState":
        """Insert records one at a time until the support is {0, ..., upto_k}."""
        n = self.n
        upto_k = as_int(upto_k, "record index")
        if upto_k < 1 or upto_k > (1 << n) - 1:
            raise ArgumentError(f"record index {upto_k} out of range 1..{(1 << n) - 1}")
        fill = self.seq_fill()
        if fill is None:
            raise QqlError("sequential insert requires a fresh or sequentially filled database")
        if upto_k <= fill:
            raise ArgumentError(f"database already filled to {fill}")
        self._check_temps_free()
        self._seq_steps(fill, upto_k)
        return self

    def insert_values(self, records: Union[Sequence[RecordLike], np.ndarray]) -> "QdbState":
        """Make the support exactly the requested record set: sequential
        insertion of the right count, then one permutation that relabels the
        sequence onto the targets."""
        if isinstance(records, np.ndarray) and records.ndim != 1:
            raise ArgumentError(f"record indices must be a 1-D array, not {records.ndim}-D")
        count = len(records)
        if count < 1 or count > 1 << self.n:
            raise CapacityError(f"{count} records do not fit {self.n} data bits")
        indices = np.sort(self._as_indices(records))
        if np.any(indices[1:] == indices[:-1]):
            raise ArgumentError("duplicate records in INSERT VALUES")
        fill = self.seq_fill()
        if fill is None:
            raise QqlError("insert requires a fresh or sequentially filled database")
        if count - 1 < fill:
            raise ArgumentError(f"{count} records cannot cover the {fill + 1} already present")
        self._check_temps_free()
        if count - 1 > fill:
            self._seq_steps(fill, count - 1)
        # the sequence's unrequested records move onto the requested ones
        # beyond it, both ascending; in every temp branch, as INSERT's
        # Hadamards act, so no free temp is skipped
        vacant = np.ones(count, dtype=bool)
        vacant[indices[indices < count]] = False
        beyond = indices[indices >= count]
        self._swap_records(np.stack([np.flatnonzero(vacant), beyond], axis=1))
        return self

    def _as_index(self, record: RecordLike) -> int:
        """A record's index: a :class:`Record` encoded, or an integer read by
        :func:`as_int` and checked against the data bits."""
        if isinstance(record, Record):
            return self.schema.encode(record)
        index = as_int(record, "record")
        if index < 0 or index >= 1 << self.n:
            raise SchemaError(f"record index {index} out of range for {self.n} data bits")
        return index

    def _as_indices(self, records: Union[Sequence[RecordLike], np.ndarray]) -> np.ndarray:
        """:meth:`_as_index` of every record, as an int64 array; an integer
        array is checked as a whole, and its first index out of range raises."""
        if not (isinstance(records, np.ndarray) and records.dtype.kind == "i"):
            return np.array([self._as_index(r) for r in records], dtype=np.int64)
        indices = records.astype(np.int64, copy=False)
        outside = np.flatnonzero((indices < 0) | (indices >= 1 << self.n))
        if outside.size:
            self._as_index(indices.reshape(-1)[outside[0]])
        return indices

    # ------------------------------------------------------------------ update

    def _swap_records(
        self, pairs, pos_controls: Sequence[int] = (), neg_controls: Sequence[int] = ()
    ) -> None:
        """Exchange the data rows of every disjoint index pair (a sequence of
        pairs or an integer array of shape (k, 2)) where the temp qubits
        ``pos_controls`` are 1, ``neg_controls`` are 0 and, under a backup,
        the safe key is 0: one swap of the row sets on the data run."""
        if len(pairs) == 0:
            return
        a, b = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        swap(
            self.state.amps, a, b, pos_controls, [*self._live_controls(), *neg_controls],
            run=range(self.n),
        )

    def update(
        self, pairs: Union[Sequence[tuple[RecordLike, RecordLike]], np.ndarray]
    ) -> "QdbState":
        """Relabel records by disjoint transpositions; amplitudes ride along
        untouched.  Under an active backup the permutation is controlled on
        the safe key being 0, so the protected copy never moves.  ``pairs``,
        a sequence or an integer array, must be of shape (k, 2)."""
        if not isinstance(pairs, np.ndarray):
            pairs = np.array(pairs, dtype=object)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ArgumentError(f"update pairs must be of shape (k, 2), not {pairs.shape}")
        swaps = self._as_indices(pairs.reshape(-1)).reshape(-1, 2)
        if np.unique(swaps).size != swaps.size:
            raise ArgumentError("update pairs must be disjoint transpositions")
        if self.safe_key is None:
            # uniqueness within the live database; a backup smears support
            # over every basis state, so the check only makes sense without one.
            # A pair whose source is absent acts as the reverse move (that is
            # how applying the same update twice undoes it), so only a pair
            # with both endpoints live is a collision.
            live = self.support()
            collisions = np.flatnonzero(np.isin(swaps, live).all(axis=1))
            if collisions.size:
                raise SchemaError(
                    f"record {swaps[collisions[0], 1]} already exists; "
                    "update would break uniqueness"
                )
        self._swap_records(swaps, neg_controls=self._skipped())
        return self

    # ------------------------------------------------------------------ select / apply

    def select(self, expr: BoolExpr, name: str | None = None) -> int:
        """Entangle a fresh temp qubit with the predicate: matching records
        end up flagged |1>.  Returns the flag's qubit index; a ``name`` makes
        the flag appear in :attr:`selects`; a name that is not an identifier
        (APPLY's combiner takes it as a field) or is in use raises first."""
        if name is not None:
            check_identifier(name, "select name")
        if name in self.selects:
            raise QqlError(f"select name {name!r} is already in use")
        table = truth_table(expr, self.schema)
        qubit = self._first_free_temp("select")
        apply_oracle(self.state, table, self.data_qubits, qubit, self._skipped(qubit))
        self.clean_temps.discard(qubit)
        self.temp_alloc[qubit] = TempUse("select", expr, name)
        return qubit

    def apply_where(
        self,
        flags: Mapping[str, int],
        combiner: BoolExpr,
        operation: Operation,
    ) -> "QdbState":
        """Combine select flags onto one extra temp qubit and apply the
        operation controlled on it (and on the safe key being 0 when a backup
        is active).

        The combiner is flipped by :func:`combiner_gates` and uncomputed by
        the same gates in reverse, then the flag oracles are
        re-applied; a flag whose record moved across its own predicate
        cannot return to |0> exactly, and :meth:`_release_temps` keeps such a
        qubit allocated as residue instead of handing it out again.
        """
        flag_map = {name: as_int(qubit, "flag qubit") for name, qubit in dict(flags).items()}
        if len(set(flag_map.values())) != len(flag_map):
            raise ArgumentError(f"flags {flag_map} name one qubit twice")
        for name, qubit in flag_map.items():
            use = self.temp_alloc.get(qubit)
            if use is None or use.purpose != "select":
                raise QqlError(f"{name!r} ({qubit}) is not an active select flag")
        mini = TableSchema("_flags", tuple((name, 1) for name in flag_map))
        combiner_table = truth_table(combiner, mini)
        flag_tables = [truth_table(self.temp_alloc[q].expr, self.schema) for q in flag_map.values()]
        operation = self._check_operation(operation)
        combiner_qubit = self._first_free_temp("combiner")
        skipped = self._skipped(combiner_qubit)
        gates = combiner_gates(combiner_table, list(flag_map.values()), combiner_qubit)
        gates = [(gate, [*zeros, *skipped]) for gate, zeros in gates]
        for gate, neg_controls in gates:
            self.state.apply_cnot(gate, neg_controls)

        if isinstance(operation, ApplyGate) and operation.gate is NOT:
            # a permutation: amplitudes move and nothing is recomputed
            swap(
                self.state.amps, 0, 1, [combiner_qubit], [*self._live_controls(), *skipped],
                leading=operation.targets,
            )
        elif isinstance(operation, ApplyGate):
            # on the full view: a narrower one would round the product differently
            self.state.apply_controlled(
                operation.gate, [combiner_qubit], self._live_controls(), list(operation.targets)
            )
            self._read_state()  # before the swaps: right after a zgemm they run slow
        else:
            self._swap_records(
                [(operation.index_a, operation.index_b)], [combiner_qubit], skipped
            )

        for gate, neg_controls in reversed(gates):
            self.state.apply_cnot(gate, neg_controls)

        # uncomputed, the combiner is as clean as it was before
        skipped = self._skipped()
        for qubit, table in zip(flag_map.values(), flag_tables):
            apply_oracle(self.state, table, self.data_qubits, qubit, skipped)
            self.temp_alloc[qubit] = TempUse("residue")
        self._release_temps()
        return self

    def _check_operation(self, operation: Operation) -> Operation:
        """Reject a payload before any gate runs, so a failed APPLY leaves
        the state and the temp allocation untouched; return it with its
        targets or records read as ints."""
        if isinstance(operation, ApplyGate):
            targets = tuple(as_int(q, "gate target") for q in operation.targets)
            if len(set(targets)) != len(targets) or not all(0 <= q < self.n for q in targets):
                raise ArgumentError(f"gate targets {targets} are not distinct data qubits")
            if operation.gate.num_qubits != len(targets):
                raise ArgumentError(
                    f"{operation.gate.num_qubits}-qubit gate does not fit {len(targets)} targets"
                )
            return ApplyGate(operation.gate, targets)
        if isinstance(operation, ApplySwap):
            a, b = self._as_index(operation.index_a), self._as_index(operation.index_b)
            if a == b:
                raise ArgumentError(f"record {a} cannot be swapped with itself")
            return ApplySwap(a, b)
        raise TypeError(f"unsupported operation payload {operation!r}")

    # ------------------------------------------------------------------ delete

    def delete(self, expr: BoolExpr, amplify_iters: int = 0) -> float:
        """Mark matching records on a temp flag and post-select the flag on 0.
        Returns the outcome probability or, with ``amplify_iters`` q > 0, its
        value after q amplification rounds; those leave the kept state as is."""
        table = truth_table(expr, self.schema)
        amplify_iters = as_int(amplify_iters, "amplify_iters")
        if amplify_iters < 0:
            raise ArgumentError("amplify_iters must be >= 0")
        try:
            rounds = float(2 * amplify_iters + 1)
        except OverflowError:
            raise CapacityError("AMPLIFY count too large: 2q + 1 exceeds the float range") from None
        live = self.support()
        if live.size and table.bits[live].all():
            raise ImpossibleOutcomeError("predicate matches every live record")
        qubit = self._first_free_temp("delete")
        return self._drop_marked(table, qubit, self._live_controls(), rounds)

    def _drop_marked(
        self, table: TruthTable, qubit: int, neg_controls: Sequence[int] = (), rounds: float = 1
    ) -> float:
        """Mark the table's records on ``qubit`` with the oracle, then
        post-select it on 0, which leaves its |1> half exactly zero: it
        joins ``clean_temps``, once the caller frees it if it is the safe key.
        On any error from the post-selection, which raises before it changes
        the register, the oracle, a swap, is applied again, which undoes it
        exactly, and the error propagates."""
        skipped = self._skipped(qubit)
        neg_controls = [*neg_controls, *skipped]
        apply_oracle(self.state, table, self.data_qubits, qubit, neg_controls=neg_controls)
        try:
            probability = self.state.postselect(qubit, 0, self.epsilon, rounds, skipped)
        except BaseException:
            apply_oracle(self.state, table, self.data_qubits, qubit, neg_controls=neg_controls)
            raise
        if self.temp_alloc.keys() - set(self._live_controls()):
            self._release_temps()
        self.clean_temps.add(qubit)
        return probability

    # ------------------------------------------------------------------ backup / restore

    def backup(self, expr: BoolExpr) -> "QdbState":
        """Protect matching records: oracle onto a fresh temp qubit (the safe
        key) followed by partial diffusion, which leaves the original copy
        entangled with |1> and re-spreads a working copy in the |0> subspace."""
        if self.safe_key is not None:
            raise QqlError("a backup is already active; restore it first")
        table = truth_table(expr, self.schema)
        matches = int(np.count_nonzero(table.bits[self.support()]))
        qubit = self._first_free_temp("safe")
        skipped = self._skipped(qubit)
        apply_oracle(self.state, table, self.data_qubits, qubit, skipped)
        apply_partial_diffusion(self.state, self.n, qubit, skipped)
        self._read_state()
        self.clean_temps.discard(qubit)
        self.temp_alloc[qubit] = TempUse("safe", expr)
        self.safe_key = SafeKey(qubit, expr, matches)
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
        probability = None
        if purge:
            probability = self._drop_marked(table, safe.qubit)
            del self.temp_alloc[safe.qubit]
            self.safe_key = None
        else:
            apply_oracle(self.state, table, self.data_qubits, safe.qubit, self._skipped())
        return probability

    # ------------------------------------------------------------------ read-out

    def measure_counts(self, shots: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Sample full basis indices and truncate the temp bits.  Returns the
        distinct data-register indices drawn, ascending (which is record
        order), and how often each was drawn.  The sampler skips the clean
        temps' |1> halves, as the post-selections do; the picks are the same."""
        picks = self.state.sample(shots, seed, self._skipped())
        indices, counts = np.unique(picks >> self.t, return_counts=True)
        return indices, counts

    def measure_records(self, shots: int, seed: int) -> Counter:
        """:meth:`measure_counts` keyed by decoded records."""
        indices, counts = self.measure_counts(shots, seed)
        return Counter(dict(zip(map(self.schema.decode, indices.tolist()), counts.tolist())))

    def show_state(self) -> tuple[np.ndarray, np.ndarray]:
        """Basis indices of the components with |amplitude| >= 1e-12,
        ascending, and their amplitudes; scanned in blocks, as :meth:`support`."""
        amps = self.state.amps
        found = []
        for start in range(0, amps.size, SCAN_BLOCK):
            part = amps[start : start + SCAN_BLOCK]
            found.append(np.flatnonzero(part.real**2 + part.imag**2 >= 1e-24) + start)
        indices = np.concatenate(found)
        return indices, amps[indices]

