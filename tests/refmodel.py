"""Classical reference interpreter for conformance checks.

Models the database as a sparse map from (record, temp-bits) to a real
amplitude and applies every operation through its defining arithmetic: key
relabelings for oracles/updates/swaps, explicit two-way splits for Hadamard
layers, the inversion-about-the-mean closed form for diffusion, round by round
amplitude amplification for DELETE ... AMPLIFY, and drop plus renormalize for
post-selection.  No state vectors, no gate kernels; support extraction gives
the set-of-records view the engine is compared against.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Mapping

SQRT_HALF = math.sqrt(0.5)
SUPPORT_TOL = 1e-9
RESIDUE_TOL = 1e-12


class RefDb:
    def __init__(self, n: int, t: int):
        self.n = n
        self.t = t
        self.amps: dict[tuple[int, int], float] = {(0, 0): 1.0}
        self.safe_temp: int | None = None
        self.safe_pred: Callable[[int], bool] | None = None
        self.alloc: dict[int, tuple[str, Callable[[int], bool] | None]] = {}

    # ------------------------------------------------------------- plumbing

    def _temp_bit(self, j: int) -> int:
        return 1 << (self.t - 1 - j)

    def free_temps(self) -> list[int]:
        return [j for j in range(self.t) if j not in self.alloc]

    def _safe_bit(self) -> int:
        return self._temp_bit(self.safe_temp) if self.safe_temp is not None else 0

    def support(self) -> list[int]:
        mass: dict[int, float] = defaultdict(float)
        safe_bit = self._safe_bit()
        for (rec, temps), amp in self.amps.items():
            if temps & safe_bit:
                continue
            mass[rec] += amp * amp
        return sorted(r for r, m in mass.items() if m > SUPPORT_TOL * SUPPORT_TOL)

    def seq_fill(self) -> int | None:
        """``k`` when no backup is active and the live records are exactly
        ``0..k``, otherwise None: the fill every INSERT goes by."""
        live = self.support()
        sequential = self.safe_temp is None and live and live[-1] == len(live) - 1
        return len(live) - 1 if sequential else None

    def _clean(self):
        self.amps = {k: v for k, v in self.amps.items() if abs(v) > 1e-15}

    def temp_mass(self, j: int) -> float:
        bit = self._temp_bit(j)
        return sum(a * a for (_, temps), a in self.amps.items() if temps & bit)

    # ------------------------------------------------- primitive semantics

    def _oracle(self, pred, j: int, safe_zero_only: bool = False):
        bit = self._temp_bit(j)
        safe_bit = self._safe_bit() if safe_zero_only else 0
        new = {}
        for (rec, temps), amp in self.amps.items():
            if pred(rec) and not temps & safe_bit:
                new[(rec, temps ^ bit)] = amp
            else:
                new[(rec, temps)] = amp
        self.amps = new

    def _hadamard_record_bit(self, significance: int, condition=None):
        bit = 1 << significance
        new: dict[tuple[int, int], float] = defaultdict(float)
        for (rec, temps), amp in self.amps.items():
            if condition is not None and not condition(rec, temps):
                new[(rec, temps)] += amp
            elif rec & bit:
                new[(rec ^ bit, temps)] += amp * SQRT_HALF
                new[(rec, temps)] -= amp * SQRT_HALF
            else:
                new[(rec, temps)] += amp * SQRT_HALF
                new[(rec ^ bit, temps)] += amp * SQRT_HALF
        self.amps = dict(new)
        self._clean()

    def _diffusion(self, j: int):
        bit = self._temp_bit(j)
        zero_groups: dict[int, dict[int, float]] = {}
        patterns = set()
        for (rec, temps), amp in self.amps.items():
            base = temps & ~bit
            patterns.add(base)
            if not temps & bit:
                zero_groups.setdefault(base, {})[rec] = amp
        new = {}
        for (rec, temps), amp in self.amps.items():
            if temps & bit:
                new[(rec, temps)] = -amp
        records = 1 << self.n
        for base in patterns:
            alpha = zero_groups.get(base, {})
            mean = sum(alpha.values()) / records
            for rec in range(records):
                value = 2.0 * mean - alpha.get(rec, 0.0)
                if abs(value) > 1e-15:
                    new[(rec, base)] = value
        self.amps = new

    def _postselect(self, j: int, want: int) -> float:
        bit = self._temp_bit(j)
        kept = {
            key: amp
            for key, amp in self.amps.items()
            if bool(key[1] & bit) == bool(want)
        }
        mass = sum(a * a for a in kept.values())
        if mass < 1e-12:
            raise ValueError("impossible outcome in reference model")
        scale = 1.0 / math.sqrt(mass)
        self.amps = {key: amp * scale for key, amp in kept.items()}
        self._release()
        return mass

    def held(self) -> list[int]:
        """The temps the release rule holds: the safe key, and each other temp
        while its |1> mass is at least the residue tolerance."""
        return [j for j in range(self.t)
                if j == self.safe_temp or self.temp_mass(j) >= RESIDUE_TOL]

    def _release(self):
        """Hold each temp the rule holds, as a nameless residue when it had
        no use, and free the others: a drained temp is freed, select flags
        included."""
        held = self.held()
        for j in range(self.t):
            if j in held:
                self.alloc.setdefault(j, ("residue", None))
            else:
                self.alloc.pop(j, None)

    def _relabel(self, mapping: Mapping[int, int], condition=None):
        new: dict[tuple[int, int], float] = {}
        for (rec, temps), amp in self.amps.items():
            if condition is None or condition(rec, temps):
                new[(mapping.get(rec, rec), temps)] = amp
            else:
                new[(rec, temps)] = amp
        self.amps = new

    # ------------------------------------------------------------ operations

    def insert_bulk(self, r: int):
        # an INSERT runs only while the rule holds no temp, and frees them all
        self._release()
        for significance in range(r):
            self._hadamard_record_bit(significance)

    def _seq_step(self, k: int):
        p = k.bit_length() - 1
        pattern = k & ((1 << p) - 1)
        low_mask = (1 << p) - 1
        self._hadamard_record_bit(
            p, lambda rec, temps: (rec & low_mask) == pattern
        )

    def insert_seq(self, upto: int):
        self._release()
        for k in range(self.seq_fill() + 1, upto + 1):
            self._seq_step(k)

    def insert_values(self, indices: list[int]):
        self._release()
        count = len(indices)
        for k in range(self.seq_fill() + 1, count):
            self._seq_step(k)
        sequence, requested = set(range(count)), set(indices)
        mapping = {}
        for a, b in zip(sorted(sequence - requested), sorted(requested - sequence)):
            mapping[a] = b
            mapping[b] = a
        self._relabel(mapping)

    def update(self, pairs: list[tuple[int, int]]):
        mapping = {}
        for a, b in pairs:
            mapping[a] = b
            mapping[b] = a
        safe_bit = self._safe_bit()
        self._relabel(mapping, lambda rec, temps: not temps & safe_bit)

    def select(self, pred) -> int:
        j = self.free_temps()[0]
        self.alloc[j] = ("select", pred)
        self._oracle(pred, j)
        return j

    def apply_where(self, flags: Mapping[str, int], combiner_fn, kind: str, payload):
        """kind: 'not' (payload = record-bit significance), 'h' (same), or
        'swap' (payload = (a, b)).  combiner_fn maps {name: 0|1} to bool."""
        safe_bit = self._safe_bit()

        def active(rec, temps):
            if temps & safe_bit:
                return False
            values = {
                name: 1 if temps & self._temp_bit(j) else 0 for name, j in flags.items()
            }
            return combiner_fn(values)

        if kind == "not":
            bit = 1 << payload
            self._relabel({r: r ^ bit for r in range(1 << self.n)}, active)
        elif kind == "h":
            self._hadamard_record_bit(payload, active)
        elif kind == "swap":
            a, b = payload
            self._relabel({a: b, b: a}, active)
        else:
            raise ValueError(kind)

        for j in flags.values():
            pred = self.alloc[j][1]
            self._oracle(pred, j)
            self.alloc[j] = ("residue", None)
        self._release()

    def delete(self, pred, amplify: int = 0) -> float:
        """Flag the matches, run ``amplify`` rounds of amplitude amplification
        of the kept part, then post-select the flag on 0.  A round negates the
        kept components and reflects about the marked state ``m``:
        ``v -> 2 <m|v> m - v``."""
        j = self.free_temps()[0]
        self._oracle(pred, j, safe_zero_only=self.safe_temp is not None)
        marked = dict(self.amps)
        bit = self._temp_bit(j)
        for _ in range(amplify):
            negated = {key: amp if key[1] & bit else -amp for key, amp in self.amps.items()}
            overlap = sum(marked[key] * amp for key, amp in negated.items())
            self.amps = {key: 2 * overlap * marked[key] - amp for key, amp in negated.items()}
        return self._postselect(j, 0)

    def backup(self, pred):
        j = self.free_temps()[0]
        self.alloc[j] = ("safe", pred)
        self._oracle(pred, j)
        self._diffusion(j)
        self.safe_temp = j
        self.safe_pred = pred

    def load(self):
        """A session file keeps the amplitudes and the safe key: every other
        temp is held, as a nameless residue, exactly when its |1> mass is at
        least the residue tolerance."""
        self.alloc = {j: use for j, use in self.alloc.items() if j == self.safe_temp}
        self._release()

    def restore(self, purge: bool) -> float | None:
        self._oracle(self.safe_pred, self.safe_temp)
        probability = None
        if purge:
            probability = self._postselect(self.safe_temp, 0)
            del self.alloc[self.safe_temp]
            self.safe_temp = None
            self.safe_pred = None
        return probability
