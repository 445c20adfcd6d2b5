"""Complex state-vector engine: allocation, gate application, post-selection,
sampling.

Bit convention (binding for the whole package): qubit 0 is the MOST
significant bit of a basis index, so the ket ``|x0 x1 ... x_{m-1}>`` read left
to right is the binary expansion of the index.  Temporary/flag qubits always
sit at the end of the register, i.e. in the least significant bits.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .errors import CapacityError, ImpossibleOutcomeError, ValidationError
from .gates import CnotGate, GateMatrix, is_unitary

DEFAULT_MAX_QUBITS = 22
DEFAULT_EPSILON = 1e-12
NORM_TOL = 1e-9
# Fixed ceiling on the shots of one sample: the sampler holds a few arrays of
# ``shots`` 8-byte entries, so 2^24 shots stay within a few hundred MiB.
MAX_SHOTS = 1 << 24

_MASK64 = (1 << 64) - 1
_BITS64 = np.arange(64, dtype=np.uint64)


class Xorshift64Star:
    """xorshift64* generator (shift triple 12/25/27, multiplier 0x2545F4914F6CDD1D).

    All sampling in this package draws from this generator so that fixed-seed
    transcripts are reproducible across independent implementations.  A zero
    seed is replaced by a fixed nonzero constant because the all-zero state is
    a fixed point of the shift register.
    """

    MULTIPLIER = 0x2545F4914F6CDD1D

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        if self._state == 0:
            self._state = 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        s = self._state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        self._state = s
        return (s * self.MULTIPLIER) & _MASK64

    def next_float(self) -> float:
        """Uniform double in [0, 1) built from the top 53 bits."""
        return (self.next_u64() >> 11) / float(1 << 53)


def _xorshift_step(words: np.ndarray) -> np.ndarray:
    """One xorshift64* state update of every word, in place."""
    words ^= words >> np.uint64(12)
    words ^= words << np.uint64(25)
    words ^= words >> np.uint64(27)
    return words


def _gf2_apply(columns: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The GF(2)-linear map whose image of bit ``b`` is ``columns[b]``, applied
    to every word: the XOR of the columns of the word's set bits."""
    bits = (words[:, None] >> _BITS64) & np.uint64(1)
    return np.bitwise_xor.reduce(columns * bits, axis=1)


def xorshift_uniform(seed: int, count: int) -> np.ndarray:
    """The first ``count`` doubles of ``Xorshift64Star(seed).next_float()``,
    generated in numpy lanes.

    The xorshift64* state update is linear over GF(2), so jumping ``k`` steps
    ahead is a 64x64 bit matrix (Vigna, arXiv:1402.6246).  Lane ``j`` starts
    ``j * chunk`` steps into the stream and yields draws ``j * chunk`` to
    ``(j + 1) * chunk - 1``; all lanes step together, and reading the lanes one
    after the other gives the scalar stream in its own order, bit for bit.
    """
    chunk = 1 << ((count - 1).bit_length() + 1) // 2
    lanes = -(-count // chunk)
    jump = _xorshift_step(np.uint64(1) << _BITS64)
    for _ in range(chunk.bit_length() - 1):
        jump = _gf2_apply(jump, jump)
    # jump is now ``chunk`` steps; each doubling squares it
    starts = np.array([Xorshift64Star(seed)._state], dtype=np.uint64)
    while starts.size < lanes:
        starts = np.concatenate([starts, _gf2_apply(jump, starts)])
        if starts.size < lanes:
            jump = _gf2_apply(jump, jump)
    state = starts[:lanes].copy()
    words = np.empty((lanes, chunk), dtype=np.uint64)
    for step in range(chunk):
        words[:, step] = _xorshift_step(state)
    words = words.reshape(-1)[:count]
    words *= np.uint64(Xorshift64Star.MULTIPLIER)
    words >>= np.uint64(11)
    draws = words.astype(np.float64)
    draws *= 1.0 / (1 << 53)
    return draws


# Columns of one tile of the controlled-unitary kernel: a tile and its product
# (2 x 16 * 2^k * 2^13 bytes for a k-qubit gate) stay within L2 for small k.
TILE_COLUMNS = 1 << 13


def _qubit_view(
    amps: np.ndarray,
    num_qubits: int,
    pos_controls: Sequence[int],
    neg_controls: Sequence[int],
    leading: Sequence[int],
    run: range = range(0),
) -> np.ndarray:
    """View of the components of ``amps`` where ``pos_controls`` are 1 and
    ``neg_controls`` are 0.

    Its axes are the qubits of ``leading`` (length 2 each, in that order), then
    the contiguous qubit ``run`` as one axis of length ``2^len(run)`` (first
    qubit most significant; length 1 for an empty run), then the other qubits
    in register order, each stretch of them between those axes merged into
    one axis.
    """
    own = [*pos_controls, *neg_controls, *leading]
    run_ends = (run.start, run.stop) if run else ()
    cuts = sorted({0, num_qubits, *own, *(q + 1 for q in own), *run_ends})
    axis_of = {q: axis for axis, q in enumerate(cuts)}
    shape = [1 << (b - a) for a, b in zip(cuts, cuts[1:])]
    run_axis = axis_of[run.start] if run else len(shape)
    if not run:
        shape.append(1)
    index = [slice(None)] * len(shape)
    for q in pos_controls:
        index[axis_of[q]] = 1
    for q in neg_controls:
        index[axis_of[q]] = 0
    kept = [axis for axis, sel in enumerate(index) if isinstance(sel, slice)]
    front = [axis_of[q] for q in leading] + [run_axis]
    order = [kept.index(axis) for axis in front + [a for a in kept if a not in front]]
    return amps.reshape(shape)[tuple(index)].transpose(order)


def _tiles(shape: Sequence[int]):
    """Index tuples that cut an array of ``shape`` into blocks of at most
    ``TILE_COLUMNS`` elements, each spanning whole trailing axes and a slice
    of one axis.  When every axis but the first is a power of two, every block
    but the last has ``TILE_COLUMNS`` elements, or half as many before a last
    one that would have held one element; so the last block ends on the same
    remainder as the whole array, and has one element only if the array
    has."""
    axis, inner = len(shape) - 1, 1
    while axis >= 0 and inner * shape[axis] <= TILE_COLUMNS:
        inner *= shape[axis]
        axis -= 1
    if axis < 0:
        return [()]
    chunk = TILE_COLUMNS // inner
    starts = list(range(0, shape[axis], chunk))
    if inner == 1 and shape[axis] - starts[-1] == 1:
        starts[-1] -= chunk // 2
    cuts = [slice(a, b) for a, b in zip(starts, starts[1:] + [shape[axis]])]
    return itertools.product(*map(range, shape[:axis]), cuts)


def apply_matrix(
    amps: np.ndarray,
    matrix: np.ndarray,
    targets: Sequence[int],
    num_qubits: int,
    pos_controls: Sequence[int] = (),
    neg_controls: Sequence[int] = (),
    run: range = range(0),
    rows: range | None = None,
) -> None:
    """Apply a ``2^k x 2^k`` matrix to ``targets`` in place, restricted to the
    subspace where ``pos_controls`` are 1 and ``neg_controls`` are 0, and, with
    ``rows``, to components whose contiguous qubit ``run`` holds a value in
    the step-1 range ``rows``.  ``targets[0]`` is the most significant bit of
    the gate's local index.

    The selected block is walked in tiles of at most ``TILE_COLUMNS`` columns:
    each is gathered into a contiguous ``(2^k, c)`` buffer, multiplied by
    ``matrix`` into a second one and scattered back, so no temporary is as
    large as the register.  BLAS may round a column differently when it is a
    whole one-column product or among the last few columns of a wider one.
    The tiles of :func:`_tiles` keep both cases where the untiled product
    has them, so every amplitude comes out as ``matrix @ block`` gives it.
    """
    k = len(targets)
    view = _qubit_view(amps, num_qubits, pos_controls, neg_controls, targets, run)
    lead = (slice(None),) * k
    if rows is not None:
        view = view[lead + (slice(rows.start, rows.stop),)]
    size = min(view.size, (1 << k) * TILE_COLUMNS)
    source = np.empty(size, dtype=np.complex128)
    product = np.empty(size, dtype=np.complex128)
    for index in _tiles(view.shape[k:]):
        part = view[lead + index]
        tile = source[: part.size].reshape(part.shape)
        tile[...] = part
        out = product[: part.size].reshape(1 << k, -1)
        np.matmul(matrix, tile.reshape(1 << k, -1), out=out)
        part[...] = out.reshape(part.shape)


def xor_flip(
    amps: np.ndarray,
    num_qubits: int,
    target: int,
    pos_controls: Sequence[int] = (),
    neg_controls: Sequence[int] = (),
    run: range = range(0),
    rows: np.ndarray | None = None,
) -> None:
    """Flip ``target`` in place where ``pos_controls`` are 1 and
    ``neg_controls`` are 0: a basis permutation, so amplitudes are moved, never
    recomputed.

    With ``rows``, the flip is further restricted to components whose
    contiguous qubit ``run`` (first qubit most significant) holds a value in
    ``rows``.  The run is one axis of the same view :func:`apply_matrix`
    walks; no index array over the buffer is built.
    """
    block = _qubit_view(amps, num_qubits, pos_controls, neg_controls, [target], run)
    if rows is None:
        low = block[0].copy()
        block[0] = block[1]
        block[1] = low
    else:
        low = block[0, rows]
        block[0, rows] = block[1, rows]
        block[1, rows] = low


class StateVector:
    """Normalized register of ``2^m`` complex amplitudes over ``m`` qubits.

    Mutating operations transform the buffer in place and return ``self``.
    A state has at most one writer at a time; all kernels are deterministic.
    """

    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps: np.ndarray):
        self.num_qubits = num_qubits
        self.amps = amps

    @classmethod
    def zero(cls, num_qubits: int, max_qubits: int = DEFAULT_MAX_QUBITS) -> "StateVector":
        """|0...0>: amplitude 1 on basis index 0."""
        if num_qubits < 1 or num_qubits > max_qubits:
            raise CapacityError(
                f"register of {num_qubits} qubits outside the allowed range 1..{max_qubits}"
            )
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(num_qubits, amps)

    @classmethod
    def from_amplitudes(cls, values, normalize: bool = False) -> "StateVector":
        """State over the given amplitudes.  A C-contiguous ``complex128``
        array is taken over as the buffer, not copied; anything else is
        converted."""
        amps = np.ascontiguousarray(values, dtype=np.complex128)
        size = amps.size
        if size < 2 or size & (size - 1):
            raise ValueError(f"amplitude count {size} is not a power of two >= 2")
        parts = amps.view(np.float64)
        if not np.all(np.isfinite(parts)):
            raise ValueError("amplitudes must be finite")
        # no part of a unit vector exceeds 1; rejecting larger ones first keeps
        # the norm below from overflowing
        if not normalize and (parts.max() > 1 + NORM_TOL or parts.min() < -1 - NORM_TOL):
            raise ValidationError(f"an amplitude part exceeds 1 + {NORM_TOL}; the norm is not 1")
        norm = np.linalg.norm(amps)
        if normalize:
            if norm == 0:
                raise ValueError("cannot normalize the zero vector")
            amps = amps / norm
        elif abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(f"state norm {norm} is not 1 within {NORM_TOL}")
        return cls(size.bit_length() - 1, amps)

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def _assert_norm(self):
        norm = self.norm()
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(f"norm drifted to {norm}; unitarity bug upstream")

    def _check_qubits(self, qubits: Sequence[int], label: str):
        seen = set()
        for q in qubits:
            if q < 0 or q >= self.num_qubits:
                raise ValueError(f"{label} qubit {q} out of range for {self.num_qubits} qubits")
            if q in seen:
                raise ValueError(f"duplicate {label} qubit {q}")
            seen.add(q)

    @staticmethod
    def _as_matrix(gate) -> np.ndarray:
        if isinstance(gate, GateMatrix):
            return gate.matrix
        mat = np.asarray(gate, dtype=np.complex128)
        if not is_unitary(mat):
            raise ValidationError("matrix is not unitary within tolerance")
        return mat

    def apply_unitary(self, gate, targets: Sequence[int]) -> "StateVector":
        """Apply a gate to the ordered target qubits, identity elsewhere."""
        matrix = self._as_matrix(gate)
        targets = list(targets)
        self._check_qubits(targets, "target")
        if matrix.shape[0] != 1 << len(targets):
            raise ValueError(
                f"gate over {matrix.shape[0]} rows does not fit {len(targets)} targets"
            )
        apply_matrix(self.amps, matrix, targets, self.num_qubits)
        return self

    def apply_controlled(
        self,
        gate,
        pos_controls: Sequence[int] = (),
        neg_controls: Sequence[int] = (),
        targets: Sequence[int] = (),
        run: range = range(0),
        rows: range | None = None,
    ) -> "StateVector":
        """Apply a gate where every positive control is 1 and every negative
        control is 0, and, with ``rows``, where the contiguous qubit ``run``
        (first qubit most significant) holds a value in the step-1 range
        ``rows``; identity on the rest of the space."""
        matrix = self._as_matrix(gate)
        pos = sorted(pos_controls)
        neg = sorted(neg_controls)
        targets = list(targets)
        self._check_qubits([*pos, *neg, *targets, *run], "control/target/run")
        if matrix.shape[0] != 1 << len(targets):
            raise ValueError(
                f"gate over {matrix.shape[0]} rows does not fit {len(targets)} targets"
            )
        if run.step != 1:
            raise ValueError(f"run {run} is not an ascending step-1 range of qubits")
        if rows is not None and (
            rows.step != 1 or rows.start < 0 or rows.stop > 1 << len(run) or not rows
        ):
            raise ValueError(f"rows {rows} are not a nonempty step-1 range of run values")
        apply_matrix(self.amps, matrix, targets, self.num_qubits, pos, neg, run, rows)
        return self

    def apply_cnot(self, gate: CnotGate) -> "StateVector":
        """Multi-controlled NOT: a pure basis permutation, done in place."""
        self._check_qubits([*gate.controls, gate.target], "cnot")
        xor_flip(self.amps, self.num_qubits, gate.target, sorted(gate.controls))
        return self

    def probability_of(self, qubit: int, bit: int) -> float:
        """Total probability mass on components where ``qubit`` equals ``bit``."""
        self._check_qubits([qubit], "measured")
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        view = self.amps.reshape(1 << qubit, 2, -1)
        slice_ = view[:, bit, :]
        return float(np.sum(slice_.real**2 + slice_.imag**2))

    def postselect(self, qubit: int, bit: int, epsilon: float = DEFAULT_EPSILON) -> float:
        """Project ``qubit`` onto ``bit``, renormalize, and return the
        pre-projection probability of that outcome."""
        prob = self.probability_of(qubit, bit)
        if prob < epsilon:
            raise ImpossibleOutcomeError(
                f"outcome {bit} on qubit {qubit} has probability {prob:.3e} < {epsilon:.3e}"
            )
        view = self.amps.reshape(1 << qubit, 2, -1)
        view[:, 1 - bit, :] = 0.0
        self.amps /= np.sqrt(prob)
        return prob

    def sample(self, shots: int, seed: int) -> np.ndarray:
        """Draw ``shots`` i.i.d. basis indices from ``|amps|^2`` by inverse CDF
        over the documented xorshift64* stream; returns them in draw order.
        Deterministic for a fixed seed."""
        if shots < 1:
            raise ValueError("shots must be >= 1")
        if shots > MAX_SHOTS:
            raise CapacityError(f"{shots} shots exceed the limit of {MAX_SHOTS}")
        cumulative = np.cumsum(self.amps.real**2 + self.amps.imag**2)
        draws = xorshift_uniform(seed, shots)
        # searched in ascending order, each search starts from the previous
        # result; the picks are scattered back into draw order
        order = np.argsort(draws)
        draws = draws[order]
        picks = np.empty(shots, dtype=np.intp)
        picks[order] = np.searchsorted(cumulative, draws, side="right")
        np.clip(picks, 0, cumulative.size - 1, out=picks)
        return picks

    def tensor(self, other: "StateVector", max_qubits: int = DEFAULT_MAX_QUBITS) -> "StateVector":
        """Combined register: ``self`` supplies the high bits, ``other`` the low."""
        total = self.num_qubits + other.num_qubits
        if total > max_qubits:
            raise CapacityError(f"tensor of {total} qubits exceeds capacity {max_qubits}")
        return StateVector(total, np.kron(self.amps, other.amps))

    def support(self, tol: float = 1e-9) -> list[int]:
        """Basis indices with non-negligible amplitude, ascending."""
        mags = self.amps.real**2 + self.amps.imag**2
        return np.nonzero(mags > tol * tol)[0].tolist()

    def __repr__(self) -> str:
        terms = []
        for idx in self.support(tol=1e-6)[:8]:
            amp = self.amps[idx]
            terms.append(f"{amp:.3g}|{idx:0{self.num_qubits}b}>")
        body = " + ".join(terms) if terms else "0"
        return f"StateVector({self.num_qubits} qubits: {body})"
