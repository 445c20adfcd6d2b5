"""Complex state-vector engine: allocation, gate application, post-selection,
sampling.

Bit convention (binding for the whole package): qubit 0 is the MOST
significant bit of a basis index, so the ket ``|x0 x1 ... x_{m-1}>`` read left
to right is the binary expansion of the index.  Temporary/flag qubits always
sit at the end of the register, i.e. in the least significant bits.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from .errors import (
    ArgumentError,
    CapacityError,
    ImpossibleOutcomeError,
    ValidationError,
    as_int,
    as_probability,
)
from .gates import CnotGate, GateMatrix

DEFAULT_MAX_QUBITS = 22
DEFAULT_EPSILON = 1e-12
# Fixed ceiling on the shots of one sample: the sampler holds a few arrays of
# ``shots`` 8-byte entries, so 2^24 shots stay within a few hundred MiB.
MAX_SHOTS = 1 << 24
# Amplitudes per block of every blocked scan of the register: the engine's
# norm, support and SHOW scans, the sampler's cumulative sum and ``repr``.
SCAN_BLOCK = 1 << 14

_MASK64 = (1 << 64) - 1
_BITS64 = np.arange(64, dtype=np.uint64)


def check_shots(shots: int) -> int:
    """Reject a shot count :meth:`StateVector.sample` cannot draw; return it
    as an int."""
    shots = as_int(shots, "shots")
    if shots < 1:
        raise ArgumentError("shots must be >= 1")
    if shots > MAX_SHOTS:
        raise CapacityError(f"{shots} shots exceed the limit of {MAX_SHOTS}")
    return shots


class Xorshift64Star:
    """xorshift64* generator (shift triple 12/25/27, multiplier 0x2545F4914F6CDD1D).

    All sampling in this package draws from this generator so that fixed-seed
    transcripts are reproducible across independent implementations.  A zero
    seed is replaced by a fixed nonzero constant because the all-zero state is
    a fixed point of the shift register.
    """

    MULTIPLIER = 0x2545F4914F6CDD1D

    def __init__(self, seed: int):
        self._state = as_int(seed, "seed") & _MASK64
        if self._state == 0:
            self._state = 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        s = self._state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        self._state = s
        return (s * self.MULTIPLIER) & _MASK64


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
    """The first ``count`` uniform doubles in [0, 1) of the
    ``Xorshift64Star(seed)`` stream, each the top 53 bits of a ``next_u64()``
    word over 2^53, generated in numpy lanes.

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


def qubit_view(
    amps: np.ndarray,
    pos_controls: Sequence[int],
    neg_controls: Sequence[int],
    leading: Sequence[int],
    run: range = range(0),
) -> np.ndarray:
    """View of the components of ``amps`` where ``pos_controls`` are 1 and
    ``neg_controls`` are 0: the package's one way to address a subspace, such
    as "safe key = 0", for the kernels, post-selection, the sampler, the
    support scan and the diffusion, and its one qubit check.  It reads the qubit count ``m``
    off ``amps.size`` and each qubit by :func:`as_int` and, before it builds
    the view, refuses with :class:`ArgumentError` a qubit that is not an
    integer, a qubit outside ``0..m-1``, a qubit named twice across the
    controls, ``leading`` and ``run``, and a ``run`` that is not an
    ascending step-1 range.

    Its axes are the qubits of ``leading`` (length 2 each, in that order), then
    the contiguous qubit ``run`` as one axis of length ``2^len(run)`` (first
    qubit most significant; length 1 for an empty run), then the other qubits
    in register order, each stretch of them between those axes merged into
    one axis.
    """
    num_qubits = amps.size.bit_length() - 1
    pos_controls, neg_controls, leading = (
        [as_int(q, "qubit") for q in qubits] for qubits in (pos_controls, neg_controls, leading)
    )
    if run.step != 1:
        raise ArgumentError(f"run {run} is not an ascending step-1 range of qubits")
    own = [*pos_controls, *neg_controls, *leading]
    for q in (*own, *run):
        if not 0 <= q < num_qubits:
            raise ArgumentError(f"qubit {q} out of range for {num_qubits} qubits")
    if len({*own, *run}) != len(own) + len(run):
        raise ArgumentError(f"qubits {[*own, *run]} name a qubit twice")
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
    whole one-column product or among the last few columns of a wider one:
    measured on OpenBLAS 0.3.31's zgemm (a zero of the other sign), the
    SkylakeX kernel treats the last ``width mod 4`` columns of a product
    differently from the others, the Haswell kernel only the column of a
    one-column product, and the Sandybridge kernel none.  The tiles of :func:`_tiles` keep both cases
    where the untiled product has them, so every amplitude comes out as
    ``matrix @ block`` gives it.
    """
    k = len(targets)
    view = qubit_view(amps, pos_controls, neg_controls, targets, run)
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


def swap(
    amps: np.ndarray,
    first,
    second,
    pos_controls: Sequence[int] = (),
    neg_controls: Sequence[int] = (),
    leading: Sequence[int] = (),
    run: range = range(0),
) -> None:
    """Exchange the index sets ``first`` and ``second`` of the
    :func:`qubit_view` of ``amps`` in place: a basis permutation, so
    amplitudes are moved, never recomputed.

    Each set is leading integers, then the rows of the next axis (an integer
    is one row): a CNOT exchanges the halves ``0``/``1`` of its target axis,
    an oracle the rows ``(0, rows)``/``(1, rows)`` of the truth table's ones
    on its data run, a record swap the data rows ``a``/``b`` of the run
    ``range(0, n)``.  Row ``i`` of one set trades places with row ``i`` of
    the other, a tile at a time through two buffers, so no set is copied
    whole.
    """
    view = qubit_view(amps, pos_controls, neg_controls, leading, run)
    *lead, rows = np.index_exp[first]
    one, rows_one = view[tuple(lead)], np.atleast_1d(rows)
    *lead, rows = np.index_exp[second]
    other, rows_other = view[tuple(lead)], np.atleast_1d(rows)
    shape = (rows_one.size, *one.shape[1:])
    buffers = np.empty((2, min(math.prod(shape), TILE_COLUMNS)), dtype=amps.dtype)
    for index in _tiles(shape):
        head, *tail = index or (slice(None),)
        # a row slice selects copies, a single row views
        at_one, at_other = (rows_one[head], *tail), (rows_other[head], *tail)
        a = one[at_one]
        saved, moved = (buffer[: a.size].reshape(a.shape) for buffer in buffers)
        saved[...] = a
        moved[...] = other[at_other]
        one[at_one] = moved
        other[at_other] = saved


class StateVector:
    """Normalized register of ``2^m`` complex amplitudes over ``m`` qubits.

    Mutating operations transform the buffer in place and return ``self``.
    A state has at most one writer at a time; all kernels are deterministic.
    """

    __slots__ = ("amps",)

    def __init__(self, amps: np.ndarray):
        """The state whose buffer is ``amps``, not a copy.  Its norm is the
        engine's check (``QdbState``), not this one's."""
        if not (isinstance(amps, np.ndarray) and amps.dtype == np.complex128 and amps.ndim == 1
                and amps.flags.c_contiguous and amps.flags.writeable):
            raise ArgumentError("amplitudes must be a writable, C-contiguous, 1-D complex128 array")
        if amps.size < 2 or amps.size & (amps.size - 1):
            raise ArgumentError(f"amplitude count {amps.size} is not a power of two >= 2")
        self.amps = amps

    @property
    def num_qubits(self) -> int:
        """Read off the buffer's size, so it cannot disagree with it."""
        return self.amps.size.bit_length() - 1

    @classmethod
    def zero(cls, num_qubits: int, max_qubits: int = DEFAULT_MAX_QUBITS) -> "StateVector":
        """|0...0>: amplitude 1 on basis index 0."""
        num_qubits, max_qubits = as_int(num_qubits, "num_qubits"), as_int(max_qubits, "max_qubits")
        if num_qubits < 1 or num_qubits > max_qubits:
            raise CapacityError(
                f"register of {num_qubits} qubits outside the allowed range 1..{max_qubits}"
            )
        amps = np.zeros(1 << num_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return cls(amps)

    def apply_unitary(self, gate: GateMatrix, targets: Sequence[int]) -> "StateVector":
        """Apply a gate to the ordered target qubits, identity elsewhere."""
        return self.apply_controlled(gate, targets=targets)

    def apply_controlled(
        self,
        gate: GateMatrix,
        pos_controls: Sequence[int] = (),
        neg_controls: Sequence[int] = (),
        targets: Sequence[int] = (),
        run: range = range(0),
        rows: range | None = None,
    ) -> "StateVector":
        """Apply a gate where every positive control is 1 and every negative
        control is 0, and, with ``rows``, where the contiguous qubit ``run``
        (first qubit most significant) holds a value in the step-1 range
        ``rows``; identity on the rest of the space.  ``gate`` is a
        :class:`GateMatrix`, whose constructor checks that it is unitary."""
        if not isinstance(gate, GateMatrix):
            raise ValidationError(f"gate must be a GateMatrix, not {type(gate).__name__}")
        if gate.matrix.shape[0] != 1 << len(targets):
            raise ArgumentError(
                f"gate over {gate.matrix.shape[0]} rows does not fit {len(targets)} targets"
            )
        if rows is not None and (
            rows.step != 1 or rows.start < 0 or rows.stop > 1 << len(run) or not rows
        ):
            raise ArgumentError(f"rows {rows} are not a nonempty step-1 range of run values")
        apply_matrix(self.amps, gate.matrix, targets, pos_controls, neg_controls, run, rows)
        return self

    def apply_cnot(self, gate: CnotGate, neg_controls: Sequence[int] = ()) -> "StateVector":
        """Multi-controlled NOT: a pure basis permutation, done in place, where
        every qubit of ``neg_controls`` is 0."""
        swap(self.amps, 0, 1, gate.controls, neg_controls, leading=[gate.target])
        return self

    def probability_of(self, qubit: int, bit: int) -> float:
        """Total probability mass on components where ``qubit`` equals
        ``bit``: the qubit is a positive control for bit 1, a negative one for
        bit 0."""
        bit = as_int(bit, "bit")
        if bit not in (0, 1):
            raise ArgumentError("bit must be 0 or 1")
        half = qubit_view(self.amps, [qubit] * bit, [qubit] * (1 - bit), ())
        return float(np.sum(half.real**2 + half.imag**2))

    def postselect(self, qubit: int, bit: int, epsilon: float = DEFAULT_EPSILON,
                   rounds: float = 1, zero_qubits: Sequence[int] = ()) -> float:
        """Project ``qubit`` onto ``bit``, renormalize, and return the
        outcome's probability sin^2(theta) or, with ``rounds`` > 1, its
        probability sin^2(rounds * theta) after amplitude amplification
        (Brassard et al., quant-ph/0005055).  A figure below ``epsilon``,
        read by :func:`errors.as_probability`, or a probability of 0 raises
        before anything changes; a probability above 1 counts as 1.

        The qubits of ``zero_qubits`` must be 0 wherever an amplitude is
        nonzero: the zeroing and the division skip the rest, which holds only
        zeros, and would keep them zero of the same sign.  The probability is
        summed over the whole register all the same: it is printed, and
        leaving zeros out could regroup the sum."""
        epsilon = as_probability(epsilon, "epsilon")
        prob = self.probability_of(qubit, bit)
        figure = prob
        if rounds != 1:
            figure = math.sin(rounds * math.asin(min(1.0, math.sqrt(prob)))) ** 2
        if figure < epsilon:
            raise ImpossibleOutcomeError(
                f"outcome {bit} on qubit {qubit} has probability {figure:.3e} < {epsilon:.3e}"
            )
        if prob == 0:
            raise ImpossibleOutcomeError(f"outcome {bit} on qubit {qubit} has probability 0")
        qubit_view(self.amps, [qubit] * (1 - bit), [qubit] * bit + [*zero_qubits], ())[...] = 0.0
        live = qubit_view(self.amps, (), zero_qubits, ())
        live /= np.sqrt(prob)
        return figure

    def sample(self, shots: int, seed: int, zero_qubits: Sequence[int] = ()) -> np.ndarray:
        """Draw ``shots`` i.i.d. basis indices from ``|amps|^2`` by inverse CDF
        over the documented xorshift64* stream; returns them in draw order.
        Deterministic for a fixed seed.

        The qubits of ``zero_qubits`` must be 0 wherever an amplitude is
        nonzero, as for :meth:`postselect`.  The cumulative sum is built over
        the rest, the :func:`qubit_view` where they are 0, and searched in
        blocks of whole rows of about ``SCAN_BLOCK`` amplitudes, the running
        total added into each block's first term.  ``np.cumsum`` adds in
        order and an exact zero adds nothing, so the sums are those of one
        ``np.cumsum`` over the whole register with its repeats left out, and
        the first sum above a draw sits on the same nonzero amplitude: the
        picks are those of one search of the whole sum, without a
        register-sized array or a copy of the view.  Each pick gets its full
        index back with a 0 bit put in at each zero qubit."""
        shots = check_shots(shots)
        draws = xorshift_uniform(seed, shots)
        # searched in ascending order, each block takes the draws below its
        # last sum; the picks are scattered back into draw order
        order = np.argsort(draws)
        draws = draws[order]
        # a draw at or above the total picks the last index
        sorted_picks = np.full(shots, self.amps.size - 1, dtype=np.intp)
        view = qubit_view(self.amps, (), zero_qubits, ())
        view = view.reshape(view.shape[1:] or (1,))  # the run axis, of length 1, goes
        step = max(1, SCAN_BLOCK * view.shape[0] // view.size)
        total, done, offset = 0.0, 0, 0
        for start in range(0, view.shape[0], step):
            part = view[start : start + step]
            cumulative = (part.real**2 + part.imag**2).reshape(-1)
            cumulative[0] += total
            np.cumsum(cumulative, out=cumulative)
            total = cumulative[-1]
            end = np.searchsorted(draws, total, side="left")
            found = np.searchsorted(cumulative, draws[done:end], side="right")
            sorted_picks[done:end] = found + offset
            done, offset = end, offset + cumulative.size
        live = sorted_picks[:done]
        # ascending bit positions: each 0 goes in below the later ones
        for bit in sorted(self.num_qubits - 1 - q for q in zero_qubits):
            live[...] = live >> bit << bit + 1 | live & (1 << bit) - 1
        picks = np.empty(shots, dtype=np.intp)
        picks[order] = sorted_picks
        return picks

    def __repr__(self) -> str:
        terms = []
        # the first 8 components above 1e-6 in magnitude, found block by block
        for start in range(0, self.amps.size, SCAN_BLOCK):
            part = self.amps[start : start + SCAN_BLOCK]
            for idx in np.flatnonzero(part.real**2 + part.imag**2 > 1e-12)[: 8 - len(terms)]:
                terms.append(f"{part[idx]:.3g}|{start + idx:0{self.num_qubits}b}>")
            if len(terms) == 8:
                break
        body = " + ".join(terms) if terms else "0"
        return f"StateVector({self.num_qubits} qubits: {body})"
