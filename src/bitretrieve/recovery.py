"""Principal-eigenspace recovery from one-bit proximity answers.

The bit string selects, for each measurement projection P, either P
itself (bit 1) or its complement I - P (bit 0); averaging the selected
projections gives a Hermitian matrix whose principal eigenspace
estimates the signal. Maximizing tr(Q Y) over positive semidefinite Y
with tr(Y) <= 1 is solved exactly by the projection onto that
eigenspace, so the semidefinite program reduces to one dense
eigendecomposition.

Averages are accumulated one slice of projections at a time, in a fixed
order (see the sampler). One bit string is summed by `_accumulate_signed`,
one GEMM per slice, for `empirical_average` and `_streamed_averages`; a
stack of bit strings by `_accumulate_table`, a real product of +-1 signs
against a slice's packed table into (N, w) sums unpacked to d x d at the
end, for `average_stack` and `_streamed_stack_averages`. Every average
is finished by `_finalize_average` and every expectation mu1 X + mu2
(I - X) formed by `_expected_averages`; both work in place with the IEEE
operations of the whole-stack expressions (only the operands of
commutative adds swapped), so the bytes are theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BitString,
    FieldKind,
    HermitianMatrix,
    InvalidInput,
    OrthogonalProjection,
    RankOneProjection,
    UnitVector,
    _hermitian_opnorm,
    _vector_distance,
)
from .measurement import (
    _answers,
    _block_traces,
    _damage,
    _flip_count,
    _most_damaging,
    _random_flips,
    _slice_tables,
    trace_values,
)
from .sampler import (
    _INPUT_BLOCK,
    MeasurementEnsemble,
    SeedStream,
    _pack_frames,
    _packed_width,
    _slice,
    _slices,
    _unpack_hermitian,
)

__all__ = [
    "DEGENERACY_TOL",
    "RecoveryResult",
    "flipped_projection",
    "empirical_average",
    "average_stack",
    "principal_eigenpair",
    "principal_eigenpairs",
    "recover_from_average",
    "pep_recover",
    "expected_average",
]

DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of one recovery: the estimate plus spectral diagnostics.

    `degenerate` is set when the top eigenvalue is separated from the
    second by less than DEGENERACY_TOL; the estimate is then the
    eigensolver's deterministic first choice of top eigenvector.
    """

    estimate: RankOneProjection
    top_eigenvalue: float
    spectral_margin: float
    degenerate: bool


def flipped_projection(p: OrthogonalProjection, bit: int) -> OrthogonalProjection:
    """P for bit 1, I - P for bit 0."""
    if bit not in (0, 1):
        raise InvalidInput(f"flipped_projection: bit must be 0 or 1, got {bit!r}")
    return p if bit == 1 else p.complement()


def empirical_average(ens: MeasurementEnsemble, bits: BitString) -> HermitianMatrix:
    """(1/m) sum_j of P_j or I - P_j as selected by the bits.

    Satisfies 0 <= Q <= I and tr(Q) = n.
    """
    if len(bits) != ens.m:
        raise InvalidInput(f"empirical_average: {len(bits)} bits for m={ens.m} projections")
    acc = np.zeros((ens.dim, ens.dim), dtype=ens.field.dtype)
    for part in _slices(ens.m, _slice(ens.field, ens.n)):
        _accumulate_signed(acc, ens.frames[part], bits.bits[part])
    return HermitianMatrix(ens.field, _finalize_average(acc, ens.m - int(bits.bits.sum()), ens.m))


def _accumulate_signed(acc: np.ndarray, frames: np.ndarray, bits: np.ndarray) -> None:
    """acc += sum_j (2 bits[j] - 1) F_j^H F_j for one slice's (count, k, d)
    frame stack: one GEMM per slice, over the slice's frame rows and one
    signed copy of them."""
    k, d = frames.shape[1:]
    rows = frames.reshape(-1, d)
    signed = np.conjugate(rows)
    signed *= np.repeat(2.0 * bits.astype(np.float64) - 1.0, k)[:, None]
    acc += signed.T @ rows


def _finalize_average(acc: np.ndarray, zeros, m: int) -> np.ndarray:
    """(acc + zeros I) / m, symmetrized: the average of m selected projections
    whose signed sum is acc and of which `zeros` are complements. Takes one
    d x d sum and an int, or an (N, d, d) stack and N counts; acc is left as
    it is."""
    mats = acc.copy()
    diagonal = _diagonal(mats)
    diagonal += np.asarray(zeros)[..., None]
    mats /= m
    out = np.conjugate(np.swapaxes(mats, -1, -2))
    out += mats
    out /= 2.0
    return out


def _diagonal(mats: np.ndarray) -> np.ndarray:
    """A writable (..., d) view of the diagonals of a C-ordered (..., d, d) stack."""
    d = mats.shape[-1]
    return mats.reshape(*mats.shape[:-2], d * d)[..., :: d + 1]


def average_stack(ens: MeasurementEnsemble, bit_rows: np.ndarray) -> np.ndarray:
    """Empirical averages for a stack of 0/1 bit strings; (N, m) -> (N, d, d).
    A call pays for whole _INPUT_BLOCK-row products however few rows it
    passes, so callers should batch their rows."""
    rows = np.asarray(bit_rows)
    if rows.ndim != 2 or rows.shape[1] != ens.m:
        raise InvalidInput(f"average_stack: expected shape (N, {ens.m}), got {rows.shape}")
    acc = np.zeros((rows.shape[0], _packed_width(ens.field, ens.dim)))
    ones = np.zeros(rows.shape[0], dtype=np.intp)
    for part in _slices(ens.m, _slice(ens.field, ens.n)):
        bits = rows[:, part]
        if not np.all((bits == 0) | (bits == 1)):
            raise InvalidInput("average_stack: bit entries must be 0 or 1")
        ones += np.count_nonzero(bits, axis=1)
        _accumulate_table(acc, _pack_frames(ens.field, ens.frames[part]), bits)
    return _finalize_average(_unpack_hermitian(ens.field, acc, ens.dim), ens.m - ones, ens.m)


def _accumulate_table(acc: np.ndarray, table: np.ndarray, bit_rows: np.ndarray) -> None:
    """acc += sum_j (2 bit_rows[:, j] - 1) table[j] for (N, count) bits and a
    slice's (count, w) packed table, into an (N, w) float64 sum: one
    whole-block product per _INPUT_BLOCK rows (see the sampler)."""
    signs = np.empty((_INPUT_BLOCK, len(table)))
    for rows in _slices(len(bit_rows), _INPUT_BLOCK):
        bits = bit_rows[rows]
        signs[len(bits) :] = 0.0
        np.multiply(bits, 2.0, out=signs[: len(bits)])
        signs[: len(bits)] -= 1.0
        acc[rows] += (table.T @ signs.T).T[: len(bits)]


# Frame bytes that greedy mode's flip store may hold. A unit whose
# flips + min(flips, slice) rows would not fit keeps positions, damages and
# bits only, and replays its blocks for the flipped frames.
_FLIP_STORE_BYTES = 16 << 20


def _streamed_averages(
    m: int,
    blocks,
    x: RankOneProjection,
    flip_mode: str | None = None,
    tau: float = 0.0,
    flip_stream: SeedStream | None = None,
) -> tuple[HermitianMatrix, HermitianMatrix, np.ndarray]:
    """The clean and the corrupted empirical average of one ensemble of m
    elements, in one pass over its slices. `blocks()` yields (start, part)
    in order, as `sampler._frame_blocks` does, each part a validated slice
    in the space of x, and yields the same slices when called again. Each
    is measured against x, added into one signed accumulator and dropped,
    so the pass holds one slice whatever m is.

    With a flip mode, the set F that `corrupt_bits(bits, tau, flip_mode,
    flip_stream, (ensemble, x))` would flip is chosen on the way, and the
    noisy average is a sparse update of the clean one: acc - 2 sum_F s_j P_j
    and zeros + sum_F s_j, s_j = 2 b_j - 1. Each slice's flipped frames are
    summed where they are met, by one `_accumulate_signed` call per slice
    that holds flips, in slice order. Random mode knows F before the pass
    and sums them on the way. Greedy mode keeps its candidates' frames, and
    the slice each came from, while its store fits _FLIP_STORE_BYTES; past
    that it calls `blocks()` a second time for F's frames. Returns the clean
    average, the corrupted one (the clean one when nothing is flipped) and
    F in increasing order.
    """
    field, d = x.field, x.dim
    acc, flipped = np.zeros((2, d, d), dtype=field.dtype)
    ones = flipped_ones = 0
    flips = _flip_count(tau, m) if flip_mode is not None else 0
    drawn = np.sort(_random_flips(m, flips, flip_stream)) if flip_mode == "random" else None
    greedy = drawn is None and flips > 0

    def add_flipped(frames, bits):
        # an empty product could turn a -0.0 entry into +0.0, so none is added
        nonlocal flipped_ones
        if len(bits):
            _accumulate_signed(flipped, frames, bits)
            flipped_ones += int(bits.sum())

    # Greedy mode's candidates in position order: positions, damages, bits,
    # and, while the store fits its budget, each one's row in a preallocated
    # frame store and the start of its slice. A slice appends every damage
    # above `cut`, the least one the last pruning kept; the candidates are
    # pruned to the `flips` highest only when a slice might not fit, so the
    # cost per projection does not grow with flips. Ties go to the lower
    # position and the cut only rises, so a damage at or below it is never
    # flipped. A slice keeps only its own `flips` highest, since a candidate
    # below them is never flipped, so min(flips, slice) spare rows suffice.
    capacity = flips + min(flips, _slice(field, d // 2)) if greedy else 0
    stored = greedy and capacity * d * d // 2 * field.dtype.itemsize <= _FLIP_STORE_BYTES
    store = np.empty((capacity, d // 2, d), dtype=field.dtype) if stored else None
    kept_bits, scores = np.empty(capacity, dtype=np.uint8), np.empty(capacity)
    positions = np.empty(capacity, dtype=np.intp)
    slots, free = (np.arange(capacity), np.arange(capacity)) if stored else (None, None)
    origins = np.empty(capacity if stored else 0, dtype=np.intp)
    columns = (positions, scores, kept_bits) + ((slots, origins) if stored else ())
    count, cut = 0, -1.0

    def prune():
        nonlocal count, cut, free
        keep = _most_damaging(scores[:count], flips)
        if stored:
            free = np.concatenate([slots[:count][~keep], free])
        for column in columns:
            column[:flips] = column[:count][keep]
        count, cut = flips, float(scores[:flips].min())

    for start, part in blocks():
        traces = trace_values(part, x)
        bits = _answers(traces)
        _accumulate_signed(acc, part.frames, bits)
        ones += int(bits.sum())
        if drawn is not None:
            rows = drawn[slice(*np.searchsorted(drawn, (start, start + part.m)))] - start
            add_flipped(part.frames[rows], bits[rows])
        elif greedy:
            score = _damage(traces)
            new = np.flatnonzero(score > cut)
            if len(new) > flips:
                new = new[_most_damaging(score[new], flips)]
            if count + len(new) > capacity:
                prune()
                new = new[score[new] > cut]
            end = count + len(new)
            positions[count:end] = start + new
            scores[count:end] = score[new]
            kept_bits[count:end] = bits[new]
            if stored:
                slots[count:end], free = free[: len(new)], free[len(new) :]
                store[slots[count:end]] = part.frames[new]
                origins[count:end] = start
            count = end
        # drop the slice now, or it stays alive through the next one's draw
        del part, traces, bits
    zeros = m - ones
    clean = HermitianMatrix(field, _finalize_average(acc, zeros, m))
    if not flips:
        return clean, clean, np.empty(0, dtype=np.intp)
    if greedy:
        if count > flips:
            prune()
        positions, kept_bits = positions[:flips], kept_bits[:flips]
    else:
        positions = drawn
    if stored:
        # one slice's rows at a time: gathering the whole store would copy every frame
        cuts = np.flatnonzero(np.diff(origins[:flips])) + 1
        for rows, bits in zip(np.split(slots[:flips], cuts), np.split(kept_bits, cuts)):
            add_flipped(store[rows], bits)
    elif greedy:
        # the replay: the same slices again, for the frames at F
        for start, part in blocks():
            lo, hi = np.searchsorted(positions, (start, start + part.m))
            add_flipped(part.frames[positions[lo:hi] - start], kept_bits[lo:hi])
            del part
    noisy = _finalize_average(acc - 2.0 * flipped, zeros + 2 * flipped_ones - flips, m)
    return clean, HermitianMatrix(field, noisy), positions


def _streamed_stack_averages(field: FieldKind, m: int, blocks, signals: np.ndarray):
    """The empirical averages of an (N, d) stack of signals' answers against
    one ensemble of m elements: one pass adds the signs into (N, w) packed
    sums, then yields (rows, their averages) for each slice `rows` of
    _INPUT_BLOCK signals. Traces and signs take the products of
    `trace_table` and `average_stack`, and each average is finished on its
    own, so the averages are theirs. Memory is O(N w), plus one slice and
    one signal block, whatever m is."""
    d = signals.shape[1]
    acc = np.zeros((len(signals), _packed_width(field, d)))
    ones = np.zeros(len(signals), dtype=np.intp)
    tables = _slice_tables(field, d, blocks)
    for _, rows, table, (traces,) in _block_traces(field, tables, signals):
        bits = _answers(traces)
        ones[rows] += np.count_nonzero(bits, axis=1)
        _accumulate_table(acc[rows], table, bits)
        del table, traces, bits
    for rows in _slices(len(signals), _INPUT_BLOCK):
        yield rows, _finalize_average(_unpack_hermitian(field, acc[rows], d), m - ones[rows], m)


def principal_eigenpairs(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top eigenvalues, unit eigenvectors for them, and the margins to the
    second, for a stack of Hermitian matrices; (N, d, d) -> (N,), (N, d), (N,).

    Uses one batched self-adjoint eigendecomposition; raises ArithmeticError
    unless every returned vector satisfies ||Hv - lambda v|| <= 1e-10 * max(1, ||H||).
    """
    vals, vecs = np.linalg.eigh(mats)
    if not len(vals):
        return vals[:, 0], vecs[:, :, 0], vals[:, 0]
    top = vals[:, -1]
    vectors = vecs[:, :, -1]
    margins = vals[:, -1] - vals[:, -2] if vals.shape[1] > 1 else np.full(len(vals), math.inf)
    images = np.einsum("nab,nb->na", mats, vectors)
    residuals = np.linalg.norm(images - top[:, None] * vectors, axis=1)
    scales = np.maximum(1.0, np.max(np.abs(vals), axis=1))
    worst = int(np.argmax(residuals / scales))
    if residuals[worst] > 1e-10 * scales[worst]:
        raise ArithmeticError(
            f"eigendecomposition residual {residuals[worst]:.2e} exceeds tolerance"
        )
    return top, vectors, margins


def principal_eigenpair(h: HermitianMatrix) -> tuple[float, UnitVector, float]:
    """Top eigenvalue, a unit eigenvector for it, and the margin to the second;
    a one-element call into principal_eigenpairs."""
    top, vectors, margins = principal_eigenpairs(h.matrix[None])
    return float(top[0]), UnitVector(h.field, vectors[0]), float(margins[0])


def recover_from_average(avg: HermitianMatrix) -> RecoveryResult:
    """Projection onto the principal eigenspace of an empirical average."""
    top, vec, margin = principal_eigenpair(avg)
    margin = max(0.0, margin)
    return RecoveryResult(
        estimate=RankOneProjection(vec),
        top_eigenvalue=top,
        spectral_margin=margin,
        degenerate=margin < DEGENERACY_TOL,
    )


def pep_recover(ens: MeasurementEnsemble, bits: BitString) -> RecoveryResult:
    """Full recovery pipeline: average the selected projections, take the
    principal eigenvector, return it as a rank-one projection.

    The estimate maximizes tr(Q Y) over {Y >= 0, tr(Y) <= 1}; when the
    spectral margin is positive the maximizer is unique.
    """
    return recover_from_average(empirical_average(ens, bits))


def _scores(qhats: np.ndarray, signals: np.ndarray, mu1: float, mu2: float):
    """One batched eigensolve recovers an estimate from each of a stack of
    averages, its strided top eigenvector column used as it is; (N, d, d),
    (N, d) -> the (N, d) estimates and per row (error, qdev, degenerate):
    the operator-norm distance to the signal, ||Q_i - (mu1 X_i + mu2 (I -
    X_i))||, and whether the top eigenvalue's margin is below DEGENERACY_TOL."""
    _, estimates, margins = principal_eigenpairs(qhats)
    expected = _expected_averages(signals, mu1, mu2)
    qdevs = _hermitian_opnorm(np.subtract(qhats, expected, out=expected))
    scores = [
        (_vector_distance(signal, estimate), float(qdev), bool(margin < DEGENERACY_TOL))
        for signal, estimate, qdev, margin in zip(signals, estimates, qdevs, margins)
    ]
    return estimates, scores


def expected_average(x: RankOneProjection, mu1: float, mu2: float) -> HermitianMatrix:
    """mu1 * X + mu2 * (I - X): the expectation of the empirical average;
    a one-element call into _expected_averages."""
    return HermitianMatrix(x.field, _expected_averages(x.vector.entries[None], mu1, mu2)[0])


def _expected_averages(vectors: np.ndarray, mu1: float, mu2: float) -> np.ndarray:
    """mu2 I + (mu1 - mu2) x_i x_i^* for a stack of unit representatives;
    (N, d) -> (N, d, d)."""
    out = vectors[:, :, None] * vectors[:, None, :].conj()
    out *= mu1 - mu2
    diagonal = _diagonal(out)
    diagonal += mu2
    return out
