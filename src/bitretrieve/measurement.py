"""The one-bit measurement map, Hamming geometry, and bit-flip corruption.

A rank-k projection P on a d-dimensional space asks one binary
question of a signal X: is tr(PX) at least k/d? The threshold is the
mean of tr(PX) over random signals, so the answer says whether the
signal sits closer to Ran(P) than to its complement.

Tie convention: tr(PX) exactly at the threshold answers 1, so that
bit b = 1 always selects P itself (and b = 0 selects I - P) in the
recovery stage; the tie event has probability zero under the
continuous trace law, so no statistic depends on this choice.

An ensemble's answers come from one threshold kernel, `_answers`
(tr(PX) >= 1/2), and the margin test behind both `t_separates` (one
projection) and `soft_hamming` (a whole ensemble) is one elementwise
kernel, `_t_separated`.

Many signals against one ensemble meet its packed tables (see the sampler
for the layout and the one product shape). tr(PX) meets each off-diagonal
pair twice, so a signal packed with its off-diagonal entries doubled has
tr(PX) as one real dot product; one kernel, `_block_traces`, takes all of
them, for `trace_table` and for the streamed passes over `_slice_tables`.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .core import (
    NORMALIZATION_TOL,
    BitString,
    FieldKind,
    InvalidInput,
    OrthogonalProjection,
    RankOneProjection,
    _check_same_space,
)
from .sampler import (
    _INPUT_BLOCK,
    MeasurementEnsemble,
    SeedStream,
    _pack_frames,
    _pack_hermitian,
    _packed_width,
    _slice,
    _slices,
)

__all__ = [
    "binary_question",
    "measure",
    "hamming_distance",
    "measurement_hamming",
    "separates",
    "t_separates",
    "soft_hamming",
    "corrupt_bits",
    "trace_value",
    "trace_values",
    "trace_table",
]


def trace_value(p: OrthogonalProjection, x: RankOneProjection) -> float:
    """tr(P X) = <x, P x> for a rank-one signal X = x x*."""
    _check_same_space(p, x)
    v = x.vector.entries
    return float(np.real(np.vdot(v, p.matrix @ v)))


def trace_values(ens: MeasurementEnsemble, x: RankOneProjection) -> np.ndarray:
    """tr(P_j X) for every ensemble element, as a length-m array.

    With frames F_j (rows an orthonormal basis of Ran(P_j)) this is
    ||F_j x||^2, one matrix-vector product for the whole ensemble.
    """
    _check_same_space(ens, x)
    y = ens.flat_frames() @ x.vector.entries
    mags = np.abs(y) ** 2
    return mags.reshape(ens.m, ens.n).sum(axis=1)


def trace_table(ens: MeasurementEnsemble, vectors: np.ndarray) -> np.ndarray:
    """tr(P_j X_i) for a stack of unit vectors, as an (N, m) array; row i of
    the (N, 2n) `vectors` is the representative of X_i, and a row that is
    not finite with norm within NORMALIZATION_TOL of 1 raises InvalidInput.
    One `_block_traces` pass over the tables of the ensemble's slices; a
    call pays for whole _INPUT_BLOCK-row products however few rows it
    passes, so callers should batch their rows."""
    vecs = np.asarray(vectors, dtype=ens.field.dtype)
    if vecs.ndim != 2 or vecs.shape[1] != ens.dim:
        raise InvalidInput(f"trace_table: expected shape (N, {ens.dim}), got {vecs.shape}")
    off = ~(np.abs(np.linalg.norm(vecs, axis=1) - 1.0) <= NORMALIZATION_TOL)
    if off.any():
        raise InvalidInput(f"trace_table: row {np.argmax(off)} is not a finite unit vector")
    parts = _slices(ens.m, _slice(ens.field, ens.n))
    tables = ((part.start, _pack_frames(ens.field, ens.frames[part])) for part in parts)
    out = np.empty((len(vecs), ens.m))
    for start, rows, table, (traces,) in _block_traces(ens.field, tables, vecs):
        out[rows, start : start + len(table)] = traces
    return out


def _packed_signals(field: FieldKind, vectors: np.ndarray) -> np.ndarray:
    """The packed rows of the signals X_i = x_i x_i^*, off-diagonal entries
    doubled, so that a row times a projection row is tr(P X_i); (N, d) ->
    (N rounded up to whole _INPUT_BLOCK blocks, w), zero after row N. Each
    block is packed as one (block, d, d) stack, so no (N, d, d) stack is made."""
    d = vectors.shape[1]
    out = np.zeros((-(-len(vectors) // _INPUT_BLOCK) * _INPUT_BLOCK, _packed_width(field, d)))
    for rows in _slices(len(vectors), _INPUT_BLOCK):
        signals = np.einsum("ia,ib->iab", vectors[rows], vectors[rows].conj())
        signals *= 2.0 - np.eye(d)
        out[rows] = _pack_hermitian(field, signals)
    return out


def _block_traces(field: FieldKind, tables, *stacks: np.ndarray):
    """For each (start, packed table of the projections from start on) of
    one ensemble and each slice `rows` of _INPUT_BLOCK signals, yield
    (start, rows, table, traces): per (N, d) stack, the traces tr(P_j X_i)
    of its rows from one whole-block product (see the sampler). A consumer
    must drop what it was given before asking for more."""
    packed = [_packed_signals(field, stack) for stack in stacks]
    for start, table in tables:
        for rows in _slices(len(stacks[0]), _INPUT_BLOCK):
            whole = slice(rows.start, rows.start + _INPUT_BLOCK)
            size = rows.stop - rows.start
            yield start, rows, table, [(s[whole] @ table.T)[:size] for s in packed]
        del table


def _slice_tables(field: FieldKind, d: int, blocks):
    """For each validated slice of one ensemble from `sampler._frame_blocks`,
    yield (start, its packed table), dropping the slice first and the table
    before the next slice is drawn; one of another space raises InvalidInput."""
    space = SimpleNamespace(field=field, dim=d)
    for start, part in blocks:
        _check_same_space(part, space)
        table = _pack_frames(field, part.frames)
        del part
        yield start, table
        del table


def _streamed_disagreements(field: FieldKind, blocks, a: np.ndarray, b: np.ndarray):
    """For two (N, 2n) stacks of unit vectors, the number of ensemble
    elements whose questions answer a_i and b_i differently, in one pass
    over the ensemble's blocks."""
    counts = np.zeros(len(a), dtype=np.intp)
    tables = _slice_tables(field, a.shape[1], blocks)
    for _, rows, table, (traces_a, traces_b) in _block_traces(field, tables, a, b):
        counts[rows] += np.count_nonzero(_answers(traces_a) != _answers(traces_b), axis=1)
        del table, traces_a, traces_b
    return counts


def binary_question(p: OrthogonalProjection, x: RankOneProjection) -> int:
    """1 if tr(PX) >= k/d, else 0."""
    return int(trace_value(p, x) >= p.rank / p.dim)


def _answers(traces: np.ndarray) -> np.ndarray:
    """The uint8 answers tr(P X) >= 1/2 of half-dimensional projections."""
    return (traces >= 0.5).view(np.uint8)


def measure(ens: MeasurementEnsemble, x: RankOneProjection) -> BitString:
    """The m-bit answer string (binary_question(P_j, X))_j."""
    return BitString(_answers(trace_values(ens, x)))


def hamming_distance(a: BitString, b: BitString) -> float:
    """Fraction of positions where the two bit strings differ."""
    if len(a) != len(b):
        raise InvalidInput(f"hamming_distance: length mismatch {len(a)} vs {len(b)}")
    if len(a) == 0:
        return 0.0
    return float(np.mean(a.bits != b.bits))


def measurement_hamming(
    ens: MeasurementEnsemble, x: RankOneProjection, y: RankOneProjection
) -> float:
    """Fraction of ensemble projections whose questions distinguish X and Y."""
    return hamming_distance(measure(ens, x), measure(ens, y))


def separates(p: OrthogonalProjection, x: RankOneProjection, y: RankOneProjection) -> bool:
    """Whether P's binary question answers differently for X and Y."""
    return binary_question(p, x) != binary_question(p, y)


def _check_half_dimensional(p: OrthogonalProjection) -> None:
    if p.dim != 2 * p.rank:
        raise InvalidInput(
            f"t-separation needs a half-dimensional projection, got rank {p.rank} in dim {p.dim}"
        )


def t_separates(
    p: OrthogonalProjection, x: RankOneProjection, y: RankOneProjection, t: float
) -> bool:
    """Separation by margin t around the threshold 1/2.

    True when tr(PX) + t < 1/2 <= tr(PY) - t or with X and Y swapped;
    negative t loosens the criterion, positive t tightens it.
    """
    _check_half_dimensional(p)
    return bool(_t_separated(trace_value(p, x), trace_value(p, y), float(t)))


def soft_hamming(
    ens: MeasurementEnsemble, x: RankOneProjection, y: RankOneProjection, t: float
) -> float:
    """Fraction of ensemble projections that separate X and Y by margin t."""
    return float(np.mean(_t_separated(trace_values(ens, x), trace_values(ens, y), float(t))))


def _t_separated(tx, ty, t: float):
    """Elementwise tr(PX) + t < 1/2 <= tr(PY) - t, or with X and Y swapped."""
    return ((tx + t < 0.5) & (0.5 <= ty - t)) | ((ty + t < 0.5) & (0.5 <= tx - t))


def _flip_count(tau: float, m: int) -> int:
    """floor(tau * m), lowered until flips / m <= tau."""
    tau = float(tau)
    if not 0.0 <= tau < 1.0:
        raise InvalidInput(f"corrupt_bits: tau must lie in [0, 1), got {tau}")
    if m == 0:
        return 0
    # the 1e-9 absorbs float dust (0.1 * 30 = 2.9999...), but must not push
    # the count above tau * m when tau * m sits just below an integer
    flips = int(math.floor(tau * m + 1e-9))
    while flips / m > tau:
        flips -= 1
    return flips


def _random_flips(m: int, flips: int, stream: SeedStream) -> np.ndarray:
    """The random mode's flip set: `flips` distinct positions below m, in
    the order the stream draws them."""
    return stream.generator().choice(m, size=flips, replace=False)


def _damage(traces: np.ndarray) -> np.ndarray:
    """|1 - 2 tr(P_j X)|: m times the move of tr(Q X) when bit j flips."""
    return np.abs(1.0 - 2.0 * traces)


def _most_damaging(damage: np.ndarray, count: int) -> np.ndarray:
    """The greedy mode's flip set, as a mask: the `count` largest damages,
    ties broken toward the lower position (the first `count` of a stable
    argsort of -damage). One partition, so linear in len(damage)."""
    keep = np.ones(len(damage), dtype=bool)
    if count < len(damage):
        cut = np.partition(damage, len(damage) - count)[len(damage) - count]
        keep = damage > cut
        keep[np.flatnonzero(damage == cut)[: count - np.count_nonzero(keep)]] = True
    return keep


FLIP_MODES = ("random", "greedy")


def corrupt_bits(
    bits: BitString,
    tau: float,
    mode: str,
    stream: SeedStream,
    context: tuple[MeasurementEnsemble, RankOneProjection] | None = None,
) -> BitString:
    """Flip exactly floor(tau*m) bits and return the corrupted string.

    mode="random" flips a uniform subset drawn from the stream;
    mode="greedy" flips the positions with the largest |1 - 2 tr(P_j X)|
    (each flip moves tr(Q X) by (1 - 2 tr(P_j X))/m, so these are the
    most damaging bits for the recovery functional) and requires
    context=(ensemble, X). Exact-count flipping guarantees the Hamming
    distance to the original is flips/m <= tau. The mode and the context
    are checked even when nothing is flipped; an empty string, which no
    ensemble matches, needs no context.
    """
    m = len(bits)
    flips = _flip_count(tau, m)
    if mode not in FLIP_MODES:
        raise InvalidInput(f"corrupt_bits: unknown mode {mode!r}")
    if mode == "greedy" and m:
        if context is None:
            raise InvalidInput("corrupt_bits: greedy mode requires context=(ensemble, X)")
        if context[0].m != m:
            raise InvalidInput(
                f"corrupt_bits: context ensemble has m={context[0].m}, bits have m={m}"
            )
    if flips == 0:
        return BitString(bits.bits.copy())
    if mode == "random":
        idx = _random_flips(m, flips, stream)
    else:
        idx = _most_damaging(_damage(trace_values(*context)), flips)
    out = bits.bits.copy()
    out[idx] ^= 1
    return BitString(out)
