"""Reproducible sampling of Haar-uniform projections and unit vectors.

Randomness model
----------------
Every draw is keyed by a SeedStream, a (master_seed, path) pair whose
generator is numpy's PCG64 seeded from SeedSequence(master_seed,
spawn_key=path), so distinct paths give independent streams and a fixed
pair replays the same sequence whatever the thread count or evaluation
order. SeedSequence splits an int into 32-bit words, so SeedStream
rejects any value that would alias another stream: path indices must
lie in [0, 2^32), or (2^32,) would be the stream (0, 1), and the master
seed in [0, 2^64), or seed 5 + 7 * 2^128 at path () would be seed 5 at
path (7,). Gaussians come from Generator.standard_normal, which pins
every stream for a given numpy version. One rule, `_gaussian`, makes
every Gaussian draw: over R one call of the shape, over C one call of
shape (2, *shape), the real parts first.

A projection is the span of a d x k Gaussian matrix; that span is
Haar-uniform, and any orthonormal basis of it serves. The rule that picks
the basis: a matrix of at most _GRAM_SCHMIDT_BYTES = 1 KiB (real n <= 8,
complex n <= 5 for the 2n x n draws) by classical Gram-Schmidt with one
reorthogonalization, run with the batch as the last axis, and a larger
one by LAPACK's QR, whose per-matrix call cost the small ones would pay
several times over. No phase fix is applied: F^H F and ||F x|| depend
only on the span, which is all the library reads.

An ensemble is drawn in blocks of _CHUNK = 8192 elements, block b from
`path + (b,)`, so the block size is part of the reproducibility
contract. Everything else works on the slices that `_slices` alone cuts,
of `_slice(field, n)` projections: _TRACE_SLICE = 1024 while 1024 frames
fit in _SLICE_BYTES = 8 MiB (real n <= 22, complex n <= 16), above that
the largest power of two that fits, and at least 1, so a block splits
into whole slices. That size is part of the contract as well: each slice
is one `_gaussian` draw of shape (s, d, k) that continues its block's
stream (over R a block's slices hold what one draw of the block would;
over C each slice takes its real and then its imaginary parts), and its
frames overwrite its draw. Orthonormalization runs in sub-batches of the
2n x n matrices that fit in _SUB_BATCH_BYTES = 256 KiB (256 at real
n = 8, the whole slice at real n = 2), and no frame depends on the
batching: QR factors each matrix on its own, and so, in effect, does
`_gram_schmidt`. A slice is also one chunk of every sum over projections,
and every walk, held or streamed, cuts by `_slices`, so a streamed
ensemble gives the held sums. One walk, `_frame_slices`, draws
the slices: `_frame_blocks` validates each one for the streamed consumers,
and `sample_ensemble` validates its assembled array once.

Memory rule: a worker holds at most two slices of frames (its slice and
one slice-sized temporary, the signed copy of its rows or half a complex
draw), plus one sub-batch's temporaries (the orthonormalization, F^H F,
the frame check) and its own signal stacks, or its noise unit's flip
state: each slice's flipped frames are summed where they are met, and
greedy mode keeps a store of frames within a fixed byte budget (see
recovery).

The stacked kernels (many signals or bit strings against one ensemble)
run on one packed table per slice, whose row j holds the unique real
entries of P_j, formed by `_pack_frames` from F^H F over the same
sub-batches. `_packed_index` alone states that layout, and
`_pack_hermitian` and `_unpack_hermitian` map any Hermitian stack to and
from it. Rows of signals or of bits meet a table _INPUT_BLOCK = 128 at a
time, in products of one shape, (_INPUT_BLOCK, w) x (w, slice), whatever
the input count: packed signal rows are allocated in whole blocks, zero
rows padding the last, the +-1 signs of bit rows go through one
whole-block buffer, and only the first N rows of a result are read.
OpenBLAS picks its kernel, and so the last bits, by a product's shape,
so a row's bytes depend on its own input alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FieldKind, InvalidInput, OrthogonalProjection, UnitVector

__all__ = [
    "SeedStream",
    "MeasurementEnsemble",
    "sample_unit_vector",
    "sample_haar_projection",
    "sample_ensemble",
]

_FRAME_TOL = 1e-12
_CHUNK = 8192
_TRACE_SLICE = 1024
_INPUT_BLOCK = 128
# Bytes of the 2n x n matrices that one orthonormalization or F^H F call of a
# slice takes.
_SUB_BATCH_BYTES = 256 << 10
# Bytes of the largest matrix that Gram-Schmidt orthonormalizes instead of QR.
_GRAM_SCHMIDT_BYTES = 1 << 10
# Bytes of the frames of one slice.
_SLICE_BYTES = 8 << 20


def _slices(count: int, size: int):
    """The slices that cut [0, count) into runs of `size`, in order: the one
    slice rule of every walk over projections, which take `size` from `_slice`."""
    for start in range(0, count, size):
        yield slice(start, min(start + size, count))


def _slice(field: FieldKind, n: int) -> int:
    """Projections per slice: the largest power of two up to _TRACE_SLICE
    whose n x 2n frames fit in _SLICE_BYTES, and at least 1."""
    fit = _SLICE_BYTES // (2 * n * n * np.dtype(field.dtype).itemsize)
    return min(_TRACE_SLICE, 1 << max(0, fit.bit_length() - 1))


@dataclass(frozen=True)
class SeedStream:
    """A splittable random stream identified by (master_seed, path)."""

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        seed, path = int(self.master_seed), tuple(int(i) for i in self.path)
        if not 0 <= seed < 1 << 64:
            raise InvalidInput(f"SeedStream: master seed must lie in [0, 2^64), got {seed}")
        if not all(0 <= i < 1 << 32 for i in path):
            raise InvalidInput(f"SeedStream: path indices must lie in [0, 2^32), got {path}")
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "path", path)

    def child(self, *indices: int) -> "SeedStream":
        """The sub-stream at this path extended by the given indices."""
        return SeedStream(self.master_seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(self.master_seed, spawn_key=self.path))

    def label(self) -> str:
        return "/".join(str(i) for i in self.path) if self.path else "-"


def _gaussian(field: FieldKind, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """An array of i.i.d. standard Gaussians, in a new array; for C, real and
    imaginary parts are each standard Gaussian, the stream of one call of
    shape (2, *shape), drawn through one real buffer of `shape`. Every
    Gaussian draw of the library goes through it."""
    if field is FieldKind.REAL:
        return rng.standard_normal(shape)
    part = rng.standard_normal(shape)
    g = np.empty(shape, dtype=complex)
    g.real = part
    g.imag = rng.standard_normal(out=part)
    return g


def sample_unit_vector(field: FieldKind, d: int, stream: SeedStream) -> UnitVector:
    """A uniformly distributed unit vector: g/||g|| with Gaussian g."""
    if d < 1:
        raise InvalidInput(f"sample_unit_vector: dimension must be >= 1, got {d}")
    return UnitVector(field, _gaussian(field, (d,), stream.generator()))


def _orthonormalize_batch(g: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the columns of each matrix in a (m, d, k)
    stack, in a new array, by the sampler's orthonormalization rule (module
    docstring): `_gram_schmidt` for a matrix of at most
    _GRAM_SCHMIDT_BYTES, one batched QR above."""
    if g.itemsize * g.shape[1] * g.shape[2] <= _GRAM_SCHMIDT_BYTES:
        return _gram_schmidt(g)
    q, r = np.linalg.qr(g)
    if not np.all(np.diagonal(r, axis1=1, axis2=2)):
        raise InvalidInput("orthonormalization hit a rank-deficient Gaussian draw")
    return q


def _gram_schmidt(g: np.ndarray) -> np.ndarray:
    """Classical Gram-Schmidt with one reorthogonalization over a (m, d, k)
    stack, on one copy that holds the batch as its last, contiguous axis,
    so that each projection and each normalization is one call over the
    whole stack. Every sum runs along the matrix, elementwise across the
    batch, so a matrix's basis does not depend on its batch; a lone matrix
    runs as two copies of itself, since with one the sums would take
    another order."""
    m, d, k = g.shape
    q = np.empty((k, d, max(m, 2)), dtype=g.dtype)
    q[...] = g.transpose(2, 1, 0)
    is_complex = np.iscomplexobj(q)
    qc = np.empty_like(q) if is_complex else q  # conj(q), for the coefficients
    for j in range(k):
        col = q[j]
        if j:
            for _ in range(2):
                col -= np.einsum("lib,lb->ib", q[:j], np.einsum("lib,ib->lb", qc[:j], col))
        if is_complex:
            np.conjugate(col, out=qc[j])
        norm = np.sqrt(np.einsum("ib,ib->b", qc[j], col).real)
        if not norm.all():
            raise InvalidInput("orthonormalization hit a rank-deficient Gaussian draw")
        col /= norm
        if is_complex:
            np.conjugate(col, out=qc[j])
    return q[..., :m].transpose(2, 1, 0)


def sample_haar_projection(
    field: FieldKind, k: int, d: int, stream: SeedStream
) -> OrthogonalProjection:
    """A Haar-uniform rank-k orthogonal projection on the d-dimensional space.

    The distribution is invariant under conjugation by any fixed unitary.
    """
    if k < 1 or k > d:
        raise InvalidInput(f"sample_haar_projection: need 1 <= k <= d, got k={k}, d={d}")
    g = _gaussian(field, (d, k), stream.generator())
    q = _orthonormalize_batch(g[None, :, :])[0]
    mat = q @ q.conj().T
    mat = (mat + mat.conj().T) / 2.0
    return OrthogonalProjection(field, k, mat)


@dataclass(frozen=True, eq=False)
class MeasurementEnsemble:
    """A sequence of m rank-n orthogonal projections on a 2n-dimensional space.

    Elements are stored as orthonormal frames: `frames[j]` is the n x 2n
    matrix whose rows are an orthonormal basis of the j-th range, so the
    j-th projection matrix is frames[j]^H frames[j]. `projection(j)`
    materializes an element as a fully validated typed value.
    """

    field: FieldKind
    n: int
    frames: np.ndarray

    def __post_init__(self) -> None:
        frames = np.asarray(self.frames, dtype=self.field.dtype)
        d = 2 * self.n
        if frames.ndim != 3 or frames.shape[1:] != (self.n, d):
            raise InvalidInput(
                f"MeasurementEnsemble: expected frames of shape (m, {self.n}, {d}),"
                f" got {frames.shape}"
            )
        if frames.shape[0] < 1:
            raise InvalidInput("MeasurementEnsemble: need at least one projection")
        eye = np.eye(self.n)
        for rows in _slices(frames.shape[0], _sub_batch(self.field, self.n)):
            part = frames[rows]
            gram = part @ part.conj().swapaxes(1, 2)
            gram -= eye
            dev = float(np.max(np.abs(gram), initial=0.0))
            # so that a NaN deviation fails too
            if not dev <= _FRAME_TOL:
                raise InvalidInput(f"ensemble frame not orthonormal (deviation {dev:.2e})")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)

    @property
    def m(self) -> int:
        return int(self.frames.shape[0])

    @property
    def dim(self) -> int:
        return 2 * self.n

    def __len__(self) -> int:
        return self.m

    def flat_frames(self) -> np.ndarray:
        """(m*n, 2n) view stacking all frame rows."""
        return self.frames.reshape(self.m * self.n, self.dim)

    def matrix(self, j: int) -> np.ndarray:
        f = self.frames[j]
        mat = f.conj().T @ f
        return (mat + mat.conj().T) / 2.0

    def projection(self, j: int) -> OrthogonalProjection:
        return OrthogonalProjection(self.field, self.n, self.matrix(j))

    def compression(self, size: int) -> np.ndarray:
        """The (m, size, size) top-left blocks of every projection, 1 <= size <= 2n."""
        if not 1 <= size <= self.dim:
            raise InvalidInput(f"compression: size must lie in [1, {self.dim}], got {size}")
        cols = self.frames[:, :, :size]
        return np.einsum("mka,mkb->mab", cols.conj(), cols)


def _packed_width(field: FieldKind, d: int) -> int:
    """Columns of a packed d x d Hermitian matrix."""
    return len(_packed_index(field, d))


def _packed_index(field: FieldKind, d: int) -> np.ndarray:
    """Where the packed entries sit in the float64 view of a flattened
    d x d matrix: over R the upper triangle row by row; over C the real
    parts of the diagonal, then the real and the imaginary parts of the
    strict upper triangle."""
    if field is FieldKind.REAL:
        rows, cols = np.triu_indices(d)
        return rows * d + cols
    rows, cols = np.triu_indices(d, 1)
    upper = 2 * (rows * d + cols)
    return np.concatenate([2 * (d + 1) * np.arange(d), upper, upper + 1])


def _pack_hermitian(field: FieldKind, mats: np.ndarray) -> np.ndarray:
    """The unique real entries of each Hermitian matrix in a (..., d, d)
    stack, in the projection table's layout; (..., d, d) -> (..., w)."""
    d = mats.shape[-1]
    flat = mats.reshape(*mats.shape[:-2], d * d).view(np.float64)
    return np.take(flat, _packed_index(field, d), axis=-1)


def _sub_batch(field: FieldKind, n: int) -> int:
    """Matrices per orthonormalization, F^H F or frame check call: the
    2n x n matrices that fit in _SUB_BATCH_BYTES."""
    return max(1, _SUB_BATCH_BYTES // (2 * n * n * np.dtype(field.dtype).itemsize))


def _pack_frames(field: FieldKind, frames: np.ndarray) -> np.ndarray:
    """The float64 (count, w) packed table of a (count, k, d) frame stack,
    row j packing P_j = F_j^H F_j, from one batched product per `_sub_batch`
    of frames; each is formed matrix by matrix, so the rows do not depend
    on the batching."""
    count, k, d = frames.shape
    table = np.empty((count, _packed_width(field, d)))
    step = _sub_batch(field, k)
    for first in range(0, count, step):
        part = frames[first : first + step]
        products = np.conjugate(part.swapaxes(1, 2)) @ part
        table[first : first + step] = _pack_hermitian(field, products)
    return table


def _unpack_hermitian(field: FieldKind, packed: np.ndarray, d: int) -> np.ndarray:
    """The Hermitian matrices a (..., w) stack of packed rows stands for;
    the inverse of _pack_hermitian."""
    out = np.zeros((*packed.shape[:-1], d * d), dtype=field.dtype)
    out.view(np.float64)[..., _packed_index(field, d)] = packed
    out = out.reshape(*packed.shape[:-1], d, d)
    rows, cols = np.tril_indices(d, -1)
    out[..., rows, cols] = np.conjugate(out[..., cols, rows])
    return out


def _frame_slices(field: FieldKind, n: int, m: int, stream: SeedStream):
    """Yield (start, frames) for each slice of the ensemble that
    `sample_ensemble(field, n, m, stream)` returns, in order: the (count, n,
    2n) orthonormalized frames of elements [start, start + count), not yet
    validated. The generator keeps no reference to a slice it has yielded."""
    for b, first in enumerate(range(0, m, _CHUNK)):
        rng = stream.child(b).generator()
        for rows in _slices(min(_CHUNK, m - first), _slice(field, n)):
            yield first + rows.start, _frame_slice(field, n, rows.stop - rows.start, rng)


def _frame_blocks(field: FieldKind, n: int, m: int, stream: SeedStream):
    """(start, part) for each slice of `_frame_slices`, in order: `part` is
    the MeasurementEnsemble of its frames, validated where it is drawn. The
    iterator keeps no reference to a slice it has given out, so a consumer
    that drops a slice frees its frames."""

    def validated(item):
        start, frames = item
        return start, MeasurementEnsemble(field, n, frames)

    return map(validated, _frame_slices(field, n, m, stream))


def _frame_slice(field: FieldKind, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The frames of the next `count` projections of a block's generator:
    one (count, 2n, n) draw, orthonormalized one `_sub_batch` at a time, each
    sub-batch's conj(Q^T) written over its own draw."""
    g = _gaussian(field, (count, 2 * n, n), rng)
    frames = g.reshape(count, n, 2 * n)
    step = _sub_batch(field, n)
    for first in range(0, count, step):
        part = slice(first, first + step)
        np.conjugate(np.swapaxes(_orthonormalize_batch(g[part]), 1, 2), out=frames[part])
    return frames


def sample_ensemble(field: FieldKind, n: int, m: int, stream: SeedStream) -> MeasurementEnsemble:
    """m independent Haar-uniform rank-n projections in dimension 2n: the
    slices of `_frame_slices`, so the same however the work is scheduled,
    validated once, as one ensemble."""
    if n < 1:
        raise InvalidInput(f"sample_ensemble: n must be >= 1, got {n}")
    if m < 1:
        raise InvalidInput(f"sample_ensemble: m must be >= 1, got {m}")
    frames = np.empty((m, n, 2 * n), dtype=field.dtype)
    for start, part in _frame_slices(field, n, m, stream):
        frames[start : start + len(part)] = part
        del part  # or the last slice stays alive through the validation below
    return MeasurementEnsemble(field, n, frames)
