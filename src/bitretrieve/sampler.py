"""Reproducible sampling of Haar-uniform projections and unit vectors.

Randomness model
----------------
Every draw is keyed by a SeedStream, a (master_seed, path) pair whose
generator is numpy's PCG64 seeded from SeedSequence(master_seed,
spawn_key=path), numpy's construction for independent streams keyed by
a path. Distinct paths under one master seed therefore give
statistically independent streams, and a fixed (master_seed, path)
replays the same sequence whatever the thread count or evaluation
order. SeedSequence splits an int into 32-bit words, so SeedStream
rejects any value that would alias another stream: path indices must
lie in [0, 2^32), or (2^32,) would be the stream (0, 1), and the master
seed in [0, 2^64), or seed 5 + 7 * 2^128 at path () would be seed 5 at
path (7,).

Gaussian variates come from numpy's Generator.standard_normal
(ziggurat transform of the PCG64 bit stream); together with the seeding
above this pins the exact sequence of every stream for a given numpy
version, which is the reproducibility contract of the experiment
harness. One rule, `_gaussian`, makes every Gaussian draw over either
field: a real draw of a shape is one call of that shape, and a complex
draw one call of shape (2, *shape), whose first half gives the real
parts and whose second half the imaginary parts.

Projections are generated by orthonormalizing a d x k Gaussian matrix
with a QR factorization; the projection onto the column span of a
Gaussian matrix is Haar-uniform on the set of rank-k projections. No
phase fix is applied to Q (the step that makes Q itself Haar): a
projection F* F and the norms ||F x|| depend only on the span, which
is all the library reads from Q.

An ensemble of m projections is drawn in blocks of _CHUNK = 8192
elements and computed in slices of _TRACE_SLICE = 1024. The block is the
unit of the seed stream: block b (elements [b * 8192, (b + 1) * 8192))
draws from `path + (b,)`, so the block size is part of the
reproducibility contract. The slice is the unit of every computation and
of every draw: each slice of block b, s projections, is one `_gaussian`
draw of shape (s, d, k) that continues block b's stream, and its frames
overwrite its draw. `_frame_blocks` orthonormalizes a slice in
sub-batches, one QR call each, and yields it, and every streamed consumer
takes one slice at a time. A sub-batch holds the 2n x n matrices that fit
in _SUB_BATCH_BYTES = 256 KiB: 256 at real n = 8, the whole slice at real
n = 2. Over R consecutive calls continue one stream, so a block's slices
hold the values one draw of the whole block would; over C each slice
takes its real and then its imaginary parts. QR factors each matrix on
its own, so the frames of a slice do not depend on how the rest of the
block, or of the slice, is computed. A slice's projections are also one
chunk of the recovery module's accumulations, so an ensemble streamed
slice by slice gives the sums of the materialized ensemble, bit for bit.

The stacked kernels (many signals or bit strings against one ensemble)
run on packed projection tables, one row per projection and one table per
slice, packed by `_pack_frames` from batched F^H F products over the same
sub-batches, and take their signals _INPUT_BLOCK = 128 at a time, so the
traces of a block of signals against a table are 1 MiB. A row holds
the unique real entries of the Hermitian P_j: over R the d(d+1)/2
upper-triangle entries, row by row; over C d^2 real columns, the
diagonal, then the real and then the imaginary parts of the strict upper
triangle. At real n = 8 that is 136 float64 (1088 bytes) per projection.
`_pack_hermitian` and `_unpack_hermitian` map any Hermitian stack, the
measurement module's signal rows included, to and from that layout, which
`_packed_index` alone states.
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
# Projections per packed table and signals per product with it: 128 x 1024 float64 is 1 MiB.
_TRACE_SLICE = 1024
_INPUT_BLOCK = 128
# Bytes of the 2n x n matrices that one QR or F^H F call of a slice takes.
_SUB_BATCH_BYTES = 256 << 10


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
    imaginary parts are each standard Gaussian, drawn in one call of shape
    (2, *shape). Every Gaussian draw of the library goes through it."""
    if field is FieldKind.REAL:
        return rng.standard_normal(shape)
    parts = rng.standard_normal((2, *shape))
    g = np.empty(shape, dtype=complex)
    g.real, g.imag = parts
    return g


def sample_unit_vector(field: FieldKind, d: int, stream: SeedStream) -> UnitVector:
    """A uniformly distributed unit vector: g/||g|| with Gaussian g."""
    if d < 1:
        raise InvalidInput(f"sample_unit_vector: dimension must be >= 1, got {d}")
    return UnitVector(field, _gaussian(field, (d,), stream.generator()))


def _orthonormalize_batch(g: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of each matrix in a (m, d, k) stack.

    The thin Q factor of one batched QR call, in a new array; Q spans the
    same columns as the input, with no phase fix (see the module
    docstring). `_frame_slice` calls it once per sub-batch of a slice.
    """
    q, r = np.linalg.qr(g)
    if not np.all(np.diagonal(r, axis1=1, axis2=2)):
        raise InvalidInput("orthonormalization hit a rank-deficient Gaussian draw")
    return q


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
        for start in range(0, frames.shape[0], _TRACE_SLICE):
            part = frames[start : start + _TRACE_SLICE]
            gram = part @ part.conj().swapaxes(1, 2)
            gram -= eye
            dev = float(np.max(np.abs(gram), initial=0.0))
            if dev > _FRAME_TOL:
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
        """Top-left size x size blocks of every projection, shape (m, size, size)."""
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
    """Matrices per QR or F^H F call: the 2n x n matrices that fit in
    _SUB_BATCH_BYTES, so 256 at real n = 8 and a whole slice at real n = 2."""
    return max(1, _SUB_BATCH_BYTES // (2 * n * n * np.dtype(field.dtype).itemsize))


def _pack_frames(field: FieldKind, frames: np.ndarray) -> np.ndarray:
    """The float64 (count, w) packed table of a (count, k, d) frame stack,
    row j packing P_j = F_j^H F_j: one batched product per `_sub_batch` of
    frames, packed by `_pack_hermitian`, so the (batch, d, d) products
    take a fixed number of bytes whatever count is. Each product is formed
    matrix by matrix, so the rows do not depend on the batching."""
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


def _frame_blocks(field: FieldKind, n: int, m: int, stream: SeedStream):
    """Yield (start, part) for each _TRACE_SLICE slice of the ensemble that
    `sample_ensemble(field, n, m, stream)` returns, in order: `part` is the
    MeasurementEnsemble of elements [start, start + part.m), validated where
    it is drawn (the module docstring says how a block is drawn and
    sliced). The generator keeps no reference to a slice it has yielded, so
    a consumer that drops a slice, even before it is done with what it
    computed from it, frees its frames."""
    for b, first in enumerate(range(0, m, _CHUNK)):
        rng = stream.child(b).generator()
        count = min(_CHUNK, m - first)
        for start in range(0, count, _TRACE_SLICE):
            yield first + start, _frame_slice(field, n, min(_TRACE_SLICE, count - start), rng)


def _frame_slice(field: FieldKind, n: int, count: int, rng: np.random.Generator):
    """The next `count` projections of a block's generator, as a validated
    MeasurementEnsemble: one (count, 2n, n) draw, orthonormalized one
    `_sub_batch` of matrices at a time, each sub-batch's conj(Q^T) written
    over the d * k elements per matrix that its draw occupied; QR factors
    each matrix on its own and returns a new Q."""
    g = _gaussian(field, (count, 2 * n, n), rng)
    frames = g.reshape(count, n, 2 * n)
    step = _sub_batch(field, n)
    for first in range(0, count, step):
        part = slice(first, first + step)
        np.conjugate(np.swapaxes(_orthonormalize_batch(g[part]), 1, 2), out=frames[part])
    return MeasurementEnsemble(field, n, frames)


def sample_ensemble(field: FieldKind, n: int, m: int, stream: SeedStream) -> MeasurementEnsemble:
    """m independent Haar-uniform rank-n projections in dimension 2n: the
    slices of `_frame_blocks`, each block of them one keyed stream (see the
    module docstring), so the ensemble is the same however the work is
    scheduled.
    """
    if n < 1:
        raise InvalidInput(f"sample_ensemble: n must be >= 1, got {n}")
    if m < 1:
        raise InvalidInput(f"sample_ensemble: m must be >= 1, got {m}")
    frames = np.empty((m, n, 2 * n), dtype=field.dtype)
    for start, part in _frame_blocks(field, n, m, stream):
        frames[start : start + part.m] = part.frames
        del part  # or the last slice stays alive through the validation below
    return MeasurementEnsemble(field, n, frames)
