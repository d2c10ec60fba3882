"""The one-bit measurement map, Hamming geometry, and bit-flip corruption.

A rank-k projection P on a d-dimensional space asks one binary
question of a signal X: is tr(PX) at least k/d? The threshold is the
mean of tr(PX) over random signals, so the answer says whether the
signal sits closer to Ran(P) than to its complement.

Tie convention: tr(PX) exactly at the threshold answers 1, so that
bit b = 1 always selects P itself (and b = 0 selects I - P) in the
recovery stage; the tie event has probability zero under the
continuous trace law, so no statistic depends on this choice.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    BitString,
    InvalidInput,
    OrthogonalProjection,
    RankOneProjection,
    _check_same_space,
)
from .sampler import MeasurementEnsemble, SeedStream

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
    """tr(P_j X_i) for a stack of unit vectors, as an (N, m) array.

    `vectors` has shape (N, 2n); row i is the representative of X_i.
    One product of the rows vec(X_i) against the ensemble's projection
    table: tr(P X) = Re sum_ab P_ab conj(X_ab), which over C is the dot
    product of the two arrays' interleaved float64 views.
    """
    vecs = np.asarray(vectors, dtype=ens.field.dtype)
    if vecs.ndim != 2 or vecs.shape[1] != ens.dim:
        raise InvalidInput(f"trace_table: expected shape (N, {ens.dim}), got {vecs.shape}")
    signals = np.einsum("ia,ib->iab", vecs, vecs.conj()).reshape(vecs.shape[0], -1)
    return signals.view(np.float64) @ ens.projection_table.view(np.float64).T


def binary_question(p: OrthogonalProjection, x: RankOneProjection) -> int:
    """1 if tr(PX) >= k/d, else 0."""
    return int(trace_value(p, x) >= p.rank / p.dim)


def measure(ens: MeasurementEnsemble, x: RankOneProjection) -> BitString:
    """The m-bit answer string (binary_question(P_j, X))_j."""
    return BitString((trace_values(ens, x) >= 0.5).astype(np.uint8))


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
    tx = trace_value(p, x)
    ty = trace_value(p, y)
    t = float(t)
    return (tx + t < 0.5 <= ty - t) or (ty + t < 0.5 <= tx - t)


def soft_hamming(
    ens: MeasurementEnsemble, x: RankOneProjection, y: RankOneProjection, t: float
) -> float:
    """Fraction of ensemble projections that separate X and Y by margin t."""
    tx = trace_values(ens, x)
    ty = trace_values(ens, y)
    t = float(t)
    hit = ((tx + t < 0.5) & (0.5 <= ty - t)) | ((ty + t < 0.5) & (0.5 <= tx - t))
    return float(np.mean(hit))


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
    distance to the original is floor(tau*m)/m <= tau.
    """
    tau = float(tau)
    if not 0.0 <= tau < 1.0:
        raise InvalidInput(f"corrupt_bits: tau must lie in [0, 1), got {tau}")
    m = len(bits)
    flips = int(math.floor(tau * m + 1e-9))
    if flips == 0:
        return BitString(bits.bits.copy())
    if mode == "random":
        idx = stream.generator().choice(m, size=flips, replace=False)
    elif mode == "greedy":
        if context is None:
            raise InvalidInput("corrupt_bits: greedy mode requires context=(ensemble, X)")
        ens, x = context
        if ens.m != m:
            raise InvalidInput(f"corrupt_bits: context ensemble has m={ens.m}, bits have m={m}")
        damage = np.abs(1.0 - 2.0 * trace_values(ens, x))
        idx = np.argsort(-damage, kind="stable")[:flips]
    else:
        raise InvalidInput(f"corrupt_bits: unknown mode {mode!r}")
    out = bits.bits.copy()
    out[idx] ^= 1
    return BitString(out)
