"""Principal-eigenspace recovery from one-bit proximity answers.

The bit string selects, for each measurement projection P, either P
itself (bit 1) or its complement I - P (bit 0); averaging the selected
projections gives a Hermitian matrix whose principal eigenspace
estimates the signal. Maximizing tr(Q Y) over positive semidefinite Y
with tr(Y) <= 1 is solved exactly by the projection onto that
eigenspace, so the semidefinite program reduces to one dense
eigendecomposition.

Averages are accumulated in a fixed chunk order, which makes the result
bit-stable across any scheduling of the surrounding work. One bit string
is averaged from the ensemble frames in O(d^2) memory; a stack of them
from the ensemble's (m, d^2) projection table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BitString,
    HermitianMatrix,
    InvalidInput,
    OrthogonalProjection,
    RankOneProjection,
    UnitVector,
)
from .sampler import MeasurementEnsemble

__all__ = [
    "DEGENERACY_TOL",
    "RecoveryResult",
    "flipped_projection",
    "empirical_average",
    "average_stack",
    "principal_eigenpair",
    "recover_from_average",
    "pep_recover",
    "expected_average",
]

DEGENERACY_TOL = 1e-9
_ACC_CHUNK = 8192


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
    d, k = ens.dim, ens.n
    flat = ens.flat_frames()
    signs = np.repeat(2.0 * bits.bits.astype(np.float64) - 1.0, k)
    acc = np.zeros((d, d), dtype=ens.field.dtype)
    for start in range(0, flat.shape[0], _ACC_CHUNK):
        stop = start + _ACC_CHUNK
        block = flat[start:stop]
        acc += (block.conj() * signs[start:stop, None]).T @ block
    zeros = ens.m - int(bits.bits.sum())
    mat = (acc + zeros * np.eye(d, dtype=ens.field.dtype)) / ens.m
    mat = (mat + mat.conj().T) / 2.0
    return HermitianMatrix(ens.field, mat)


def average_stack(ens: MeasurementEnsemble, bit_rows: np.ndarray) -> np.ndarray:
    """Empirical averages for a stack of bit strings; (N, m) bits -> (N, d, d)."""
    rows = np.asarray(bit_rows)
    if rows.ndim != 2 or rows.shape[1] != ens.m:
        raise InvalidInput(f"average_stack: expected shape (N, {ens.m}), got {rows.shape}")
    d = ens.dim
    table = ens.projection_table
    signs = (2.0 * rows.astype(np.float64) - 1.0).astype(ens.field.dtype)
    acc = np.zeros((rows.shape[0], d * d), dtype=ens.field.dtype)
    for start in range(0, ens.m, _ACC_CHUNK):
        stop = start + _ACC_CHUNK
        acc += signs[:, start:stop] @ table[start:stop]
    zeros = ens.m - rows.sum(axis=1)
    eye = np.eye(d, dtype=ens.field.dtype).reshape(1, d * d)
    mats = (acc + zeros[:, None] * eye).reshape(rows.shape[0], d, d) / ens.m
    swapped = np.conjugate(np.swapaxes(mats, -1, -2))
    return (mats + swapped) / 2.0


def principal_eigenpair(h: HermitianMatrix) -> tuple[float, UnitVector, float]:
    """Top eigenvalue, a unit eigenvector for it, and the margin to the second.

    Uses a full self-adjoint eigendecomposition; the returned vector
    satisfies ||Hv - lambda v|| <= 1e-10 * max(1, ||H||).
    """
    vals, vecs = np.linalg.eigh(h.matrix)
    top = float(vals[-1])
    vec = vecs[:, -1]
    margin = float(vals[-1] - vals[-2]) if h.dim > 1 else math.inf
    residual = float(np.linalg.norm(h.matrix @ vec - top * vec))
    scale = max(1.0, float(np.max(np.abs(vals), initial=0.0)))
    if residual > 1e-10 * scale:
        raise ArithmeticError(f"eigendecomposition residual {residual:.2e} exceeds tolerance")
    return top, UnitVector(h.field, vec), margin


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


def expected_average(x: RankOneProjection, mu1: float, mu2: float) -> HermitianMatrix:
    """mu1 * X + mu2 * (I - X): the expectation of the empirical average."""
    d = x.dim
    mat = mu2 * np.eye(d, dtype=x.field.dtype) + (mu1 - mu2) * x.matrix()
    return HermitianMatrix(x.field, mat)
