"""Field-generic dense vectors, projections, and Hermitian matrices.

Scalars live in R or C; the choice of field also fixes the parameter
beta (1/2 real, 1 complex) that every distributional formula in the
library depends on. All types are immutable after construction and
safe to share across threads; every operation is a pure function.

Signals are unit vectors identified up to a global unimodular factor,
so the canonical signal object is the rank-one projection onto the
vector's span. Rank-one projections are stored as unit vectors (O(d)
memory) and materialized to matrices on demand; the representative's
global phase is deliberately left unfixed, and all comparisons go
through phase-invariant quantities (traces, norms, distances).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvalidInput",
    "FieldKind",
    "UnitVector",
    "RankOneProjection",
    "OrthogonalProjection",
    "HermitianMatrix",
    "BitString",
    "rank_one_from_vector",
    "operator_norm",
    "rank_one_distance",
]

# Double-precision tolerances, sized for dimensions up to ~2048.
NORMALIZATION_TOL = 1e-12
HERMITIAN_TOL = 1e-10
IDEMPOTENT_TOL = 1e-8
TRACE_TOL = 1e-8


class InvalidInput(ValueError):
    """An argument violates the contract of the operation that raised."""


class FieldKind(enum.Enum):
    """Scalar field selector for every value in the library."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def beta(self) -> float:
        """Distribution parameter: 1/2 over the reals, 1 over the complexes."""
        return 0.5 if self is FieldKind.REAL else 1.0

    @property
    def dtype(self) -> np.dtype:
        return _DTYPES[self]

    @classmethod
    def parse(cls, text: str) -> "FieldKind":
        key = str(text).strip().lower()
        if key in ("real", "r"):
            return cls.REAL
        if key in ("complex", "c"):
            return cls.COMPLEX
        raise InvalidInput(f"unknown field {text!r}; expected 'real' or 'complex'")

    def __str__(self) -> str:
        return self.value


_DTYPES = {
    FieldKind.REAL: np.dtype(np.float64),
    FieldKind.COMPLEX: np.dtype(np.complex128),
}


def _as_field_array(field: FieldKind, values, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != ndim:
        raise InvalidInput(f"{what}: expected a {ndim}-d array, got shape {arr.shape}")
    if field is FieldKind.REAL and np.iscomplexobj(arr):
        if arr.size and float(np.max(np.abs(arr.imag))) != 0.0:
            raise InvalidInput(f"{what}: complex entries in a real-field value")
        arr = arr.real
    arr = np.array(arr, dtype=field.dtype)
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{what}: non-finite entries")
    arr.setflags(write=False)
    return arr


def _hermitian_array(field: FieldKind, values, what: str) -> np.ndarray:
    """`values` as a read-only, finite, square, self-adjoint field array."""
    mat = _as_field_array(field, values, 2, what)
    d = mat.shape[0]
    if mat.shape != (d, d):
        raise InvalidInput(f"{what}: matrix must be square, got {mat.shape}")
    herm = float(np.max(np.abs(mat - mat.conj().T), initial=0.0))
    if herm > HERMITIAN_TOL:
        raise InvalidInput(f"{what}: not self-adjoint (deviation {herm:.2e})")
    return mat


def _check_same_space(a, b) -> None:
    if a.field is not b.field:
        raise InvalidInput(f"field mismatch: {a.field} vs {b.field}")
    if a.dim != b.dim:
        raise InvalidInput(f"dimension mismatch: {a.dim} vs {b.dim}")


@dataclass(frozen=True, eq=False)
class UnitVector:
    """A vector of unit Euclidean norm; normalized on construction."""

    field: FieldKind
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_field_array(self.field, self.entries, 1, "UnitVector")
        if arr.size == 0:
            raise InvalidInput("UnitVector: dimension must be at least 1")
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise InvalidInput("UnitVector: zero vector cannot be normalized")
        if abs(norm - 1.0) > NORMALIZATION_TOL:
            arr = arr / norm
            arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class RankOneProjection:
    """Projection onto the span of a unit vector, stored as the vector.

    The stored representative carries an arbitrary global phase; the
    induced matrix x x* is the phase-invariant object.
    """

    vector: UnitVector

    @property
    def field(self) -> FieldKind:
        return self.vector.field

    @property
    def dim(self) -> int:
        return self.vector.dim

    def matrix(self) -> np.ndarray:
        x = self.vector.entries
        return np.outer(x, x.conj())


@dataclass(frozen=True, eq=False)
class OrthogonalProjection:
    """A rank-k orthogonal projection matrix on the d-dimensional space."""

    field: FieldKind
    rank: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _hermitian_array(self.field, self.matrix, "OrthogonalProjection")
        d = mat.shape[0]
        if not 0 <= self.rank <= d:
            raise InvalidInput(f"OrthogonalProjection: rank {self.rank} outside [0, {d}]")
        idem = float(np.max(np.abs(mat @ mat - mat), initial=0.0))
        if idem > IDEMPOTENT_TOL:
            raise InvalidInput(f"OrthogonalProjection: not idempotent (deviation {idem:.2e})")
        tr = float(np.trace(mat).real)
        if abs(tr - self.rank) > TRACE_TOL:
            raise InvalidInput(
                f"OrthogonalProjection: trace {tr!r} does not match rank {self.rank}"
            )
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def complement(self) -> "OrthogonalProjection":
        """The projection onto the orthogonal complement of the range."""
        eye = np.eye(self.dim, dtype=self.field.dtype)
        return OrthogonalProjection(self.field, self.dim - self.rank, eye - self.matrix)


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A self-adjoint matrix over the chosen field."""

    field: FieldKind
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _hermitian_array(self.field, self.matrix, "HermitianMatrix")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class BitString:
    """An immutable sequence of 0/1 answers, one per measurement projection.

    Serialization format: ASCII '0'/'1' characters, no separators,
    newline-terminated.
    """

    __slots__ = ("bits",)

    def __init__(self, bits) -> None:
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise InvalidInput("BitString: expected a 1-d bit sequence")
        if not np.all((arr == 0) | (arr == 1)):
            raise InvalidInput("BitString: entries must be 0 or 1")
        arr = arr.astype(np.uint8, copy=False)
        arr.setflags(write=False)
        self.bits = arr

    def __len__(self) -> int:
        return int(self.bits.shape[0])

    def __iter__(self):
        return iter(int(b) for b in self.bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return bool(np.array_equal(self.bits, other.bits))

    __hash__ = None

    def __repr__(self) -> str:
        body = "".join("01"[b] for b in self.bits[:32])
        tail = "..." if len(self) > 32 else ""
        return f"BitString({body}{tail}, m={len(self)})"

    def to_text(self) -> str:
        return "".join("01"[b] for b in self.bits) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        body = text.rstrip("\n")
        if set(body) - {"0", "1"}:
            raise InvalidInput("BitString: serialized text must contain only '0'/'1'")
        return cls(np.frombuffer(body.encode("ascii"), dtype=np.uint8) - ord("0"))


def rank_one_from_vector(x, field: FieldKind | None = None) -> RankOneProjection:
    """Canonical rank-one projection onto span(x); x is normalized internally.

    Accepts a UnitVector or a raw array; a zero vector raises InvalidInput.
    """
    if isinstance(x, UnitVector):
        return RankOneProjection(x)
    if field is None:
        field = FieldKind.COMPLEX if np.iscomplexobj(np.asarray(x)) else FieldKind.REAL
    return RankOneProjection(UnitVector(field, x))


def _hermitian_opnorm(mats: np.ndarray) -> np.ndarray:
    """max |eigenvalue| of each self-adjoint matrix in a (..., d, d) stack,
    via full eigendecompositions; (..., d, d) -> (...)."""
    return np.max(np.abs(np.linalg.eigvalsh(mats)), axis=-1, initial=0.0)


def operator_norm(h) -> float:
    """Largest absolute eigenvalue of a self-adjoint matrix.

    Accepts a HermitianMatrix, an OrthogonalProjection, a RankOneProjection,
    or a raw square array (validated as a finite self-adjoint matrix).
    """
    if isinstance(h, (HermitianMatrix, OrthogonalProjection)):
        return float(_hermitian_opnorm(h.matrix))
    if isinstance(h, RankOneProjection):
        return float(_hermitian_opnorm(h.matrix()))
    field = FieldKind.COMPLEX if np.iscomplexobj(h) else FieldKind.REAL
    return float(_hermitian_opnorm(_hermitian_array(field, h, "operator_norm")))


def rank_one_distance(x: RankOneProjection, y: RankOneProjection) -> float:
    """Operator-norm distance between rank-one projections, in closed form.

    Equals sin(theta) for the principal angle theta between the ranges:
    sqrt(max(0, 1 - tr(XY))).
    """
    _check_same_space(x, y)
    return _vector_distance(x.vector.entries, y.vector.entries)


def _vector_distance(x: np.ndarray, y: np.ndarray) -> float:
    """rank_one_distance from unit representatives: sqrt(max(0, 1 - |<x, y>|^2)).

    The arrays are used as given; copying a strided view can change how
    np.vdot rounds, and with it the last digits of the distance.
    """
    return float(np.sqrt(max(0.0, 1.0 - abs(np.vdot(x, y)) ** 2)))
