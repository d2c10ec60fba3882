import math

import numpy as np
import pytest

from bitretrieve.core import (
    BitString,
    FieldKind,
    HermitianMatrix,
    InvalidInput,
    OrthogonalProjection,
    RankOneProjection,
    UnitVector,
    _hermitian_opnorm,
    operator_norm,
    rank_one_distance,
    rank_one_from_vector,
)

R = FieldKind.REAL
C = FieldKind.COMPLEX


def random_unit(field, d, rng):
    g = rng.standard_normal(d)
    if field is C:
        g = g + 1j * rng.standard_normal(d)
    return UnitVector(field, g)


class TestFieldKind:
    def test_beta_values(self):
        assert R.beta == 0.5
        assert C.beta == 1.0

    def test_parse(self):
        assert FieldKind.parse("Real") is R
        assert FieldKind.parse(" complex ") is C
        assert FieldKind.parse("c") is C
        with pytest.raises(InvalidInput):
            FieldKind.parse("quaternion")


class TestUnitVector:
    def test_normalizes(self):
        v = UnitVector(R, [3.0, 4.0])
        assert np.linalg.norm(v.entries) == pytest.approx(1.0, abs=1e-12)
        assert v.entries[0] == pytest.approx(0.6)

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInput):
            UnitVector(R, [0.0, 0.0])

    def test_real_field_rejects_complex_entries(self):
        with pytest.raises(InvalidInput):
            UnitVector(R, [1.0 + 1.0j, 0.0])

    def test_immutable(self):
        v = UnitVector(R, [1.0, 0.0])
        with pytest.raises(ValueError):
            v.entries[0] = 2.0


class TestRankOneProjection:
    def test_standard_basis_vector(self):
        x = rank_one_from_vector(UnitVector(R, [1, 0, 0, 0]))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.array_equal(x.matrix(), expected)

    def test_sign_invariance(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal(6)
        a = rank_one_from_vector(UnitVector(R, g)).matrix()
        b = rank_one_from_vector(UnitVector(R, -g)).matrix()
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_phase_invariance_complex(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        alpha = np.exp(0.7j)
        a = rank_one_from_vector(UnitVector(C, g)).matrix()
        b = rank_one_from_vector(UnitVector(C, alpha * g)).matrix()
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_outer_product_oracle(self):
        # direct outer-product computation as the oracle
        raw = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2)
        oracle = np.outer(raw, raw)
        got = rank_one_from_vector(UnitVector(R, [1.0, 1.0, 0.0, 0.0])).matrix()
        assert np.max(np.abs(got - oracle)) <= 1e-14
        assert got[0, 0] == pytest.approx(0.5)
        assert got[2, 2] == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInput):
            rank_one_from_vector(np.zeros(4))

    @pytest.mark.parametrize("field", [R, C])
    def test_projection_invariants(self, field):
        rng = np.random.default_rng(7)
        for _ in range(50):
            mat = rank_one_from_vector(random_unit(field, 8, rng)).matrix()
            assert np.max(np.abs(mat - mat.conj().T)) <= 1e-12
            assert np.max(np.abs(mat @ mat - mat)) <= 1e-10
            assert abs(np.trace(mat).real - 1.0) <= 1e-12


class TestOrthogonalProjection:
    def test_accepts_valid(self):
        p = OrthogonalProjection(R, 2, np.diag([1.0, 1.0, 0.0, 0.0]))
        assert p.dim == 4

    def test_accepts_rank_zero(self):
        p = OrthogonalProjection(R, 0, np.zeros((3, 3)))
        assert p.complement().rank == 3

    def test_rejects_non_hermitian(self):
        mat = np.diag([1.0, 0.0])
        mat[0, 1] = 1e-6
        with pytest.raises(InvalidInput):
            OrthogonalProjection(R, 1, mat)

    def test_rejects_non_idempotent(self):
        with pytest.raises(InvalidInput):
            OrthogonalProjection(R, 1, np.diag([0.5, 0.5]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidInput):
            OrthogonalProjection(R, 2, np.diag([1.0, 0.0]))

    def test_complement(self):
        p = OrthogonalProjection(R, 1, np.diag([1.0, 0.0, 0.0]))
        q = p.complement()
        assert q.rank == 2
        assert np.array_equal(p.matrix + q.matrix, np.eye(3))


class TestOperatorNorm:
    def test_zero_matrix(self):
        assert operator_norm(HermitianMatrix(R, np.zeros((4, 4)))) == 0.0

    def test_projection_norm_is_one(self):
        p = OrthogonalProjection(R, 2, np.diag([1.0, 1.0, 0.0, 0.0]))
        assert operator_norm(p) == pytest.approx(1.0, abs=1e-12)

    def test_principal_angle_oracle(self):
        # sin(theta) = sqrt(1 - |<x, y>|^2) with overlap 1/2 gives sin(pi/4)
        x = rank_one_from_vector(UnitVector(R, [1, 0, 0, 0]))
        y = rank_one_from_vector(UnitVector(R, [1, 1, 0, 0]))
        overlap = abs(np.vdot(x.vector.entries, y.vector.entries)) ** 2
        oracle = math.sqrt(1.0 - overlap)
        got = operator_norm(x.matrix() - y.matrix())
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInput):
            operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "mat",
        [[[np.nan, 0.0], [0.0, 1.0]], [[0.0, np.inf], [np.inf, 1.0]]],
        ids=["nan-diagonal", "inf-off-diagonal"],
    )
    def test_rejects_non_finite(self, mat):
        # A raw array skipped the finiteness check: these gave 0.0 and nan.
        with pytest.raises(InvalidInput, match="non-finite"):
            operator_norm(np.array(mat))


class TestRankOneDistance:
    def test_identical(self):
        x = rank_one_from_vector(UnitVector(R, [0.0, 1.0, 0.0]))
        assert rank_one_distance(x, x) == 0.0

    def test_orthogonal_ranges(self):
        x = rank_one_from_vector(UnitVector(R, [1.0, 0.0]))
        y = rank_one_from_vector(UnitVector(R, [0.0, 1.0]))
        assert rank_one_distance(x, y) == pytest.approx(1.0, abs=1e-14)

    def test_eigensolve_oracle(self):
        # direct eigensolve of X - Y as the independent oracle
        theta = math.pi / 6
        x = rank_one_from_vector(UnitVector(R, [1.0, 0.0, 0.0, 0.0]))
        y = rank_one_from_vector(
            UnitVector(R, [math.cos(theta), math.sin(theta), 0.0, 0.0])
        )
        oracle = float(np.max(np.abs(np.linalg.eigvalsh(x.matrix() - y.matrix()))))
        got = rank_one_distance(x, y)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        x = rank_one_from_vector(UnitVector(R, [1.0, 0.0]))
        y = rank_one_from_vector(UnitVector(R, [1.0, 0.0, 0.0]))
        with pytest.raises(InvalidInput):
            rank_one_distance(x, y)

    def test_field_mismatch(self):
        x = rank_one_from_vector(UnitVector(R, [1.0, 0.0]))
        y = rank_one_from_vector(UnitVector(C, [1.0, 0.0]))
        with pytest.raises(InvalidInput):
            rank_one_distance(x, y)

    @pytest.mark.parametrize("field", [R, C])
    def test_bounded_by_vector_distance(self, field):
        # operator distance between the projections never exceeds the
        # Euclidean distance of representatives, over 1000 random pairs
        rng = np.random.default_rng(42 if field is R else 43)
        for _ in range(1000):
            x = random_unit(field, 6, rng)
            y = random_unit(field, 6, rng)
            dist = rank_one_distance(RankOneProjection(x), RankOneProjection(y))
            assert dist <= np.linalg.norm(x.entries - y.entries) + 1e-12

    @pytest.mark.parametrize("field", [R, C])
    def test_matches_operator_norm(self, field):
        rng = np.random.default_rng(10 if field is R else 11)
        diffs, directs = [], []
        for _ in range(200):
            x = RankOneProjection(random_unit(field, 5, rng))
            y = RankOneProjection(random_unit(field, 5, rng))
            diffs.append(x.matrix() - y.matrix())
            directs.append(operator_norm(diffs[-1]))
            assert rank_one_distance(x, y) == pytest.approx(directs[-1], abs=1e-9)
        # the stacked kernel behind operator_norm gives each matrix's norm
        assert np.array_equal(_hermitian_opnorm(np.stack(diffs)), directs)


class TestBitString:
    def test_roundtrip_text(self):
        bits = BitString([0, 1, 1, 0, 1])
        text = bits.to_text()
        assert text == "01101\n"
        assert BitString.from_text(text) == bits

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidInput):
            BitString([0, 2, 1])

    @pytest.mark.parametrize("bits", [[0.5, 1.7], np.array([0.9]), [-1], [0.0, np.nan]])
    def test_rejects_entries_other_than_zero_and_one(self, bits):
        # a uint8 cast would truncate 0.5 to 0 and overflow on -1
        with pytest.raises(InvalidInput):
            BitString(bits)

    def test_accepts_bools(self):
        assert BitString(np.array([True, False])) == BitString([1, 0])

    def test_rejects_bad_text(self):
        with pytest.raises(InvalidInput):
            BitString.from_text("01x0\n")

    def test_length(self):
        assert len(BitString(np.ones(7, dtype=np.uint8))) == 7
