import math
import tracemalloc

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
    operator_norm,
    rank_one_distance,
)
from bitretrieve.measurement import measure
from bitretrieve.recovery import (
    _finalize_average,
    average_stack,
    empirical_average,
    expected_average,
    flipped_projection,
    pep_recover,
    principal_eigenpair,
    principal_eigenpairs,
    recover_from_average,
)
from bitretrieve.measurement import corrupt_bits
from bitretrieve.sampler import (
    _CHUNK,
    MeasurementEnsemble,
    SeedStream,
    sample_ensemble,
    sample_unit_vector,
)
from bitretrieve.theory import mu_pair, pointwise_m

R = FieldKind.REAL
C = FieldKind.COMPLEX


class TestFlippedProjection:
    def test_bit_one_keeps_projection(self):
        p = OrthogonalProjection(R, 1, np.diag([1.0, 0.0]))
        assert np.array_equal(flipped_projection(p, 1).matrix, p.matrix)

    def test_bit_zero_on_zero_projection_gives_identity(self):
        p = OrthogonalProjection(R, 0, np.zeros((3, 3)))
        assert np.array_equal(flipped_projection(p, 0).matrix, np.eye(3))

    def test_complementary_pair_sums_to_identity(self):
        ens = sample_ensemble(R, 3, 5, SeedStream(50))
        for j in range(5):
            p = ens.projection(j)
            total = flipped_projection(p, 1).matrix + flipped_projection(p, 0).matrix
            assert np.max(np.abs(total - np.eye(6))) <= 1e-12

    def test_rejects_non_bit(self):
        p = OrthogonalProjection(R, 1, np.diag([1.0, 0.0]))
        with pytest.raises(InvalidInput):
            flipped_projection(p, 2)


class TestEmpiricalAverage:
    def test_single_projection_bit_one(self):
        ens = sample_ensemble(R, 2, 1, SeedStream(51))
        avg = empirical_average(ens, BitString([1]))
        assert np.max(np.abs(avg.matrix - ens.matrix(0))) <= 1e-13

    def test_single_projection_bit_zero(self):
        ens = sample_ensemble(R, 2, 1, SeedStream(52))
        avg = empirical_average(ens, BitString([0]))
        assert np.max(np.abs(avg.matrix - (np.eye(4) - ens.matrix(0)))) <= 1e-13

    def test_identical_projections_all_ones(self):
        one = sample_ensemble(R, 2, 1, SeedStream(53))
        frames = np.repeat(one.frames, 8, axis=0)
        ens = MeasurementEnsemble(R, 2, frames)
        avg = empirical_average(ens, BitString([1] * 8))
        assert np.max(np.abs(avg.matrix - one.matrix(0))) <= 1e-13

    def test_trace_and_spectrum_bounds(self):
        n = 3
        ens = sample_ensemble(C, n, 257, SeedStream(54, (0,)))
        x = RankOneProjection(sample_unit_vector(C, 2 * n, SeedStream(54, (1,))))
        avg = empirical_average(ens, measure(ens, x))
        assert abs(np.trace(avg.matrix).real - n) <= 1e-8
        vals = np.linalg.eigvalsh(avg.matrix)
        assert vals.min() >= -1e-10
        assert vals.max() <= 1.0 + 1e-10

    def test_matches_flipped_projection_sum(self):
        ens = sample_ensemble(R, 2, 9, SeedStream(55, (0,)))
        x = RankOneProjection(sample_unit_vector(R, 4, SeedStream(55, (1,))))
        bits = measure(ens, x)
        total = np.zeros((4, 4))
        for j in range(9):
            total += flipped_projection(ens.projection(j), int(bits.bits[j])).matrix
        avg = empirical_average(ens, bits)
        assert np.max(np.abs(avg.matrix - total / 9)) <= 1e-12

    def test_rejects_length_mismatch(self):
        ens = sample_ensemble(R, 2, 4, SeedStream(56))
        with pytest.raises(InvalidInput):
            empirical_average(ens, BitString([1, 0]))

    def test_average_stack_matches_single(self):
        ens = sample_ensemble(C, 2, 33, SeedStream(57, (0,)))
        xs = [sample_unit_vector(C, 4, SeedStream(57, (1, i))) for i in range(4)]
        rows = np.stack([measure(ens, RankOneProjection(x)).bits for x in xs])
        stacked = average_stack(ens, rows)
        for i, x in enumerate(xs):
            single = empirical_average(ens, measure(ens, RankOneProjection(x)))
            assert np.max(np.abs(stacked[i] - single.matrix)) <= 1e-13

    @pytest.mark.parametrize("value", [2, -1, 0.5])
    def test_average_stack_refuses_entries_other_than_bits(self, value):
        # Unchecked, rows of 2s would average to trace 6 at n = 2, rows of -1
        # to a negative eigenvalue and rows of 0.5 to the zero matrix.
        ens = sample_ensemble(R, 2, 50, SeedStream(58))
        rows = np.ones((3, 50))
        rows[1, 7] = value
        with pytest.raises(InvalidInput, match="0 or 1"):
            average_stack(ens, rows)

    def test_average_stack_takes_bool_rows(self):
        ens = sample_ensemble(R, 2, 50, SeedStream(58))
        rows = np.random.default_rng(59).integers(0, 2, size=(3, 50), dtype=np.uint8)
        assert np.array_equal(average_stack(ens, rows.astype(bool)), average_stack(ens, rows))

    @pytest.mark.parametrize("field", [R, C])
    def test_finalize_stack_is_bitwise_the_single_calls(self, field):
        rng = np.random.default_rng(60)
        sums = rng.standard_normal((5, 6, 6))
        if field is C:
            sums = sums + 1j * rng.standard_normal((5, 6, 6))
        zeros = rng.integers(0, 40, size=5)
        stacked = _finalize_average(sums, zeros, 40)
        assert stacked.shape == (5, 6, 6)
        for acc, count, mat in zip(sums, zeros, stacked):
            assert np.array_equal(mat, _finalize_average(acc, int(count), 40))

    def test_average_stack_memory_does_not_grow_with_m(self):
        # the table, the signs and the counts of ones are formed per table
        # slice, so besides the bits the traced peak is one slice's working set
        def traced_peak(m):
            ens = sample_ensemble(R, 2, m, SeedStream(61, (m,)))
            rows = np.random.default_rng(62).integers(0, 2, size=(64, m), dtype=np.uint8)
            tracemalloc.start()
            try:
                average_stack(ens, rows)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = traced_peak(4 * _CHUNK), traced_peak(8 * _CHUNK)
        assert large <= small + 2**20, (small, large)


class TestPrincipalEigenpair:
    def test_diagonal_case(self):
        top, vec, margin = principal_eigenpair(HermitianMatrix(R, np.diag([3.0, 1.0, 1.0, 1.0])))
        assert top == 3.0
        assert margin == pytest.approx(2.0, abs=1e-14)
        assert abs(vec.entries[0]) == pytest.approx(1.0, abs=1e-12)

    def test_identity_is_degenerate(self):
        rec = recover_from_average(HermitianMatrix(R, np.eye(4)))
        assert rec.degenerate
        assert rec.spectral_margin == 0.0
        assert rec.top_eigenvalue == pytest.approx(1.0)

    def test_expected_average_structure(self):
        # mu1 X + mu2 (I - X) with mu1 > mu2 has X as principal eigenspace
        x = RankOneProjection(sample_unit_vector(R, 8, SeedStream(58)))
        mu1, mu2 = mu_pair(R, 4)
        q = expected_average(x, mu1, mu2)
        top, vec, margin = principal_eigenpair(q)
        assert top == pytest.approx(mu1, abs=1e-12)
        assert margin == pytest.approx(mu1 - mu2, abs=1e-12)
        assert abs(np.vdot(vec.entries, x.vector.entries)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_empty_stack(self):
        # average_stack returns a (0, d, d) stack for zero bit rows
        top, vectors, margins = principal_eigenpairs(np.zeros((0, 4, 4)))
        assert top.shape == margins.shape == (0,)
        assert vectors.shape == (0, 4)

    def test_residual_contract(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            raw = rng.standard_normal((6, 6))
            h = HermitianMatrix(R, (raw + raw.T) / 2)
            top, vec, _ = principal_eigenpair(h)
            res = np.linalg.norm(h.matrix @ vec.entries - top * vec.entries)
            assert res <= 1e-10 * max(1.0, operator_norm(h))


class TestPepRecover:
    def test_diagonal_average(self):
        rec = recover_from_average(HermitianMatrix(R, np.diag([0.9, 0.4, 0.4, 0.3])))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rec.estimate.matrix() - expected)) <= 1e-12
        assert not rec.degenerate

    def test_optimality_certificate(self):
        # the estimate beats 100 random feasible rank-one points
        ens = sample_ensemble(R, 4, 500, SeedStream(60, (0,)))
        x = RankOneProjection(sample_unit_vector(R, 8, SeedStream(60, (1,))))
        bits = measure(ens, x)
        qhat = empirical_average(ens, bits)
        rec = recover_from_average(qhat)
        best = float(np.real(np.vdot(rec.estimate.vector.entries, qhat.matrix @ rec.estimate.vector.entries)))
        for i in range(100):
            y = sample_unit_vector(R, 8, SeedStream(60, (2, i)))
            value = float(np.real(np.vdot(y.entries, qhat.matrix @ y.entries)))
            assert best >= value - 1e-9

    def test_pep_equals_average_then_recover(self):
        ens = sample_ensemble(C, 2, 64, SeedStream(61, (0,)))
        x = RankOneProjection(sample_unit_vector(C, 4, SeedStream(61, (1,))))
        bits = measure(ens, x)
        a = pep_recover(ens, bits)
        b = recover_from_average(empirical_average(ens, bits))
        assert np.array_equal(a.estimate.vector.entries, b.estimate.vector.entries)
        assert a.top_eigenvalue == b.top_eigenvalue

    def test_recovery_quality_and_contraction(self):
        # at the sample size the fixed-signal bound asks for, most trials
        # recover within delta, and the error contraction inequality
        # holds on every single trial
        field, n, delta, big_d = R, 4, 0.4, 1.0
        m = pointwise_m(field, n, delta, big_d)
        mu1, mu2 = mu_pair(field, n)
        root = SeedStream(62)
        x = RankOneProjection(sample_unit_vector(field, 2 * n, root.child(0)))
        qx = expected_average(x, mu1, mu2).matrix
        successes = 0
        trials = 20
        for t in range(trials):
            ens = sample_ensemble(field, n, m, root.child(1, t))
            qhat = empirical_average(ens, measure(ens, x))
            rec = recover_from_average(qhat)
            err = rank_one_distance(rec.estimate, x)
            qdev = operator_norm(qhat.matrix - qx)
            assert err <= 2.0 / (mu1 - mu2) * qdev + 1e-8
            if err < delta:
                successes += 1
        assert successes >= int(0.7 * trials)


class TestExpectedAverage:
    def test_equal_coefficients_give_identity_multiple(self):
        x = RankOneProjection(sample_unit_vector(R, 6, SeedStream(63)))
        q = expected_average(x, 0.3, 0.3)
        assert np.max(np.abs(q.matrix - 0.3 * np.eye(6))) <= 1e-14

    def test_trace_identity(self):
        for field, n in ((R, 4), (C, 3)):
            x = RankOneProjection(sample_unit_vector(field, 2 * n, SeedStream(64, (n,))))
            mu1, mu2 = mu_pair(field, n)
            q = expected_average(x, mu1, mu2)
            assert abs(np.trace(q.matrix).real - n) <= 1e-12
            v = x.vector.entries
            direct = mu2 * np.eye(2 * n) + (mu1 - mu2) * np.outer(v, v.conj())
            assert np.array_equal(q.matrix, direct)


class TestSpectralIdentity:
    @pytest.mark.parametrize("field", [R, C])
    def test_norm_from_expected_average_trace(self, field):
        # ||X - Y|| equals (mu1 - mu2)^-1 tr(Q(X)(A - B)) with A, B the
        # eigenprojections of X - Y for its extreme eigenvalues
        n = 4
        mu1, mu2 = mu_pair(field, n)
        root = SeedStream(65 if field is R else 66)
        for i in range(1000):
            x = RankOneProjection(sample_unit_vector(field, 2 * n, root.child(i, 0)))
            y = RankOneProjection(sample_unit_vector(field, 2 * n, root.child(i, 1)))
            diff = x.matrix() - y.matrix()
            vals, vecs = np.linalg.eigh(diff)
            a = vecs[:, -1]
            b = vecs[:, 0]
            ab = np.outer(a, a.conj()) - np.outer(b, b.conj())
            qx = expected_average(x, mu1, mu2).matrix
            identity_value = float(np.trace(qx @ ab).real) / (mu1 - mu2)
            assert abs(identity_value - rank_one_distance(x, y)) <= 1e-8

    def test_rank_one_difference_spectrum(self):
        # X - Y has eigenvalues +-||X - Y|| plus zeros
        x = RankOneProjection(sample_unit_vector(R, 8, SeedStream(67, (0,))))
        y = RankOneProjection(sample_unit_vector(R, 8, SeedStream(67, (1,))))
        vals = np.linalg.eigvalsh(x.matrix() - y.matrix())
        dist = rank_one_distance(x, y)
        assert vals[-1] == pytest.approx(dist, abs=1e-10)
        assert vals[0] == pytest.approx(-dist, abs=1e-10)
        assert np.max(np.abs(vals[1:-1])) <= 1e-10


class TestConcentration:
    def test_matrix_bernstein_expectation_bound(self):
        # mean over 50 trials of ||Qhat - Q(X)|| is within the stated
        # sqrt(log(4n)/(2m)) + log(4n)/(3m) bound plus sampling slack
        field, n, m, trials = R, 4, 10000, 50
        mu1, mu2 = mu_pair(field, n)
        root = SeedStream(68)
        x = RankOneProjection(sample_unit_vector(field, 2 * n, root.child(0)))
        qx = expected_average(x, mu1, mu2).matrix
        devs = np.empty(trials)
        for t in range(trials):
            ens = sample_ensemble(field, n, m, root.child(1, t))
            qhat = empirical_average(ens, measure(ens, x))
            devs[t] = operator_norm(qhat.matrix - qx)
        bound = math.sqrt(math.log(4 * n) / (2 * m)) + math.log(4 * n) / (3 * m)
        se = devs.std(ddof=1) / math.sqrt(trials)
        assert devs.mean() <= bound + 3 * se

    def test_noise_robustness_inequality(self):
        # whenever the clean average is within half the gated deviation,
        # the corrupted recovery stays within delta + 2 (mu1-mu2)^-1 tau
        field, n, delta, tau = R, 4, 0.3, 0.05
        m = pointwise_m(field, n, delta, 1.0)
        mu1, mu2 = mu_pair(field, n)
        root = SeedStream(69)
        x = RankOneProjection(sample_unit_vector(field, 2 * n, root.child(0)))
        qx = expected_average(x, mu1, mu2).matrix
        for t in range(10):
            ens = sample_ensemble(field, n, m, root.child(1, t))
            bits = measure(ens, x)
            qdev = operator_norm(empirical_average(ens, bits).matrix - qx)
            for mode in ("random", "greedy"):
                noisy = corrupt_bits(bits, tau, mode, root.child(2, t), (ens, x))
                rec = pep_recover(ens, noisy)
                err = rank_one_distance(rec.estimate, x)
                if qdev <= 0.5 * (mu1 - mu2) * delta:
                    assert err <= delta + 2.0 * tau / (mu1 - mu2) + 1e-12
