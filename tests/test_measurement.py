import math

import numpy as np
import pytest

from bitretrieve.core import (
    BitString,
    FieldKind,
    InvalidInput,
    OrthogonalProjection,
    RankOneProjection,
    UnitVector,
    rank_one_distance,
)
from bitretrieve.measurement import (
    _t_separated,
    binary_question,
    corrupt_bits,
    hamming_distance,
    measure,
    measurement_hamming,
    separates,
    soft_hamming,
    t_separates,
    trace_table,
    trace_value,
    trace_values,
)
from bitretrieve.sampler import SeedStream, sample_ensemble, sample_unit_vector

R = FieldKind.REAL
C = FieldKind.COMPLEX

P_HALF = OrthogonalProjection(R, 2, np.diag([1.0, 1.0, 0.0, 0.0]))


def unit(entries, field=R):
    return UnitVector(field, entries)


def rank_one(entries, field=R):
    return RankOneProjection(unit(entries, field))


class TestBinaryQuestion:
    def test_signal_inside_range(self):
        assert binary_question(P_HALF, rank_one([1.0, 0.0, 0.0, 0.0])) == 1

    def test_signal_orthogonal_to_range(self):
        assert binary_question(P_HALF, rank_one([0.0, 0.0, 1.0, 0.0])) == 0

    def test_exact_tie_answers_one(self):
        # all entries 1/2: the norm and the trace are exact dyadics, so
        # tr(PX) is exactly 1/2 = k/d in floating point
        x = rank_one([0.5, 0.5, 0.5, 0.5])
        assert trace_value(P_HALF, x) == 0.5
        assert binary_question(P_HALF, x) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            binary_question(P_HALF, rank_one([1.0, 0.0]))


class TestMeasure:
    def test_all_ones_when_inside_every_range(self):
        frames = np.zeros((3, 2, 4))
        frames[:, 0, 0] = 1.0
        frames[:, 1, 1] = 1.0
        from bitretrieve.sampler import MeasurementEnsemble

        ens = MeasurementEnsemble(R, 2, frames)
        bits = measure(ens, rank_one([1.0, 0.0, 0.0, 0.0]))
        assert list(bits) == [1, 1, 1]

    def test_phase_invariance(self):
        ens = sample_ensemble(C, 3, 64, SeedStream(21, (0,)))
        g = sample_unit_vector(C, 6, SeedStream(21, (1,)))
        alpha = np.exp(1.2j)
        a = measure(ens, RankOneProjection(g))
        b = measure(ens, RankOneProjection(UnitVector(C, alpha * g.entries)))
        assert a == b

    def test_matches_per_element_question(self):
        ens = sample_ensemble(R, 2, 32, SeedStream(22))
        x = RankOneProjection(sample_unit_vector(R, 4, SeedStream(23)))
        bits = measure(ens, x)
        for j in range(32):
            assert bits.bits[j] == binary_question(ens.projection(j), x)


class TestHamming:
    def test_identical_strings(self):
        a = BitString([0, 1, 1, 0])
        assert hamming_distance(a, a) == 0.0

    def test_complementary_strings(self):
        a = BitString([0, 1, 1, 0])
        b = BitString([1, 0, 0, 1])
        assert hamming_distance(a, b) == 1.0

    def test_half(self):
        assert hamming_distance(BitString([0, 1, 1, 0]), BitString([0, 1, 0, 1])) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(InvalidInput):
            hamming_distance(BitString([0, 1]), BitString([0, 1, 0]))

    def test_measurement_hamming_symmetry(self):
        ens = sample_ensemble(R, 2, 128, SeedStream(24))
        x = RankOneProjection(sample_unit_vector(R, 4, SeedStream(25, (0,))))
        y = RankOneProjection(sample_unit_vector(R, 4, SeedStream(25, (1,))))
        assert measurement_hamming(ens, x, y) == measurement_hamming(ens, y, x)
        assert measurement_hamming(ens, x, x) == 0.0


class TestSeparation:
    def test_never_separates_identical(self):
        ens = sample_ensemble(R, 2, 16, SeedStream(26))
        x = RankOneProjection(sample_unit_vector(R, 4, SeedStream(27)))
        for j in range(16):
            assert not separates(ens.projection(j), x, x)

    def test_t_half_never_separates(self):
        ens = sample_ensemble(R, 2, 16, SeedStream(28))
        x = RankOneProjection(sample_unit_vector(R, 4, SeedStream(29, (0,))))
        y = RankOneProjection(sample_unit_vector(R, 4, SeedStream(29, (1,))))
        for j in range(16):
            assert not t_separates(ens.projection(j), x, y, 0.5)
        assert soft_hamming(ens, x, y, 0.5) == 0.0

    def test_t_minus_one_always_separates(self):
        ens = sample_ensemble(R, 2, 16, SeedStream(30))
        x = RankOneProjection(sample_unit_vector(R, 4, SeedStream(31, (0,))))
        y = RankOneProjection(sample_unit_vector(R, 4, SeedStream(31, (1,))))
        for j in range(16):
            assert t_separates(ens.projection(j), x, y, -1.0)
        assert soft_hamming(ens, x, y, -1.0) == 1.0

    def test_t_version_requires_half_dimensional(self):
        p = OrthogonalProjection(R, 1, np.diag([1.0, 0.0, 0.0]))
        x = rank_one([1.0, 0.0, 0.0])
        with pytest.raises(InvalidInput):
            t_separates(p, x, x, 0.0)

    def test_t_zero_matches_hard_separation_eventwise(self):
        ens = sample_ensemble(R, 2, 200, SeedStream(32))
        x = RankOneProjection(sample_unit_vector(R, 4, SeedStream(33, (0,))))
        y = RankOneProjection(sample_unit_vector(R, 4, SeedStream(33, (1,))))
        for j in range(200):
            p = ens.projection(j)
            assert t_separates(p, x, y, 0.0) == separates(p, x, y)
        assert soft_hamming(ens, x, y, 0.0) == measurement_hamming(ens, x, y)

    @pytest.mark.parametrize("field", [R, C])
    def test_margin_kernel_matches_chained_comparison(self, field):
        # traces of one ensemble plus dyadic values, where the sums tie
        # with 1/2 exactly, against the scalar chained comparison
        ens = sample_ensemble(field, 2, 300, SeedStream(36))
        x = RankOneProjection(sample_unit_vector(field, 4, SeedStream(37, (0,))))
        y = RankOneProjection(sample_unit_vector(field, 4, SeedStream(37, (1,))))
        rng = np.random.default_rng(38)
        tx = np.concatenate([trace_values(ens, x), rng.integers(0, 9, 300) / 8])
        ty = np.concatenate([trace_values(ens, y), rng.integers(0, 9, 300) / 8])
        for t in (-0.25, -0.125, 0.0, 0.125, 0.25, float(rng.uniform(-0.5, 0.5))):
            got = _t_separated(tx, ty, t)
            chained = [(a + t < 0.5 <= b - t) or (b + t < 0.5 <= a - t) for a, b in zip(tx, ty)]
            assert np.array_equal(got, chained)

    def test_monotone_in_t(self):
        ens = sample_ensemble(R, 4, 512, SeedStream(34))
        x = RankOneProjection(sample_unit_vector(R, 8, SeedStream(35, (0,))))
        y = RankOneProjection(sample_unit_vector(R, 8, SeedStream(35, (1,))))
        values = [soft_hamming(ens, x, y, t) for t in (-0.4, -0.1, 0.0, 0.05, 0.2, 0.5)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_nesting_eventwise(self):
        # margin t2 >= 0 implies hard separation implies margin t1 <= 0
        ens = sample_ensemble(R, 2, 300, SeedStream(36))
        x = RankOneProjection(sample_unit_vector(R, 4, SeedStream(37, (0,))))
        y = RankOneProjection(sample_unit_vector(R, 4, SeedStream(37, (1,))))
        for j in range(300):
            p = ens.projection(j)
            if t_separates(p, x, y, 0.05):
                assert separates(p, x, y)
            if separates(p, x, y):
                assert t_separates(p, x, y, -0.05)

    @pytest.mark.parametrize("field", [R, C])
    def test_sandwich_property(self, field):
        # perturbing the pair by eps in operator norm is absorbed by
        # adjusting t by eps on either side
        n, m, instances = 2, 64, 500
        d = 2 * n
        root = SeedStream(38 if field is R else 39)
        for i in range(instances):
            ens = sample_ensemble(field, n, m, root.child(0, i))
            x0 = sample_unit_vector(field, d, root.child(1, i, 0))
            y0 = sample_unit_vector(field, d, root.child(1, i, 1))
            bx = sample_unit_vector(field, d, root.child(1, i, 2))
            by = sample_unit_vector(field, d, root.child(1, i, 3))
            scale = (0.02, 0.1, 0.4)[i % 3]
            x1 = UnitVector(field, x0.entries + scale * bx.entries)
            y1 = UnitVector(field, y0.entries + scale * by.entries)
            x0p, y0p = RankOneProjection(x0), RankOneProjection(y0)
            x1p, y1p = RankOneProjection(x1), RankOneProjection(y1)
            eps = max(rank_one_distance(x0p, x1p), rank_one_distance(y0p, y1p)) + 1e-12
            t = (-0.1, 0.0, 0.1)[i % 3]
            mid = soft_hamming(ens, x0p, y0p, t)
            assert soft_hamming(ens, x1p, y1p, t + eps) <= mid
            assert mid <= soft_hamming(ens, x1p, y1p, t - eps)

    def test_binomial_concentration(self):
        # across 200 ensembles of size 1000, deviations of the soft distance
        # from its mean beyond 0.05 are as rare as the Chernoff bound says
        n, m, reps, t, delta = 2, 1000, 200, 0.02, 0.05
        root = SeedStream(40)
        x = RankOneProjection(sample_unit_vector(R, 2 * n, root.child(0)))
        y = RankOneProjection(sample_unit_vector(R, 2 * n, root.child(1)))
        values = np.array(
            [soft_hamming(sample_ensemble(R, n, m, root.child(2, r)), x, y, t) for r in range(reps)]
        )
        mean = values.mean()
        frac = float(np.mean(np.abs(values - mean) > delta))
        assert frac <= 2 * math.exp(-2 * delta * delta * m) + 0.02

    def test_expectation_drift_in_t(self):
        # |E d^t - E d| <= 32 sqrt(2 bn - 1) / (e sqrt(2 pi)) |t|
        n, m = 8, 40000
        bn = 0.5 * n
        coeff = 32 * math.sqrt(2 * bn - 1) / (math.e * math.sqrt(2 * math.pi))
        root = SeedStream(41)
        ens = sample_ensemble(R, n, m, root.child(0))
        x = RankOneProjection(sample_unit_vector(R, 2 * n, root.child(1)))
        y = RankOneProjection(sample_unit_vector(R, 2 * n, root.child(2)))
        tx = trace_values(ens, x)
        ty = trace_values(ens, y)
        hard = ((tx < 0.5) & (0.5 <= ty)) | ((ty < 0.5) & (0.5 <= tx))
        for t in (-0.05, -0.01, 0.01, 0.05):
            soft = ((tx + t < 0.5) & (0.5 <= ty - t)) | ((ty + t < 0.5) & (0.5 <= tx - t))
            diff = soft.astype(float) - hard.astype(float)
            se = diff.std(ddof=1) / math.sqrt(m)
            assert abs(diff.mean()) <= coeff * abs(t) + 3 * se

    @pytest.mark.parametrize("field", [R, C])
    @pytest.mark.parametrize("n", [2, 8])
    def test_separation_probability_bound(self, field, n):
        # P(P separates X, Y) <= ||X - Y|| for every pair
        m, pairs = 4000, 20
        root = SeedStream(42, (int(field is C), n))
        ens = sample_ensemble(field, n, m, root.child(0))
        for i in range(pairs):
            x = RankOneProjection(sample_unit_vector(field, 2 * n, root.child(1, i, 0)))
            y = RankOneProjection(sample_unit_vector(field, 2 * n, root.child(1, i, 1)))
            p_hat = measurement_hamming(ens, x, y)
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-6) / m)
            assert p_hat <= rank_one_distance(x, y) + 3 * se


class TestTraceTable:
    def test_matches_trace_values(self):
        ens = sample_ensemble(C, 3, 100, SeedStream(43))
        xs = [sample_unit_vector(C, 6, SeedStream(44, (i,))) for i in range(5)]
        table = trace_table(ens, np.stack([x.entries for x in xs]))
        for i, x in enumerate(xs):
            direct = trace_values(ens, RankOneProjection(x))
            assert np.max(np.abs(table[i] - direct)) <= 1e-12

    def test_rejects_bad_shape(self):
        ens = sample_ensemble(R, 2, 10, SeedStream(45))
        with pytest.raises(InvalidInput):
            trace_table(ens, np.zeros((3, 5)))

    @pytest.mark.parametrize("row", [[0.0] * 4, [3.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]])
    def test_rejects_rows_that_are_not_unit_vectors(self, row):
        # tr(P X) lies in [0, 1] only for a unit representative x
        ens = sample_ensemble(R, 2, 50, SeedStream(45))
        vectors = np.stack([sample_unit_vector(R, 4, SeedStream(46)).entries, row])
        with pytest.raises(InvalidInput, match="row 1"):
            trace_table(ens, vectors)


class TestCorruptBits:
    def setup_method(self):
        self.ens = sample_ensemble(R, 4, 40, SeedStream(46, (0,)))
        self.x = RankOneProjection(sample_unit_vector(R, 8, SeedStream(46, (1,))))
        self.bits = measure(self.ens, self.x)

    def test_tau_zero_is_identity(self):
        out = corrupt_bits(self.bits, 0.0, "random", SeedStream(1))
        assert out == self.bits

    @pytest.mark.parametrize("mode", ["random", "greedy"])
    def test_empty_string_flips_nothing(self, mode):
        # floor(tau * 0) = 0 flips, as hamming_distance gives 0.0 for two
        # empty strings; the count must not divide by m = 0.
        out = corrupt_bits(BitString([]), 0.1, mode, SeedStream(1))
        assert len(out) == 0

    def test_exact_flip_count(self):
        # floor(0.25 * 10) = 2 flips
        bits = BitString([0] * 10)
        out = corrupt_bits(bits, 0.25, "random", SeedStream(2))
        assert int(out.bits.sum()) == 2

    def test_flip_count_no_float_dust(self):
        # floor(0.1 * 30) must be 3 despite 0.1*30 = 2.9999... in floats
        bits = BitString([0] * 30)
        out = corrupt_bits(bits, 0.1, "random", SeedStream(3))
        assert int(out.bits.sum()) == 3

    def test_flip_count_never_exceeds_tau(self):
        # tau * m = 2.9999999999 must flip 2 bits, not 3: Hamming 0.03 > tau
        tau = 0.03 - 1e-12
        bits = BitString([0] * 100)
        out = corrupt_bits(bits, tau, "random", SeedStream(10))
        assert int(out.bits.sum()) == 2
        assert hamming_distance(bits, out) <= tau
        # decimal taus still flip their exact count
        out = corrupt_bits(bits, 0.29, "random", SeedStream(11))
        assert int(out.bits.sum()) == 29

    def test_hamming_distance_is_flip_fraction(self):
        tau = 0.3
        out = corrupt_bits(self.bits, tau, "random", SeedStream(4))
        m = len(self.bits)
        assert hamming_distance(self.bits, out) == math.floor(tau * m) / m
        assert hamming_distance(self.bits, out) <= tau

    def test_random_mode_deterministic(self):
        a = corrupt_bits(self.bits, 0.2, "random", SeedStream(5, (1,)))
        b = corrupt_bits(self.bits, 0.2, "random", SeedStream(5, (1,)))
        c = corrupt_bits(self.bits, 0.2, "random", SeedStream(5, (2,)))
        assert a == b
        assert a != c

    def test_greedy_targets_most_confident_bits(self):
        tau = 0.25
        out = corrupt_bits(self.bits, tau, "greedy", SeedStream(6), (self.ens, self.x))
        flipped = np.nonzero(out.bits != self.bits.bits)[0]
        damage = np.abs(1.0 - 2.0 * trace_values(self.ens, self.x))
        oracle = np.argsort(-damage, kind="stable")[: len(flipped)]
        assert set(flipped) == set(oracle)

    def test_greedy_requires_context(self):
        with pytest.raises(InvalidInput):
            corrupt_bits(self.bits, 0.2, "greedy", SeedStream(7))

    def test_rejects_bad_tau(self):
        for tau in (-0.1, 1.0, 1.5):
            with pytest.raises(InvalidInput):
                corrupt_bits(self.bits, tau, "random", SeedStream(8))

    def test_rejects_unknown_mode(self):
        with pytest.raises(InvalidInput):
            corrupt_bits(self.bits, 0.2, "adversarial", SeedStream(9))

    # floor(tau m) = 0 below: the mode and the context are checked before
    # the string is returned unflipped.
    def test_rejects_unknown_mode_when_nothing_flips(self):
        with pytest.raises(InvalidInput, match="unknown mode"):
            corrupt_bits(BitString([0, 1] * 50), 0.001, "bogus", SeedStream(1))

    def test_greedy_requires_context_when_nothing_flips(self):
        with pytest.raises(InvalidInput, match="requires context"):
            corrupt_bits(self.bits, 0.0, "greedy", SeedStream(7))

    def test_greedy_context_must_match_when_nothing_flips(self):
        bits, context = BitString([0, 1] * 50), (self.ens, self.x)
        with pytest.raises(InvalidInput, match="m=40"):
            corrupt_bits(bits, 0.001, "greedy", SeedStream(7), context)
