import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad

from bitretrieve.core import FieldKind, InvalidInput, RankOneProjection
from bitretrieve.measurement import trace_values
from bitretrieve.sampler import SeedStream, sample_ensemble, sample_unit_vector
from bitretrieve.theory import (
    dsep_probability,
    eigen_density,
    eigen_density_eval,
    hamming_conc_m,
    invert_uniform_delta,
    log_beta,
    mu_pair,
    net_log_cardinality,
    noisy_error_bound,
    pointwise_error_level,
    pointwise_m,
    spectral_gap,
    theory_constants,
    uniform_m,
)

R = FieldKind.REAL
C = FieldKind.COMPLEX

getcontext().prec = 60
PI = Decimal(
    "3.14159265358979323846264338327950288419716939937510582097494459230781640628621"
)


def exact_beta(a: int, b: int) -> Fraction:
    # B(a, b) = (a-1)! (b-1)! / (a+b-1)! for integer arguments
    return Fraction(
        math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1)
    )


def exact_gap(field: FieldKind, n: int) -> Fraction:
    # 2(n-1) / (bn (2n-1) 4^bn B(bn, bn)) for integer bn
    bn = Fraction(1, 2) * n if field is R else Fraction(n)
    assert bn.denominator == 1
    bn = int(bn)
    return Fraction(2 * (n - 1)) / (Fraction(bn) * (2 * n - 1) * 4**bn * exact_beta(bn, bn))


class TestLogBeta:
    def test_b11_is_one(self):
        assert log_beta(1, 1) == pytest.approx(0.0, abs=1e-15)

    def test_half_half_is_pi(self):
        assert log_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), rel=1e-13)

    def test_b44_integer_oracle(self):
        oracle = exact_beta(4, 4)
        assert oracle == Fraction(1, 140)
        assert log_beta(4, 4) == pytest.approx(math.log(1 / 140), rel=1e-13)

    def test_huge_arguments_finite(self):
        val = log_beta(1e6, 1e6)
        assert math.isfinite(val)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            log_beta(0.0, 1.0)
        with pytest.raises(InvalidInput):
            log_beta(2.0, -3.0)

    def test_matches_naive_gamma_for_small_args(self):
        for field in (R, C):
            for n in range(1, 17):
                bn = field.beta * n
                if bn > 8:
                    continue
                naive = math.gamma(bn) ** 2 / math.gamma(2 * bn)
                assert math.exp(log_beta(bn, bn)) == pytest.approx(naive, rel=1e-10)


class TestMuPair:
    def test_uniform_law_oracle_real_n2(self):
        # bn = 1 makes tr(PX) uniform on [0, 1]; E[t | t >= 1/2] = 3/4 exactly,
        # and the trace identity mu1 + (2n-1) mu2 = n pins mu2 = 5/12.
        mu1, mu2 = mu_pair(R, 2)
        assert mu1 == pytest.approx(float(Fraction(3, 4)), abs=1e-14)
        assert mu2 == pytest.approx(float((2 - Fraction(3, 4)) / 3), abs=1e-14)

    def test_uniform_law_oracle_complex_n1(self):
        mu1, mu2 = mu_pair(C, 1)
        assert mu1 == pytest.approx(0.75, abs=1e-14)
        assert mu2 == pytest.approx(0.25, abs=1e-14)

    def test_trace_identity_both_fields(self):
        for field in (R, C):
            for n in range(1, 65):
                mu1, mu2 = mu_pair(field, n)
                assert abs(mu1 + (2 * n - 1) * mu2 - n) <= 1e-12
                assert 0.5 < mu1 <= 1.0
                assert 0.0 <= mu2 < 0.5

    def test_rejects_n_zero(self):
        with pytest.raises(InvalidInput):
            mu_pair(R, 0)

    def test_monte_carlo_agreement(self):
        # validates the conditional-mean derivation independently of the closed form
        n, n_samples = 4, 100000
        ens = sample_ensemble(R, n, n_samples, SeedStream(321, (0,)))
        x = RankOneProjection(sample_unit_vector(R, 2 * n, SeedStream(321, (1,))))
        traces = trace_values(ens, x)
        upper = traces[traces >= 0.5]
        mu1_mc = float(upper.mean())
        se = float(upper.std(ddof=1) / math.sqrt(upper.shape[0]))
        mu1, mu2 = mu_pair(R, n)
        assert abs(mu1_mc - mu1) <= 3 * se
        mu2_implied = (n - mu1_mc) / (2 * n - 1)
        assert abs(mu2_implied - mu2) <= 3 * se / (2 * n - 1)


class TestSpectralGap:
    def test_exact_rational_oracle_real_n4(self):
        oracle = exact_gap(R, 4)
        assert oracle == Fraction(9, 56)
        gap, lower, upper = spectral_gap(R, 4)
        assert gap == pytest.approx(float(oracle), rel=1e-13)

    def test_bounds_formula_oracle_real_n4(self):
        _, lower, upper = spectral_gap(R, 4)
        n, bn = 4, 2.0
        lower_oracle = (n - 1) * math.sqrt(2 * bn - 1) / (math.sqrt(2 * math.pi) * bn * (2 * n - 1))
        upper_oracle = 4 * (n - 1) * math.sqrt(2 * bn - 1) / (
            math.e * math.sqrt(2 * math.pi) * bn * (2 * n - 1)
        )
        assert lower == pytest.approx(lower_oracle, rel=1e-13)
        assert upper == pytest.approx(upper_oracle, rel=1e-13)
        assert lower == pytest.approx(0.1481, abs=5e-5)
        assert upper == pytest.approx(0.2181, abs=5e-4)

    def test_real_n1_degenerates_to_zero(self):
        gap, lower, upper = spectral_gap(R, 1)
        assert gap == 0.0
        assert lower is None and upper is None

    def test_bounds_absent_below_threshold(self):
        for field, n in ((R, 2), (R, 3), (C, 1)):
            _, lower, upper = spectral_gap(field, n)
            assert lower is None and upper is None

    def test_bounds_sandwich_for_bn_2_to_64(self):
        for field in (R, C):
            for n in range(1, 130):
                bn = field.beta * n
                if not 2 <= bn <= 64:
                    continue
                gap, lower, upper = spectral_gap(field, n)
                assert lower is not None and upper is not None
                assert lower <= gap <= upper

    def test_gap_constant_is_conservative(self):
        # the published gap constant undershoots mu1 - mu2, so every bound
        # using its inverse stays valid
        for field in (R, C):
            for n in range(2, 40):
                mu1, mu2 = mu_pair(field, n)
                gap, _, _ = spectral_gap(field, n)
                assert gap < mu1 - mu2


class TestSampleSizes:
    def test_pointwise_m_decimal_oracle(self):
        gap = exact_gap(R, 8)
        assert gap == Fraction(49, 384)
        value = (
            (Decimal(14) / 3)
            * (Decimal(gap.denominator) / gap.numerator) ** 2
            * Decimal(100)
            * (Decimal(32).ln() + 3)
        )
        oracle = int(value.to_integral_value(rounding="ROUND_CEILING"))
        got = pointwise_m(R, 8, 0.1, 3)
        assert abs(got - oracle) <= 1
        assert got == 185309

    def test_pointwise_m_delta_scaling(self):
        m1 = pointwise_m(R, 8, 0.1, 2)
        m2 = pointwise_m(R, 8, 0.2, 2)
        assert abs(m1 / 4 - m2) <= 1

    def test_pointwise_m_linear_in_d(self):
        m1 = pointwise_m(R, 8, 0.1, 2)
        m2 = pointwise_m(R, 8, 0.1, 3)
        gap, _, _ = spectral_gap(R, 8)
        step = math.ceil((14 / 3) / (gap * gap * 0.01))
        assert abs((m2 - m1) - step) <= 1

    def test_pointwise_m_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            pointwise_m(R, 1, 0.1, 2)  # gap degenerates to zero
        with pytest.raises(InvalidInput):
            pointwise_m(R, 8, 0.0, 2)
        with pytest.raises(InvalidInput):
            pointwise_m(R, 8, 0.1, -1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda bad: pointwise_m(R, 8, bad, 2),
            lambda bad: pointwise_m(R, 8, 0.3, bad),
            lambda bad: uniform_m(R, 8, bad, 2),
            lambda bad: uniform_m(R, 8, 0.3, bad),
            lambda bad: pointwise_error_level(R, 8, 1000, bad),
            lambda bad: noisy_error_bound(R, 8, bad, 0.05),
        ],
        ids=["pointwise_m-delta", "pointwise_m-D", "uniform_m-delta", "uniform_m-D",
             "pointwise_error_level-D", "noisy_error_bound-delta"],
    )
    def test_rejects_non_finite_delta_or_d(self, call):
        # An infinite delta gave m = 0 or an infinite bound; a nan or
        # infinite D gave a nan or infinite level, or an error from math.ceil.
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidInput, match="finite"):
                call(bad)

    def test_uniform_m_decimal_oracle(self):
        gap = exact_gap(R, 8)
        eps = gap * Fraction(1, 16)  # delta = 0.5 -> gap * delta / 8
        eps_dec = Decimal(eps.numerator) / Decimal(eps.denominator)
        coeff = 128 * Decimal(7).sqrt() / (2 * (2 * PI).sqrt())
        bound = (
            2
            / (eps_dec * eps_dec)
            * (32 * (1 + coeff / eps_dec).ln() + 2 * Decimal(2).ln() + 1)
        )
        oracle = int(bound.to_integral_value(rounding="ROUND_CEILING"))
        got = uniform_m(R, 8, 0.5, 1)
        assert abs(got - oracle) <= max(1, round(0.005 * oracle))
        assert got == 9175664

    def test_uniform_dominates_pointwise(self):
        for field in (R, C):
            for n in range(2, 33):
                assert uniform_m(field, n, 0.3, 2) >= pointwise_m(field, n, 0.3, 2)

    def test_uniform_m_monotone_in_delta(self):
        values = [uniform_m(R, 8, d, 1) for d in (0.1, 0.2, 0.4, 0.8, 1.6)]
        assert values == sorted(values, reverse=True)

    def test_hamming_conc_m_decimal_oracle(self):
        coeff = 128 / (2 * (2 * PI).sqrt())  # bn = 1 makes sqrt(2 bn - 1) = 1
        bound = 2 * 4 * (8 * (1 + coeff * 2).ln() + Decimal(2).ln() + 0)
        oracle = int(bound.to_integral_value(rounding="ROUND_CEILING"))
        got = hamming_conc_m(R, 2, 0.5, 0)
        assert abs(got - oracle) <= 1

    def test_hamming_conc_relates_to_uniform(self):
        # the uniform requirement at delta equals the Hamming requirement at
        # eps = gap*delta/8 with D enlarged by log 2
        for field, n in ((R, 8), (C, 4), (R, 3)):
            gap, _, _ = spectral_gap(field, n)
            delta = 0.4
            eps = gap * delta / 8
            assert abs(uniform_m(field, n, delta, 1.5) - hamming_conc_m(field, n, eps, 1.5 + math.log(2))) <= 1

    def test_hamming_conc_m_monotone_in_n(self):
        values = [hamming_conc_m(R, n, 0.25, 1) for n in range(1, 65)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_net_log_cardinality(self):
        assert net_log_cardinality(R, 1, 2.0) == pytest.approx(2 * math.log(2), rel=1e-13)
        assert net_log_cardinality(C, 1, 2.0) == pytest.approx(4 * math.log(2), rel=1e-13)
        assert net_log_cardinality(R, 1, 1e12) == pytest.approx(0.0, abs=1e-10)
        with pytest.raises(InvalidInput):
            net_log_cardinality(R, 1, 0.0)

    def test_pointwise_error_level_inverts_m(self):
        for delta in (0.1, 0.3, 0.7):
            m = pointwise_m(R, 8, delta, 2)
            assert pointwise_error_level(R, 8, m, 2) <= delta + 1e-9
            assert pointwise_error_level(R, 8, m - 100, 2) > pointwise_error_level(R, 8, m, 2)

    def test_invert_uniform_delta_brackets(self):
        for m in (20000, 1000000):
            delta = invert_uniform_delta(R, 8, m, 2)
            assert uniform_m(R, 8, delta + 1e-5, 2) <= m
            assert uniform_m(R, 8, max(delta - 1e-5, 1e-8), 2) >= m


class TestEigenDensity:
    def test_complex_n2_is_quadratic(self):
        den = eigen_density(C, 2)
        for x, y in ((0.9, 0.1), (0.6, 0.5), (0.5, 0.0), (1.0, 0.3)):
            assert eigen_density_eval(den, x, y) == pytest.approx(12 * (x - y) ** 2, rel=1e-12)

    def test_complex_n2_normalization_exact(self):
        # int over the triangle of (x-y)^2 is half of int over the unit square = 1/12
        nodes, weights = np.polynomial.legendre.leggauss(64)
        xs = (nodes + 1) / 2
        ws = weights / 2
        den = eigen_density(C, 2)
        xg, yg = np.meshgrid(xs, xs, indexing="ij")
        vals = np.where(yg <= xg, 12 * (xg - yg) ** 2, 0.0)
        total = float((ws[:, None] * ws[None, :] * vals).sum())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_real_n3_normalizes_by_quadrature(self):
        den = eigen_density(R, 3)
        total, err = dblquad(
            lambda y, x: eigen_density_eval(den, x, y), 0.0, 1.0, lambda x: 0.0, lambda x: x
        )
        assert err < 1e-8
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_real_n8_normalizes_by_quadrature(self):
        den = eigen_density(R, 8)
        total, err = dblquad(
            lambda y, x: eigen_density_eval(den, x, y), 0.0, 1.0, lambda x: 0.0, lambda x: x
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_norm_constant_matches_closed_form(self):
        for n in range(2, 9):
            den_r = eigen_density(R, n)
            direct_r = 2 / (n - 1) * math.gamma(n - 1) ** 2 / math.gamma(2 * n - 2)
            assert math.exp(den_r.log_norm) == pytest.approx(direct_r, rel=1e-10)
            den_c = eigen_density(C, n)
            direct_c = (math.gamma(n - 1) ** 2 / math.gamma(2 * n - 2)) ** 2 / (8 * n - 4)
            assert math.exp(den_c.log_norm) == pytest.approx(direct_c, rel=1e-10)

    def test_vanishes_on_diagonal_and_outside(self):
        den = eigen_density(R, 3)
        assert eigen_density_eval(den, 0.4, 0.4) == 0.0
        assert eigen_density_eval(den, 0.3, 0.6) == 0.0
        assert eigen_density_eval(den, 1.2, 0.1) == 0.0

    def test_rejects_small_n(self):
        with pytest.raises(InvalidInput):
            eigen_density(R, 1)


class TestSeparationProbability:
    def test_real_n2_is_quarter_pi(self):
        # B(1/2, 1/2) = pi and B(1, 1) = 1 give pi / 4 exactly
        assert dsep_probability(R, 2) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_complex_n2_exact_fraction(self):
        oracle = Fraction(1, 2) + Fraction(8 * 2 - 4, 1 * 2 ** (4 * 2 - 3))
        assert oracle == Fraction(7, 8)
        assert dsep_probability(C, 2) == pytest.approx(0.875, abs=1e-13)

    def test_limits_at_large_n(self):
        assert dsep_probability(R, 512) == pytest.approx(1 / math.sqrt(2), rel=0.01)
        assert dsep_probability(C, 512) == pytest.approx(0.5 + 1 / math.pi, rel=0.01)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidInput):
            dsep_probability(R, 1)

    @pytest.mark.parametrize("field,n", [(R, 4), (C, 4)])
    def test_monte_carlo_agreement(self, field, n):
        n_samples = 100000
        ens = sample_ensemble(field, n, n_samples, SeedStream(555, (field is C, n)))
        blocks = ens.compression(2)
        tr = np.real(blocks[:, 0, 0] + blocks[:, 1, 1])
        det = np.real(blocks[:, 0, 0] * blocks[:, 1, 1] - blocks[:, 0, 1] * blocks[:, 1, 0])
        disc = np.sqrt(np.maximum(0.0, tr * tr - 4 * det))
        lam1, lam2 = (tr + disc) / 2, (tr - disc) / 2
        est = float(np.mean((lam2 < 0.5) & (lam1 > 0.5)))
        closed = dsep_probability(field, n)
        se = math.sqrt(closed * (1 - closed) / n_samples)
        assert abs(est - closed) <= 3 * se


class TestNoisyErrorBound:
    def test_tau_zero_gives_delta(self):
        assert noisy_error_bound(R, 4, 0.17, 0.0) == pytest.approx(0.17, abs=1e-15)

    def test_exact_rational_oracle(self):
        oracle = Fraction(1, 10) + 2 * (1 / exact_gap(R, 4)) * Fraction(1, 100)
        assert oracle == Fraction(101, 450)
        assert noisy_error_bound(R, 4, 0.1, 0.01) == pytest.approx(float(oracle), rel=1e-12)

    def test_linear_in_tau(self):
        gap, _, _ = spectral_gap(R, 4)
        b1 = noisy_error_bound(R, 4, 0.1, 0.01)
        b2 = noisy_error_bound(R, 4, 0.1, 0.02)
        assert b2 - b1 == pytest.approx(2 * 0.01 / gap, rel=1e-10)

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidInput):
            noisy_error_bound(R, 4, 0.1, 1.0)
        with pytest.raises(InvalidInput):
            noisy_error_bound(R, 1, 0.1, 0.1)


def test_theory_constants_bundle():
    consts = theory_constants(R, 4)
    assert consts.mu1 == pytest.approx(0.6875, abs=1e-14)
    assert consts.gap == pytest.approx(9 / 56, rel=1e-13)
    assert consts.gap_lower is not None and consts.gap_upper is not None
    assert consts.field is R and consts.n == 4


def test_log_space_forms_match_naive_evaluation():
    # for small bn the closed forms can be evaluated directly with gamma;
    # log-space evaluation must agree to 1e-10 relative
    for field in (R, C):
        for n in range(1, 17):
            bn = field.beta * n
            if bn > 8:
                continue
            b_naive = math.gamma(bn) ** 2 / math.gamma(2 * bn)
            amp = 1.0 / (bn * 4.0**bn * b_naive)
            mu1, mu2 = mu_pair(field, n)
            assert mu1 == pytest.approx(0.5 + amp, rel=1e-10)
            assert mu2 == pytest.approx(0.5 - amp / (2 * n - 1), rel=1e-10)
            gap, _, _ = spectral_gap(field, n)
            naive_gap = 2.0 * (n - 1) / (bn * (2 * n - 1) * 4.0**bn * b_naive)
            if n > 1:
                assert gap == pytest.approx(naive_gap, rel=1e-10)
            if n >= 2:
                if field is R:
                    naive_dsep = (
                        math.gamma((n - 1) / 2) ** 2
                        / math.gamma(n - 1)
                        / (2**n * math.gamma(n - 1) ** 2 / math.gamma(2 * n - 2))
                    )
                else:
                    bsq = (math.gamma(n - 1) ** 2 / math.gamma(2 * n - 2)) ** 2
                    naive_dsep = 0.5 + (8 * n - 4) / ((n - 1) ** 2 * 2 ** (4 * n - 3) * bsq)
                assert dsep_probability(field, n) == pytest.approx(naive_dsep, rel=1e-10)


# The repr of the gap and of the net-bound sample sizes at a few points over
# both fields, errors included. No golden CSV holds these values, so any
# rewrite of their formulas that moves a bit, or changes a message, shows here.
ZERO_GAP = "InvalidInput: gap is zero for field={}, n=1; bound undefined"
THEORY_PINS = [
    (spectral_gap, R, (1,), "(0.0, None, None)"),
    (spectral_gap, R, (2,), "(0.16666666666666669, None, None)"),
    (spectral_gap, R, (8,), "(0.12760416666666657, 0.12314190716463862, 0.18120550397005156)"),
    (spectral_gap, C, (1,), "(0.0, None, None)"),
    (spectral_gap, C, (2,), "(0.12500000000000008, 0.11516471649044516, 0.16946692618069023)"),
    (spectral_gap, C, (8,), "(0.0916442871093748, 0.09013064713874425, 0.13262884840728678)"),
    (uniform_m, R, (1, 0.3, 2.0), ZERO_GAP.format("real")),
    (uniform_m, R, (2, 0.3, 2.0), "3579352"),
    (uniform_m, R, (8, 0.05, 0.5), "1147672681"),
    (uniform_m, C, (1, 0.3, 2.0), ZERO_GAP.format("complex")),
    (uniform_m, C, (2, 0.3, 2.0), "13637104"),
    (uniform_m, C, (8, 0.05, 0.5), "4716395703"),
    # real n = 1: sqrt(2 bn - 1) = 0, so the log term vanishes
    (hamming_conc_m, R, (1, 0.3, 2.0), "60"),
    (hamming_conc_m, R, (1, 0.01, 0.0), "13863"),
    (hamming_conc_m, R, (8, 0.3, 2.0), "3915"),
    (hamming_conc_m, C, (1, 0.01, 0.0), "1269144"),
    (hamming_conc_m, C, (2, 0.3, 2.0), "1838"),
    (hamming_conc_m, C, (8, 0.01, 0.0), "11788892"),
    (invert_uniform_delta, R, (1, 100000, 2.0), ZERO_GAP.format("real")),
    (invert_uniform_delta, R, (2, 100000, 2.0), "1.6129903795270013"),
    (invert_uniform_delta, R, (8, 10**10, 0.5), "0.017693520574591642"),
    (invert_uniform_delta, C, (1, 100000, 2.0), ZERO_GAP.format("complex")),
    (invert_uniform_delta, C, (2, 10**10, 0.5), "0.012763024363701823"),
    (invert_uniform_delta, C, (8, 100000, 2.0), "8.265952110773906"),
]


@pytest.mark.parametrize(
    "func, field, args, pinned",
    THEORY_PINS,
    ids=[f"{f.__name__}-{field}-{args}" for f, field, args, _ in THEORY_PINS],
)
def test_theory_pins(func, field, args, pinned):
    try:
        got = repr(func(field, *args))
    except InvalidInput as exc:
        got = f"InvalidInput: {exc}"
    assert got == pinned
