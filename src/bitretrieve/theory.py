"""Closed-form constants, sample-size bounds, and 2x2-compression laws.

Everything involving 4^(beta n) * B(beta n, beta n) or B(n-1, n-1)^2 is
evaluated as exp of a log-space expression built from log-gamma, since
direct evaluation overflows or underflows past n of a few hundred.

The spectral gap returned here is the published constant used inside
every sample-size bound; it is smaller than mu1 - mu2, so all bounds
derived from it stay valid (see the mu_pair docstring for the exact
eigenvalues).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FieldKind, InvalidInput

__all__ = [
    "TheoryConstants",
    "EigenDensity",
    "log_beta",
    "mu_pair",
    "spectral_gap",
    "theory_constants",
    "pointwise_m",
    "uniform_m",
    "hamming_conc_m",
    "net_log_cardinality",
    "eigen_density",
    "eigen_density_eval",
    "dsep_probability",
    "noisy_error_bound",
    "pointwise_error_level",
    "invert_uniform_delta",
]


def log_beta(a: float, b: float) -> float:
    """log B(a, b) where B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b).

    Never overflows for arguments up to 1e6 and beyond.
    """
    a, b = float(a), float(b)
    if not (a > 0 and b > 0) or not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidInput(f"log_beta: arguments must be positive finite, got ({a}, {b})")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _check_n(n: int, minimum: int = 1) -> int:
    n = int(n)
    if n < minimum:
        raise InvalidInput(f"half-dimension n must be >= {minimum}, got {n}")
    return n


def mu_pair(field: FieldKind, n: int) -> tuple[float, float]:
    """The two eigenvalues of the expected flipped-projection average.

    For a signal X, the expectation of the empirical average is
    mu1 * X + mu2 * (I - X) with

        mu1 = 1/2 + 1/(bn * 4^bn * B(bn, bn)),
        mu2 = 1/2 - 1/(bn * (2n - 1) * 4^bn * B(bn, bn)),

    where bn = beta * n. They satisfy mu1 + (2n - 1) * mu2 = n.
    """
    n = _check_n(n)
    bn = field.beta * n
    amp = math.exp(-(math.log(bn) + bn * math.log(4.0) + log_beta(bn, bn)))
    mu1 = 0.5 + amp
    mu2 = 0.5 - amp / (2 * n - 1)
    return mu1, mu2


def spectral_gap(field: FieldKind, n: int) -> tuple[float, float | None, float | None]:
    """The gap constant 2(n-1)/(bn (2n-1) 4^bn B(bn, bn)) with Stirling bounds.

    The bounds

        (n-1) sqrt(2 bn - 1) / (sqrt(2 pi) bn (2n - 1))  <=  gap
        gap  <=  4 (n-1) sqrt(2 bn - 1) / (e sqrt(2 pi) bn (2n - 1))

    hold for bn >= 2 and are reported as None below that threshold.
    The gap degenerates to 0 at n = 1 over either field.
    """
    n = _check_n(n)
    bn = field.beta * n
    gap = 0.0 if n == 1 else math.exp(
        math.log(2.0 * (n - 1))
        - math.log(bn)
        - math.log(2.0 * n - 1.0)
        - bn * math.log(4.0)
        - log_beta(bn, bn)
    )
    if bn < 2:
        return gap, None, None
    common = (n - 1) * math.sqrt(2 * bn - 1) / (math.sqrt(2 * math.pi) * bn * (2 * n - 1))
    return gap, common, 4.0 * common / math.e


@dataclass(frozen=True)
class TheoryConstants:
    """All dimension-dependent constants for one (field, n) pair."""

    field: FieldKind
    n: int
    mu1: float
    mu2: float
    gap: float
    gap_lower: float | None
    gap_upper: float | None


def theory_constants(field: FieldKind, n: int) -> TheoryConstants:
    mu1, mu2 = mu_pair(field, n)
    gap, lower, upper = spectral_gap(field, n)
    return TheoryConstants(field, n, mu1, mu2, gap, lower, upper)


def _require_gap(field: FieldKind, n: int) -> float:
    gap = spectral_gap(field, n)[0]
    if gap <= 0.0:
        raise InvalidInput(f"gap is zero for field={field}, n={n}; bound undefined")
    return gap


def _check_delta_d(delta: float, big_d: float) -> tuple[float, float]:
    delta, big_d = float(delta), float(big_d)
    if not 0 < delta < math.inf:
        raise InvalidInput(f"delta must be positive and finite, got {delta}")
    if not 0 <= big_d < math.inf:
        raise InvalidInput(f"D must be nonnegative and finite, got {big_d}")
    return delta, big_d


def pointwise_m(field: FieldKind, n: int, delta: float, big_d: float) -> int:
    """Measurements sufficient for fixed-signal recovery at accuracy delta.

    ceil of (14/3) * gap^-2 * delta^-2 * (log(4n) + D); recovery then
    succeeds with probability at least 1 - exp(-D).
    """
    delta, big_d = _check_delta_d(delta, big_d)
    gap = _require_gap(field, n)
    value = (14.0 / 3.0) / (gap * gap * delta * delta) * (math.log(4.0 * n) + big_d)
    return math.ceil(value)


def _net_bound(bn: float, eps: float, logs: float, big_d: float) -> float:
    """The covering-net bound of uniform_m and hamming_conc_m (see uniform_m);
    its log term vanishes at real n = 1, where 2 bn - 1 = 0."""
    coeff = 128.0 * math.sqrt(max(0.0, 2.0 * bn - 1.0)) / (2.0 * math.sqrt(2.0 * math.pi))
    log_term = math.log1p(coeff / eps)
    return 2.0 / (eps * eps) * (8.0 * bn * log_term + logs * math.log(2.0) + big_d)


def _uniform_bound(field: FieldKind, n: int, delta: float, big_d: float) -> float:
    gap = _require_gap(field, n)
    return _net_bound(field.beta * n, gap * delta / 8.0, 2.0, big_d)


def uniform_m(field: FieldKind, n: int, delta: float, big_d: float) -> int:
    """Measurements sufficient for recovery of every signal at accuracy delta.

    With eps = gap * delta / 8, this is the ceiling of
    2 eps^-2 (8 bn log(1 + 128 sqrt(2 bn - 1)/(2 sqrt(2 pi)) / eps) + 2 log 2 + D).
    """
    delta, big_d = _check_delta_d(delta, big_d)
    return math.ceil(_uniform_bound(field, n, delta, big_d))


def hamming_conc_m(field: FieldKind, n: int, delta: float, big_d: float) -> int:
    """Measurements sufficient for uniform concentration of the measurement
    Hamming distance within delta of its expectation.

    Same structure as uniform_m, with the accuracy parameter entering
    directly and a single log 2 term.
    """
    delta, big_d = _check_delta_d(delta, big_d)
    return math.ceil(_net_bound(field.beta * _check_n(n), delta, 1.0, big_d))


def net_log_cardinality(field: FieldKind, n: int, eps: float) -> float:
    """Log of the covering-number bound 4 bn log(1 + 2/eps) for the set of
    rank-one projections at resolution eps; no net is ever constructed."""
    eps = float(eps)
    if not eps > 0:
        raise InvalidInput(f"eps must be positive, got {eps}")
    bn = field.beta * _check_n(n)
    return 4.0 * bn * math.log1p(2.0 / eps)


@dataclass(frozen=True)
class EigenDensity:
    """Joint law of the two eigenvalues of the top-left 2x2 compression of a
    Haar-uniform half-dimensional projection; defined for n >= 2."""

    field: FieldKind
    n: int
    log_norm: float


def eigen_density(field: FieldKind, n: int) -> EigenDensity:
    n = _check_n(n, minimum=2)
    if field is FieldKind.REAL:
        log_norm = math.log(2.0) - math.log(n - 1.0) + log_beta(n - 1, n - 1)
    else:
        log_norm = -math.log(8.0 * n - 4.0) + 2.0 * log_beta(n - 1, n - 1)
    return EigenDensity(field, n, log_norm)


def eigen_density_eval(den: EigenDensity, x: float, y: float) -> float:
    """Density value at eigenvalue pair (x, y), y <= x; zero outside the
    admissible triangle {0 <= y <= x <= 1}.

    p(x, y) = M^-1 (x - y)^(2 beta) [x(1-x) y(1-y)]^(beta(n-1) - 1).
    """
    return float(eigen_density_grid(den, float(x), float(y)))


def eigen_density_grid(den: EigenDensity, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """eigen_density_eval over arrays that broadcast against each other."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    beta = den.field.beta
    expo = beta * (den.n - 1) - 1.0
    inside = (ys >= 0.0) & (ys <= xs) & (xs <= 1.0) & (xs > ys)
    diff = np.where(inside, xs - ys, 1.0)
    edge = np.where(inside, xs * (1.0 - xs) * ys * (1.0 - ys), 1.0)
    positive = inside & (edge > 0.0)
    out = np.zeros(np.broadcast(xs, ys).shape, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.exp(-den.log_norm + 2.0 * beta * np.log(diff) + expo * np.log(edge))
    out[positive] = vals[positive]
    boundary = inside & (edge == 0.0)
    if np.any(boundary):
        if expo == 0.0:
            out[boundary] = np.exp(-den.log_norm + 2.0 * beta * np.log(diff[boundary]))
        elif expo < 0.0:
            out[boundary] = np.inf
    return out


def dsep_probability(field: FieldKind, n: int) -> float:
    """Probability that the 2x2 compression of a Haar projection has
    eigenvalues straddling 1/2, i.e. that the projection is capable of
    separating some pair of signals in a fixed plane.

    Closed forms: B((n-1)/2, (n-1)/2) / (2^n B(n-1, n-1)) over R, tending
    to 1/sqrt(2); 1/2 + (8n-4)/((n-1)^2 2^(4n-3) B(n-1, n-1)^2) over C,
    tending to 1/2 + 1/pi.
    """
    n = _check_n(n, minimum=2)
    if field is FieldKind.REAL:
        log_val = (
            log_beta((n - 1) / 2.0, (n - 1) / 2.0)
            - n * math.log(2.0)
            - log_beta(n - 1, n - 1)
        )
        return math.exp(log_val)
    log_val = (
        math.log(8.0 * n - 4.0)
        - 2.0 * math.log(n - 1.0)
        - (4.0 * n - 3.0) * math.log(2.0)
        - 2.0 * log_beta(n - 1, n - 1)
    )
    return 0.5 + math.exp(log_val)


def noisy_error_bound(field: FieldKind, n: int, delta: float, tau: float) -> float:
    """Recovery error bound delta + 2 gap^-1 tau when up to a tau fraction
    of the measurement bits have been flipped."""
    delta, _ = _check_delta_d(delta, 0.0)
    tau = float(tau)
    if not 0.0 <= tau < 1.0:
        raise InvalidInput(f"tau must lie in [0, 1), got {tau}")
    gap = _require_gap(field, n)
    return delta + 2.0 * tau / gap


def pointwise_error_level(field: FieldKind, n: int, m: int, big_d: float) -> float:
    """The accuracy delta(m) obtained by inverting the fixed-signal bound:
    sqrt((14/3) gap^-2 (log(4n) + D) / m)."""
    m = int(m)
    if m < 1:
        raise InvalidInput(f"m must be >= 1, got {m}")
    _, big_d = _check_delta_d(1.0, big_d)
    gap = _require_gap(field, n)
    return math.sqrt((14.0 / 3.0) / (gap * gap) * (math.log(4.0 * n) + big_d) / m)


def invert_uniform_delta(field: FieldKind, n: int, m: int, big_d: float) -> float:
    """The smallest accuracy delta whose uniform-recovery requirement is
    within m measurements, located by bisection to 1e-6.

    The requirement is strictly decreasing in delta, so this is the delta
    with _uniform_bound(delta) = m.
    """
    m = int(m)
    if m < 1:
        raise InvalidInput(f"m must be >= 1, got {m}")
    _, big_d = _check_delta_d(1.0, big_d)
    _require_gap(field, n)
    lo, hi = 1e-9, 1.0
    for _ in range(80):
        if _uniform_bound(field, n, hi, big_d) <= m:
            break
        hi *= 2.0
    else:
        raise InvalidInput(f"no accuracy level reachable with m={m}")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if _uniform_bound(field, n, mid, big_d) <= m:
            hi = mid
        else:
            lo = mid
    return hi
