"""Property-based checks of the stacked kernels against matrix-level references.

`trace_table` and `average_stack` run on the ensemble's projection table;
the references below build each projection as a validated matrix, one at a
time, and apply the paper's definitions directly. Tolerances are fixed from
float64's machine epsilon and the sizes involved before anything runs: a sum
of N terms of magnitude at most 1 is off by at most about N * eps.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bitretrieve.core import FieldKind, RankOneProjection
from bitretrieve.measurement import trace_table, trace_value
from bitretrieve.recovery import average_stack, flipped_projection
from bitretrieve.sampler import SeedStream, sample_ensemble, sample_unit_vector

EPS = np.finfo(np.float64).eps


def table_tol(d: int) -> float:
    """Bound on |trace_table - trace_value|: two sums of at most 2 d^2 terms."""
    return 8 * d * d * EPS


def average_tol(m: int, d: int) -> float:
    """Bound on an entry of |average_stack - mean of flipped projections|."""
    return 4 * (m + d * d) * EPS


def reference_average(ens, bits) -> np.ndarray:
    total = sum(flipped_projection(ens.projection(j), int(b)).matrix for j, b in enumerate(bits))
    return total / ens.m


def check_average_row(ens, bits, q) -> None:
    d = ens.dim
    tol = average_tol(ens.m, d)
    assert np.max(np.abs(q - reference_average(ens, bits))) <= tol
    assert abs(np.trace(q).real - ens.n) <= d * tol
    vals = np.linalg.eigvalsh(q)
    assert vals[0] >= -d * tol
    assert vals[-1] <= 1.0 + d * tol


@st.composite
def ensembles(draw):
    field = draw(st.sampled_from(list(FieldKind)))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**63 - 1))
    return sample_ensemble(field, n, m, SeedStream(seed, (0,))), seed


@settings(max_examples=40, deadline=None, database=None)
@given(data=ensembles(), count=st.integers(1, 4))
def test_trace_table_rows_match_trace_value(data, count):
    ens, seed = data
    xs = [sample_unit_vector(ens.field, ens.dim, SeedStream(seed, (1, i))) for i in range(count)]
    table = trace_table(ens, np.stack([x.entries for x in xs]))
    assert table.shape == (count, ens.m)
    for i, x in enumerate(xs):
        signal = RankOneProjection(x)
        direct = [trace_value(ens.projection(j), signal) for j in range(ens.m)]
        assert np.max(np.abs(table[i] - direct)) <= table_tol(ens.dim)


@settings(max_examples=40, deadline=None, database=None)
@given(data=ensembles(), rows=st.data())
def test_average_stack_rows_match_flipped_mean(data, rows):
    ens, _ = data
    bit_rows = rows.draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=ens.m, max_size=ens.m), min_size=1, max_size=3
        )
    )
    stacked = average_stack(ens, np.array(bit_rows, dtype=np.uint8))
    assert stacked.shape == (len(bit_rows), ens.dim, ens.dim)
    for bits, q in zip(bit_rows, stacked):
        check_average_row(ens, bits, q)


def test_average_stack_crosses_accumulation_chunk():
    # m > 8192 puts the sum in more than one accumulation chunk.
    m = 8200
    for field, n in ((FieldKind.REAL, 2), (FieldKind.COMPLEX, 1)):
        ens = sample_ensemble(field, n, m, SeedStream(71, (0,)))
        bit_rows = np.random.default_rng(72).integers(0, 2, size=(2, m), dtype=np.uint8)
        for bits, q in zip(bit_rows, average_stack(ens, bit_rows)):
            check_average_row(ens, bits, q)
