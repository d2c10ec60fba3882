"""Property-based checks of the stacked kernels against matrix-level references.

`trace_table` and `average_stack` run on the ensemble's projection table;
the references below build each projection as a validated matrix, one at a
time, and apply the paper's definitions directly. The runners' batched
recover-and-score stage is checked against the scalar recovery and
distance on one average. Tolerances are fixed from
float64's machine epsilon and the sizes involved before anything runs: a sum
of N terms of magnitude at most 1 is off by at most about N * eps.

The kernels that build a stack in place (`_packed_signals`,
`_finalize_average`, `_expected_averages`) are checked bit for bit against
the whole-stack numpy expressions they replace, kept below as the oracles.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bitretrieve.core import (
    FieldKind,
    HermitianMatrix,
    RankOneProjection,
    operator_norm,
    rank_one_distance,
)
from bitretrieve.measurement import _packed_signals, measure, trace_table, trace_value
from bitretrieve.recovery import (
    _expected_averages,
    _finalize_average,
    _scores,
    average_stack,
    empirical_average,
    expected_average,
    flipped_projection,
    recover_from_average,
)
from bitretrieve.sampler import (
    _INPUT_BLOCK,
    _TRACE_SLICE,
    SeedStream,
    _pack_hermitian,
    sample_ensemble,
    sample_unit_vector,
)
from bitretrieve.theory import theory_constants

EPS = np.finfo(np.float64).eps


def table_tol(d: int) -> float:
    """Bound on |trace_table - trace_value|: two sums of at most 2 d^2 terms."""
    return 8 * d * d * EPS


def average_tol(m: int, d: int) -> float:
    """Bound on an entry of |average_stack - mean of flipped projections|."""
    return 4 * (m + d * d) * EPS


def overlap_tol(d: int) -> float:
    """Bound on |<x, v>|^2 = 1 - error^2 between two d-term inner products
    with the same unit vectors, summed in different orders."""
    return 4 * d * EPS


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
    # m = 8200 spans nine table slices and more than one 8192-element block.
    m = 8200
    for field, n in ((FieldKind.REAL, 2), (FieldKind.COMPLEX, 1)):
        ens = sample_ensemble(field, n, m, SeedStream(71, (0,)))
        bit_rows = np.random.default_rng(72).integers(0, 2, size=(2, m), dtype=np.uint8)
        for bits, q in zip(bit_rows, average_stack(ens, bit_rows)):
            check_average_row(ens, bits, q)


def test_trace_table_crosses_a_table_slice():
    # m > 1024 packs the projections into more than one table slice.
    m = _TRACE_SLICE + 3
    for field, n in ((FieldKind.REAL, 2), (FieldKind.COMPLEX, 1)):
        ens = sample_ensemble(field, n, m, SeedStream(73, (0,)))
        xs = [sample_unit_vector(field, ens.dim, SeedStream(73, (1, i))) for i in range(2)]
        table = trace_table(ens, np.stack([x.entries for x in xs]))
        for row, x in zip(table, xs):
            direct = [trace_value(ens.projection(j), RankOneProjection(x)) for j in range(m)]
            assert np.max(np.abs(row - direct)) <= table_tol(ens.dim)


@settings(max_examples=40, deadline=None, database=None)
@given(data=ensembles())
def test_scores_match_the_scalar_recovery(data):
    ens, seed = data
    x = RankOneProjection(sample_unit_vector(ens.field, ens.dim, SeedStream(seed, (1,))))
    qhat = empirical_average(ens, measure(ens, x))
    consts = theory_constants(ens.field, ens.n)
    _, [(error, qdev, degenerate)] = _scores(
        qhat.matrix[None], x.vector.entries[None], consts.mu1, consts.mu2
    )
    rec = recover_from_average(qhat)
    expected = expected_average(x, consts.mu1, consts.mu2).matrix
    assert degenerate == rec.degenerate
    assert qdev == operator_norm(HermitianMatrix(ens.field, qhat.matrix - expected))
    assert abs(error**2 - rank_one_distance(x, rec.estimate) ** 2) <= overlap_tol(ens.dim)


def packed_signals_oracle(field, vectors):
    signals = np.einsum("ia,ib->iab", vectors, vectors.conj())
    return _pack_hermitian(field, 2.0 * signals - signals * np.eye(vectors.shape[1]))


def finalize_oracle(acc, zeros, m):
    eye = np.eye(acc.shape[-1], dtype=acc.dtype)
    mats = (acc + np.asarray(zeros)[..., None, None] * eye) / m
    return (mats + np.conjugate(np.swapaxes(mats, -1, -2))) / 2.0


def expected_oracle(vectors, mu1, mu2):
    outer = vectors[:, :, None] * vectors[:, None, :].conj()
    return mu2 * np.eye(vectors.shape[1], dtype=vectors.dtype) + (mu1 - mu2) * outer


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def gaussian(rng, field, shape) -> np.ndarray:
    if field is FieldKind.REAL:
        return rng.standard_normal(shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=30, deadline=None, database=None)
@given(
    field=st.sampled_from(list(FieldKind)),
    n=st.integers(1, 8),
    count=st.sampled_from([1, _INPUT_BLOCK - 1, _INPUT_BLOCK, _INPUT_BLOCK + 1, 511, 512, 513]),
    seed=st.integers(0, 2**63 - 1),
)
def test_in_place_kernels_match_their_whole_stack_oracles(field, n, count, seed):
    # _INPUT_BLOCK (128) is the block the packed rows are built in; 511-513
    # cross it four times.
    rng = np.random.default_rng(seed)
    d = 2 * n
    vectors = gaussian(rng, field, (count, d))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    packed = _packed_signals(field, vectors)
    assert same_bits(packed[:count], packed_signals_oracle(field, vectors))
    # The rows are allocated in whole blocks, the last one padded with zeros.
    assert len(packed) % _INPUT_BLOCK == 0 and len(packed) - count < _INPUT_BLOCK
    assert not packed[count:].any()

    m = int(rng.integers(1, 10**6))
    acc = gaussian(rng, field, (count, d, d)) * m / d
    zeros = rng.integers(0, m + 1, size=count)
    assert same_bits(_finalize_average(acc, zeros, m), finalize_oracle(acc, zeros, m))
    one, zero = acc[0], int(zeros[0])
    assert same_bits(_finalize_average(one, zero, m), finalize_oracle(one, zero, m))

    consts = theory_constants(field, n)
    assert same_bits(
        _expected_averages(vectors, consts.mu1, consts.mu2),
        expected_oracle(vectors, consts.mu1, consts.mu2),
    )
