"""Property-based checks of the corruption stage and of recovery's invariance.

For random tau and m in both flip modes, `corrupt_bits` flips the largest
number of bits whose fraction stays at or below tau, and the streamed
noise unit flips the same positions. Recovery reads a signal only through
tr(P X), so its estimate cannot depend on the representative's global phase.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bitretrieve.core import FieldKind, RankOneProjection, UnitVector, rank_one_distance
from bitretrieve.experiments import _streamed_averages
from bitretrieve.measurement import corrupt_bits, hamming_distance, measure
from bitretrieve.recovery import pep_recover
from bitretrieve.sampler import SeedStream, _frame_blocks, sample_ensemble, sample_unit_vector

fields = st.sampled_from(list(FieldKind))
modes = st.sampled_from(["random", "greedy"])
seeds = st.integers(0, 2**63 - 1)
taus = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)


@settings(max_examples=60, deadline=None, database=None)
@given(field=fields, n=st.integers(1, 3), m=st.integers(1, 300), tau=taus, mode=modes, seed=seeds)
def test_corruption_flips_at_most_tau(field, n, m, tau, mode, seed):
    root = SeedStream(seed)
    stream = root.child(1, m)
    x = RankOneProjection(sample_unit_vector(field, 2 * n, root.child(0)))
    ens = sample_ensemble(field, n, m, stream)
    bits = measure(ens, x)
    corrupted = corrupt_bits(bits, tau, mode, root.child(1, m, m), (ens, x))
    flipped = np.flatnonzero(bits.bits != corrupted.bits)
    assert hamming_distance(bits, corrupted) == len(flipped) / m
    assert len(flipped) / m <= tau < (len(flipped) + 1) / m
    blocks = _frame_blocks(field, n, m, stream)
    _, _, streamed = _streamed_averages(m, blocks, x, mode, tau, root.child(1, m, m))
    assert np.array_equal(streamed, flipped)


@settings(max_examples=40, deadline=None, database=None)
@given(
    field=fields,
    n=st.integers(1, 4),
    m=st.integers(1, 200),
    theta=st.floats(0.0, 2 * math.pi, allow_nan=False),
    seed=seeds,
)
def test_estimate_ignores_global_phase(field, n, m, theta, seed):
    root = SeedStream(seed)
    v = sample_unit_vector(field, 2 * n, root.child(0)).entries
    phase = np.exp(1j * theta) if field is FieldKind.COMPLEX else -1.0
    x = RankOneProjection(UnitVector(field, v))
    y = RankOneProjection(UnitVector(field, phase * v))
    ens = sample_ensemble(field, n, m, root.child(1))
    bits_x, bits_y = measure(ens, x), measure(ens, y)
    assert np.array_equal(bits_x.bits, bits_y.bits)
    est_x, est_y = pep_recover(ens, bits_x).estimate, pep_recover(ens, bits_y).estimate
    assert np.array_equal(est_x.matrix(), est_y.matrix())
    assert abs(rank_one_distance(x, est_x) - rank_one_distance(y, est_y)) <= 1e-12
