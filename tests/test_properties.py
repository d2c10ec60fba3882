"""Property-based checks of the corruption stage, recovery's invariance,
the streamed kernels, the config parser and the theory's sample sizes.

For random tau and m in both flip modes, `corrupt_bits` flips the largest
number of bits whose fraction stays at or below tau, and the streamed
noise unit flips the same positions. Recovery reads a signal only through
tr(P X), so its estimate cannot depend on the representative's global phase.

The streamed kernels walk an ensemble one 1024-projection slice at a time
and its signals 128 at a time; at m and input counts on either side of
those boundaries and of the 8192-element sampling block, each returns the
bytes of its kernel on the materialized ensemble, and no stacked row
depends on how many rows follow it. A config gives the same
`ExperimentConfig` from a file and from flags, whatever way each integer is
written. The sample sizes reach the accuracy they are computed for.
"""

import functools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitretrieve import cli, recovery
from bitretrieve.core import FieldKind, RankOneProjection, UnitVector, rank_one_distance
from bitretrieve.experiments import (
    EXPERIMENTS,
    FLIP_MODES,
    ExperimentConfig,
    load_config,
)
from bitretrieve.measurement import (
    _answers,
    _streamed_disagreements,
    corrupt_bits,
    hamming_distance,
    measure,
    trace_table,
)
from bitretrieve.recovery import (
    _streamed_averages,
    _streamed_stack_averages,
    average_stack,
    empirical_average,
    pep_recover,
)
from bitretrieve.sampler import (
    _INPUT_BLOCK,
    SeedStream,
    _frame_blocks,
    sample_ensemble,
    sample_unit_vector,
)
from bitretrieve.theory import invert_uniform_delta, pointwise_error_level, pointwise_m, uniform_m

fields = st.sampled_from(list(FieldKind))
modes = st.sampled_from(["random", "greedy"])
seeds = st.integers(0, 2**63 - 1)
taus = st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)


@settings(max_examples=60, deadline=None, database=None)
@given(
    field=fields,
    n=st.integers(1, 3),
    m=st.integers(1, 300),
    tau=taus,
    mode=modes,
    seed=seeds,
    budget=st.sampled_from([0, recovery._FLIP_STORE_BYTES]),
)
def test_corruption_flips_at_most_tau(field, n, m, tau, mode, seed, budget):
    # A zero budget sends every greedy unit down the replay path.
    root = SeedStream(seed)
    stream = root.child(1, m)
    x = RankOneProjection(sample_unit_vector(field, 2 * n, root.child(0)))
    ens = sample_ensemble(field, n, m, stream)
    bits = measure(ens, x)
    corrupted = corrupt_bits(bits, tau, mode, root.child(1, m, m), (ens, x))
    flipped = np.flatnonzero(bits.bits != corrupted.bits)
    assert hamming_distance(bits, corrupted) == len(flipped) / m
    assert len(flipped) / m <= tau < (len(flipped) + 1) / m
    blocks = functools.partial(_frame_blocks, field, n, m, stream)
    with mock.patch.object(recovery, "_FLIP_STORE_BYTES", budget):
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


# Slice (1024), sampling block (8192) and signal block (128) boundaries;
# 511-513 cross the signal block four times.
boundary_ms = st.sampled_from([1, 1023, 1024, 1025, 8191, 8192, 8193])
boundary_inputs = st.sampled_from(
    [1, _INPUT_BLOCK - 1, _INPUT_BLOCK, _INPUT_BLOCK + 1, 511, 512, 513]
)


@settings(max_examples=20, deadline=None, database=None)
@given(field=fields, n=st.integers(1, 3), m=boundary_ms, seed=seeds)
def test_streamed_average_is_the_empirical_average(field, n, m, seed):
    root = SeedStream(seed)
    x = RankOneProjection(sample_unit_vector(field, 2 * n, root.child(0)))
    ens = sample_ensemble(field, n, m, root.child(1))
    blocks = functools.partial(_frame_blocks, field, n, m, root.child(1))
    clean, _, _ = _streamed_averages(m, blocks, x)
    assert np.array_equal(clean.matrix, empirical_average(ens, measure(ens, x)).matrix)


@settings(max_examples=15, deadline=None, database=None)
@given(field=fields, n=st.integers(1, 3), m=boundary_ms, inputs=boundary_inputs, seed=seeds)
def test_streamed_stack_passes_match_the_measure_bits(field, n, m, inputs, seed):
    root = SeedStream(seed)
    signals = np.stack(
        [sample_unit_vector(field, 2 * n, root.child(0, i)).entries for i in range(inputs)]
    )
    ens = sample_ensemble(field, n, m, root.child(1))
    bits = np.stack([measure(ens, RankOneProjection(UnitVector(field, s))).bits for s in signals])
    blocks = _frame_blocks(field, n, m, root.child(1))
    averages = [q for _, q in _streamed_stack_averages(field, m, blocks, signals)]
    assert np.array_equal(np.concatenate(averages), average_stack(ens, bits))
    # Each signal against the one before it (itself when there is only one).
    blocks = _frame_blocks(field, n, m, root.child(1))
    counts = _streamed_disagreements(field, blocks, signals, np.roll(signals, 1, axis=0))
    assert np.array_equal(counts, np.count_nonzero(bits != np.roll(bits, 1, axis=0), axis=1))


# Input counts on either side of one and two signal blocks.
prefix_counts = st.sampled_from([k * _INPUT_BLOCK + e for k in (1, 2) for e in (-1, 0, 1)])


@settings(max_examples=15, deadline=None, database=None)
@given(
    field=fields,
    n=st.integers(1, 3),
    m=st.sampled_from([40, 300, 1100]),
    counts=st.lists(prefix_counts, min_size=2, max_size=2, unique=True),
    seed=seeds,
)
def test_a_stacked_row_does_not_depend_on_the_rows_after_it(field, n, m, counts, seed):
    few, many = sorted(counts)
    root = SeedStream(seed)
    signals = np.stack(
        [sample_unit_vector(field, 2 * n, root.child(0, i)).entries for i in range(many)]
    )
    ens = sample_ensemble(field, n, m, root.child(1))
    traces = trace_table(ens, signals)
    assert np.array_equal(trace_table(ens, signals[:few]), traces[:few])
    bits = _answers(traces)
    assert np.array_equal(average_stack(ens, bits[:few]), average_stack(ens, bits)[:few])

    def streamed(count):
        blocks = _frame_blocks(field, n, m, root.child(1))
        averages = _streamed_stack_averages(field, m, blocks, signals[:count])
        return np.concatenate([q for _, q in averages])

    assert np.array_equal(streamed(few), streamed(many)[:few])


class Built(Exception):
    """Carries the config `cli.main` built, before anything runs."""


def config_from_flags(argv: list[str]) -> ExperimentConfig:
    def capture(*args, **kwargs):
        raise Built(load_config(*args, **kwargs))

    with mock.patch.object(cli, "load_config", capture), pytest.raises(Built) as built:
        cli.main(argv)
    return built.value.args[0]


FLAGS = {"master_seed": "--seed", "output_path": "--out"}


@st.composite
def config_texts(draw):
    """A valid config as text values keyed by field name, every integer
    written in one of the ways int(text, 0) reads, and the config it means."""

    def integer(lo, hi):
        value = draw(st.integers(lo, hi))
        return value, draw(st.sampled_from([str, hex, oct, bin, "{:_}".format]))(value)

    def word(text):
        return draw(st.sampled_from([str.lower, str.upper, str.title]))(text)

    def real(values):
        value = draw(values)
        return value, repr(value)

    field, mode = draw(fields), draw(st.sampled_from(FLIP_MODES))
    grid = [integer(1, 2**32 - 1) for _ in range(draw(st.integers(1, 4)))]
    grid = sorted({value: text for value, text in grid}.items())
    path = draw(st.from_regex(r"[a-z0-9_]{1,8}(/[a-z0-9_]{1,8})?\.csv", fullmatch=True))
    candidates = {
        "field": (field, word(draw(st.sampled_from([field.value, field.value[0]])))),
        "n": integer(1, 2**16),
        "m_grid": (tuple(v for v, _ in grid), ", ".join(t for _, t in grid)),
        "trials": integer(1, 2**32),
        "inputs": integer(1, 2**32),
        "delta": real(st.floats(0.0, exclude_min=True, allow_infinity=False)),
        "bound_D": real(st.floats(0.0, allow_infinity=False)),
        "tau": real(st.floats(0.0, 1.0, exclude_max=True)),
        "flip_mode": (mode, word(mode)),
        "master_seed": integer(0, 2**64 - 1),
        "output_path": (path, path),
    }
    keys = draw(st.sets(st.sampled_from(sorted(candidates))))
    experiment = draw(st.sampled_from(EXPERIMENTS))
    expected = replace(ExperimentConfig(experiment), **{key: candidates[key][0] for key in keys})
    return word(experiment), {key: candidates[key][1] for key in sorted(keys)}, expected


@settings(max_examples=60, deadline=None, database=None)
@given(config=config_texts())
def test_a_config_reads_the_same_from_a_file_and_from_flags(config, tmp_path_factory):
    experiment, texts, expected = config
    path = tmp_path_factory.mktemp("cfg") / "cfg.txt"
    lines = [f"{key} = {text}\n" for key, text in {"experiment": experiment, **texts}.items()]
    path.write_text("".join(lines))
    argv = [experiment]
    for key, text in texts.items():
        argv += [FLAGS.get(key, "--" + key.replace("_", "-")), text]
    assert load_config(str(path)) == expected
    assert config_from_flags(argv) == expected


gapped = st.tuples(fields, st.integers(2, 16))  # the gap is zero at n = 1
deltas = st.floats(0.01, 0.99)
big_ds = st.floats(0.0, 10.0)


@settings(max_examples=200, deadline=None, database=None)
@given(space=gapped, delta=deltas, big_d=big_ds)
def test_pointwise_m_reaches_its_accuracy(space, delta, big_d):
    field, n = space
    assert pointwise_error_level(field, n, pointwise_m(field, n, delta, big_d), big_d) <= delta


@settings(max_examples=200, deadline=None, database=None)
@given(space=gapped, delta=deltas, big_d=big_ds)
def test_uniform_m_inverts_to_its_accuracy(space, delta, big_d):
    # The bisection returns the upper end of a bracket 1e-6 wide. The level
    # of m lies below delta by up to one step of the ceiling in uniform_m,
    # which exceeds 1e-6 where m is a few 10^5 (real n = 2, delta = 0.98,
    # D = 0: 1.5e-6), so the lower side is checked through m - 1 instead.
    field, n = space
    m = uniform_m(field, n, delta, big_d)
    assert invert_uniform_delta(field, n, m, big_d) <= delta + 1e-6
    assert invert_uniform_delta(field, n, m - 1, big_d) > delta


@settings(max_examples=200, deadline=None, database=None)
@given(space=gapped, deltas=st.tuples(deltas, deltas), big_d=big_ds)
def test_uniform_m_does_not_grow_with_delta(space, deltas, big_d):
    field, n = space
    small, large = sorted(deltas)
    assert uniform_m(field, n, small, big_d) >= uniform_m(field, n, large, big_d)
