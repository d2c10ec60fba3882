"""The streamed units against the materialized oracles.

`recovery._streamed_averages` (the fixed-signal unit) and uniform mode's
two passes, `recovery._streamed_stack_averages` and
`measurement._streamed_disagreements`, walk an ensemble one
1024-projection slice at a time and never hold the whole ensemble. These
tests check them against the public kernels on the materialized ensemble
(`sample_ensemble`, `measure`, `empirical_average`, `corrupt_bits`,
`trace_table`, `average_stack`) at m = 2 * 8192 + 17, so a pass crosses two
block boundaries and ends on a partial block, and check that a unit's
memory, and that of the diagnostics that stream, does not grow with m.
`trace_table` on a held ensemble and the streamed traces are one kernel,
`measurement._block_traces`, so their traces agree bit for bit. Three tests
patch the sampler's slice to 256 projections, through its cap or its byte
budget: every walk, held or streamed, must follow it. The memory tests
hold a worker to the sampler's rule of two slices of frames plus one
sub-batch's temporaries; `python tests/test_streaming.py` prints the
traced peak of each phase of a slice and of one unit.
"""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bitretrieve.core import FieldKind, InvalidInput, RankOneProjection, UnitVector
from bitretrieve import recovery, sampler
from bitretrieve.experiments import (
    _check_eigenvalue_pairs,
    _check_soft_sandwich,
    load_config,
    run_noise,
    run_pointwise,
    run_uniform,
    write_result,
)
from bitretrieve.measurement import (
    _answers,
    _block_traces,
    _slice_tables,
    _streamed_disagreements,
    corrupt_bits,
    measure,
    trace_table,
)
from bitretrieve.recovery import (
    _accumulate_signed,
    _finalize_average,
    _streamed_averages,
    _streamed_stack_averages,
    average_stack,
    empirical_average,
)
from bitretrieve.sampler import (
    _CHUNK,
    _SUB_BATCH_BYTES,
    _TRACE_SLICE,
    MeasurementEnsemble,
    SeedStream,
    _frame_blocks,
    _frame_slice,
    _gaussian,
    _packed_width,
    _slice,
    _slices,
    sample_ensemble,
    sample_unit_vector,
)

M = 2 * _CHUNK + 17
N = 2
# Five 128-signal blocks of the uniform passes, the last one partial.
SIGNALS = 600
FIELDS = [FieldKind.REAL, FieldKind.COMPLEX]
ROOT = SeedStream(31)
ENSEMBLE_STREAM = ROOT.child(0, M)
FLIP_STREAM = ROOT.child(0, M, M)


def signal(field: FieldKind) -> RankOneProjection:
    return RankOneProjection(sample_unit_vector(field, 2 * N, ROOT.child(0)))


def blocks_of(field: FieldKind, frames: np.ndarray):
    """A factory of the (start, part) slices of a materialized frame stack,
    each one validated as a MeasurementEnsemble, as `_frame_blocks` yields
    them."""
    return lambda: (
        (s, MeasurementEnsemble(field, N, frames[s : s + _TRACE_SLICE].copy()))
        for s in range(0, len(frames), _TRACE_SLICE)
    )


def ensemble_blocks(field: FieldKind, n: int = N, m: int = M, stream=ENSEMBLE_STREAM):
    """A factory of `_frame_blocks(field, n, m, stream)`, as the runners pass one."""
    return lambda: _frame_blocks(field, n, m, stream)


def streamed(field, x, mode=None, tau=0.0, blocks=None):
    if blocks is None:
        blocks = ensemble_blocks(field)
    return _streamed_averages(M, blocks, x, mode, tau, FLIP_STREAM)


def flipped_positions(bits, corrupted) -> np.ndarray:
    return np.flatnonzero(bits.bits != corrupted.bits)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
def test_clean_average_is_bitwise_the_materialized_one(field):
    x = signal(field)
    ens = sample_ensemble(field, N, M, ENSEMBLE_STREAM)
    clean, noisy, flipped = streamed(field, x)
    expected = empirical_average(ens, measure(ens, x)).matrix
    assert np.array_equal(clean.matrix, expected)
    assert noisy is clean
    assert flipped.size == 0


@pytest.mark.parametrize("mode", ["random", "greedy"])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
def test_flip_set_and_sparse_update_match_corrupt_bits(field, mode):
    x = signal(field)
    ens = sample_ensemble(field, N, M, ENSEMBLE_STREAM)
    bits = measure(ens, x)
    corrupted = corrupt_bits(bits, 0.05, mode, FLIP_STREAM, (ens, x))
    clean, noisy, flipped = streamed(field, x, mode, 0.05)
    assert np.array_equal(flipped, flipped_positions(bits, corrupted))
    assert np.array_equal(clean.matrix, empirical_average(ens, bits).matrix)
    recomputed = empirical_average(ens, corrupted).matrix
    assert np.max(np.abs(noisy.matrix - recomputed)) <= 1e-13


@pytest.mark.parametrize(
    "mode, budget",
    [("random", 0), ("greedy", 0), ("greedy", recovery._FLIP_STORE_BYTES)],
    ids=["random", "greedy-replayed", "greedy-stored"],
)
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
def test_flipped_sum_is_taken_per_slice(field, mode, budget, monkeypatch):
    # The 820 flips fall in all 17 slices. Each slice's flipped frames are
    # one `_accumulate_signed` call, in slice order, whichever path took
    # them, so the noisy average is this held sum bit for bit.
    monkeypatch.setattr(recovery, "_FLIP_STORE_BYTES", budget)
    x = signal(field)
    ens = sample_ensemble(field, N, M, ENSEMBLE_STREAM)
    held = measure(ens, x)
    flipped = flipped_positions(held, corrupt_bits(held, 0.05, mode, FLIP_STREAM, (ens, x)))
    _, noisy, streamed_flips = streamed(field, x, mode, 0.05)
    assert np.array_equal(streamed_flips, flipped)
    bits = held.bits
    acc, flipped_sum = np.zeros((2, 2 * N, 2 * N), dtype=field.dtype)
    for part in _slices(M, _slice(field, N)):
        _accumulate_signed(acc, ens.frames[part], bits[part])
        rows = flipped[(flipped >= part.start) & (flipped < part.stop)]
        if len(rows):
            _accumulate_signed(flipped_sum, ens.frames[rows], bits[rows])
    zeros = M - int(bits.sum()) + 2 * int(bits[flipped].sum()) - len(flipped)
    assert np.array_equal(noisy.matrix, _finalize_average(acc - 2.0 * flipped_sum, zeros, M))


@pytest.mark.parametrize("mode", ["random", "greedy"])
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
def test_tau_zero_returns_the_clean_average(field, mode):
    clean, noisy, flipped = streamed(field, signal(field), mode, 0.0)
    assert np.array_equal(noisy.matrix, clean.matrix)
    assert flipped.size == 0


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
def test_greedy_ties_across_a_block_boundary(field):
    # x = e_1 and coordinate frames give tr(P X) = 1 (rows e_1..e_n) or 0
    # (rows e_{n+1}..e_2n), so 40 elements around a slice boundary, the
    # first one inside a block or the first block boundary, all have the
    # largest damage, 1. With 25 flips the lowest 25 of them win: 20 from the
    # slice before the boundary and 5 from the one after it.
    eye = np.eye(2 * N, dtype=field.dtype)
    x = RankOneProjection(UnitVector(field, eye[0]))
    tau = 25.5 / M
    for boundary in (_TRACE_SLICE, _CHUNK):
        frames = sample_ensemble(field, N, M, ENSEMBLE_STREAM).frames.copy()
        tied = np.arange(boundary - 20, boundary + 20)
        for i, j in enumerate(tied):
            frames[j] = eye[:N] if i % 2 == 0 else eye[N:]
        ens = MeasurementEnsemble(field, N, frames)
        bits = measure(ens, x)
        corrupted = corrupt_bits(bits, tau, "greedy", FLIP_STREAM, (ens, x))
        clean, noisy, flipped = streamed(field, x, "greedy", tau, blocks_of(field, frames))
        assert np.array_equal(flipped, tied[:25])
        assert np.array_equal(flipped, flipped_positions(bits, corrupted))
        assert np.array_equal(clean.matrix, empirical_average(ens, bits).matrix)
        assert np.max(np.abs(noisy.matrix - empirical_average(ens, corrupted).matrix)) <= 1e-13


def test_every_block_is_validated():
    frames = sample_ensemble(FieldKind.REAL, N, M, ENSEMBLE_STREAM).frames.copy()
    frames[2 * _CHUNK + 3] *= 1.001
    with pytest.raises(InvalidInput, match="not orthonormal"):
        streamed(FieldKind.REAL, signal(FieldKind.REAL), blocks=blocks_of(FieldKind.REAL, frames))


def averages(blocks):
    return _streamed_averages(5, lambda: blocks, signal(FieldKind.REAL))


def stack_averages(blocks):
    return list(_streamed_stack_averages(FieldKind.REAL, 5, blocks, signal_stack(FieldKind.REAL)))


def disagreements(blocks):
    signals = signal_stack(FieldKind.REAL)
    return _streamed_disagreements(FieldKind.REAL, blocks, signals, signals)


@pytest.mark.parametrize(
    "kernel, field, n",
    [
        pytest.param(averages, FieldKind.REAL, N + 1, id="real-3"),
        pytest.param(averages, FieldKind.COMPLEX, N, id="complex-2"),
        pytest.param(stack_averages, FieldKind.REAL, N + 1, id="stack-averages-real-3"),
        pytest.param(stack_averages, FieldKind.COMPLEX, N, id="stack-averages-complex-2"),
        pytest.param(disagreements, FieldKind.REAL, N + 1, id="disagreements-real-3"),
        pytest.param(disagreements, FieldKind.COMPLEX, N, id="disagreements-complex-2"),
    ],
)
def test_a_block_from_another_space_is_refused(kernel, field, n):
    # Each kernel is given real signals in dimension 2N, and reads their
    # space from them alone.
    blocks = _frame_blocks(field, n, 5, ENSEMBLE_STREAM)
    with pytest.raises(InvalidInput, match="mismatch"):
        kernel(blocks)


def peak_of(fn) -> int:
    """Peak bytes traced by tracemalloc (numpy buffers included) while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_peak(m: int) -> int:
    """Peak bytes traced while one pointwise unit runs at real n = 4."""
    cfg = load_config(
        experiment="pointwise", overrides={"field": "real", "n": 4, "m_grid": str(m), "trials": 1}
    )
    return peak_of(lambda: run_pointwise(cfg))


def test_pointwise_memory_does_not_grow_with_m():
    small, large = traced_peak(8 * _CHUNK), traced_peak(16 * _CHUNK)
    assert large <= small + 2**20, (small, large)


def unit_peak(
    m: int, mode: str | None, tau: float, field: FieldKind = FieldKind.REAL, n: int = 4
) -> int:
    """Peak bytes traced while one pointwise or noise unit, at real n = 4
    unless told otherwise, streams its ensemble of size m and keeps its flip
    candidates."""
    x = RankOneProjection(sample_unit_vector(field, 2 * n, ROOT.child(0)))
    blocks = ensemble_blocks(field, n, m, ROOT.child(0, m))
    return peak_of(lambda: _streamed_averages(m, blocks, x, mode, tau, ROOT.child(0, m, m)))


@pytest.mark.parametrize("mode, tau", [(None, 0.0), ("random", 0.01), ("greedy", 0.01)])
def test_streamed_unit_holds_one_block_at_a_time(mode, tau):
    # A block the unit or the sampler still held through the next block's
    # draw and QR would add about 2 MiB at m = 4 * 8192 and none at 8192.
    small, large = unit_peak(_CHUNK, mode, tau), unit_peak(4 * _CHUNK, mode, tau)
    assert large <= small + 2**20, (small, large)


@pytest.mark.parametrize("mode", ["greedy", "random"])
def test_noise_unit_memory_does_not_grow_with_m(monkeypatch, mode):
    # Real n = 8 frames of 1 KiB, tau = 0.05: 819 flips at m = 2 * 8192 and
    # 6553 at 16 * 8192. With no budget greedy mode keeps no frame, and
    # neither mode keeps one beyond a slice's flipped frames, summed where
    # they are met. Measured before the bound was set, when both modes held
    # a frame per flip: the peak grew from 3.8 to 9.8 MiB (greedy) and from
    # 3.0 to 8.8 MiB (random); now from 2.2 to 2.3 and from 2.2 to 2.2 MiB,
    # the growth being the flip positions, damages and bits. Random mode's
    # 1 MiB position permutation at the large m is freed before the pass.
    monkeypatch.setattr(recovery, "_FLIP_STORE_BYTES", 0)
    small = unit_peak(2 * _CHUNK, mode, 0.05, FieldKind.REAL, 8)
    large = unit_peak(16 * _CHUNK, mode, 0.05, FieldKind.REAL, 8)
    assert large <= small + 2**20, (small, large)


def flip_peak(mode: str) -> int:
    """Peak bytes traced while one noise unit at real n = 4, tau = 0.25 and
    m = 16 * 8192 streams its ensemble and keeps its flip candidates."""
    return unit_peak(16 * _CHUNK, mode, 0.25)


def test_greedy_flip_store_costs_no_more_than_random_flips():
    # Greedy mode's store of floor(tau m) + 1024 = 33792 frames (8.25 MiB)
    # fits its budget, while random mode holds no more than one slice's
    # flipped frames; beyond its store greedy mode must cost no more than
    # random mode, so it must not copy the store again with every block.
    # Measured: 10.6 MiB against 1.2 MiB.
    random, greedy = flip_peak("random"), flip_peak("greedy")
    store = (32768 + _TRACE_SLICE) * 4 * 8 * 8
    assert greedy <= random + store + 2 * 2**20, (random, greedy, store)


@pytest.mark.parametrize("mode", ["random", "greedy"])
def test_flipped_frames_are_held_once(mode):
    # The floor(tau m) = 32768 flipped frames take 8 MiB. Gathering them for
    # the flipped sum all at once held a second copy: 2.3x their bytes,
    # against 1.3x for greedy mode's store summed one slice at a time, and
    # 0.16x for random mode, which keeps no flipped frame past its slice.
    frames, peak = 32768 * 4 * 8 * 8, flip_peak(mode)
    assert peak <= 1.6 * frames, (peak, frames)


def signal_stack(field: FieldKind) -> np.ndarray:
    return np.stack(
        [sample_unit_vector(field, 2 * N, ROOT.child(1, i)).entries for i in range(SIGNALS)]
    )


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
def test_streamed_stack_averages_match_average_stack(field):
    signals = signal_stack(field)
    ens = sample_ensemble(field, N, M, ENSEMBLE_STREAM)
    expected = average_stack(ens, _answers(trace_table(ens, signals)))
    blocks = _frame_blocks(field, N, M, ENSEMBLE_STREAM)
    averages = [q for _, q in _streamed_stack_averages(field, M, blocks, signals)]
    assert np.array_equal(np.concatenate(averages), expected)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
def test_streamed_disagreements_match_the_materialized_bits(field):
    signals = signal_stack(field)
    a, b = signals[0::2], signals[1::2]
    ens = sample_ensemble(field, N, M, ENSEMBLE_STREAM)
    expected = np.count_nonzero(_answers(trace_table(ens, a)) != _answers(trace_table(ens, b)), axis=1)
    blocks = _frame_blocks(field, N, M, ENSEMBLE_STREAM)
    assert np.array_equal(_streamed_disagreements(field, blocks, a, b), expected)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
def test_trace_table_rows_are_the_streamed_traces(field):
    # 300 signals end on a partial 128-signal block.
    signals = signal_stack(field)[:300]
    ens = sample_ensemble(field, N, M, ENSEMBLE_STREAM)
    streamed = np.empty((len(signals), M))
    tables = _slice_tables(field, 2 * N, _frame_blocks(field, N, M, ENSEMBLE_STREAM))
    for start, rows, table, (traces,) in _block_traces(field, tables, signals):
        streamed[rows, start : start + len(table)] = traces
    assert np.array_equal(trace_table(ens, signals), streamed)


def uniform_peak(m: int) -> int:
    """Peak bytes traced by tracemalloc while run_uniform recovers 64
    signals at real n = 2 against one ensemble of size m."""
    cfg = load_config(
        experiment="uniform", overrides={"field": "real", "n": 2, "m_grid": str(m), "inputs": 64}
    )
    return peak_of(lambda: run_uniform(cfg))


def test_uniform_memory_does_not_grow_with_m():
    small, large = uniform_peak(4 * _CHUNK), uniform_peak(8 * _CHUNK)
    assert large <= small + 2**20, (small, large)


def uniform_inputs_peak(field: str, n: int, inputs: int) -> int:
    """Peak bytes traced by tracemalloc while run_uniform recovers `inputs`
    signals against one ensemble of two table slices."""
    cfg = load_config(
        experiment="uniform",
        overrides={"field": field, "n": n, "m_grid": str(2 * _TRACE_SLICE), "inputs": inputs},
    )
    return peak_of(lambda: run_uniform(cfg))


@pytest.mark.parametrize("field, n", [("real", 4), ("complex", 4)])
def test_uniform_memory_grows_by_a_few_packed_rows_per_input(field, n):
    # What a unit must hold per input: its signal, its row of the packed sums
    # and its estimate. The bound comes from measurements from 512 to 4096
    # inputs: with (inputs, d, d) stacks of every input the peak grows by 3.8x
    # (real) and 5.9x (complex) of that per input, with stacks of one input
    # block by 1.5x and 1.8x.
    kind = FieldKind.parse(field)
    d = 2 * n
    per_input = 2 * d * np.dtype(kind.dtype).itemsize + 8 * _packed_width(kind, d)
    small, large = uniform_inputs_peak(field, n, 512), uniform_inputs_peak(field, n, 4096)
    assert large - small <= 3 * (4096 - 512) * per_input, (small, large, per_input)


@pytest.mark.parametrize("field, n, bound_mib", [("real", 8, 7.0), ("complex", 4, 4.5)])
def test_uniform_slice_working_set_stays_small(field, n, bound_mib):
    # 1024 inputs against two slices; the peak is set by what one slice takes
    # beside the per-input state. Measured before the bound was set: 5.8 MiB
    # at real n = 8 and 3.6 MiB at complex n = 4 with 128-signal blocks and
    # QR and F^H F in sub-batches, against 8.6 and 6.8 MiB with 512-signal
    # blocks (4 MiB of traces and 4 MiB of signs per slice) and whole-slice
    # QR and F^H F.
    uniform_inputs_peak(field, n, 1)  # keeps the first run's imports out of the trace
    peak = uniform_inputs_peak(field, n, 1024)
    assert peak <= bound_mib * 2**20, peak


def test_eigenvalue_pair_check_streams_its_ensemble():
    # Holding its 100000 frames at real n = 4 would take 25.6 MB alone. The
    # check imports scipy.special on its first call; load it before tracing,
    # so the peak does not depend on which test ran first.
    import scipy.special  # noqa: F401

    cfg = load_config(experiment="diagnostics", overrides={"field": "real", "n": 4})
    peak = peak_of(lambda: _check_eigenvalue_pairs(cfg, SeedStream(cfg.master_seed, (1004,))))
    assert peak <= 16 * 2**20, peak


def check_every_walk_follows_the_slice(field: FieldKind, n: int, size: int) -> None:
    """Held and streamed sums, traces and flip sets agree bit for bit when the
    sampler cuts slices of `size` projections at dimension 2n."""

    def blocks():
        return _frame_blocks(field, n, M, ENSEMBLE_STREAM)

    assert next(blocks())[1].m == size
    x = RankOneProjection(sample_unit_vector(field, 2 * n, ROOT.child(0)))
    ens = sample_ensemble(field, n, M, ENSEMBLE_STREAM)
    bits = measure(ens, x)
    clean, _, _ = _streamed_averages(M, blocks, x)
    assert np.array_equal(clean.matrix, empirical_average(ens, bits).matrix)

    # 130 signals cross one 128-row signal block.
    signals = np.stack(
        [sample_unit_vector(field, 2 * n, ROOT.child(1, i)).entries for i in range(130)]
    )
    traces = trace_table(ens, signals)
    expected = average_stack(ens, _answers(traces))
    averages = [q for _, q in _streamed_stack_averages(field, M, blocks(), signals)]
    assert np.array_equal(np.concatenate(averages), expected)
    streamed_traces = np.empty_like(traces)
    tables = _slice_tables(field, 2 * n, blocks())
    for start, rows, table, (part,) in _block_traces(field, tables, signals):
        streamed_traces[rows, start : start + len(table)] = part
    assert np.array_equal(traces, streamed_traces)

    for mode in ("greedy", "random"):
        corrupted = corrupt_bits(bits, 0.05, mode, FLIP_STREAM, (ens, x))
        _, _, flipped = _streamed_averages(M, blocks, x, mode, 0.05, FLIP_STREAM)
        assert np.array_equal(flipped, flipped_positions(bits, corrupted))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
def test_one_patched_slice_rule_drives_every_walk(monkeypatch, field):
    # `sampler._slices` is the only statement of the slice; a module that
    # kept its own copy of the 1024 would cut its held or streamed sums at
    # other points than the sampler and lose the bit-for-bit agreement.
    monkeypatch.setattr(sampler, "_TRACE_SLICE", 256)
    check_every_walk_follows_the_slice(field, 4, 256)


def test_patched_slice_budget_drives_every_walk(monkeypatch, tmp_path):
    # 256 real n = 4 frames of 256 bytes fill a 64 KiB budget. A walk that
    # cut by the 1024 cap alone would chunk its sums at other points.
    monkeypatch.setattr(sampler, "_SLICE_BYTES", 256 * 4 * 8 * 8)
    check_every_walk_follows_the_slice(FieldKind.REAL, 4, 256)
    cfg = load_config(
        experiment="noise",
        overrides={
            "field": "real", "n": 4, "m_grid": "3000", "trials": 3, "tau": 0.05,
            "flip_mode": "greedy",
        },
    )
    outs = []
    for threads in (1, 2):
        paths = write_result(run_noise(cfg, threads=threads), str(tmp_path / f"t{threads}.csv"))
        outs.append([Path(path).read_bytes() for path in paths])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.value)
def test_soft_sandwich_check_takes_any_slice(monkeypatch, field):
    # Its 500-projection ensembles span two 256-projection slices. Real
    # frames do not depend on the slice, so the statistic is the one of the
    # 1024-projection slices; a complex slice draws its own real and
    # imaginary parts, so over C the check need only run.
    cfg = load_config(experiment="diagnostics", overrides={"field": field.value, "n": 2})
    stream = SeedStream(cfg.master_seed, (1005,))
    full = _check_soft_sandwich(cfg, stream)
    monkeypatch.setattr(sampler, "_TRACE_SLICE", 256)
    sliced = _check_soft_sandwich(cfg, stream)
    if field is FieldKind.REAL:
        assert sliced.statistic == full.statistic


def slice_frames(field: FieldKind, n: int) -> np.ndarray:
    """The frames of one whole slice, writable."""
    return _frame_slice(field, n, _slice(field, n), ROOT.child(2).generator())


def phase_peaks(field: FieldKind, n: int) -> dict[str, int]:
    """Traced peaks of the phases of one slice at dimension 2n, beside the
    bytes of its frames: the Gaussian draw, the frame check of frames already
    held, the signed sum of their rows, and a clean unit of one block."""
    frames = slice_frames(field, n)
    size, d = len(frames), 2 * n
    rng = ROOT.child(3).generator()
    bits = (np.arange(size) % 3 == 0).astype(np.uint8)
    acc = np.zeros((d, d), dtype=field.dtype)
    return {
        "frames": frames.nbytes,
        "draw": peak_of(lambda: _gaussian(field, (size, d, n), rng)),
        "frame check": peak_of(lambda: MeasurementEnsemble(field, n, frames)),
        "signed sum": peak_of(lambda: _accumulate_signed(acc, frames, bits)),
        "unit": unit_peak(_CHUNK, None, 0.0, field, n),
    }


def test_complex_draw_holds_half_a_slice_beside_its_output():
    # The real and the imaginary parts pass through one real buffer: 1.5x
    # the output, against 2x for one (2, *shape) draw beside the output.
    peaks = phase_peaks(FieldKind.COMPLEX, 4)
    assert peaks["draw"] <= 1.6 * peaks["frames"], peaks


@pytest.mark.parametrize("field, n", [(FieldKind.REAL, 8), (FieldKind.COMPLEX, 4)])
def test_frame_check_holds_one_sub_batch(field, n):
    # One sub-batch's Gram products, and over C its conjugate copy. Measured
    # before the bound was set: 259 KiB at real n = 8 and 513 KiB at complex
    # n = 4, against 1,026 and 769 KiB for one check over the whole slice.
    copies = 2 if field is FieldKind.COMPLEX else 1
    peaks = phase_peaks(field, n)
    assert peaks["frame check"] <= copies * _SUB_BATCH_BYTES + 32 * 2**10, peaks


def test_complex_signed_sum_holds_one_signed_copy():
    # 674 KiB for a 512 KiB slice at complex n = 4, against 1,186 KiB when
    # the conjugate and the signed product were two copies.
    peaks = phase_peaks(FieldKind.COMPLEX, 4)
    assert peaks["signed sum"] <= 1.4 * peaks["frames"], peaks


def test_clean_complex_unit_holds_two_slices():
    # Two slices of frames and one sub-batch's temporaries: 1,327 KiB
    # measured, against 1,711 KiB when the draw, the frame check and the
    # signed sum each held a third slice-sized temporary.
    peaks = phase_peaks(FieldKind.COMPLEX, 4)
    assert peaks["unit"] <= 2 * peaks["frames"] + _SUB_BATCH_BYTES + 64 * 2**10, peaks


def test_unit_memory_is_bounded_in_n():
    # At real n = 64 a 1024-projection slice takes 64 MiB of frames; a slice
    # sized to the 8 MiB budget holds 128. Measured before the bound was
    # set: 16.3 MiB for m = 256, against 32.4 MiB with one 256-frame slice.
    peak = unit_peak(256, None, 0.0, FieldKind.REAL, 64)
    assert peak <= 2 * sampler._SLICE_BYTES + _SUB_BATCH_BYTES + 2**20, peak


def test_greedy_store_is_at_most_twice_the_flips():
    # floor(0.001 * 8192) = 8 flips of 512-byte complex n = 4 frames. The store
    # keeps min(flips, slice) spare rows: 16 rows, against 1,032 when it kept a
    # whole slice spare. Measured before the bound was set: 20 KiB above a
    # clean unit, against 569 KiB.
    clean = unit_peak(_CHUNK, None, 0.0, FieldKind.COMPLEX, 4)
    peak = unit_peak(_CHUNK, "greedy", 0.001, FieldKind.COMPLEX, 4)
    assert peak - clean <= 2 * 8 * 512 + 32 * 2**10, (clean, peak)


if __name__ == "__main__":
    for field, n in [(FieldKind.REAL, 8), (FieldKind.COMPLEX, 4)]:
        peaks = phase_peaks(field, n)
        phases = ", ".join(f"{name} {peak // 1024} KiB" for name, peak in peaks.items())
        print(f"{field.value} n = {n}: {phases}")
