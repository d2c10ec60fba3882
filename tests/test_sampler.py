import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import betainc

from bitretrieve import sampler
from bitretrieve.core import FieldKind, InvalidInput, RankOneProjection
from bitretrieve.experiments import _ks_statistic
from bitretrieve.measurement import trace_values
from bitretrieve.sampler import (
    _CHUNK,
    _TRACE_SLICE,
    MeasurementEnsemble,
    SeedStream,
    _frame_blocks,
    _orthonormalize_batch,
    _pack_frames,
    _pack_hermitian,
    _slice,
    _sub_batch,
    sample_ensemble,
    sample_haar_projection,
    sample_unit_vector,
)

R = FieldKind.REAL
C = FieldKind.COMPLEX


def whole_block_frames(
    field: FieldKind, n: int, count: int, stream: SeedStream, size: int = 1024
) -> np.ndarray:
    """The frames of one sampling block as the sampler's contract states
    them: one Gaussian draw from `stream` per slice of `size` projections,
    in order (complex: one call of shape (2, slice, d, k), the real parts
    then the imaginary parts), one orthonormalization by the sampler's rule
    over the whole block, and the conjugate transpose of each basis. Each
    frame's projection is also checked against the one LAPACK's QR gives."""
    rng = stream.generator()
    draws = []
    for start in range(0, count, size):
        shape = (min(size, count - start), 2 * n, n)
        if field is R:
            draws.append(rng.standard_normal(shape))
        else:
            parts = rng.standard_normal((2, *shape))
            draws.append(parts[0] + 1j * parts[1])
    g = np.concatenate(draws)
    q = _orthonormalize_batch(g)
    reference = np.linalg.qr(g)[0]
    moved = q @ q.conj().swapaxes(1, 2) - reference @ reference.conj().swapaxes(1, 2)
    assert np.max(np.abs(moved)) <= 1e-13
    return np.conjugate(np.swapaxes(q, 1, 2))


def check_slices_match_whole_blocks(
    field: FieldKind, n: int, m: int, size: int = _TRACE_SLICE
) -> None:
    """`_frame_blocks` yields one read-only slice of at most `size` frames per
    start, no two sharing memory, and a block's slices concatenated are
    `whole_block_frames` of that block."""
    stream = SeedStream(57, (2, m))
    parts = list(_frame_blocks(field, n, m, stream))
    assert [start for start, _ in parts] == list(range(0, m, size))
    for start, part in parts:
        assert part.m == min(size, m - start)
        assert part.frames.flags.c_contiguous and not part.frames.flags.writeable
    for b, first in enumerate(range(0, m, _CHUNK)):
        count = min(_CHUNK, m - first)
        frames = np.concatenate([p.frames for s, p in parts if first <= s < first + count])
        assert np.array_equal(frames, whole_block_frames(field, n, count, stream.child(b), size))
    for i, (_, part) in enumerate(parts):
        for _, later in parts[i + 1 :]:
            assert not np.shares_memory(part.frames, later.frames)


class TestSeedStream:
    def test_replay_is_bit_identical(self):
        s = SeedStream(123, (4, 5))
        a = sample_unit_vector(R, 16, s)
        b = sample_unit_vector(R, 16, s)
        assert np.array_equal(a.entries, b.entries)

    def test_distinct_paths_differ(self):
        a = sample_unit_vector(R, 16, SeedStream(123, (0,)))
        b = sample_unit_vector(R, 16, SeedStream(123, (1,)))
        c = sample_unit_vector(R, 16, SeedStream(124, (0,)))
        assert not np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)

    def test_path_depth_matters(self):
        a = sample_unit_vector(R, 8, SeedStream(9, (0,)))
        b = sample_unit_vector(R, 8, SeedStream(9, (0, 0)))
        assert not np.array_equal(a.entries, b.entries)

    def test_child_extends_path(self):
        s = SeedStream(5)
        assert s.child(1, 2).path == (1, 2)
        assert s.child(1).child(2) == s.child(1, 2)
        assert s.label() == "-"
        assert s.child(3, 7).label() == "3/7"

    def test_rejects_indices_outside_32_bits(self):
        # SeedSequence would split 2**32 into the words (0, 1), aliasing that path.
        for index in (-1, 2**32):
            with pytest.raises(InvalidInput):
                SeedStream(5).child(index)

    def test_rejects_master_seed_outside_64_bits(self):
        # Masked to 64 bits, -1 would alias seed 2**64 - 1; unmasked, seeds of
        # 2**128 and up would alias child paths of smaller seeds.
        for seed in (-1, 2**64):
            with pytest.raises(InvalidInput, match="master seed"):
                SeedStream(seed)
        assert SeedStream(2**64 - 1).generator().integers(2**32) >= 0


class TestSampleUnitVector:
    def test_real_one_dimensional(self):
        for seed in range(20):
            v = sample_unit_vector(R, 1, SeedStream(seed))
            assert abs(abs(float(v.entries[0])) - 1.0) <= 1e-12

    def test_rejects_zero_dimension(self):
        with pytest.raises(InvalidInput):
            sample_unit_vector(R, 0, SeedStream(1))

    def test_complex_has_both_parts(self):
        v = sample_unit_vector(C, 32, SeedStream(2))
        assert np.abs(v.entries.real).max() > 0
        assert np.abs(v.entries.imag).max() > 0

    def test_first_coordinate_mass(self):
        # E|<u, e1>|^2 = 1/d by rotation invariance
        d, n_samples = 16, 10000
        samples = np.empty(n_samples)
        for i in range(n_samples):
            v = sample_unit_vector(R, d, SeedStream(77, (i,)))
            samples[i] = float(v.entries[0]) ** 2
        se = samples.std(ddof=1) / math.sqrt(n_samples)
        assert abs(samples.mean() - 1.0 / d) <= 3 * se


class TestSampleHaarProjection:
    def test_full_rank_is_identity(self):
        p = sample_haar_projection(R, 3, 3, SeedStream(4))
        assert np.max(np.abs(p.matrix - np.eye(3))) <= 1e-12

    def test_one_by_one(self):
        p = sample_haar_projection(R, 1, 1, SeedStream(5))
        assert p.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_ranks(self):
        with pytest.raises(InvalidInput):
            sample_haar_projection(R, 0, 4, SeedStream(1))
        with pytest.raises(InvalidInput):
            sample_haar_projection(R, 5, 4, SeedStream(1))

    @pytest.mark.parametrize("field", [R, C])
    def test_projection_invariants(self, field):
        for seed in range(10):
            p = sample_haar_projection(field, 4, 8, SeedStream(seed, (2,)))
            mat = p.matrix
            assert np.max(np.abs(mat @ mat - mat)) <= 1e-12
            assert abs(np.trace(mat).real - 4) <= 1e-10


class TestOrthonormalize:
    @pytest.mark.parametrize("field", [R, C])
    def test_produces_orthonormal_columns(self, field):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((64, 10, 4))
        if field is C:
            g = g + 1j * rng.standard_normal((64, 10, 4))
        q = _orthonormalize_batch(g)
        gram = np.einsum("mdi,mdj->mij", q.conj(), q)
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-13

    def test_spans_preserved(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((8, 6, 3))
        q = _orthonormalize_batch(g)
        # projection onto span(q) reproduces the original columns
        for j in range(8):
            p = q[j] @ q[j].T
            assert np.max(np.abs(p @ g[j] - g[j])) <= 1e-10

    @pytest.mark.parametrize("field", [R, C])
    def test_rejects_zero_column(self, field):
        # At n = 2, and at the largest Gram-Schmidt and the smallest QR size
        # of the field, for a lone matrix and in a batch of three.
        largest = {R: 8, C: 5}[field]
        for n, m in itertools.product((2, largest, largest + 1), (1, 3)):
            g = np.random.default_rng(5).standard_normal((m, 2 * n, n)).astype(field.dtype)
            g[m // 2, :, 1] = 0.0
            with pytest.raises(InvalidInput, match="rank-deficient"):
                _orthonormalize_batch(g)

    @pytest.mark.parametrize("field, n", [(R, 2), (C, 2), (R, 8), (C, 5)])
    def test_basis_does_not_depend_on_the_batch(self, field, n):
        # Real n = 2 and the largest Gram-Schmidt size of each field: every
        # row orthonormalized in batches of any size, down to one matrix, is
        # that row of one call over the whole stack, bit for bit.
        itemsize = np.dtype(field.dtype).itemsize
        if n > 2:
            assert 2 * n * n * itemsize <= sampler._GRAM_SCHMIDT_BYTES
            assert 2 * (n + 1) ** 2 * itemsize > sampler._GRAM_SCHMIDT_BYTES
        count = 1100
        g = sampler._gaussian(field, (count, 2 * n, n), SeedStream(60, (n,)).generator())
        whole = _orthonormalize_batch(g)
        for size in (1, 2, 3, 255, 256, 257, 1023):
            parts = [_orthonormalize_batch(g[s : s + size]) for s in range(0, count, size)]
            assert np.array_equal(np.concatenate(parts), whole), size


class TestSampleEnsemble:
    @pytest.mark.parametrize("field", [R, C])
    def test_blocks_match_child_streams(self, field):
        # block b of 8192 elements is drawn and orthonormalized from stream.child(b)
        n, block = 2, 8192
        m = 2 * block + 17
        stream = SeedStream(99, (3, m))
        ens = sample_ensemble(field, n, m, stream)
        for b, start in enumerate(range(0, m, block)):
            count = min(block, m - start)
            frames = whole_block_frames(field, n, count, stream.child(b))
            assert np.array_equal(ens.frames[start : start + count], frames)

    @pytest.mark.parametrize("field", [R, C])
    @pytest.mark.parametrize("m", [17, _TRACE_SLICE, _TRACE_SLICE + 1, _CHUNK, 2 * _CHUNK + 17])
    def test_sliced_blocks_match_one_whole_block_qr(self, field, m):
        # The sampler yields each block one 1024-matrix slice at a time; no
        # basis depends on its batch, so the slices of a block, concatenated,
        # are the frames one orthonormalization of the whole block's draw
        # gives, bit for bit.
        check_slices_match_whole_blocks(field, 2, m)

    @pytest.mark.parametrize("field", [R, C])
    @pytest.mark.parametrize("m", [_TRACE_SLICE + 1, 2 * _CHUNK + 17])
    def test_sub_batched_slices_match_one_whole_block_qr(self, field, m):
        # At n = 8 a slice is orthonormalized in sub-batches of 256 (real,
        # Gram-Schmidt) or 128 (complex, QR) matrices; the frames are still
        # those of one orthonormalization of the whole block's draw, bit for
        # bit.
        assert _sub_batch(field, 8) < _TRACE_SLICE
        check_slices_match_whole_blocks(field, 8, m)

    @pytest.mark.parametrize(
        "field, n, size", [(R, 22, 1024), (R, 23, 512), (C, 16, 1024), (C, 17, 512)]
    )
    def test_slice_is_sized_in_bytes(self, field, n, size):
        # 1024 frames fit the 8 MiB slice budget up to real n = 22 and complex
        # n = 16; above that a slice is the largest power of two that fits, so
        # a block still splits into whole slices, and its frames are still
        # those of one orthonormalization of the block's draw, drawn slice by
        # slice.
        assert _slice(field, n) == size
        check_slices_match_whole_blocks(field, n, size + 5, size)

    @pytest.mark.parametrize(
        "field, n, size", [(R, 64, 128), (R, 128, 32), (C, 64, 64), (C, 128, 16), (R, 2048, 1)]
    )
    def test_large_slices_fit_the_budget(self, field, n, size):
        # One real n = 2048 frame alone takes 64 MiB: a slice never drops to 0.
        assert _slice(field, n) == size

    @pytest.mark.parametrize(
        "field, n, ratio", [(R, 8, 0.4), (R, 2, 0.75), (C, 8, 0.4), (C, 4, 0.4)]
    )
    def test_one_block_costs_little_beyond_its_frames(self, field, n, ratio):
        # Bounds the traced peak of drawing a block's first slice, against
        # the frame bytes of a whole block. Each slice is drawn by its own
        # call, so only that slice's draw (which its frames overwrite), its
        # Gram buffers and the orthonormalization buffers of one sub-batch
        # live: 0.16-0.26 at real n = 8 and 0.27 at complex n = 4 (both
        # Gram-Schmidt) and 0.19 at complex n = 8 (QR), against 0.21-0.31
        # and 0.32 when QR took every size, and 0.455-0.545, 0.49 and 0.45
        # when QR took the whole slice, whose draw, QR's copy and Q are each
        # an eighth of the block. At real n = 2 the slice is one sub-batch:
        # 0.38 (0.547 by QR). A complex block that held the real half of its
        # draw took 0.95-0.99.
        blocks = _frame_blocks(field, n, _CHUNK, SeedStream(58))
        tracemalloc.start()
        try:
            next(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = _CHUNK * n * 2 * n * np.dtype(field.dtype).itemsize
        assert peak <= ratio * block_bytes, (peak, block_bytes)

    @pytest.mark.parametrize("field, n", [(R, 2), (R, 8), (C, 4), (C, 8)])
    def test_sub_batched_table_is_one_whole_product(self, field, n):
        # _pack_frames forms F^H F one sub-batch at a time (the whole slice at
        # real n = 2); each product is formed matrix by matrix, so the table
        # is the packing of one product over the whole slice, bit for bit.
        [(_, part)] = _frame_blocks(field, n, _TRACE_SLICE, SeedStream(59))
        frames = part.frames
        whole = _pack_hermitian(field, np.conjugate(frames.swapaxes(1, 2)) @ frames)
        assert np.array_equal(_pack_frames(field, frames), whole)
        assert (_sub_batch(field, n) < _TRACE_SLICE) == ((field, n) != (R, 2))

    def test_replay_identical(self):
        a = sample_ensemble(C, 2, 50, SeedStream(1, (0, 50)))
        b = sample_ensemble(C, 2, 50, SeedStream(1, (0, 50)))
        assert np.array_equal(a.frames, b.frames)

    def test_single_element(self):
        ens = sample_ensemble(R, 2, 1, SeedStream(6))
        assert len(ens) == 1
        ens.projection(0)

    def test_elements_are_valid_projections(self):
        ens = sample_ensemble(C, 3, 25, SeedStream(8))
        for j in range(0, 25, 5):
            p = ens.projection(j)
            assert p.rank == 3 and p.dim == 6

    @pytest.mark.parametrize("field", [R, C])
    def test_large_dimension(self, field):
        # frames at d = 1024 pass the ensemble's orthonormality check
        ens = sample_ensemble(field, 512, 2, SeedStream(13))
        assert ens.frames.shape == (2, 512, 1024)
        p = ens.projection(0)
        assert p.rank == 512 and p.dim == 1024

    def test_rejects_bad_sizes(self):
        with pytest.raises(InvalidInput):
            sample_ensemble(R, 0, 5, SeedStream(1))
        with pytest.raises(InvalidInput):
            sample_ensemble(R, 2, 0, SeedStream(1))

    def test_frame_validation(self):
        bad = np.zeros((2, 2, 4))
        bad[:, 0, 0] = 1.0
        bad[:, 1, 1] = 0.5  # second row not unit
        with pytest.raises(InvalidInput):
            MeasurementEnsemble(R, 2, bad)

    @pytest.mark.parametrize("field", [R, C])
    def test_frame_validation_refuses_nan(self, field):
        # A NaN deviation compares False against the tolerance, so a check
        # that refused only deviations above it let NaN frames through.
        with pytest.raises(InvalidInput, match="not orthonormal"):
            MeasurementEnsemble(field, 1, np.full((3, 1, 2), np.nan, dtype=field.dtype))

    def test_held_ensemble_validates_its_last_slice(self):
        frames = sample_ensemble(R, 2, 2 * _CHUNK + 17, SeedStream(32)).frames.copy()
        frames[-1] *= 1.001
        with pytest.raises(InvalidInput, match="not orthonormal"):
            MeasurementEnsemble(R, 2, frames)

    def test_every_drawn_block_is_validated(self, monkeypatch):
        # One orthonormalization call per 1024-matrix slice, made when the
        # slice is asked for. The first or the last slice of the third block
        # returns a frame off the unit sphere; the sampler must refuse that
        # slice before any consumer reads it, having yielded every slice
        # before it.
        m = 2 * _CHUNK + _TRACE_SLICE + 17
        starts = list(range(0, m, _TRACE_SLICE))
        third_block = 2 * _CHUNK // _TRACE_SLICE + 1
        for field, skewed_call in itertools.product((R, C), (third_block, len(starts))):
            calls = []

            def skewed(g):
                q = _orthonormalize_batch(g)
                calls.append(len(q))
                if len(calls) == skewed_call:
                    q[5] *= 1.001
                return q

            monkeypatch.setattr(sampler, "_orthonormalize_batch", skewed)
            blocks = _frame_blocks(field, 2, m, SeedStream(31, (0,)))
            for start in starts[: skewed_call - 1]:
                assert next(blocks)[0] == start
            with pytest.raises(InvalidInput, match="not orthonormal"):
                next(blocks)
            assert calls == [min(_TRACE_SLICE, m - s) for s in starts[:skewed_call]]

    def test_held_ensemble_checks_each_frame_once(self, monkeypatch):
        # Checking every slice as it was drawn and then the assembled array
        # checked each frame twice.
        checked = []
        check = MeasurementEnsemble.__post_init__

        def counting(self):
            checked.append(len(self.frames))
            check(self)

        monkeypatch.setattr(MeasurementEnsemble, "__post_init__", counting)
        m = 2 * _CHUNK + 17
        sample_ensemble(R, 2, m, SeedStream(33))
        assert checked == [m]

    def test_compression_blocks(self):
        ens = sample_ensemble(R, 3, 10, SeedStream(12))
        top = ens.compression(2)
        for j in range(10):
            assert np.max(np.abs(top[j] - ens.matrix(j)[:2, :2])) <= 1e-12

    @pytest.mark.parametrize("size", [0, -1, 7])
    def test_compression_refuses_a_size_outside_the_space(self, size):
        # Slicing alone would return 4 x 4 blocks for size 7 at n = 2 and
        # empty ones for size 0.
        ens = sample_ensemble(R, 2, 5, SeedStream(12))
        with pytest.raises(InvalidInput, match="size"):
            ens.compression(size)


class TestTraceDistribution:
    def test_beta_moments_real_n8(self):
        n, n_samples = 8, 20000
        ens = sample_ensemble(R, n, n_samples, SeedStream(404, (0,)))
        x = RankOneProjection(sample_unit_vector(R, 2 * n, SeedStream(404, (1,))))
        traces = trace_values(ens, x)
        se = traces.std(ddof=1) / math.sqrt(n_samples)
        assert abs(traces.mean() - 0.5) <= 3 * se
        bn = 0.5 * n
        target_var = 1.0 / (4 * (2 * bn + 1))
        assert target_var == pytest.approx(1 / 36)
        assert abs(traces.var(ddof=1) - target_var) <= 0.1 * target_var

    def test_uniform_law_real_n2(self):
        # bn = 1: the trace is uniform on [0, 1]
        n_samples = 10000
        ens = sample_ensemble(R, 2, n_samples, SeedStream(405, (0,)))
        x = RankOneProjection(sample_unit_vector(R, 4, SeedStream(405, (1,))))
        traces = trace_values(ens, x)
        se = traces.std(ddof=1) / math.sqrt(n_samples)
        assert abs(traces.mean() - 0.5) <= 3 * se
        stat = _ks_statistic(traces, lambda t: t)
        assert stat < 1.36 / math.sqrt(n_samples) + 0.005

    @pytest.mark.parametrize("field,n", [(R, 8), (C, 4)])
    def test_beta_law_ks(self, field, n):
        n_samples = 10000
        ens = sample_ensemble(field, n, n_samples, SeedStream(406, (int(field is C),)))
        x = RankOneProjection(sample_unit_vector(field, 2 * n, SeedStream(406, (9,))))
        traces = trace_values(ens, x)
        bn = field.beta * n
        stat = _ks_statistic(traces, lambda t: betainc(bn, bn, t))
        assert stat < 1.36 / math.sqrt(n_samples) + 0.005

    def test_rotation_invariance(self):
        # tr(U P U* X) must be distributed like tr(P X) for any fixed unitary
        n, n_samples = 4, 10000
        d = 2 * n
        ens_a = sample_ensemble(R, n, n_samples, SeedStream(407, (0,)))
        ens_b = sample_ensemble(R, n, n_samples, SeedStream(407, (1,)))
        x = sample_unit_vector(R, d, SeedStream(407, (2,)))
        gen = SeedStream(407, (3,)).generator()
        u = _orthonormalize_batch(gen.standard_normal((1, d, d)))[0]
        x_rot = RankOneProjection(type(x)(R, u.T @ x.entries))
        samples_a = trace_values(ens_a, RankOneProjection(x))
        samples_b = trace_values(ens_b, x_rot)
        # two-sample KS
        pooled = np.sort(np.concatenate([samples_a, samples_b]), kind="stable")
        cdf_a = np.searchsorted(np.sort(samples_a, kind="stable"), pooled, side="right") / n_samples
        cdf_b = np.searchsorted(np.sort(samples_b, kind="stable"), pooled, side="right") / n_samples
        assert float(np.max(np.abs(cdf_a - cdf_b))) < 0.02
