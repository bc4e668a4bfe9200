"""Preprocessing chain: crop/resize, length, equalization, clips."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidmood import pipeline as P

from reference import bilinear_resize_reference, preprocess_stack_reference


def u8video(t, h, w, seed=0):
    frames = np.random.default_rng(seed).integers(0, 256, size=(t, h, w, 3), dtype=np.uint8)
    return P.RawVideo(frames=frames, source_id=f"vid{seed}")


class TestLocalizeResize:
    def test_square_frame_is_identity(self):
        v = u8video(3, 16, 16, seed=1)
        out = P.localize_and_resize(v, P.CenterSquareLocalizer(), 16)
        np.testing.assert_array_equal(out, v.frames)

    def test_constant_downscale_preserves_value(self):
        frames = np.full((2, 32, 32, 3), 77, dtype=np.uint8)
        v = P.RawVideo(frames=frames, source_id="c")
        out = P.localize_and_resize(v, P.CenterSquareLocalizer(), 16)
        assert out.shape == (2, 16, 16, 3)
        assert np.all(out == 77)

    def test_center_crop_of_wide_frame(self):
        v = u8video(1, 8, 14, seed=2)
        out = P.localize_and_resize(v, P.CenterSquareLocalizer(), 8)
        np.testing.assert_array_equal(out[0], v.frames[0][:, 3:11])

    @pytest.mark.parametrize("h, w, side", [(5, 7, 12), (3, 11, 16), (23, 17, 6), (40, 9, 8),
                                            (1, 5, 8),        # a single source row
                                            (37, 41, 7),
                                            (64, 64, 224),    # upscale to the paper's side
                                            (4096, 64, 32)])  # a tall strip
    def test_resize_matches_loop_reference(self, h, w, side):
        frames = u8video(2, h, w, seed=h * w).frames
        np.testing.assert_array_equal(P._resize_frames_u8(frames, side),
                                      bilinear_resize_reference(frames, side))

    def test_resize_memory_scales_with_output(self):
        frames = u8video(4, 512, 512, seed=7).frames
        tracemalloc.start()
        try:
            P._resize_frames_u8(frames, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, f"resize peak {peak / 2 ** 20:.1f} MiB for a 3 MiB input"

    def test_resize_interpolates_only_the_rows_it_reads(self):
        """32 output rows read 64 of the 4096 source rows; interpolating all
        4096 along W first would peak at about 6.5 MiB."""
        frames = u8video(1, 4096, 64, seed=9).frames
        tracemalloc.start()
        try:
            P._resize_frames_u8(frames, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, f"resize peak {peak / 2 ** 20:.1f} MiB for 32 output rows"

    def test_resize_working_set_is_per_frame(self):
        frames = u8video(160, 96, 96, seed=8).frames
        tracemalloc.start()
        try:
            out = P._resize_frames_u8(frames, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_sample = peak / out.size
        assert per_sample < 4, f"resize peak {per_sample:.1f} bytes per output sample"


class TestStandardizeLength:
    def test_trim_keeps_first_frames(self):
        frames = u8video(31, 4, 4, seed=7).frames
        out = P.standardize_length(frames, 30)
        np.testing.assert_array_equal(out, frames[:30])

    def test_pad_repeats_from_start_cyclically(self):
        frames = u8video(5, 4, 4, seed=8).frames
        out = P.standardize_length(frames, 12)
        assert out.shape[0] == 12
        np.testing.assert_array_equal(out[:5], frames)
        np.testing.assert_array_equal(out[5:10], frames)
        np.testing.assert_array_equal(out[10:], frames[:2])

    def test_exact_length_identity(self):
        frames = u8video(6, 4, 4, seed=9).frames
        np.testing.assert_array_equal(P.standardize_length(frames, 6), frames)

    @given(st.integers(1, 36), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_always_emits_exactly_l(self, t, seed):
        frames = np.random.default_rng(seed).integers(0, 256, (t, 2, 2, 3), dtype=np.uint8)
        assert P.standardize_length(frames, 12).shape == (12, 2, 2, 3)


class TestSegmentNormalize:
    def test_clip_count(self):
        frames = u8video(300, 4, 4, seed=10).frames
        assert len(P.segment_clips(frames, 30)) == 10

    def test_single_clip_identity(self):
        frames = u8video(6, 4, 4, seed=11).frames
        (clip,) = P.segment_clips(frames, 6)
        np.testing.assert_array_equal(clip, frames)

    def test_concat_round_trip_bit_exact(self):
        frames = u8video(24, 4, 4, seed=12).frames
        back = np.concatenate(P.segment_clips(frames, 6), axis=0)
        np.testing.assert_array_equal(back, frames)

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            P.segment_clips(u8video(25, 4, 4).frames, 6)

    def test_normalize_endpoints(self):
        x = np.array([0, 128, 255], dtype=np.uint8)
        out = P.normalize_pixels(x)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, [0.0, 128 / 255, 1.0], rtol=1e-7)

    def test_normalize_into_out_is_bit_identical(self):
        frames = u8video(3, 5, 7, seed=14).frames
        buf = np.full(frames.shape, np.nan, dtype=np.float32)
        got = P.normalize_pixels(frames, out=buf)
        assert got is buf
        old = frames.astype(np.float32) / np.float32(255.0)
        np.testing.assert_array_equal(got.view(np.uint32), old.view(np.uint32))
        np.testing.assert_array_equal(P.normalize_pixels(frames).view(np.uint32),
                                      old.view(np.uint32))

    @pytest.mark.parametrize("shape, dtype", [((3, 5, 7, 3), np.float64),
                                              ((3, 5, 7, 1), np.float32),
                                              ((2, 5, 7, 3), np.float32)])
    def test_normalize_rejects_wrong_out(self, shape, dtype):
        frames = u8video(3, 5, 7, seed=15).frames
        with pytest.raises(ValueError, match=r"\(3, 5, 7, 3\)"):
            P.normalize_pixels(frames, out=np.zeros(shape, dtype=dtype))


class TestEqualize:
    def test_constant_frame_maps_to_zero(self):
        ch = np.full((8, 8), 130, dtype=np.uint8)
        assert np.all(P.equalize_histogram(ch) == 0)

    def test_two_level_frame_stretches_to_extremes(self):
        ch = np.zeros((4, 4), dtype=np.uint8)
        ch[:2] = 40   # half at a=40, half at b=200
        ch[2:] = 200
        out = P.equalize_histogram(ch)
        assert np.all(out[:2] == 0) and np.all(out[2:] == 255)

    def test_linear_ramp_output_near_uniform(self):
        ch = np.linspace(0, 255, 64 * 64).astype(np.uint8).reshape(64, 64)
        out = P.equalize_histogram(ch)
        values = np.sort(out.ravel())
        ecdf = np.arange(1, values.size + 1) / values.size
        uniform = (values.astype(np.float64) + 1) / 256.0
        assert np.abs(ecdf - uniform).max() <= 0.02

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mapping_is_monotone(self, seed):
        ch = np.random.default_rng(seed).integers(0, 256, (16, 16), dtype=np.uint8)
        out = P.equalize_histogram(ch)
        order = np.argsort(ch.ravel(), kind="stable")
        mapped = out.ravel()[order]
        assert np.all(np.diff(mapped.astype(np.int16)) >= 0)

    def test_per_frame_per_channel_independence(self):
        frames = u8video(2, 8, 8, seed=13).frames
        out = P.equalize_frames(frames)
        np.testing.assert_array_equal(out[0, :, :, 0], P.equalize_histogram(frames[0, :, :, 0]))
        np.testing.assert_array_equal(out[1, :, :, 2], P.equalize_histogram(frames[1, :, :, 2]))


class TestFullChain:
    def test_clip_shapes_and_range(self):
        v = u8video(13, 20, 24, seed=20)
        cfg = P.PipelineConfig(side=8, length=12, clip_len=4)
        clips = P.preprocess_video(v, cfg)
        assert len(clips) == 3
        for i, c in enumerate(clips):
            assert c.frames.shape == (4, 8, 8, 3)
            assert c.frames.dtype == np.float32
            assert c.frames.min() >= 0.0 and c.frames.max() <= 1.0
            assert c.clip_index == i and c.parent_id == "vid20"

    def test_deterministic_rerun(self):
        v = u8video(10, 16, 16, seed=21)
        cfg = P.PipelineConfig(side=8, length=12, clip_len=6)
        a = P.preprocess_video(v, cfg)
        b = P.preprocess_video(v, cfg)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.frames, cb.frames)

    @pytest.mark.parametrize("t, h, w", [(17, 20, 20),    # trimmed to 12 frames
                                         (7, 20, 20),     # padded from frame 0
                                         (12, 20, 20),    # exactly the length
                                         (15, 13, 22),    # centre crop of a wide frame
                                         (9, 26, 11)])    # and of a tall one, padded
    def test_matches_the_stacked_chain_bit_for_bit(self, t, h, w):
        v = u8video(t, h, w, seed=t * 100 + h)
        cfg = P.PipelineConfig(side=8, length=12, clip_len=4)
        want = preprocess_stack_reference(v, cfg).view(np.uint32)
        got = np.stack([c.frames for c in P.preprocess_video(v, cfg)])
        np.testing.assert_array_equal(got.view(np.uint32), want)
        stack = np.full(P.clip_stack_shape(cfg), np.nan, dtype=np.float32)
        clips = P.preprocess_video(v, cfg, out=stack)
        np.testing.assert_array_equal(stack.view(np.uint32), want)
        for i, c in enumerate(clips):
            assert np.shares_memory(c.frames, stack[i]) and c.clip_index == i

    def test_reused_stack_holds_only_the_latest_video(self):
        cfg = P.PipelineConfig(side=8, length=12, clip_len=4)
        stack = np.empty(P.clip_stack_shape(cfg), dtype=np.float32)
        P.preprocess_video(u8video(14, 16, 16, seed=30), cfg, out=stack)
        v = u8video(10, 18, 18, seed=31)
        P.preprocess_video(v, cfg, out=stack)
        np.testing.assert_array_equal(stack, preprocess_stack_reference(v, cfg))

    @pytest.mark.parametrize("shape, dtype", [((3, 4, 8, 8, 3), np.float64),
                                              ((3, 4, 8, 8, 3), np.uint8),
                                              ((2, 4, 8, 8, 3), np.float32),
                                              ((12, 8, 8, 3), np.float32)])
    def test_rejects_out_of_the_wrong_shape_or_dtype(self, shape, dtype):
        cfg = P.PipelineConfig(side=8, length=12, clip_len=4)
        with pytest.raises(ValueError, match=r"float32 \(3, 4, 8, 8, 3\)"):
            P.preprocess_video(u8video(12, 8, 8), cfg, out=np.zeros(shape, dtype=dtype))

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="divisible"):
            P.PipelineConfig(side=8, length=10, clip_len=4)
