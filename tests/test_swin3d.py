import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vidmood import tensor as T
from vidmood.models.swin3d import (PatchEmbed, PatchMerge, RelativePositionBias,
                                   SwinBlock, SwinConfig, SwinModel, _window_masks,
                                   compute_region_ids, get_window_size,
                                   shifted_window_attention, token_counts_ceil,
                                   window_partition, window_reverse)
from vidmood.nn import MultiHeadAttention
from vidmood.tensor import ShapeError

from reference import cast_params, ln_ref, mha_ref, mlp_ref, params_of


# -- token grid arithmetic ----------------------------------------------------


def test_token_counts_ceil_full_scale_input():
    assert token_counts_ceil((30, 224, 224), 2, 4) == (15, 56, 56)
    n = 15 * 56 * 56
    assert n == 47040


def test_token_counts_ceil_rounds_up():
    assert token_counts_ceil((31, 224, 224), 2, 4) == (16, 56, 56)
    assert token_counts_ceil((1, 1, 1), 2, 4) == (1, 1, 1)


@settings(max_examples=200, deadline=None)
@given(
    t0=st.integers(1, 500), h0=st.integers(1, 500), w0=st.integers(1, 500),
    tp=st.integers(1, 32), ip=st.integers(1, 32),
)
def test_token_counts_ceil_matches_counting(t0, h0, w0, tp, ip):
    # oracle: blocks needed to cover the extent, counted directly
    def cover(extent, block):
        n = 0
        while n * block < extent:
            n += 1
        return n

    assert token_counts_ceil((t0, h0, w0), tp, ip) == (cover(t0, tp), cover(h0, ip), cover(w0, ip))


def test_get_window_size_clamps_and_drops_shift():
    win, shift = get_window_size((2, 4, 4), (8, 7, 7), (4, 3, 3))
    assert win == (2, 4, 4)
    assert shift == (0, 0, 0)
    win, shift = get_window_size((16, 4, 16), (8, 7, 7), (4, 3, 3))
    assert win == (8, 4, 7)
    assert shift == (4, 0, 3)


# -- window partition / reverse ----------------------------------------------


def test_partition_round_trip_many_grids():
    rng = np.random.default_rng(0)
    for _ in range(100):
        win = tuple(int(rng.integers(1, 4)) for _ in range(3))
        reps = tuple(int(rng.integers(1, 4)) for _ in range(3))
        grid = tuple(w * r for w, r in zip(win, reps))
        b, d = int(rng.integers(1, 3)), int(rng.integers(1, 5))
        x = rng.normal(size=(b,) + grid + (d,))
        w = window_partition(T.tensor(x), win)
        n_windows = np.prod(reps)
        assert w.shape == (b * n_windows, win[0] * win[1] * win[2], d)
        back = window_reverse(w, grid, win, b)
        np.testing.assert_array_equal(back.data, x)


def test_partition_is_a_disjoint_cover():
    grid = (4, 6, 2)
    win = (2, 3, 2)
    x = np.arange(np.prod(grid), dtype=np.float64).reshape((1,) + grid + (1,))
    w = window_partition(T.tensor(x), win).data
    # every input element appears exactly once across all windows
    np.testing.assert_array_equal(np.sort(w.reshape(-1)), np.sort(x.reshape(-1)))


def test_partition_window_is_contiguous_block():
    grid = (2, 4, 4)
    win = (2, 2, 2)
    x = np.arange(np.prod(grid), dtype=np.float64).reshape((1,) + grid + (1,))
    w = window_partition(T.tensor(x), win).data
    first = x[0, 0:2, 0:2, 0:2, 0].reshape(-1)
    np.testing.assert_array_equal(w[0, :, 0], first)


def test_partition_rejects_non_multiple_grid():
    with pytest.raises(ShapeError):
        window_partition(T.zeros((1, 3, 4, 4, 2)), (2, 2, 2))


# -- shift region labels ------------------------------------------------------


def test_region_ids_single_axis_example():
    # size 4, window 2, shift 1: positions 0,1 share a region; 2 and 3 are
    # the wrapped segments and stand alone
    ids = compute_region_ids((1, 4, 1), (1, 2, 1), (0, 1, 0))[0, :, 0]
    assert ids[0] == ids[1]
    assert len({ids[0], ids[2], ids[3]}) == 3


def test_region_ids_no_shift_is_uniform():
    ids = compute_region_ids((4, 4, 4), (2, 2, 2), (0, 0, 0))
    assert np.all(ids == 0)


def test_region_ids_distinct_across_axes():
    ids = compute_region_ids((4, 4, 4), (2, 2, 2), (1, 1, 1))
    # 3 segments per axis -> up to 27 distinct combined labels
    assert len(np.unique(ids)) == 27


# -- shifted window attention -------------------------------------------------


def _swa_setup(dim=8, heads=2, seed=0):
    rng = np.random.default_rng(seed)
    attn = cast_params(MultiHeadAttention(dim, heads, rng))
    return rng, attn


def test_full_window_no_shift_equals_global_attention():
    rng, attn = _swa_setup()
    grid = (2, 2, 2)
    x = rng.normal(size=(1,) + grid + (8,))
    valid = np.ones(grid, dtype=bool)
    out = shifted_window_attention(T.tensor(x), valid, attn, None, grid, (0, 0, 0)).data

    p = params_of(attn)
    want = mha_ref(x.reshape(1, -1, 8), p["qkv.weight"], p["qkv.bias"],
                   p["proj.weight"], p["proj.bias"], heads=2)
    np.testing.assert_allclose(out.reshape(1, -1, 8), want, atol=1e-10)


def test_unshifted_windows_are_independent():
    rng, attn = _swa_setup(seed=1)
    grid = (1, 4, 4)
    x = rng.normal(size=(1,) + grid + (8,))
    valid = np.ones(grid, dtype=bool)
    base = shifted_window_attention(T.tensor(x), valid, attn, None, (1, 2, 2), (0, 0, 0)).data

    x2 = x.copy()
    x2[0, 0, 0, 0] += 10.0
    out = shifted_window_attention(T.tensor(x2), valid, attn, None, (1, 2, 2), (0, 0, 0)).data
    changed = np.any(out != base, axis=-1)[0, 0]
    # exactly the perturbed token's window reacts
    want = np.zeros((4, 4), dtype=bool)
    want[:2, :2] = True
    np.testing.assert_array_equal(changed, want)


def test_shifted_wrapped_pairs_have_exactly_zero_weight():
    rng, attn = _swa_setup(seed=2)
    grid = (1, 4, 4)
    x = rng.normal(size=(1,) + grid + (8,))
    valid = np.ones(grid, dtype=bool)
    window, shift = (1, 2, 2), (0, 1, 1)
    base = shifted_window_attention(T.tensor(x), valid, attn, None, window, shift).data

    # token (0,0) wraps to the far corner window where every neighbor is in a
    # different shift region, so nothing else may see the perturbation
    x2 = x.copy()
    x2[0, 0, 0, 0] += 10.0
    out = shifted_window_attention(T.tensor(x2), valid, attn, None, window, shift).data
    changed = np.any(out != base, axis=-1)[0, 0]
    want = np.zeros((4, 4), dtype=bool)
    want[0, 0] = True
    np.testing.assert_array_equal(changed, want)


def test_invalid_tokens_are_invisible_to_valid_ones():
    rng, attn = _swa_setup(seed=3)
    grid = (1, 4, 4)
    x = rng.normal(size=(1,) + grid + (8,))
    valid = np.ones(grid, dtype=bool)
    valid[0, 3, :] = False
    base = shifted_window_attention(T.tensor(x), valid, attn, None, (1, 2, 2), (0, 0, 0)).data

    x2 = x.copy()
    x2[0, 0, 3, 1] += 5.0  # marked invalid
    out = shifted_window_attention(T.tensor(x2), valid, attn, None, (1, 2, 2), (0, 0, 0)).data
    changed = np.any(out != base, axis=-1)[0, 0]
    assert not np.any(changed[:3, :])
    assert not np.any(changed[3, 2:])  # other windows' invalid row too


def test_internal_padding_does_not_leak():
    # grid 3x3 with window 2 pads to 4x4 internally; padded tokens are masked
    rng, attn = _swa_setup(seed=4)
    grid = (1, 3, 3)
    x = rng.normal(size=(1,) + grid + (8,))
    valid = np.ones(grid, dtype=bool)
    out = shifted_window_attention(T.tensor(x), valid, attn, None, (1, 2, 2), (0, 0, 0))
    assert out.shape == (1, 1, 3, 3, 8)
    assert np.all(np.isfinite(out.data))


def test_shift_must_stay_below_window():
    _, attn = _swa_setup(seed=5)
    x = T.zeros((1, 4, 4, 4, 8))
    with pytest.raises(ShapeError):
        shifted_window_attention(x, np.ones((4, 4, 4), bool), attn, None, (2, 2, 2), (2, 1, 1))


def test_roll_then_unroll_restores_positions():
    # pure plumbing: zero residual attention output leaves input intact is
    # covered below; here check the op is deterministic across calls
    rng, attn = _swa_setup(seed=6)
    grid = (2, 4, 4)
    x = rng.normal(size=(1,) + grid + (8,))
    valid = np.ones(grid, dtype=bool)
    a = shifted_window_attention(T.tensor(x), valid, attn, None, (2, 2, 2), (1, 1, 1)).data
    b = shifted_window_attention(T.tensor(x), valid, attn, None, (2, 2, 2), (1, 1, 1)).data
    np.testing.assert_array_equal(a, b)


# -- relative position bias ---------------------------------------------------


def _offset_table(window):
    coords = [(t, h, w)
              for t in range(window[0])
              for h in range(window[1])
              for w in range(window[2])]
    n = len(coords)
    off = np.zeros((n, n, 3), dtype=np.int64)
    for i, a in enumerate(coords):
        for j, b in enumerate(coords):
            off[i, j] = (a[0] - b[0], a[1] - b[1], a[2] - b[2])
    return off


def test_bias_index_is_a_function_of_the_offset():
    win = (2, 3, 3)
    rpb = RelativePositionBias(win, heads=2, rng=np.random.default_rng(7))
    idx = rpb._index(win)[0][0]
    off = _offset_table(win)
    seen = {}
    for i in range(idx.shape[0]):
        for j in range(idx.shape[1]):
            key = tuple(off[i, j])
            if key in seen:
                assert seen[key] == idx[i, j]
            else:
                seen[key] = idx[i, j]
    # distinct offsets never collide and stay inside the table
    vals = list(seen.values())
    assert len(set(vals)) == len(vals)
    assert min(vals) >= 0 and max(vals) < rpb.table.shape[0]


def test_bias_index_antisymmetry_and_center():
    win = (2, 2, 3)
    rpb = RelativePositionBias(win, heads=1, rng=np.random.default_rng(8))
    idx = rpb._index(win)[0][0]
    off = _offset_table(win)
    n = idx.shape[0]
    center = idx[0, 0]
    for i in range(n):
        assert idx[i, i] == center  # zero offset everywhere on the diagonal
        for j in range(n):
            np.testing.assert_array_equal(off[i, j], -off[j, i])
            if not np.array_equal(off[i, j], np.zeros(3)):
                assert idx[i, j] != idx[j, i]


def test_bias_forward_shape_and_value_lookup():
    win = (1, 2, 2)
    rpb = RelativePositionBias(win, heads=3, rng=np.random.default_rng(9))
    out = rpb(win)
    assert out.shape == (3, 4, 4)
    idx = rpb._index(win)[0][0]
    np.testing.assert_array_equal(out.data, rpb.table.data[idx].transpose(2, 0, 1))


def test_bias_effective_window_subset():
    rpb = RelativePositionBias((4, 4, 4), heads=1, rng=np.random.default_rng(10))
    idx = rpb._index((2, 3, 4))[0][0]
    assert idx.shape == (24, 24)
    assert idx.min() >= 0 and idx.max() < rpb.table.shape[0]


def test_bias_gradient_hits_exactly_the_used_rows():
    win = (1, 2, 2)
    rpb = RelativePositionBias(win, heads=1, rng=np.random.default_rng(11))
    out = rpb(win)
    T.sum_(out).backward()
    used = np.unique(rpb._index(win)[0][0])
    g = rpb.table.grad
    assert np.all(g[used] != 0)
    untouched = np.setdiff1d(np.arange(rpb.table.shape[0]), used)
    assert np.all(g[untouched] == 0)


def test_bias_index_is_one_read_only_array_per_window():
    win = (2, 3, 3)
    a = RelativePositionBias(win, heads=2, rng=np.random.default_rng(12))
    b = RelativePositionBias(win, heads=3, rng=np.random.default_rng(13))
    rows, heads = b._index(win)
    assert a._index(win)[0] is rows
    assert heads.shape == (3, 1, 1)
    with pytest.raises(ValueError):
        rows[0, 0, 0] = 0


# -- window constants ---------------------------------------------------------


def test_window_masks_share_one_array_per_pattern():
    """Stages 0-2 of a paper-scale grid repeat the same 7 shifted-window
    patterns; each pattern is one read-only array across the three grids,
    not one per grid (21)."""
    seen = {}
    for grid in ((15, 56, 56), (15, 28, 28), (15, 14, 14)):
        win, sh = get_window_size(grid, (8, 7, 7), (4, 3, 3))
        masks = _window_masks(grid, np.ones(grid, dtype=bool).tobytes(), win, sh)
        for m in masks:
            if m is None:
                continue
            assert not m.flags.writeable
            assert seen.setdefault(m.tobytes(), m) is m
    assert len(seen) == 7


def test_paper_forward_leaves_one_copy_of_each_window_constant():
    """An untaped 30x224x224 forward keeps its masks and bias indices
    after it returns, but each distinct one once: 6.1 MiB (one
    [1, 392, 392] row index and 8 mask patterns), not the 27.1 MiB of one
    index per block and one mask per pattern per grid."""
    model = SwinModel(SwinConfig(embed_dim=24), np.random.default_rng(14))
    clip = T.tensor(np.zeros((1, 30, 224, 224, 3), dtype=np.float32))
    _window_masks.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        with T.no_grad():
            model(clip)
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert left < 10 << 20, f"left {left / 2**20:.2f} MiB"


# -- swin block ---------------------------------------------------------------


def test_block_zero_projections_is_identity_with_shift_and_padding():
    rng = np.random.default_rng(12)
    blk = SwinBlock(8, 2, 16, window=(2, 2, 2), shifted=True, rng=rng)
    for name, p in blk.named_parameters():
        if name.endswith(("attn.proj.weight", "attn.proj.bias",
                          "mlp.fc2.weight", "mlp.fc2.bias")):
            p.data = np.zeros_like(p.data)
    x = rng.normal(size=(2, 3, 5, 5, 8)).astype(np.float32)  # forces internal padding
    out = blk(T.tensor(x))
    np.testing.assert_array_equal(out.data, x)


def test_block_matches_manual_composition_on_full_window():
    rng = np.random.default_rng(13)
    blk = cast_params(SwinBlock(8, 2, 16, window=(2, 2, 2), shifted=False, rng=rng))
    grid = (2, 2, 2)
    x = rng.normal(size=(1,) + grid + (8,))
    got = blk(T.tensor(x)).data.reshape(1, -1, 8)

    p = params_of(blk)
    bias = blk.bias((2, 2, 2)).data.astype(np.float64)
    flat = x.reshape(1, -1, 8)
    h = flat + mha_ref(ln_ref(flat, p["norm1.gamma"], p["norm1.beta"]),
                       p["attn.qkv.weight"], p["attn.qkv.bias"],
                       p["attn.proj.weight"], p["attn.proj.bias"],
                       heads=2, bias=bias)
    want = h + mlp_ref(ln_ref(h, p["norm2.gamma"], p["norm2.beta"]),
                       p["mlp.fc1.weight"], p["mlp.fc1.bias"],
                       p["mlp.fc2.weight"], p["mlp.fc2.bias"])
    np.testing.assert_allclose(got, want, atol=1e-8)


def _untaped_peak(fn, *args):
    """tracemalloc peak of ``fn(*args)`` under no_grad, after a warm-up call
    that fills the mask and bias-index caches."""
    with T.no_grad():
        fn(*args)
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.fixture
def small_chunks(monkeypatch):
    """mha chunks and mlp blocks of 64 KiB, split over at most two threads,
    so the grid-sized arrays a block holds, not the chunks' buffers, set
    its peak."""
    pool, threads = T._runtime()
    monkeypatch.setattr(T, "_runtime", lambda: (pool, min(threads, 2)))
    monkeypatch.setattr(T, "POOL_MIN_BYTES", 64 << 10)
    monkeypatch.setattr(T, "CACHE_BYTES", 64 << 10)


def test_untaped_shifted_window_attention_holds_two_grids(small_chunks):
    """A shifted window attention over 256 windows, its [1, 8, 64, 64, 32]
    input held by the caller, peaks below 2.5 arrays of the input's size:
    each intermediate (rolled grid, windows, attention output, reversed
    grid) is dropped once the next exists (2.32 measured). Keeping each
    until the function returned peaked at 4.03."""
    rng = np.random.default_rng(20)
    blk = SwinBlock(32, 2, 64, window=(2, 8, 8), shifted=True, rng=rng)
    x = T.tensor(rng.normal(size=(1, 8, 64, 64, 32)).astype(np.float32))
    valid = np.ones(x.shape[1:4], dtype=bool)
    peak = _untaped_peak(shifted_window_attention, x, valid, blk.attn, blk.bias, blk.window,
                         blk.shift)
    assert peak < 2.5 * x.data.nbytes, f"peak {peak / x.data.nbytes:.2f} grids"


def test_untaped_shifted_block_holds_three_grids(small_chunks):
    """A shifted block over the same 256 windows peaks below 3.5 arrays of
    its input's size beyond the input: the attention's output is dropped
    after the residual add, so the MLP runs beside the sum, its norm and
    its output only (3.21 measured). Keeping it, and the attention's
    intermediates, peaked at 4.21."""
    rng = np.random.default_rng(21)
    blk = SwinBlock(32, 2, 64, window=(2, 8, 8), shifted=True, rng=rng)
    x = T.tensor(rng.normal(size=(1, 8, 64, 64, 32)).astype(np.float32))
    peak = _untaped_peak(blk, x)
    assert peak < 3.5 * x.data.nbytes, f"peak {peak / x.data.nbytes:.2f} grids"


# -- patch embed / merge ------------------------------------------------------


def test_patch_embed_pads_to_ceiling_and_projects():
    cfg = SwinConfig(input_shape=(3, 5, 5, 2), image_patch=4, frame_patch=2,
                     embed_dim=8, depths=(1,), heads=(2,), window=(1, 1, 1))
    rng = np.random.default_rng(14)
    pe = cast_params(PatchEmbed(cfg, rng))
    x = np.random.default_rng(15).normal(size=(1, 3, 5, 5, 2))
    tokens = pe(T.tensor(x))
    assert tokens.shape == (1, 2, 2, 2, 8)

    xp = np.pad(x, ((0, 0), (0, 1), (0, 3), (0, 3), (0, 0)))
    w, b = pe.proj.weight.data, pe.proj.bias.data
    for it in range(2):
        for ih in range(2):
            for iw in range(2):
                block = xp[0, it * 2:(it + 1) * 2, ih * 4:(ih + 1) * 4, iw * 4:(iw + 1) * 4]
                want = block.reshape(-1) @ w + b
                np.testing.assert_allclose(tokens.data[0, it, ih, iw], want, atol=1e-10)


def test_patch_merge_shapes_and_formula():
    rng = np.random.default_rng(16)
    pm = cast_params(PatchMerge(8, rng))
    x = rng.normal(size=(1, 2, 4, 4, 8))
    out = pm(T.tensor(x))
    assert out.shape == (1, 2, 2, 2, 16)

    p = params_of(pm)
    for t in range(2):
        for i in range(2):
            for j in range(2):
                cat = np.concatenate([x[0, t, 2 * i, 2 * j], x[0, t, 2 * i + 1, 2 * j],
                                      x[0, t, 2 * i, 2 * j + 1], x[0, t, 2 * i + 1, 2 * j + 1]])
                want = ln_ref(cat, p["norm.gamma"], p["norm.beta"]) @ p["reduce.weight"]
                np.testing.assert_allclose(out.data[0, t, i, j], want, atol=1e-10)


def test_patch_merge_has_no_reduce_bias():
    pm = PatchMerge(8, np.random.default_rng(17))
    names = [n for n, _ in pm.named_parameters()]
    assert "reduce.weight" in names
    assert "reduce.bias" not in names


def test_patch_merge_locality():
    rng = np.random.default_rng(18)
    pm = PatchMerge(8, rng)
    x = rng.normal(size=(1, 2, 4, 4, 8)).astype(np.float32)
    base = pm(T.tensor(x))
    x2 = x.copy()
    x2[0, 1, 2, 3] += 1.0
    out = pm(T.tensor(x2))
    changed = np.any(out.data != base.data, axis=-1)
    want = np.zeros((1, 2, 2, 2), dtype=bool)
    want[0, 1, 1, 1] = True
    np.testing.assert_array_equal(changed, want)


def test_patch_merge_odd_grid():
    rng = np.random.default_rng(19)
    pm = PatchMerge(4, rng)
    x = rng.normal(size=(1, 1, 3, 3, 4)).astype(np.float32)
    out = pm(T.tensor(x))
    assert out.shape == (1, 1, 2, 2, 8)


def test_three_merges_multiply_channels_by_eight():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(1, 1, 8, 8, 4)).astype(np.float32)
    dim = 4
    t = T.tensor(x)
    for _ in range(3):
        t = PatchMerge(dim, rng)(t)
        dim *= 2
    assert t.shape == (1, 1, 1, 1, 32)


# -- full model ---------------------------------------------------------------


TINY = dict(input_shape=(8, 16, 16, 3), image_patch=4, frame_patch=2,
            embed_dim=8, depths=(1, 1), heads=(2, 2), mlp_ratio=2, window=(2, 2, 2))


def _tiny_model(seed=0, **overrides):
    cfg = SwinConfig(**{**TINY, **overrides})
    return SwinModel(cfg, np.random.default_rng(seed))


def test_model_logit_shapes():
    model = _tiny_model()
    rng = np.random.default_rng(21)
    clip = rng.normal(size=(8, 16, 16, 3)).astype(np.float32)
    assert model(T.tensor(clip[None])).shape == (1, 2)
    assert model(T.tensor(np.stack([clip, clip]))).shape == (2, 2)


def test_model_batch_rows_match_single_forward():
    model = _tiny_model()
    rng = np.random.default_rng(22)
    clips = rng.normal(size=(2, 8, 16, 16, 3)).astype(np.float32)
    batch = model(T.tensor(clips)).data
    for i in range(2):
        row = model(T.tensor(clips[i:i + 1])).data
        np.testing.assert_allclose(batch[i], row[0], atol=1e-5)


def test_model_deterministic():
    rng = np.random.default_rng(23)
    clip = rng.normal(size=(1, 8, 16, 16, 3)).astype(np.float32)
    a = _tiny_model(seed=5)(T.tensor(clip)).data
    b = _tiny_model(seed=5)(T.tensor(clip)).data
    np.testing.assert_array_equal(a, b)


def test_model_handles_non_multiple_input():
    model = _tiny_model(input_shape=(5, 9, 9, 2), window=(2, 2, 2))
    rng = np.random.default_rng(24)
    clip = rng.normal(size=(1, 5, 9, 9, 2)).astype(np.float32)
    out = model(T.tensor(clip))
    assert out.shape == (1, 2)
    assert np.all(np.isfinite(out.data))


def test_model_rejects_wrong_input_shape():
    model = _tiny_model()
    with pytest.raises(ShapeError):
        model(T.zeros((1, 8, 16, 20, 3)))


def test_model_rejects_unbatched_clip():
    with pytest.raises(ShapeError):
        _tiny_model()(T.zeros((8, 16, 16, 3)))


def test_model_grad_reaches_every_parameter():
    model = _tiny_model()
    rng = np.random.default_rng(25)
    clip = rng.normal(size=(1, 8, 16, 16, 3)).astype(np.float32)
    T.sum_(model(T.tensor(clip))).backward()
    for name, p in model.named_parameters():
        assert p.grad is not None, f"no gradient reached {name}"


def test_config_validation():
    with pytest.raises(ShapeError):
        SwinConfig(depths=(2, 2), heads=(3, 6, 12))
    with pytest.raises(ShapeError):
        SwinConfig(embed_dim=10, depths=(1,), heads=(4,))
    with pytest.raises(ShapeError):
        SwinConfig(window=(0, 7, 7))
    with pytest.raises(ValueError):
        SwinConfig(classes=1)


def test_stage_dims_double_and_grid_shrinks():
    model = _tiny_model()
    # stage 0 runs at embed_dim, stage 1 after one merge at double width
    assert model.stages[0][0].norm1.gamma.shape == (8,)
    assert model.stages[1][0].norm1.gamma.shape == (16,)
    assert model.norm.gamma.shape == (16,)
