import math
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

from shiftcache.cache import build_mask
from shiftcache.denoiser import (
    AttentionWeights,
    OracleDenoiser,
    ToyDenoiser,
    ToyDenoiserConfig,
    _rms_norm,
    assemble_input,
    attend,
    spatial_attention,
)
from shiftcache.diffusion import make_schedule
from shiftcache.numerics import MaskVariant, sinusoidal_encoding_batch

L, H, W, M = 8, 16, 12, 4
# the deep stage's share of per-chunk matmul FLOPs that the default toy
# network is calibrated to, within 5%, at the default 16x12 shape
DEEP_COST_SHARE = 0.75


def tiny_config(**kw):
    base = dict(shallow_width=4, deep_width=8, shallow_blocks=2, deep_blocks=2, seed=0)
    base.update(kw)
    return ToyDenoiserConfig(**base)


def make_parts(seed=0, length=L, h=H, w=W):
    """One chunk's (noise, masked video, mask, pose) conditioning."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((length, 4, h, w)).astype(np.float32)
    video = rng.standard_normal((length, 4, h, w)).astype(np.float32)
    mask = np.zeros((length, 1, h, w), dtype=np.float32)
    mask[:, :, h // 4: 3 * h // 4, w // 4: 3 * w // 4] = 1
    pose = rng.standard_normal((length, 4, h, w)).astype(np.float32)
    return z, video * (1 - mask), mask, pose


def make_input(seed=0):
    """The denoiser's (x [L, 13, H, W], offsets [L]) for one chunk."""
    return assemble_input(*make_parts(seed)), np.arange(L)


def make_garment(cfg, seed=1, count=M):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, cfg.shallow_width)).astype(np.float32)


class TestAssembleInput:
    def test_thirteen_channels_in_contract_order(self):
        noise, video, mask, pose = make_parts()
        x = assemble_input(noise, video, mask, pose)
        assert x.shape == (L, 13, H, W)
        np.testing.assert_array_equal(x[:, 0:4], noise)
        np.testing.assert_array_equal(x[:, 4:8], video)
        np.testing.assert_array_equal(x[:, 8:9], mask)
        np.testing.assert_array_equal(x[:, 9:13], pose)

    def test_all_zero_inputs_give_zero_output(self):
        z = np.zeros((2, 4, 4, 4), dtype=np.float32)
        m = np.zeros((2, 1, 4, 4), dtype=np.float32)
        np.testing.assert_array_equal(assemble_input(z, z, m, z),
                                      np.zeros((2, 13, 4, 4), dtype=np.float32))

    def test_swapping_noise_and_pose_changes_output(self):
        noise, video, mask, pose = make_parts()
        a = assemble_input(noise, video, mask, pose)
        b = assemble_input(pose, video, mask, noise)
        assert not np.array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        # a 3-channel masked video concatenates to 12 channels, which the
        # denoiser's one input check refuses in both entry points; so do a
        # 3-D input and a wrong offset count
        noise, video, mask, pose = make_parts()
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        garment = make_garment(cfg)
        x, offsets = make_input()
        _, deep = d.denoise_full(x, offsets, garment)
        good = np.ones(L, dtype=bool)
        for bad_x, bad_offsets in ((assemble_input(noise, video[:, :3], mask, pose), offsets),
                                   (x[..., 0], offsets), (x, offsets[:-1])):
            with pytest.raises(ValueError, match=r"expected x \[L, 13, H, W\] and L offsets"):
                d.denoise_full(bad_x, bad_offsets, garment)
            with pytest.raises(ValueError, match=r"expected x \[L, 13, H, W\] and L offsets"):
                d.denoise_partial(bad_x, bad_offsets, deep, good, MaskVariant.FULL, garment)


@pytest.mark.parametrize("offsets", [np.arange(L) + 0.5, np.arange(L) % 2 == 0])
def test_non_integer_offsets_rejected(offsets):
    # cast to int64, [0.5, 1.5, ...] would encode frames 0, 1, ...
    cfg = tiny_config()
    with pytest.raises(ValueError, match="integer dtype"):
        ToyDenoiser(cfg).denoise_full(make_input()[0], offsets, make_garment(cfg))


def _tokens(feat):
    """[L, C, H, W] -> the [L, H*W, C] tokens spatial_attention takes."""
    length, channels = feat.shape[:2]
    return feat.reshape(length, channels, -1).transpose(0, 2, 1)


class TestReferenceSpatialAttention:
    """denoiser.spatial_attention: the engine's spatial attention, whose
    keys/values also see the garment (reference) tokens."""

    def test_two_key_closed_form(self):
        # L=1, H=W=1, M=1, identity projections, C=1: attention over one
        # frame token and one garment token, hand-checkable 2-key softmax.
        # The garment token is RMS-normalized after its (identity) adapter.
        eye = np.eye(1, dtype=np.float32)
        w = AttentionWeights(wq=eye, wk=eye, wv=eye, wo=eye)
        a, garment = 0.7, -0.3
        tokens = np.full((1, 1, 1), a, dtype=np.float32)
        out = spatial_attention(tokens, np.full((1, 1), garment, dtype=np.float32), eye, w)
        g = garment / math.sqrt(garment * garment + 1e-6)
        la, lg = a * a, a * g  # scale = 1/sqrt(1)
        wa = math.exp(la) / (math.exp(la) + math.exp(lg))
        expected = wa * a + (1 - wa) * g
        np.testing.assert_allclose(out[0, 0, 0], expected, rtol=1e-5)

    def test_empty_garment_matches_plain_self_attention(self):
        # independent oracle: float64 softmax attention written out here
        rng = np.random.default_rng(3)
        c = 6
        w = AttentionWeights(
            wq=rng.standard_normal((c, c)).astype(np.float32) * 0.4,
            wk=rng.standard_normal((c, c)).astype(np.float32) * 0.4,
            wv=rng.standard_normal((c, c)).astype(np.float32) * 0.4,
            wo=rng.standard_normal((c, c)).astype(np.float32) * 0.4,
        )
        adapter = rng.standard_normal((c, c)).astype(np.float32)  # no garment token reaches it
        feat = rng.standard_normal((2, c, 3, 3)).astype(np.float32)
        out = spatial_attention(_tokens(feat), np.zeros((0, c), dtype=np.float32), adapter, w)

        tokens = _tokens(feat).astype(np.float64)
        q = tokens @ w.wq.astype(np.float64)
        k = tokens @ w.wk.astype(np.float64)
        v = tokens @ w.wv.astype(np.float64)
        logits = q @ k.transpose(0, 2, 1) / np.sqrt(c)
        weights = np.exp(logits - logits.max(-1, keepdims=True))
        weights /= weights.sum(-1, keepdims=True)
        expected = ((weights @ v) @ w.wo.astype(np.float64))
        np.testing.assert_allclose(out, expected, atol=1e-4)

    def test_garment_tokens_shared_across_frames(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        blk = d.shallow_in[0]
        rng = np.random.default_rng(4)
        frame = rng.standard_normal((1, cfg.shallow_width, 2, 2)).astype(np.float32)
        feat = np.concatenate([frame, frame], axis=0)  # two identical frames
        garment = rng.standard_normal((3, cfg.shallow_width)).astype(np.float32)
        out = spatial_attention(_tokens(feat), garment, blk.adapter, blk.spatial)
        np.testing.assert_array_equal(out[0], out[1])


class TestAttend:
    """denoiser.attend, the one attention sublayer, in float64 against a
    float64 reference written out here: the projections, q scaled by
    1/sqrt(C), and a max-subtracted softmax with blocked keys at -inf."""

    TOLERANCE = 1e-12  # relative to max |v|, fixed in advance

    @staticmethod
    def check(out, queries, keys, w, blocked=None):
        wq, wk, wv, wo = (a.astype(np.float64) for a in (w.wq, w.wk, w.wv, w.wo))
        q = queries @ wq / np.sqrt(wq.shape[1])
        k, v = keys @ wk, keys @ wv
        logits = q @ k.swapaxes(-1, -2)
        if blocked is not None:
            logits[..., blocked] = -np.inf
        weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
        ref = (weights / weights.sum(axis=-1, keepdims=True)) @ v @ wo
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, ref, rtol=0, atol=TestAttend.TOLERANCE * np.abs(v).max())

    @pytest.mark.parametrize("variant", [None, *MaskVariant])
    def test_temporal_view(self, variant):
        # built as the engine's temporal attention builds its input: the
        # [HW, L, C] view, RMS-normed, plus sinusoidal frame codes; 1/sqrt(12)
        # is inexact in float32, so a float32 scale would miss the tolerance
        cfg = tiny_config(deep_width=12)
        w = ToyDenoiser(cfg).deep[0].temporal
        rng = np.random.default_rng(6)
        n = _rms_norm(rng.standard_normal((6, L, cfg.deep_width)) * 3.0)
        n += sinusoidal_encoding_batch(np.arange(40, 40 + L), cfg.deep_width)
        mask = None if variant is None else build_mask(variant, rng.random(L) < 0.5)
        self.check(attend(n, n, w, mask), n, n, w, mask)

    def test_spatial_with_garment_keys(self):
        cfg = tiny_config(shallow_width=8)
        blk = ToyDenoiser(cfg).shallow_in[0]
        rng = np.random.default_rng(7)
        tokens = _rms_norm(rng.standard_normal((L, 12, cfg.shallow_width)))
        garment = make_garment(cfg)
        out = spatial_attention(tokens, garment, blk.adapter, blk.spatial)
        g = _rms_norm(garment @ blk.adapter)
        keys = np.concatenate([tokens, np.broadcast_to(g, (L,) + g.shape)], axis=1)
        self.check(out, tokens, keys, blk.spatial)


class TestToyDenoiserFull:
    def test_output_shapes(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        eps, feats = d.denoise_full(*make_input(), make_garment(cfg))
        assert eps.shape == (L, 4, H, W)
        assert feats.shape == (L, (H // 2) * (W // 2), cfg.deep_width)

    def test_determinism_across_instances(self):
        cfg = tiny_config(seed=7)
        a = ToyDenoiser(cfg).denoise_full(*make_input(), make_garment(cfg))[0]
        b = ToyDenoiser(cfg).denoise_full(*make_input(), make_garment(cfg))[0]
        np.testing.assert_array_equal(a, b)

    def test_different_seed_changes_weights(self):
        inp, cfg = make_input(), tiny_config(seed=0)
        other = tiny_config(seed=1)
        a = ToyDenoiser(cfg).denoise_full(*inp, make_garment(cfg))[0]
        b = ToyDenoiser(other).denoise_full(*inp, make_garment(other))[0]
        assert not np.array_equal(a, b)

    def test_empty_garment_supported(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        eps, _ = d.denoise_full(*make_input(), make_garment(cfg, count=0))
        assert np.all(np.isfinite(eps))

    def test_odd_latent_dims_rejected(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        with pytest.raises(ValueError, match="even"):
            d.deep_feature_shape(5, 4)

    def test_zero_temporal_output_gives_frame_locality(self):
        # with every temporal output projection zeroed, temporal attention
        # adds exactly 0 and nothing else mixes frames
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        for stage in (d.shallow_in, d.deep, d.shallow_out):
            stage[:] = [replace(b, temporal=replace(b.temporal, wo=np.zeros_like(b.temporal.wo)))
                        for b in stage]
        garment = make_garment(cfg)
        noise, video, mask, pose = make_parts(seed=5)
        base, _ = d.denoise_full(assemble_input(noise, video, mask, pose), np.arange(L), garment)
        noise[3] += 1.0
        moved, _ = d.denoise_full(assemble_input(noise, video, mask, pose), np.arange(L),
                                  garment)
        others = [i for i in range(L) if i != 3]
        np.testing.assert_array_equal(moved[others], base[others])
        assert not np.allclose(moved[3], base[3])

    def test_frame_offsets_change_output(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        garment = make_garment(cfg)
        x, offsets = make_input()
        a, _ = d.denoise_full(x, offsets, garment)
        b, _ = d.denoise_full(x, offsets + 32, garment)
        assert not np.array_equal(a, b)

    def test_non_finite_input_detected(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        x, offsets = make_input()
        x[0, 0, 0, 0] = np.nan  # a noise channel
        with pytest.raises(FloatingPointError):
            d.denoise_full(x, offsets, make_garment(cfg))


class TestToyDenoiserPartial:
    def test_same_step_cache_reproduces_full_exactly(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        garment = make_garment(cfg)
        x, offsets = make_input()
        eps_full, deep = d.denoise_full(x, offsets, garment)
        good = np.ones(L, dtype=bool)
        eps_part = d.denoise_partial(x, offsets, deep, good, MaskVariant.FULL, garment)
        rel = np.linalg.norm(eps_part - eps_full) / np.linalg.norm(eps_full)
        assert rel < 1e-5

    def test_flop_counter_partial_skips_deep(self, matmul_count):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        garment = make_garment(cfg)
        x, offsets = make_input()
        _, deep = d.denoise_full(x, offsets, garment)
        full_deep, full_shallow = matmul_count.deep, matmul_count.shallow
        matmul_count.reset()
        good = np.ones(L, dtype=bool)
        d.denoise_partial(x, offsets, deep, good, MaskVariant.FULL, garment)
        assert full_deep > 0
        assert matmul_count.deep == 0
        assert matmul_count.shallow > 0
        assert matmul_count.shallow < full_deep + full_shallow

    def test_half_mask_over_all_good_equals_full_mask(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        garment = make_garment(cfg)
        x, offsets = make_input()
        _, deep = d.denoise_full(x, offsets, garment)
        good = np.ones(L, dtype=bool)
        a = d.denoise_partial(x, offsets, deep, good, MaskVariant.FULL, garment)
        b = d.denoise_partial(x, offsets, deep, good, MaskVariant.HALF, garment)
        np.testing.assert_array_equal(a, b)

    def test_stale_cache_beats_zero_features(self):
        # advance the latent by one DDIM step; re-using yesterday's deep
        # features must stay closer to the fresh full pass than zeroing them
        sched = make_schedule(1000, 1e-4, 0.02, 25)
        wins = 0
        for seed in range(10):
            cfg = tiny_config(seed=seed)
            d = ToyDenoiser(cfg)
            garment = make_garment(cfg, seed=seed + 100)
            z0, video, mask, pose = make_parts(seed=seed)
            offsets = np.arange(L)
            eps0, deep0 = d.denoise_full(assemble_input(z0, video, mask, pose), offsets, garment)
            from shiftcache.diffusion import ddim_step
            z1 = ddim_step(z0, eps0, 3, sched)
            x1 = assemble_input(z1, video, mask, pose)
            eps_ref, _ = d.denoise_full(x1, offsets, garment)
            good = np.ones(L, dtype=bool)
            eps_stale = d.denoise_partial(x1, offsets, deep0, good, MaskVariant.FULL, garment)
            eps_zero = d.denoise_partial(x1, offsets, np.zeros_like(deep0), good,
                                         MaskVariant.FULL, garment)
            d_stale = np.linalg.norm(eps_stale - eps_ref)
            d_zero = np.linalg.norm(eps_zero - eps_ref)
            if d_stale < d_zero:
                wins += 1
        assert wins == 10

    def test_cache_shape_mismatch_rejected(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        garment = make_garment(cfg)
        x, offsets = make_input()
        bad = np.zeros((L, cfg.deep_width, 3, 3), dtype=np.float32)
        good = np.ones(L, dtype=bool)
        with pytest.raises(ValueError, match="deep features shape"):
            d.denoise_partial(x, offsets, bad, good, MaskVariant.FULL, garment)

    def test_flags_length_mismatch_rejected(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        garment = make_garment(cfg)
        x, offsets = make_input()
        _, deep = d.denoise_full(x, offsets, garment)
        good = np.ones(L - 1, dtype=bool)
        with pytest.raises(ValueError, match="freshness length"):
            d.denoise_partial(x, offsets, deep, good, MaskVariant.FULL, garment)


class TestToyDenoiserConfig:
    @pytest.mark.parametrize("kw,match", [
        (dict(shallow_blocks=1), "shallow block"),
        (dict(deep_blocks=0), "deep block"),
        (dict(shallow_width=5), "even"),
        (dict(deep_width=7), "even"),
        (dict(shallow_width=-2), ">= 2"),
        (dict(shallow_width=0), ">= 2"),
        (dict(deep_width=0), ">= 2"),
        (dict(seed=-1), "^toy.seed must be >= 0"),
    ])
    def test_invalid_sizes_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            ToyDenoiserConfig(**kw)

    @pytest.mark.parametrize("kw", [
        dict(deep_blocks=2.0), dict(shallow_width=8.0), dict(deep_width=np.float64(12)),
        dict(shallow_blocks="2"), dict(seed=True), dict(seed=1.5), dict(seed=np.bool_(False)),
    ])
    def test_wrong_types_rejected_naming_the_field(self, kw):
        # the engine config's rule: a bool is never a number, a float no int
        (name,) = kw
        with pytest.raises(ValueError, match=f"^toy.{name} must be int, got "):
            ToyDenoiserConfig(**kw)

    def test_numpy_integers_accepted(self):
        cfg = ToyDenoiserConfig(deep_blocks=np.int64(3), seed=np.uint8(2))
        assert cfg.deep_blocks == 3 and cfg.seed == 2

    def test_frozen_value_object(self):
        cfg = tiny_config(seed=3)
        with pytest.raises(FrozenInstanceError):
            cfg.seed = 4
        assert ToyDenoiserConfig(**asdict(cfg)) == cfg
        assert replace(cfg, seed=4) != cfg


# toy sizes the cost model is checked on: the default, the tiny test
# network, criterion 2's, and two with other widths and block splits
COST_TOYS = {
    "default": ToyDenoiserConfig(),
    "tiny": tiny_config(),
    "criterion2": ToyDenoiserConfig(shallow_width=8, deep_width=8, deep_blocks=38),
    "w6d10": ToyDenoiserConfig(shallow_width=6, deep_width=10, shallow_blocks=3, deep_blocks=4),
    "w12d4": ToyDenoiserConfig(shallow_width=12, deep_width=4, shallow_blocks=5, deep_blocks=1),
}


class TestCostModel:
    def test_default_config_hits_deep_share_target(self):
        deep, shallow = ToyDenoiser(ToyDenoiserConfig()).chunk_cost(16, 16, 12, 4)
        share = deep / (deep + shallow)
        assert abs(share - DEEP_COST_SHARE) <= 0.05 * DEEP_COST_SHARE

    @pytest.mark.parametrize("h,w", [(2, 2), (8, 8), (16, 12), (4, 10)])
    @pytest.mark.parametrize("toy", list(COST_TOYS), ids=list(COST_TOYS))
    def test_model_equals_the_matmuls_the_network_runs(self, toy, h, w, matmul_count):
        # a full eval runs deep + shallow, a partial eval shallow and no
        # deep matmul, at every chunk length and garment count
        cfg = COST_TOYS[toy]
        d = ToyDenoiser(cfg)
        rng = np.random.default_rng(0)
        for length in (1, 3, 8, 16):
            x = rng.standard_normal((length, 13, h, w)).astype(np.float32)
            offsets = np.arange(5, 5 + length)
            good = np.arange(length) % 2 == 0
            for count in (0, 1, 4):
                garment = make_garment(cfg, count=count)
                expected = d.chunk_cost(length, h, w, count)
                matmul_count.reset()
                _, feats = d.denoise_full(x, offsets, garment)
                assert (matmul_count.deep, matmul_count.shallow) == expected
                matmul_count.reset()
                d.denoise_partial(x, offsets, feats, good, MaskVariant.HALF, garment)
                assert (matmul_count.deep, matmul_count.shallow) == (0, expected[1])

    def test_odd_latent_dims_rejected(self):
        with pytest.raises(ValueError, match="even"):
            ToyDenoiser(tiny_config()).chunk_cost(L, 5, 4, M)

    def test_cost_scales_with_length(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        d8 = sum(d.chunk_cost(8, H, W, M))
        d16 = sum(d.chunk_cost(16, H, W, M))
        assert d16 > d8


class TestOracleDenoiser:
    def test_matches_oracle_eps(self):
        sched = make_schedule(1000, 1e-4, 0.02, 25)
        rng = np.random.default_rng(0)
        target = rng.standard_normal((12, 4, 6, 6)).astype(np.float32)
        z = rng.standard_normal((4, 4, 6, 6)).astype(np.float32)
        oracle = OracleDenoiser(target, sched)
        offsets = np.array([2, 3, 4, 5])
        np.testing.assert_array_equal(
            oracle.eps_for(z, 5, offsets),
            OracleDenoiser(target[offsets], sched).eps_for(z, 5, slice(None)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_slice_and_index_array_agree_bitwise(self, dtype):
        sched = make_schedule(1000, 1e-4, 0.02, 25)
        rng = np.random.default_rng(1)
        oracle = OracleDenoiser(rng.standard_normal((40, 4, 6, 6)).astype(dtype), sched)
        z = rng.standard_normal((16, 4, 6, 6)).astype(dtype)
        for k in (0, 12, 24):
            np.testing.assert_array_equal(oracle.eps_for(z, k, slice(7, 23)),
                                          oracle.eps_for(z, k, np.arange(7, 23)), strict=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eps_for_into_buffer_is_bit_equal_to_the_formula(self, dtype):
        sched = make_schedule(1000, 1e-4, 0.02, 25)
        rng = np.random.default_rng(2)
        target = rng.standard_normal((40, 4, 6, 6)).astype(dtype)
        z = rng.standard_normal((16, 4, 6, 6)).astype(dtype)
        z_before, target_before = z.copy(), target.copy()
        oracle = OracleDenoiser(target, sched)
        buf = np.empty_like(z)
        for k in range(sched.num_steps):
            a = dtype(sched.alpha_bar_at(k))
            for frames in (slice(7, 23), np.arange(7, 23)):
                expected = ((z - np.sqrt(a, dtype=dtype) * target[7:23])
                            / np.sqrt(1.0 - a, dtype=dtype))
                assert oracle.eps_for(z, k, frames, out=buf) is buf
                np.testing.assert_array_equal(buf, expected, strict=True)
                np.testing.assert_array_equal(
                    buf, OracleDenoiser(target[frames], sched).eps_for(z, k, slice(None)),
                    strict=True)
                fresh = oracle.eps_for(z, k, frames)
                assert fresh is not buf
                assert not np.shares_memory(fresh, z) and not np.shares_memory(fresh, target)
                np.testing.assert_array_equal(fresh, expected, strict=True)
                np.testing.assert_array_equal(z, z_before)
                np.testing.assert_array_equal(target, target_before)

    def test_alpha_bar_one_rejected_at_construction(self):
        sched = make_schedule(1000, 1e-20, 0.02, 25)
        assert sched.alpha_bar_at(sched.num_steps - 1) == 1.0
        with pytest.raises(ValueError, match="alpha_bar == 1 at this step; oracle residual undefined"):
            OracleDenoiser(np.zeros((2, 4, 2, 2), dtype=np.float32), sched)

    def test_alpha_bar_one_in_the_target_dtype_rejected(self):
        # 1 - 1e-9 is below 1 in float64 but rounds to 1.0 in float32, where
        # the residual would divide by sqrt(1 - abar) = 0
        sched = make_schedule(1000, 1e-9, 0.02, 25)
        assert sched.alpha_bar_at(sched.num_steps - 1) < 1.0
        OracleDenoiser(np.zeros((2, 4, 2, 2)), sched)
        with pytest.raises(ValueError, match="alpha_bar == 1 at this step; oracle residual undefined"):
            OracleDenoiser(np.zeros((2, 4, 2, 2), dtype=np.float32), sched)

    def test_bad_step_index_and_dtype_rejected(self):
        sched = make_schedule(1000, 1e-4, 0.02, 25)
        oracle = OracleDenoiser(np.zeros((4, 4, 2, 2), dtype=np.float32), sched)
        z = np.zeros((2, 4, 2, 2), dtype=np.float32)
        for k in (-1, sched.num_steps):
            with pytest.raises(IndexError):
                oracle.eps_for(z, k, slice(0, 2))
        with pytest.raises(ValueError, match="dtype"):
            oracle.eps_for(z.astype(np.float64), 0, slice(0, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            oracle.eps_for(z[:1], 0, slice(0, 2))
