import math
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

from shiftcache.cache import FreshnessFlags
from shiftcache.denoiser import (
    DenoiserInput,
    FlopTally,
    GarmentCondition,
    OracleDenoiser,
    SpatialAttentionWeights,
    ToyDenoiser,
    ToyDenoiserConfig,
    assemble_input,
    spatial_attention,
)
from shiftcache.diffusion import make_schedule, oracle_eps
from shiftcache.numerics import MaskVariant

L, H, W, M = 8, 16, 12, 4


def tiny_config(**kw):
    base = dict(shallow_width=4, deep_width=8, shallow_blocks=2, deep_blocks=2, seed=0)
    base.update(kw)
    return ToyDenoiserConfig(**base)


def make_input(seed=0, length=L, h=H, w=W, step=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((length, 4, h, w)).astype(np.float32)
    video = rng.standard_normal((length, 4, h, w)).astype(np.float32)
    mask = np.zeros((length, 1, h, w), dtype=np.float32)
    mask[:, :, h // 4: 3 * h // 4, w // 4: 3 * w // 4] = 1
    pose = rng.standard_normal((length, 4, h, w)).astype(np.float32)
    return DenoiserInput(z, video * (1 - mask), mask, pose, step, np.arange(length))


def make_garment(cfg, seed=1, count=M):
    rng = np.random.default_rng(seed)
    return GarmentCondition(
        rng.standard_normal((count, cfg.shallow_width)).astype(np.float32))


class TestAssembleInput:
    def test_thirteen_channels_in_contract_order(self):
        inp = make_input()
        x = assemble_input(inp.noise_latent, inp.masked_video_latent,
                           inp.binary_mask, inp.pose_features)
        assert x.shape == (L, 13, H, W)
        np.testing.assert_array_equal(x[:, 0:4], inp.noise_latent)
        np.testing.assert_array_equal(x[:, 4:8], inp.masked_video_latent)
        np.testing.assert_array_equal(x[:, 8:9], inp.binary_mask)
        np.testing.assert_array_equal(x[:, 9:13], inp.pose_features)

    def test_all_zero_inputs_give_zero_output(self):
        z = np.zeros((2, 4, 4, 4), dtype=np.float32)
        m = np.zeros((2, 1, 4, 4), dtype=np.float32)
        np.testing.assert_array_equal(assemble_input(z, z, m, z),
                                      np.zeros((2, 13, 4, 4), dtype=np.float32))

    def test_swapping_noise_and_pose_changes_output(self):
        inp = make_input()
        a = assemble_input(inp.noise_latent, inp.masked_video_latent,
                           inp.binary_mask, inp.pose_features)
        b = assemble_input(inp.pose_features, inp.masked_video_latent,
                           inp.binary_mask, inp.noise_latent)
        assert not np.array_equal(a, b)

    def test_non_binary_mask_rejected(self):
        inp = make_input()
        bad = inp.binary_mask.copy()
        bad[0, 0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="0 and 1"):
            assemble_input(inp.noise_latent, inp.masked_video_latent, bad,
                           inp.pose_features)

    def test_shape_mismatch_rejected(self):
        inp = make_input()
        with pytest.raises(ValueError):
            assemble_input(inp.noise_latent, inp.masked_video_latent[:, :3],
                           inp.binary_mask, inp.pose_features)


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
        eye = np.eye(1, dtype=np.float32)
        w = SpatialAttentionWeights(wq=eye, wk=eye, wv=eye, wo=eye, wg=None)
        a, g = 0.7, -0.3
        tokens = np.full((1, 1, 1), a, dtype=np.float32)
        out = spatial_attention(tokens, np.full((1, 1), g, dtype=np.float32), w)
        la, lg = a * a, a * g  # scale = 1/sqrt(1)
        wa = math.exp(la) / (math.exp(la) + math.exp(lg))
        expected = wa * a + (1 - wa) * g
        np.testing.assert_allclose(out[0, 0, 0], expected, rtol=1e-5)

    def test_empty_garment_matches_plain_self_attention(self):
        # independent oracle: float64 softmax attention written out here
        rng = np.random.default_rng(3)
        c = 6
        w = SpatialAttentionWeights(
            wq=rng.standard_normal((c, c)).astype(np.float32) * 0.4,
            wk=rng.standard_normal((c, c)).astype(np.float32) * 0.4,
            wv=rng.standard_normal((c, c)).astype(np.float32) * 0.4,
            wo=rng.standard_normal((c, c)).astype(np.float32) * 0.4,
            wg=None,
        )
        feat = rng.standard_normal((2, c, 3, 3)).astype(np.float32)
        out = spatial_attention(_tokens(feat), np.zeros((0, c), dtype=np.float32), w)

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
        w = d.shallow_in[0].spatial
        rng = np.random.default_rng(4)
        frame = rng.standard_normal((1, cfg.shallow_width, 2, 2)).astype(np.float32)
        feat = np.concatenate([frame, frame], axis=0)  # two identical frames
        garment = rng.standard_normal((3, cfg.shallow_width)).astype(np.float32)
        out = spatial_attention(_tokens(feat), garment, w)
        np.testing.assert_array_equal(out[0], out[1])

    def test_width_mismatch_rejected(self):
        eye = np.eye(2, dtype=np.float32)
        w = SpatialAttentionWeights(wq=eye, wk=eye, wv=eye, wo=eye, wg=None)
        tokens = np.zeros((1, 4, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="width"):
            spatial_attention(tokens, np.zeros((1, 3), dtype=np.float32), w)


class TestToyDenoiserFull:
    def test_output_shapes(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        eps, feats = d.denoise_full(make_input(), make_garment(cfg))
        assert eps.shape == (L, 4, H, W)
        assert feats.shape == (L, cfg.deep_width, H // 2, W // 2)

    def test_determinism_across_instances(self):
        cfg = tiny_config(seed=7)
        a = ToyDenoiser(cfg).denoise_full(make_input(), make_garment(cfg))[0]
        b = ToyDenoiser(cfg).denoise_full(make_input(), make_garment(cfg))[0]
        np.testing.assert_array_equal(a, b)

    def test_different_seed_changes_weights(self):
        inp, cfg = make_input(), tiny_config(seed=0)
        other = tiny_config(seed=1)
        a = ToyDenoiser(cfg).denoise_full(inp, make_garment(cfg))[0]
        b = ToyDenoiser(other).denoise_full(inp, make_garment(other))[0]
        assert not np.array_equal(a, b)

    def test_empty_garment_supported(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        eps, _ = d.denoise_full(make_input(), make_garment(cfg, count=0))
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
        inp = make_input(seed=5)
        base, _ = d.denoise_full(inp, garment)
        bumped = make_input(seed=5)
        noise = bumped.noise_latent.copy()
        noise[3] += 1.0
        bumped = DenoiserInput(noise, bumped.masked_video_latent, bumped.binary_mask,
                               bumped.pose_features, bumped.step_index,
                               bumped.frame_offsets)
        moved, _ = d.denoise_full(bumped, garment)
        others = [i for i in range(L) if i != 3]
        np.testing.assert_array_equal(moved[others], base[others])
        assert not np.allclose(moved[3], base[3])

    def test_frame_offsets_change_output(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        garment = make_garment(cfg)
        inp = make_input()
        shifted = DenoiserInput(inp.noise_latent, inp.masked_video_latent,
                                inp.binary_mask, inp.pose_features, inp.step_index,
                                inp.frame_offsets + 32)
        a, _ = d.denoise_full(inp, garment)
        b, _ = d.denoise_full(shifted, garment)
        assert not np.array_equal(a, b)

    def test_non_finite_input_detected(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        inp = make_input()
        bad_noise = inp.noise_latent.copy()
        bad_noise[0, 0, 0, 0] = np.nan
        bad = DenoiserInput(bad_noise, inp.masked_video_latent, inp.binary_mask,
                            inp.pose_features, 0, inp.frame_offsets)
        with pytest.raises(FloatingPointError):
            d.denoise_full(bad, make_garment(cfg))


class TestToyDenoiserPartial:
    def test_same_step_cache_reproduces_full_exactly(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        garment = make_garment(cfg)
        inp = make_input()
        eps_full, deep = d.denoise_full(inp, garment)
        flags = FreshnessFlags(good=np.ones(L, dtype=bool))
        eps_part = d.denoise_partial(inp, deep, flags, MaskVariant.FULL, garment)
        rel = np.linalg.norm(eps_part - eps_full) / np.linalg.norm(eps_full)
        assert rel < 1e-5

    def test_flop_counter_partial_skips_deep(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        garment = make_garment(cfg)
        inp = make_input()
        full_tally = FlopTally()
        _, deep = d.denoise_full(inp, garment, tally=full_tally)
        part_tally = FlopTally()
        flags = FreshnessFlags(good=np.ones(L, dtype=bool))
        d.denoise_partial(inp, deep, flags, MaskVariant.FULL, garment, tally=part_tally)
        assert full_tally.deep > 0
        assert part_tally.deep == 0
        assert part_tally.shallow > 0
        assert part_tally.shallow < full_tally.deep + full_tally.shallow

    def test_half_mask_over_all_good_equals_full_mask(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        garment = make_garment(cfg)
        inp = make_input()
        _, deep = d.denoise_full(inp, garment)
        flags = FreshnessFlags(good=np.ones(L, dtype=bool))
        a = d.denoise_partial(inp, deep, flags, MaskVariant.FULL, garment)
        b = d.denoise_partial(inp, deep, flags, MaskVariant.HALF, garment)
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
            inp0 = make_input(seed=seed, step=3)
            eps0, deep0 = d.denoise_full(inp0, garment)
            from shiftcache.diffusion import ddim_step
            z1 = ddim_step(inp0.noise_latent, eps0, 3, sched)
            inp1 = DenoiserInput(z1, inp0.masked_video_latent, inp0.binary_mask,
                                 inp0.pose_features, 4, inp0.frame_offsets)
            eps_ref, _ = d.denoise_full(inp1, garment)
            flags = FreshnessFlags(good=np.ones(L, dtype=bool))
            eps_stale = d.denoise_partial(inp1, deep0, flags, MaskVariant.FULL, garment)
            eps_zero = d.denoise_partial(inp1, np.zeros_like(deep0), flags, MaskVariant.FULL,
                                         garment)
            d_stale = np.linalg.norm(eps_stale - eps_ref)
            d_zero = np.linalg.norm(eps_zero - eps_ref)
            if d_stale < d_zero:
                wins += 1
        assert wins == 10

    def test_cache_shape_mismatch_rejected(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        garment = make_garment(cfg)
        inp = make_input()
        bad = np.zeros((L, cfg.deep_width, 3, 3), dtype=np.float32)
        flags = FreshnessFlags(good=np.ones(L, dtype=bool))
        with pytest.raises(ValueError, match="deep features shape"):
            d.denoise_partial(inp, bad, flags, MaskVariant.FULL, garment)

    def test_flags_length_mismatch_rejected(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        garment = make_garment(cfg)
        inp = make_input()
        _, deep = d.denoise_full(inp, garment)
        flags = FreshnessFlags(good=np.ones(L - 1, dtype=bool))
        with pytest.raises(ValueError, match="flags length"):
            d.denoise_partial(inp, deep, flags, MaskVariant.FULL, garment)


class TestToyDenoiserConfig:
    @pytest.mark.parametrize("kw,match", [
        (dict(shallow_blocks=1), "shallow block"),
        (dict(deep_blocks=0), "deep block"),
        (dict(shallow_width=5), "even"),
        (dict(deep_width=7), "even"),
        (dict(deep_cost_share=1.0), "deep_cost_share"),
    ])
    def test_invalid_sizes_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            ToyDenoiserConfig(**kw)

    def test_frozen_value_object(self):
        cfg = tiny_config(seed=3)
        with pytest.raises(FrozenInstanceError):
            cfg.seed = 4
        assert ToyDenoiserConfig(**asdict(cfg)) == cfg
        assert replace(cfg, seed=4) != cfg


class TestCostModel:
    def test_default_config_hits_deep_share_target(self):
        cfg = ToyDenoiserConfig()
        d = ToyDenoiser(cfg)
        share = d.deep_share(16, 16, 12, 4)
        assert abs(share - cfg.deep_cost_share) <= 0.05 * cfg.deep_cost_share

    def test_partial_cost_is_full_minus_deep(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        deep, shallow, partial_shallow = d.chunk_cost(L, H, W, M)
        assert partial_shallow == shallow

    def test_cost_scales_with_length(self):
        cfg = tiny_config()
        d = ToyDenoiser(cfg)
        d8 = sum(d.chunk_cost(8, H, W, M)[:2])
        d16 = sum(d.chunk_cost(16, H, W, M)[:2])
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
            oracle_eps(z, 5, target[offsets], sched))

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
                    buf, oracle_eps(z, k, target[frames], sched), strict=True)
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
