import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcache import diffusion
from shiftcache.denoiser import OracleDenoiser
from shiftcache.diffusion import (
    LatentVideo,
    NoiseSchedule,
    ddim_step,
    make_schedule,
    step_scales,
)


def default_schedule(k=25):
    return make_schedule(1000, 1e-4, 0.02, k)


class TestMakeSchedule:
    def test_first_alpha_bar_is_one_minus_beta_start(self):
        sched = default_schedule()
        assert np.isclose(sched.alpha_bars[0], 1.0 - 1e-4, rtol=0, atol=1e-12)

    def test_alpha_bars_match_direct_product(self):
        # independent oracle: plain python running product
        sched = make_schedule(50, 1e-3, 0.05, 10)
        prod = 1.0
        for t in range(50):
            prod *= 1.0 - sched.betas[t]
            assert np.isclose(sched.alpha_bars[t], prod, rtol=1e-12)

    def test_full_schedule_descends_every_timestep(self):
        sched = make_schedule(40, 1e-4, 0.02, 40)
        np.testing.assert_array_equal(sched.sampling_steps, np.arange(39, -1, -1))

    @given(t_train=st.integers(2, 300), k=st.integers(1, 40),
           b0=st.floats(1e-5, 1e-2), spread=st.floats(1.0, 20.0))
    @settings(max_examples=80, deadline=None)
    def test_alpha_bars_strictly_decreasing(self, t_train, k, b0, spread):
        k = min(k, t_train)
        sched = make_schedule(t_train, b0, min(b0 * spread, 0.5), k)
        assert np.all(np.diff(sched.alpha_bars) < 0)
        assert np.all(np.diff(sched.sampling_steps) < 0)

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            make_schedule(100, 0.0, 0.02, 10)
        with pytest.raises(ValueError):
            make_schedule(100, 0.03, 0.02, 10)
        with pytest.raises(ValueError):
            make_schedule(100, 1e-4, 1.0, 10)
        with pytest.raises(ValueError):
            make_schedule(100, 1e-4, 0.02, 101)


class TestStepScales:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_roots_of_the_cast_alpha_bar_in_its_dtype(self, dtype):
        sched = default_schedule()
        for k in range(sched.num_steps):
            a = dtype(sched.alpha_bar_at(k))
            root, root_rest = step_scales(sched.alpha_bar_at(k), np.dtype(dtype))
            assert type(root) is dtype and type(root_rest) is dtype
            assert root == np.sqrt(a, dtype=dtype) and root_rest == np.sqrt(1.0 - a, dtype=dtype)

    def test_ddim_step_reads_its_steps_scalars_there(self, monkeypatch):
        sched = default_schedule()
        seen = []
        monkeypatch.setattr(diffusion, "step_scales",
                            lambda abar, dtype: seen.append(abar) or step_scales(abar, dtype))
        z = np.ones((1, 4, 2, 2), dtype=np.float32)
        ddim_step(z, z, 3, sched)
        assert seen == [sched.alpha_bar_at(3), sched.alpha_bar_at(4)]
        seen.clear()
        ddim_step(z, z, sched.num_steps - 1, sched)
        assert seen == [sched.alpha_bar_at(sched.num_steps - 1)]


class TestDdimStep:
    def test_oracle_eps_reconstructs_target_at_final_step(self):
        sched = default_schedule()
        rng = np.random.default_rng(0)
        target = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
        z = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
        last = sched.num_steps - 1
        eps = OracleDenoiser(target, sched).eps_for(z, last, slice(None))
        out = ddim_step(z, eps, last, sched)
        np.testing.assert_allclose(out, target, atol=1e-5)

    def test_full_oracle_sampling_recovers_target(self):
        sched = default_schedule()
        rng = np.random.default_rng(1)
        target = rng.standard_normal((3, 4, 5, 5)).astype(np.float32)
        z = rng.standard_normal((3, 4, 5, 5)).astype(np.float32)
        oracle = OracleDenoiser(target, sched)
        for k in range(sched.num_steps):
            z = ddim_step(z, oracle.eps_for(z, k, slice(None)), k, sched)
        assert np.max(np.abs(z - target)) <= 1e-4

    def test_full_oracle_sampling_float64_tight(self):
        sched = default_schedule()
        rng = np.random.default_rng(2)
        target = rng.standard_normal((2, 4, 4, 4))
        z = rng.standard_normal((2, 4, 4, 4))
        oracle = OracleDenoiser(target, sched)
        for k in range(sched.num_steps):
            z = ddim_step(z, oracle.eps_for(z, k, slice(None)), k, sched)
        assert np.max(np.abs(z - target)) <= 1e-9

    def test_zero_eps_rescales_by_alpha_ratio(self):
        sched = default_schedule()
        rng = np.random.default_rng(3)
        z = rng.standard_normal((1, 4, 4, 4)).astype(np.float32)
        k = 5
        out = ddim_step(z, np.zeros_like(z), k, sched)
        a_t = sched.alpha_bar_at(k)
        a_p = sched.alpha_bar_at(k + 1)
        np.testing.assert_allclose(out, np.sqrt(a_p / a_t) * z, rtol=1e-5)

    def test_equal_alpha_bars_identity_step(self):
        # constructed schedule where two sampling steps share alpha_bar
        betas = np.full(4, 1e-3)
        alpha_bars = np.cumprod(1 - betas)
        sched = NoiseSchedule(t_train=4, betas=betas, alpha_bars=alpha_bars,
                              sampling_steps=np.array([3, 2]))
        z = np.random.default_rng(4).standard_normal((1, 4, 2, 2)).astype(np.float32)
        out = ddim_step(z, np.zeros_like(z), 0, sched)
        ratio = np.sqrt(alpha_bars[2] / alpha_bars[3])
        np.testing.assert_allclose(out, ratio * z, rtol=1e-6)

    def test_determinism(self):
        sched = default_schedule()
        rng = np.random.default_rng(5)
        z = rng.standard_normal((2, 4, 4, 4)).astype(np.float32)
        eps = rng.standard_normal((2, 4, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(ddim_step(z, eps, 3, sched),
                                      ddim_step(z, eps, 3, sched))

    def test_unit_variance_eps_stays_finite(self):
        sched = default_schedule()
        rng = np.random.default_rng(6)
        z = rng.standard_normal((2, 4, 4, 4)).astype(np.float32)
        for k in range(sched.num_steps):
            z = ddim_step(z, rng.standard_normal(z.shape).astype(np.float32), k, sched)
            assert np.all(np.isfinite(z))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_formula_and_inputs_untouched(self, dtype):
        sched = default_schedule(6)
        rng = np.random.default_rng(7)
        z = rng.standard_normal((3, 4, 4, 6)).astype(dtype)
        eps = rng.standard_normal((3, 4, 4, 6)).astype(dtype)
        z_before, eps_before = z.copy(), eps.copy()
        for k in range(sched.num_steps):
            a_t = dtype(sched.alpha_bar_at(k))
            x0 = (z - np.sqrt(1.0 - a_t, dtype=dtype) * eps) / np.sqrt(a_t, dtype=dtype)
            if k == sched.num_steps - 1:
                expected = x0
            else:
                a_prev = dtype(sched.alpha_bar_at(k + 1))
                expected = (np.sqrt(a_prev, dtype=dtype) * x0
                            + np.sqrt(1.0 - a_prev, dtype=dtype) * eps)
            np.testing.assert_array_equal(ddim_step(z, eps, k, sched), expected, strict=True)
            np.testing.assert_array_equal(z, z_before)
            np.testing.assert_array_equal(eps, eps_before)

    def test_shape_mismatch_and_bad_index(self):
        sched = default_schedule()
        z = np.zeros((1, 4, 2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            ddim_step(z, np.zeros((1, 4, 2, 3), dtype=np.float32), 0, sched)
        with pytest.raises(IndexError):
            ddim_step(z, z, sched.num_steps, sched)


def formula(z, eps, k, sched):
    """The DDIM update as one unblocked numpy expression per line: the
    reference the blocked, in-place update must match bit for bit."""
    dtype = z.dtype.type
    a_t = dtype(sched.alpha_bar_at(k))
    x0 = (z - np.sqrt(1.0 - a_t, dtype=dtype) * eps) / np.sqrt(a_t, dtype=dtype)
    if k == sched.num_steps - 1:
        return x0
    a_prev = dtype(sched.alpha_bar_at(k + 1))
    return np.sqrt(a_prev, dtype=dtype) * x0 + np.sqrt(1.0 - a_prev, dtype=dtype) * eps


def block_frames(dtype):
    """Frames in one block of the update at 4x16x12 latents."""
    return diffusion._UPDATE_BLOCK_BYTES // (4 * 16 * 12 * np.dtype(dtype).itemsize)


class TestDdimStepOut:
    """``ddim_step(..., out=)``: in place or into a separate array, in
    blocks of frames, with the bits of the out-of-place update."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [12, 24])  # a middle step and the last
    @pytest.mark.parametrize("in_place", [True, False])
    @pytest.mark.parametrize("frames", ["1", "block-1", "block", "block+1", "2048"])
    def test_bit_equal_to_out_of_place(self, dtype, k, in_place, frames):
        sched = default_schedule(25)
        block = block_frames(dtype)
        n = {"1": 1, "block-1": block - 1, "block": block, "block+1": block + 1,
             "2048": 2048}[frames]
        rng = np.random.default_rng(n)
        z = rng.standard_normal((n, 4, 16, 12)).astype(dtype)
        eps = rng.standard_normal((n, 4, 16, 12)).astype(dtype)
        expected = ddim_step(z, eps, k, sched)
        np.testing.assert_array_equal(expected, formula(z, eps, k, sched), strict=True)
        out = z if in_place else np.full_like(z, np.nan)
        assert ddim_step(z, eps, k, sched, out=out) is out
        np.testing.assert_array_equal(out, expected, strict=True)

    def test_in_place_on_a_view_leaves_the_rest(self):
        sched = default_schedule()
        rng = np.random.default_rng(8)
        z = rng.standard_normal((300, 4, 16, 12)).astype(np.float32)
        eps = rng.standard_normal((200, 4, 16, 12)).astype(np.float32)
        before = z.copy()
        view = z[50:250]
        ddim_step(view, eps, 3, sched, out=view)
        np.testing.assert_array_equal(z[50:250], formula(before[50:250], eps, 3, sched),
                                      strict=True)
        np.testing.assert_array_equal(z[:50], before[:50])
        np.testing.assert_array_equal(z[250:], before[250:])

    def test_refused_outs(self):
        sched = default_schedule()
        rng = np.random.default_rng(9)
        big = rng.standard_normal((201, 4, 16, 12)).astype(np.float32)
        z, eps = big[:100], rng.standard_normal((100, 4, 16, 12)).astype(np.float32)
        for out in (eps,                      # eps itself
                    big[1:101],               # overlaps z_t, is not z_t
                    big[:100].view(),         # all of z_t, another object
                    np.empty((99, 4, 16, 12), dtype=np.float32),
                    np.empty((100, 4, 16, 12), dtype=np.float64)):
            before = big.copy(), eps.copy()
            with pytest.raises(ValueError, match="^out must be"):
                ddim_step(z, eps, 3, sched, out=out)
            np.testing.assert_array_equal(big, before[0])
            np.testing.assert_array_equal(eps, before[1])
        with pytest.raises(ValueError, match="^out must be"):
            ddim_step(z, z, 3, sched, out=z)  # eps shares z_t's memory, which is out

    def test_in_place_allocates_about_one_block(self):
        import tracemalloc

        sched = default_schedule()
        rng = np.random.default_rng(10)
        z = rng.standard_normal((2048, 4, 16, 12)).astype(np.float32)
        eps = rng.standard_normal((2048, 4, 16, 12)).astype(np.float32)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            ddim_step(z, eps, 12, sched, out=z)
            in_place = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            ddim_step(z, eps, 12, sched)
            new = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert new >= z.nbytes  # tracemalloc sees numpy's buffers
        assert in_place <= diffusion._UPDATE_BLOCK_BYTES + 64 * 1024


class TestOracleEps:
    def test_recovers_mixing_noise_exactly(self):
        sched = default_schedule()
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        noise = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        k = 4
        a = np.float32(sched.alpha_bar_at(k))
        z = np.sqrt(a) * x0 + np.sqrt(1 - a) * noise
        np.testing.assert_allclose(OracleDenoiser(x0, sched).eps_for(z, k, slice(None)), noise,
                                   atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_formula_and_inputs_untouched(self, dtype):
        sched = default_schedule()
        rng = np.random.default_rng(10)
        z = rng.standard_normal((3, 4, 3, 3)).astype(dtype)
        target = rng.standard_normal((3, 4, 3, 3)).astype(dtype)
        z_before, target_before = z.copy(), target.copy()
        a = dtype(sched.alpha_bar_at(6))
        np.testing.assert_array_equal(
            OracleDenoiser(target, sched).eps_for(z, 6, slice(None)),
            (z - np.sqrt(a, dtype=dtype) * target) / np.sqrt(1.0 - a, dtype=dtype),
            strict=True)
        np.testing.assert_array_equal(z, z_before)
        np.testing.assert_array_equal(target, target_before)

    def test_zero_target(self):
        sched = default_schedule()
        rng = np.random.default_rng(8)
        z = rng.standard_normal((1, 4, 3, 3)).astype(np.float32)
        k = 10
        a = sched.alpha_bar_at(k)
        np.testing.assert_allclose(
            OracleDenoiser(np.zeros_like(z), sched).eps_for(z, k, slice(None)),
            z / np.float32(np.sqrt(1 - a)), rtol=1e-6)

    def test_frame_locality(self):
        sched = default_schedule()
        rng = np.random.default_rng(9)
        z = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        target = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        oracle = OracleDenoiser(target, sched)
        base = oracle.eps_for(z, 3, slice(None))
        z2 = z.copy()
        z2[2] += 1.0
        moved = oracle.eps_for(z2, 3, slice(None))
        np.testing.assert_array_equal(moved[[0, 1, 3]], base[[0, 1, 3]])
        assert not np.allclose(moved[2], base[2])


class TestLatentVideo:
    def test_freshness_length_checked(self):
        with pytest.raises(ValueError):
            LatentVideo(z=np.zeros((3, 4, 2, 2)), freshness=np.zeros(2, dtype=np.int64))

    def test_num_frames(self):
        video = LatentVideo(z=np.zeros((5, 4, 2, 2)), freshness=np.zeros(5, dtype=np.int64))
        assert video.num_frames == 5


def _schedule_with(**fields):
    return dataclasses.replace(make_schedule(10, 1e-4, 0.02, 3), **fields)


@pytest.mark.parametrize("call,message", [
    (lambda: LatentVideo(z=np.zeros((2, 4, 3)), freshness=np.zeros(2, dtype=np.int64)),
     r"latents must be \[N, C, H, W\], got \(2, 4, 3\)"),
    (lambda: _schedule_with(betas=np.full(9, 0.01)), "betas/alpha_bars must have length t_train"),
    (lambda: _schedule_with(betas=np.r_[0.0, np.full(9, 0.01)]),
     r"betas must lie strictly inside \(0, 1\)"),
    (lambda: _schedule_with(sampling_steps=np.array([0, 5, 9])),
     "sampling_steps must be strictly decreasing"),
    (lambda: _schedule_with(sampling_steps=np.array([10, 5, 0])), "sampling_steps out of range"),
    (lambda: make_schedule(0, 1e-4, 0.02, 1), "t_train must be >= 1"),
], ids=["latent-rank", "betas-length", "beta-zero", "steps-rising", "step-past-t-train",
        "t-train-zero"])
def test_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
