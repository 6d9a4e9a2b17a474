import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from shiftcache.cache import build_mask
from shiftcache.denoiser import _rms_norm, attention
from shiftcache.numerics import (
    MaskVariant,
    as_frame_indices,
    correlate_symmetric,
    gaussian_kernel,
    sinusoidal_encoding_batch,
)


def _mask(blocked_rows_cols, size):
    m = np.zeros((size, size), dtype=bool)
    for (i, j) in blocked_rows_cols:
        m[i, j] = True
    return m


def _scaled(q):
    # the engine kernel expects the 1/sqrt(C) scale folded into q
    return q * np.asarray(1.0 / np.sqrt(q.shape[-1]), dtype=q.dtype)


class TestSoftmaxAttention:
    """The engine's attention kernel, denoiser.attention."""

    def test_single_key_returns_value_to_rounding(self):
        # one key gets weight w = exp(logit); the kernel normalizes after the
        # matmul, so the output is (w * v) / w: v up to two float32 roundings
        rng = np.random.default_rng(0)
        q = rng.standard_normal((3, 1, 5)).astype(np.float32)
        k = rng.standard_normal((3, 1, 5)).astype(np.float32)
        v = rng.standard_normal((3, 1, 5)).astype(np.float32)
        out = attention(_scaled(q), k, v, _mask([], 1))
        np.testing.assert_allclose(out, v, rtol=2 * np.finfo(np.float32).eps, atol=0)

    def test_zero_mask_matches_no_mask(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((2, 6, 4)).astype(np.float32)
        k = rng.standard_normal((2, 6, 4)).astype(np.float32)
        v = rng.standard_normal((2, 6, 4)).astype(np.float32)
        out_masked = attention(_scaled(q), k, v, _mask([], 6))
        out_plain = attention(_scaled(q), k, v, None)
        np.testing.assert_allclose(out_masked, out_plain, atol=1e-6)

    def test_blocked_keys_get_zero_weight_two_key_hand_check(self):
        # Keys 0 and 1 blocked for every query; v rows are basis vectors, so
        # outputs must be convex combinations of e2 and e3 with weights from
        # an explicit 2-key softmax computed here by hand.
        L, C = 4, 4
        rng = np.random.default_rng(2)
        q = rng.standard_normal((1, L, C)).astype(np.float32)
        k = rng.standard_normal((1, L, C)).astype(np.float32)
        v = np.eye(L, dtype=np.float32)[None]
        blocked = [(i, j) for i in range(L) for j in (0, 1)]
        out = attention(_scaled(q), k, v, _mask(blocked, L))
        np.testing.assert_allclose(out[0, :, 0], 0.0, atol=0)
        np.testing.assert_allclose(out[0, :, 1], 0.0, atol=0)
        for i in range(L):
            l2 = float(np.dot(q[0, i], k[0, 2])) / math.sqrt(C)
            l3 = float(np.dot(q[0, i], k[0, 3])) / math.sqrt(C)
            w2 = math.exp(l2) / (math.exp(l2) + math.exp(l3))
            np.testing.assert_allclose(out[0, i, 2], w2, rtol=2e-5)
            np.testing.assert_allclose(out[0, i, 3], 1.0 - w2, rtol=2e-5)

    def test_rows_are_convex_combinations(self):
        rng = np.random.default_rng(3)
        q = rng.standard_normal((2, 5, 3)).astype(np.float32)
        k = rng.standard_normal((2, 5, 3)).astype(np.float32)
        v = np.ones((2, 5, 3), dtype=np.float32)
        out = attention(_scaled(q), k, v)
        np.testing.assert_allclose(out, 1.0, rtol=1e-5)

    def test_shape_mismatch_rejected(self):
        q = np.zeros((1, 2, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            attention(q, np.zeros((1, 2, 4)), np.zeros((1, 2, 4)))  # q/k widths
        with pytest.raises(ValueError):
            attention(q, q, np.zeros((1, 3, 3)))  # k/v key counts

    def test_mask_size_mismatch_rejected(self):
        q = np.zeros((1, 3, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            attention(q, q, q, _mask([], 4))

    def test_softmax_shift_invariance_per_query_row(self):
        # adding u to every key shifts query i's logits by the constant
        # q_i . u, which softmax ignores
        rng = np.random.default_rng(4)
        q = _scaled(rng.standard_normal((3, 4, 6)).astype(np.float32))
        k = rng.standard_normal((3, 4, 6)).astype(np.float32)
        v = rng.standard_normal((3, 4, 6)).astype(np.float32)
        u = rng.standard_normal(6).astype(np.float32)
        np.testing.assert_allclose(attention(q, k + u, v), attention(q, k, v), atol=1e-5)

    def test_float64_supported(self):
        rng = np.random.default_rng(5)
        q = rng.standard_normal((1, 3, 4))
        out = attention(_scaled(q), q, q)
        assert out.dtype == np.float64

    # Tolerances, relative to max |v|, fixed per dtype in advance.
    REFERENCE_TOLERANCE = {np.float32: 1e-5, np.float64: 1e-12}

    @given(
        width=st.integers(1, 32).map(lambda half: 2 * half),
        length=st.integers(1, 24),
        dtype=st.sampled_from([np.float32, np.float64]),
        variant=st.sampled_from(list(MaskVariant)),
        first_frame=st.integers(0, 4096),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_max_subtracted_float64_reference(self, width, length, dtype, variant,
                                                      first_frame, seed):
        # Inputs built as the engine's temporal attention builds them:
        # RMS-normed tokens of any scale plus sinusoidal frame codes, then
        # seeded 1/sqrt(fan_in) float32 projections. The kernel skips the
        # max subtraction; the float64 reference here does not.
        rng = np.random.default_rng(seed)
        wq, wk, wv = ((rng.standard_normal((width, width)) / np.sqrt(width))
                      .astype(np.float32) for _ in range(3))
        x = rng.standard_normal((3, length, width)) * 10.0 ** rng.uniform(-3, 3)
        n = _rms_norm(x.astype(dtype))
        n += sinusoidal_encoding_batch(np.arange(first_frame, first_frame + length), width)
        q = n @ wq
        q *= np.float32(1.0 / np.sqrt(width))
        k, v = n @ wk, n @ wv
        mask = build_mask(variant, rng.random(length) < rng.random())

        out = attention(q, k, v, mask)

        logits = q.astype(np.float64) @ k.astype(np.float64).transpose(0, 2, 1)
        logits[:, mask] = -np.inf
        weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
        ref = (weights / weights.sum(axis=-1, keepdims=True)) @ v.astype(np.float64)
        assert out.dtype == dtype
        np.testing.assert_allclose(
            out, ref, rtol=0, atol=self.REFERENCE_TOLERANCE[dtype] * np.abs(v).max())


class TestSinusoidalEncoding:
    def test_index_zero_dim_four(self):
        np.testing.assert_array_equal(sinusoidal_encoding_batch([0], 4)[0], [0.0, 1.0, 0.0, 1.0])

    def test_repeat_call_bit_identical(self):
        a = sinusoidal_encoding_batch([17], 32)
        b = sinusoidal_encoding_batch([17], 32)
        np.testing.assert_array_equal(a, b)

    def test_distinct_indices_distinct_codes(self):
        a, b = sinusoidal_encoding_batch([1, 2], 64)
        assert np.linalg.norm(a - b) > 0

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            sinusoidal_encoding_batch([0], 5)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            sinusoidal_encoding_batch([-1], 4)

    @pytest.mark.parametrize("indices", [[0.5, 1.5], [2.0], np.array([True, False])])
    def test_non_integer_indices_rejected(self, indices):
        # a float index would be truncated, a bool one read as 0 and 1
        with pytest.raises(ValueError, match="integer dtype"):
            sinusoidal_encoding_batch(indices, 4)

    @pytest.mark.parametrize("indices", [[], np.array([]), np.array([], dtype=bool)])
    def test_empty_indices_of_any_dtype_read_as_int64(self, indices):
        # an empty cast changes no value, so it is not refused
        assert as_frame_indices(indices).dtype == np.int64
        assert sinusoidal_encoding_batch(indices, 4).shape == (0, 4)

    @pytest.mark.parametrize("dim", [8, 16])
    def test_injective_over_small_indices(self, dim):
        codes = sinusoidal_encoding_batch(np.arange(10 * dim), dim)
        for i in range(len(codes)):
            for j in range(i + 1, len(codes)):
                assert np.linalg.norm(codes[i] - codes[j]) > 1e-6

    def test_batch_matches_scalar(self):
        # each row is the single-index code, and equals the closed form
        batch = sinusoidal_encoding_batch(np.array([0, 3, 11]), 12)
        freqs = 10000.0 ** (-np.arange(0, 12, 2) / 12)
        for row, idx in zip(batch, (0, 3, 11)):
            np.testing.assert_array_equal(row, sinusoidal_encoding_batch([idx], 12)[0])
            closed = np.stack([np.sin(idx * freqs), np.cos(idx * freqs)], axis=1).ravel()
            np.testing.assert_array_equal(row, closed.astype(np.float32))


@pytest.mark.parametrize("sigma,radius", [(1.5, 6), (1.5, 5), (1.0, 1)])
def test_gaussian_kernel_is_scipys_impulse_response(sigma, radius):
    impulse = np.zeros(2 * radius + 1)
    impulse[radius] = 1.0
    expected = ndimage.gaussian_filter1d(impulse, sigma, truncate=radius / sigma, mode="constant")
    np.testing.assert_array_equal(gaussian_kernel(sigma, radius), expected, strict=True)


class TestCorrelateSymmetric:
    """Bit-for-bit agreement with scipy.ndimage, which stays installed as a
    test-only reference; the library itself runs on numpy alone."""

    @pytest.mark.parametrize("h,w", [(2, 2), (4, 6), (8, 8), (16, 12), (6, 14), (2, 20)])
    def test_matches_scipy_gaussian_filter_wrap(self, h, w):
        x = np.random.default_rng(h * 100 + w).standard_normal((5, 4, h, w))
        expected = ndimage.gaussian_filter(x, sigma=(0, 0, 1.5, 1.5), mode="wrap")
        kernel = gaussian_kernel(1.5, 6)  # the conditions' smoothing
        got = correlate_symmetric(correlate_symmetric(x, kernel, 2), kernel, 3)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("h,w", [(11, 11), (16, 12), (24, 20), (3, 5)])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_valid_interior_matches_scipy_nearest_with_ssim_window(self, h, w, axis):
        # SSIM keeps only the outputs a radius from each border, which read
        # no padding, so there the wrapping kernel equals scipy's "nearest"
        img = np.random.default_rng(h * 100 + w).standard_normal((h, w))
        window = gaussian_kernel(1.5, 5)
        r = len(window) // 2
        interior = [slice(None)] * 2
        interior[axis] = slice(r, img.shape[axis] - r)
        np.testing.assert_array_equal(
            correlate_symmetric(img, window, axis)[tuple(interior)],
            ndimage.correlate1d(img, window, axis=axis, mode="nearest")[tuple(interior)])

    @given(seed=st.integers(0, 10_000), radius=st.integers(0, 7),
           shape=st.lists(st.integers(1, 9), min_size=1, max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_matches_scipy_on_any_symmetric_kernel(self, seed, radius, shape):
        rng = np.random.default_rng(seed)
        half = rng.standard_normal(radius + 1)
        weights = np.concatenate([half[:0:-1], half])  # symmetric, odd length
        x = rng.standard_normal(shape)
        axis = int(rng.integers(len(shape)))
        np.testing.assert_array_equal(
            correlate_symmetric(x, weights, axis),
            ndimage.correlate1d(x, weights, axis=axis, mode="wrap"))

    def test_result_is_float64_and_input_untouched(self):
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        before = x.copy()
        out = correlate_symmetric(x, gaussian_kernel(1.0, 1), -1)
        assert out.dtype == np.float64 and out.shape == x.shape
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize("weights", [[0.5, 0.5], [0.2, 0.5, 0.3], [[1.0]]])
    def test_rejects_kernels_that_are_not_odd_and_symmetric(self, weights):
        with pytest.raises(ValueError, match="symmetric kernel"):
            correlate_symmetric(np.zeros((4, 4)), np.asarray(weights), 0)
