import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from shiftcache.metrics import flicker_index, ssim, video_ssim


def image(seed=0, h=16, w=16):
    return np.random.default_rng(seed).standard_normal((h, w))


def direct_ssim(a, b):
    """SSIM as documented, by direct float64 sums over every valid 11x11
    window: Gaussian weights of sigma 1.5, centred moments, K1=0.01,
    K2=0.03 and the dynamic range of the two images together."""
    x = np.arange(11) - 5.0
    g = np.exp(-x * x / (2 * 1.5 ** 2))
    weights = np.outer(g, g) / np.outer(g, g).sum()
    pa, pb = sliding_window_view(a, (11, 11)), sliding_window_view(b, (11, 11))

    def mean(patches):
        return (patches * weights).sum(axis=(-2, -1))

    mu_a, mu_b = mean(pa), mean(pb)
    da, db = pa - mu_a[..., None, None], pb - mu_b[..., None, None]
    var_a, var_b, cov = mean(da * da), mean(db * db), mean(da * db)
    data_range = max(a.max(), b.max()) - min(a.min(), b.min())
    c1, c2 = (0.01 * data_range) ** 2, (0.03 * data_range) ** 2
    ssim_map = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)
                / ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
    return ssim_map.mean()


class TestSsim:
    def test_identical_images_score_exactly_one(self):
        x = image(0)
        assert ssim(x, x) == 1.0

    def test_identical_constant_images_score_one(self):
        x = np.full((16, 16), 3.5)
        assert ssim(x, x) == 1.0

    def test_symmetry(self):
        a, b = image(1), image(2)
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-9)

    def test_anticorrelated_checkerboard_is_negative(self):
        y, x = np.mgrid[0:16, 0:16]
        board = ((x + y) % 2).astype(np.float64)
        assert ssim(board, 1.0 - board) < 0

    def test_channel_averaging_accepted(self):
        a = np.random.default_rng(3).standard_normal((3, 16, 16))
        assert ssim(a, a) == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            ssim(image(0), image(0, h=17))

    def test_window_larger_than_image_rejected(self):
        small = np.zeros((8, 8))
        with pytest.raises(ValueError, match="window"):
            ssim(small, small)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_bounded_above_by_one(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((12, 14))
        b = a + 0.3 * rng.standard_normal((12, 14))
        assert ssim(a, b) <= 1.0

    def test_matches_reference_implementation(self):
        skimage_metrics = pytest.importorskip("skimage.metrics")
        rng = np.random.default_rng(9)
        for _ in range(5):
            a = rng.standard_normal((24, 20))
            b = a + 0.5 * rng.standard_normal((24, 20))
            data_range = max(a.max(), b.max()) - min(a.min(), b.min())
            expected = skimage_metrics.structural_similarity(
                a, b, win_size=11, gaussian_weights=True, sigma=1.5,
                use_sample_covariance=False, data_range=data_range)
            assert ssim(a, b) == pytest.approx(expected, abs=1e-7)

    def test_matches_scipy_gaussian_filter_reference(self):
        # skimage's recipe on the same five pairs, written out on scipy: each
        # local moment is a Gaussian filter of sigma 1.5 truncated at 3.5
        # sigma (radius 5), and the 5 pixels by each border, whose windows
        # read the "reflect" padding, are cropped before the mean
        def blur(x):
            return ndimage.gaussian_filter(x, sigma=1.5, truncate=3.5, mode="reflect")

        rng = np.random.default_rng(9)
        for _ in range(5):
            a = rng.standard_normal((24, 20))
            b = a + 0.5 * rng.standard_normal((24, 20))
            data_range = max(a.max(), b.max()) - min(a.min(), b.min())
            c1, c2 = (0.01 * data_range) ** 2, (0.03 * data_range) ** 2
            mu_a, mu_b = blur(a), blur(b)
            var_a, var_b = blur(a * a) - mu_a * mu_a, blur(b * b) - mu_b * mu_b
            cov = blur(a * b) - mu_a * mu_b
            ssim_map = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)
                        / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)))
            assert ssim(a, b) == pytest.approx(ssim_map[5:-5, 5:-5].mean(), abs=1e-7)

    @pytest.mark.parametrize("h,w", [(11, 11), (24, 20), (13, 30)])
    def test_matches_direct_float64_reference(self, h, w):
        rng = np.random.default_rng(h * 100 + w)
        for noise in (0.1, 0.5, 2.0):
            a = rng.standard_normal((h, w))
            b = a + noise * rng.standard_normal((h, w))
            assert ssim(a, b) == pytest.approx(direct_ssim(a, b), abs=1e-12)

    def test_channels_averaged_before_the_direct_reference(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((3, 16, 12))
        b = a + 0.4 * rng.standard_normal((3, 16, 12))
        assert ssim(a, b) == pytest.approx(
            direct_ssim(a.mean(axis=0), b.mean(axis=0)), abs=1e-12)

    def test_video_ssim_means_over_frames(self):
        v = np.random.default_rng(4).standard_normal((3, 2, 16, 16))
        assert video_ssim(v, v) == 1.0

    def test_video_ssim_of_no_frames_rejected(self):
        empty = np.zeros((0, 2, 16, 16))
        with pytest.raises(ValueError, match="N >= 1"):
            video_ssim(empty, empty)


class TestFlickerIndex:
    def test_constant_video_is_zero(self):
        assert flicker_index(np.ones((4, 2, 3, 3))) == 0.0

    def test_alternating_unit_frames(self):
        video = np.zeros((4, 1, 2, 2))
        video[1::2] = 1.0
        assert flicker_index(video) == 1.0

    def test_linear_ramp_squared_step(self):
        d = 0.37
        video = np.arange(5)[:, None, None, None] * d * np.ones((5, 2, 3, 3))
        assert flicker_index(video) == pytest.approx(d * d, rel=1e-12)

    def test_invariant_to_constant_shift(self):
        v = np.random.default_rng(5).standard_normal((4, 2, 4, 4))
        assert flicker_index(v + 100.0) == pytest.approx(flicker_index(v), rel=1e-9)

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            flicker_index(np.zeros((1, 1, 2, 2)))
