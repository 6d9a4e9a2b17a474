"""Desk-scale video quality metrics: SSIM and a flicker index. Throughput
is compared through the FLOP counters of real runs (``RunStats``).

SSIM uses the standard 11x11 Gaussian window (sigma 1.5, K1=0.01,
K2=0.03) over valid windows only, with the dynamic range taken from the
data. The flicker index is the mean squared difference between
consecutive frames; it stands in for learned temporal-consistency
metrics, which need pretrained networks and are out of scope.
"""

from __future__ import annotations

import numpy as np

from .numerics import correlate_symmetric, gaussian_kernel

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03
_SSIM_KERNEL = gaussian_kernel(SSIM_SIGMA, SSIM_WINDOW // 2)


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local structural similarity between two images.

    Accepts [H, W] or [C, H, W] (channels are averaged first). Border
    windows are discarded, so images must be at least 11x11.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"image shapes differ: {a.shape} vs {b.shape}")
    if a.ndim == 3:
        a = a.mean(axis=0)
        b = b.mean(axis=0)
    if a.ndim != 2:
        raise ValueError(f"expected [H, W] or [C, H, W], got {a.shape}")
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"image {a.shape} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")

    data_range = max(a.max(), b.max()) - min(a.min(), b.min())
    if data_range == 0.0:
        data_range = 1.0
    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2

    # window-weighted local means; the kernel wraps at the borders, but only
    # the windows a radius from every border are kept, and they read no padding
    mu_a, mu_b, mean_aa, mean_bb, mean_ab = correlate_symmetric(correlate_symmetric(
        np.stack([a, b, a * a, b * b, a * b]), _SSIM_KERNEL, -2), _SSIM_KERNEL, -1)
    var_a = mean_aa - mu_a * mu_a
    var_b = mean_bb - mu_b * mu_b
    cov = mean_ab - mu_a * mu_b

    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    ssim_map = num / den

    r = SSIM_WINDOW // 2
    return float(ssim_map[r:-r, r:-r].mean())


def video_ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean per-frame SSIM between two [N, C, H, W] videos, N >= 1."""
    if a.shape != b.shape or a.ndim != 4 or not len(a):
        raise ValueError("videos must share an [N, C, H, W] shape with N >= 1")
    return float(np.mean([ssim(a[i], b[i]) for i in range(a.shape[0])]))


def flicker_index(video: np.ndarray) -> float:
    """Mean squared difference between consecutive frames of [N, C, H, W]."""
    video = np.asarray(video)
    if video.ndim != 4:
        raise ValueError(f"expected [N, C, H, W], got {video.shape}")
    if video.shape[0] < 2:
        raise ValueError("flicker index needs at least two frames")
    diff = np.diff(video.astype(np.float64), axis=0)
    return float(np.mean(diff * diff))
