"""Desk-scale evaluation: SSIM, a flicker index, and the FLOP-based
throughput model used to compare scheduling policies.

SSIM uses the standard 11x11 Gaussian window (sigma 1.5, K1=0.01,
K2=0.03) over valid windows only, with the dynamic range taken from the
data. The flicker index is the mean squared difference between
consecutive frames; it stands in for learned temporal-consistency
metrics, which need pretrained networks and are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import correlate_symmetric
from .scheduler import RunStats, plan_overlap

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _gaussian_window(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return g / g.sum()


def _windowed_mean(img: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Window-weighted local means over the last two axes."""
    out = correlate_symmetric(img, window, -2, "edge")
    return correlate_symmetric(out, window, -1, "edge")


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

    mu_a, mu_b, mean_aa, mean_bb, mean_ab = _windowed_mean(
        np.stack([a, b, a * a, b * b, a * b]), _gaussian_window())
    var_a = mean_aa - mu_a * mu_a
    var_b = mean_bb - mu_b * mu_b
    cov = mean_ab - mu_a * mu_b

    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    ssim_map = num / den

    r = SSIM_WINDOW // 2
    return float(ssim_map[r:-r, r:-r].mean())


def video_ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean per-frame SSIM between two [N, C, H, W] videos."""
    if a.shape != b.shape or a.ndim != 4:
        raise ValueError("videos must share an [N, C, H, W] shape")
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


def throughput_model(stats: RunStats, denoiser) -> float:
    """Predicted throughput of a run relative to the S=0 full-compute baseline.

    Both sides are matmul-FLOP totals: the baseline is reconstructed from the
    run's geometry (ceil(N/L) full chunks per step), the run's own total comes
    from its counters. A value of 2.0 means "predicted twice the frames/sec
    of the baseline".
    """
    if stats.total_flops <= 0:
        raise ValueError("run recorded no FLOPs; cannot model throughput")
    baseline_chunks = len(plan_overlap(stats.n_total, stats.chunk_len, 0))
    deep, shallow = denoiser.chunk_cost(
        stats.chunk_len, stats.latent_h, stats.latent_w, stats.garment_count)
    baseline_total = stats.steps * baseline_chunks * (deep + shallow)
    return baseline_total / stats.total_flops


@dataclass
class BenchRecord:
    """One benchmark run, serialized as one CSV row by the CLI."""

    config: str
    policy: str
    s: int
    delta: int
    partial_frac: float
    mask: str
    full_chunks: int
    partial_chunks: int
    deep_flops: int
    shallow_flops: int
    wall_ms: float
    frames: int
    fps_proxy: float
    flicker: float
    ssim_vs_reference: float | None = None

    def __post_init__(self):
        if self.fps_proxy <= 0:
            raise ValueError("fps_proxy must be positive")
        if self.flicker < 0:
            raise ValueError("flicker must be non-negative")
        if self.ssim_vs_reference is not None and not -1.0 <= self.ssim_vs_reference <= 1.0:
            raise ValueError("ssim must lie in [-1, 1]")
