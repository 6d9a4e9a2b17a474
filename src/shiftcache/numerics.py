"""Dense-array primitives: the attention mask variants, the sinusoidal
frame encoding, with the integer frame-index check, the separable
smoothing filter, whose one padding mode wraps, the one Gaussian
kernel builder, behind the conditions' smoothing and SSIM's window, the
strided window view behind the oracle's runs of chunks, and the shared
mapping behind a run's latents and feature cache.

Everything here is pure numpy (float32 by default). A mask is the bool
[L, L] array ``cache.build_mask`` returns, True where a key is blocked;
the attention kernel that applies it, giving each blocked key an exact
zero weight after the exp, lives in the denoiser, next to the projections.
"""

from __future__ import annotations

import enum
import mmap

import numpy as np


class MaskVariant(enum.Enum):
    FULL = "full"
    HALF = "half"
    QUARTER = "quarter"
    CAUSAL = "causal"


def as_frame_indices(frames) -> np.ndarray:
    """``frames`` as an array (an integer one passes uncopied); ValueError for
    any other dtype, bool too, unless empty: no index is cast or read as a mask."""
    frames = np.asarray(frames)
    if frames.size and frames.dtype.kind not in "iu":
        raise ValueError(f"frame indices must have an integer dtype, got {frames.dtype}")
    return frames


def shared_zeros(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zeroed array in an anonymous shared mapping, which lives as long as
    it does and which processes forked after it share (mmap maps no 0 bytes)."""
    count = int(np.prod(shape))
    buffer = mmap.mmap(-1, max(np.dtype(dtype).itemsize * count, 1))
    return np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)


def sinusoidal_encoding_batch(frame_indices, dim: int) -> np.ndarray:
    """Interleaved sin/cos codes at geometric frequencies, one row per frame.

    enc[f, 2i] = sin(t_f / 10000^(2i/dim)), enc[f, 2i+1] = cos(same), as
    float32 of shape [len(frame_indices), dim].
    """
    idx = as_frame_indices(frame_indices)
    if idx.ndim != 1:
        raise ValueError("frame_indices must be one-dimensional")
    if np.any(idx < 0):
        raise ValueError("frame indices must be >= 0")
    if dim % 2 != 0 or dim <= 0:
        raise ValueError(f"encoding dim must be a positive even integer, got {dim}")
    half = np.arange(dim // 2, dtype=np.float64)
    freqs = np.power(10000.0, -2.0 * half / dim)
    angles = idx[:, None].astype(np.float64) * freqs[None, :]
    enc = np.empty((idx.shape[0], dim), dtype=np.float64)
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles)
    return enc.astype(np.float32)


def frame_windows(frames: np.ndarray, length: int) -> np.ndarray:
    """A read-only [N - length + 1, length, ...] view of ``frames`` ([N, ...])
    whose window i holds frames i to i + length - 1, copying none."""
    return np.moveaxis(np.lib.stride_tricks.sliding_window_view(frames, length, axis=0), -1, 1)


def gaussian_kernel(sigma: float, radius: int) -> np.ndarray:
    """Gaussian of ``sigma`` over offsets -radius..radius, normalized to sum 1
    as ``scipy.ndimage`` builds ``gaussian_filter``'s kernel (same bits)."""
    kernel = np.exp(-0.5 / sigma ** 2 * np.arange(-radius, radius + 1) ** 2)
    return kernel / kernel.sum()


def correlate_symmetric(x: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Correlate ``x`` along ``axis`` with an odd-length symmetric kernel, in float64.

    With radius r = len(weights) // 2 the result is
    ``out[i] = x[i]*w[r]``, then ``out[i] += (x[i-j] + x[i+j])*w[r-j]`` for
    j = r down to 1, with ``x`` extended periodically past its ends (axes
    shorter than the radius too). That is the summation order of
    ``scipy.ndimage.correlate1d`` for symmetric kernels, so results agree
    with it bit for bit in its ``"wrap"`` mode, and in any mode on the
    outputs at least r from either end, which read no padding.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] % 2 == 0 or not np.array_equal(w, w[::-1]):
        raise ValueError("weights must be a one-dimensional symmetric kernel of odd length")
    x = np.asarray(x, dtype=np.float64)
    axis = axis % x.ndim
    r, n = w.shape[0] // 2, x.shape[axis]
    padded = np.take(x, np.arange(-r, n + r) % n, axis=axis)  # padded position -> x

    def shifted(j):
        """x[i + j] for every output position i."""
        index = [slice(None)] * x.ndim
        index[axis] = slice(r + j, r + j + n)
        return padded[tuple(index)]

    out = shifted(0) * w[r]
    term = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(shifted(-j), shifted(j), out=term)
        term *= w[r - j]
        out += term
    return out
