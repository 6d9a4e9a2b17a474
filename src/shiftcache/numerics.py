"""Dense-array primitives: the attention mask variants, the sinusoidal
frame encoding and the separable smoothing filter.

Everything here is pure numpy (float32 by default). A mask is the bool
[L, L] array ``cache.build_mask`` returns, True where a key is blocked;
the attention kernel that applies it, giving each blocked key an exact
zero weight after the exp, lives in the denoiser, next to the projections.
"""

from __future__ import annotations

import enum

import numpy as np


class MaskVariant(enum.Enum):
    FULL = "full"
    HALF = "half"
    QUARTER = "quarter"
    CAUSAL = "causal"


def sinusoidal_encoding_batch(frame_indices, dim: int) -> np.ndarray:
    """Interleaved sin/cos codes at geometric frequencies, one row per frame.

    enc[f, 2i] = sin(t_f / 10000^(2i/dim)), enc[f, 2i+1] = cos(same), as
    float32 of shape [len(frame_indices), dim].
    """
    idx = np.asarray(frame_indices)
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


def correlate_symmetric(x: np.ndarray, weights: np.ndarray, axis: int, mode: str) -> np.ndarray:
    """Correlate ``x`` along ``axis`` with an odd-length symmetric kernel, in float64.

    With radius r = len(weights) // 2 the result is
    ``out[i] = x[i]*w[r]``, then ``out[i] += (x[i-j] + x[i+j])*w[r-j]`` for
    j = r down to 1. That is the summation order of
    ``scipy.ndimage.correlate1d`` for symmetric kernels, so results agree
    with it bit for bit. ``mode`` extends ``x`` past its ends: ``"wrap"``
    is periodic, ``"edge"`` repeats the end sample (scipy's ``"nearest"``).
    Axes shorter than the radius are extended the same way.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] % 2 == 0 or not np.array_equal(w, w[::-1]):
        raise ValueError("weights must be a one-dimensional symmetric kernel of odd length")
    if mode not in ("wrap", "edge"):
        raise ValueError(f"mode must be 'wrap' or 'edge', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    axis = axis % x.ndim
    r, n = w.shape[0] // 2, x.shape[axis]
    source = np.arange(-r, n + r)  # padded position -> position in x
    source = source % n if mode == "wrap" else np.clip(source, 0, n - 1)
    padded = np.take(x, source, axis=axis)

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
