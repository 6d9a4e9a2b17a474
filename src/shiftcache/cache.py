"""Per-frame deep-feature store and the temporal-attention mask builders.

Freshness is counted in sampling-step positions: a frame fully computed at
step position ``k`` and reused at position ``k + d`` has staleness ``d``.
Staleness 1 is "good", staleness 2 is "bad". The cache holds features
only: the run's ``FreshnessRecord``, filled by the marking pass of
``build_plans``, says how stale each reused frame is, and that pass
guarantees the cap is never exceeded (``tests/test_cache_reads.py``
checks this on the engine's runs). The features live in a shared mapping, so processes
forked after the cache is made store and fetch them as its maker does.
"""

from __future__ import annotations

import numpy as np

from .numerics import MaskVariant, as_frame_indices, shared_zeros

GOOD_MAX_STALENESS = 1


class FeatureCache:
    """Deep features of every frame in one preallocated, shared [N, ...slice] array."""

    def __init__(self, n_frames: int, slice_shape: tuple[int, ...], dtype=np.float32):
        self._feats = shared_zeros((n_frames,) + tuple(slice_shape), dtype)

    def store_block(self, first_frame: int, feats: np.ndarray) -> None:
        """Copy consecutive frames [first_frame, first_frame + len(feats))
        from one [L, ...slice] array into the cache; ValueError for no frames."""
        if len(feats) == 0:
            raise ValueError("store_block needs at least one frame")
        stop = first_frame + len(feats)
        if feats.shape[1:] != self._feats.shape[1:]:
            raise ValueError(f"feature slice shape {feats.shape[1:]} != cache slice "
                             f"shape {self._feats.shape[1:]}")
        if feats.dtype != self._feats.dtype:
            raise ValueError(f"feature dtype {feats.dtype} != cache dtype {self._feats.dtype}")
        if not 0 <= first_frame < stop <= len(self._feats):
            raise ValueError(f"frames [{first_frame}, {stop}) outside the cache's "
                             f"{len(self._feats)} frames")
        self._feats[first_frame:stop] = feats

    def fetch(self, frames) -> np.ndarray:
        """A copy of the features for ``frames``, [len(frames), ...slice].
        Raises ValueError for no frames, a frame outside the cache or a
        dtype other than an integer one."""
        frames = as_frame_indices(frames)
        if frames.size == 0:
            raise ValueError("fetch needs at least one frame")
        outside = (frames < 0) | (frames >= len(self._feats))
        if np.any(outside):
            raise ValueError(f"frame {int(frames[np.argmax(outside)])} outside the cache's "
                             f"{len(self._feats)} frames")
        return self._feats[frames]


def build_mask(variant: MaskVariant, good: np.ndarray) -> np.ndarray:
    """[L, L] bool mask for one chunk, True where query row q may not attend
    to key column k, from its non-empty 1-D bool freshness array (True =
    good); anything else is a ValueError. ``attention`` gives each blocked
    key an exact zero weight after the exp.

    full:    every frame attends to every frame.
    half:    every query attends exactly to the good frames.
    quarter: bad queries attend to everything; good queries only to good.
    causal:  query q attends to keys k >= q in chunk order.

    A variant that would leave some query with no open key (half with zero
    good frames) degrades to full for that chunk.
    """
    if not isinstance(good, np.ndarray) or good.dtype != bool or good.ndim != 1 or not good.size:
        raise ValueError(f"freshness must be a non-empty 1-D bool array, got {good!r}")
    if not isinstance(variant, MaskVariant):
        raise ValueError(f"unknown mask variant: {variant!r}")
    length = len(good)
    if variant is MaskVariant.CAUSAL:
        return np.tri(length, k=-1, dtype=bool)
    blocked = np.zeros((length, length), dtype=bool)
    if variant is MaskVariant.HALF and good.any():
        blocked[:] = ~good
    elif variant is MaskVariant.QUARTER:
        blocked[good] = ~good
    return blocked
