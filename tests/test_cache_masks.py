import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcache.cache import FeatureCache, build_mask
from shiftcache.denoiser import attention
from shiftcache.numerics import MaskVariant

SLICE = (3, 2, 2)
N_FRAMES = 16


def _feats(value, frames=1):
    return np.full((frames,) + SLICE, value, dtype=np.float32)


def _cache():
    return FeatureCache(N_FRAMES, SLICE)


class TestFeatureCache:
    def test_store_then_fetch(self):
        cache = _cache()
        cache.store_block(0, _feats(1.0))
        np.testing.assert_array_equal(cache.fetch([0]), _feats(1.0), strict=True)

    def test_last_writer_wins(self):
        cache = _cache()
        cache.store_block(5, _feats(1.0))
        cache.store_block(5, _feats(2.0))
        np.testing.assert_array_equal(cache.fetch([5]), _feats(2.0))

    @pytest.mark.parametrize("frame", [-1, -N_FRAMES, N_FRAMES, N_FRAMES + 3])
    def test_frame_outside_cache_rejected_naming_it(self, frame):
        # a negative index must not wrap to a frame at the end of the video
        cache = _cache()
        cache.store_block(0, _feats(1.0, frames=N_FRAMES))
        with pytest.raises(ValueError, match=f"frame {frame} outside the cache's {N_FRAMES} frames"):
            cache.fetch([0, frame])

    @pytest.mark.parametrize("frames", [np.array([True, False]), [1.7, 2.2]])
    def test_non_integer_frames_rejected(self, frames):
        # numpy would read the bools as a mask and truncate the floats
        with pytest.raises(ValueError, match="integer dtype"):
            _cache().fetch(frames)

    def test_empty_fetch_rejected(self):
        with pytest.raises(ValueError, match="at least one frame"):
            _cache().fetch([])

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError, match="^store_block needs at least one frame$"):
            _cache().store_block(3, np.zeros((0,) + SLICE, dtype=np.float32))

    def test_slice_shape_enforced(self):
        cache = _cache()
        with pytest.raises(ValueError, match="slice shape"):
            cache.store_block(1, np.zeros((1, 3, 2, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="dtype"):
            cache.store_block(1, np.zeros((1,) + SLICE))
        with pytest.raises(ValueError, match="outside"):
            cache.store_block(N_FRAMES - 1, _feats(1.0, frames=2))

    def test_store_block_matches_per_frame_store(self):
        block = np.random.default_rng(0).standard_normal((4,) + SLICE).astype(np.float32)
        a, b = _cache(), _cache()
        a.store_block(10, block)
        for i in range(4):
            b.store_block(10 + i, block[i:i + 1])
        np.testing.assert_array_equal(a.fetch(range(10, 14)), b.fetch(range(10, 14)))

    def test_store_block_copies(self):
        block = np.ones((2,) + SLICE, dtype=np.float32)
        cache = _cache()
        cache.store_block(0, block)
        block[:] = 7.0
        feats = cache.fetch([0, 1])
        np.testing.assert_array_equal(feats, np.ones((2,) + SLICE, dtype=np.float32))
        feats[:] = 9.0  # fetch returns a copy, not a view of the cache
        np.testing.assert_array_equal(cache.fetch([0, 1]), np.ones((2,) + SLICE))


def flags_of(pattern: str) -> np.ndarray:
    return np.array([c == "g" for c in pattern])


def assert_mask_structure(good: np.ndarray) -> None:
    """What every variant's mask must be for the freshness ``good``."""
    length = len(good)
    for variant in MaskVariant:
        blocked = build_mask(variant, good)
        assert blocked.shape == (length, length)
        assert blocked.dtype == bool
        # no fully blocked query rows after fallback
        assert not np.any(blocked.all(axis=1))
        if variant is MaskVariant.FULL or (variant is MaskVariant.HALF and not good.any()):
            assert not blocked.any()
        elif variant is MaskVariant.HALF:
            # column k fully blocked iff frame k is bad
            np.testing.assert_array_equal(blocked.all(axis=0), ~good)
            # the good-query submatrix of quarter equals half's
            quarter = build_mask(MaskVariant.QUARTER, good)
            np.testing.assert_array_equal(quarter[good], blocked[good])
        elif variant is MaskVariant.QUARTER:
            assert not blocked[~good].any()  # bad queries unrestricted
        else:
            k_idx = np.arange(length)
            np.testing.assert_array_equal(blocked, k_idx[None, :] < k_idx[:, None])


class TestBuildMask:
    def test_half_reference_pattern(self):
        blocked = build_mask(MaskVariant.HALF, flags_of("bbgg"))
        np.testing.assert_array_equal(blocked, [[True, True, False, False]] * 4)

    def test_quarter_reference_pattern(self):
        blocked = build_mask(MaskVariant.QUARTER, flags_of("bbgg"))
        np.testing.assert_array_equal(blocked, [[False] * 4, [False] * 4,
                                                [True, True, False, False],
                                                [True, True, False, False]])

    def test_full_is_all_zero(self):
        blocked = build_mask(MaskVariant.FULL, flags_of("bgbg"))
        np.testing.assert_array_equal(blocked, np.zeros((4, 4), dtype=bool))

    def test_causal_upper_triangular_including_diagonal(self):
        blocked = build_mask(MaskVariant.CAUSAL, flags_of("bbgg"))
        for q in range(4):
            for k in range(4):
                assert blocked[q, k] == (k < q)

    def test_half_all_bad_degrades_to_full(self):
        blocked = build_mask(MaskVariant.HALF, flags_of("bbbb"))
        np.testing.assert_array_equal(blocked, np.zeros((4, 4), dtype=bool))

    @pytest.mark.parametrize("good", [
        np.array([], dtype=bool),             # empty
        np.ones((2, 2), dtype=bool),          # not 1-D
        np.array([1, 0, 1]),                  # ints: no silent bool coercion
        np.array([1.0, 0.0]),
        [True, False],                        # not an array
    ], ids=["empty", "2d", "int", "float", "list"])
    def test_anything_but_a_nonempty_1d_bool_array_rejected(self, good):
        for variant in MaskVariant:
            with pytest.raises(ValueError, match="non-empty 1-D bool array"):
                build_mask(variant, good)

    @given(pattern=st.lists(st.booleans(), min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_structure_properties(self, pattern):
        assert_mask_structure(np.array(pattern))

    def test_structure_properties_on_every_pattern_up_to_length_8(self):
        patterns = [np.array(bits) for length in range(1, 9)
                    for bits in itertools.product([False, True], repeat=length)]
        assert len(patterns) == 510
        for good in patterns:
            assert_mask_structure(good)

    def test_half_blocks_bad_value_perturbations_exactly(self):
        # behavioral information-flow check: bad keys carry exactly zero
        # weight, so perturbing a bad frame's value input changes nothing
        rng = np.random.default_rng(11)
        good = flags_of("bgbggb")
        mask = build_mask(MaskVariant.HALF, good)
        L = 6
        q = rng.standard_normal((3, L, 8)).astype(np.float32)
        k = rng.standard_normal((3, L, 8)).astype(np.float32)
        v = rng.standard_normal((3, L, 8)).astype(np.float32)
        base = attention(q, k, v, mask)
        v2 = v.copy()
        v2[:, ~good, :] += 100.0
        np.testing.assert_array_equal(attention(q, k, v2, mask), base)

    def test_full_mask_equals_unmasked_attention(self):
        rng = np.random.default_rng(12)
        mask = build_mask(MaskVariant.FULL, flags_of("gbgb"))
        q = rng.standard_normal((2, 4, 6)).astype(np.float32)
        k = rng.standard_normal((2, 4, 6)).astype(np.float32)
        v = rng.standard_normal((2, 4, 6)).astype(np.float32)
        np.testing.assert_allclose(attention(q, k, v, mask), attention(q, k, v), atol=1e-6)


def test_unknown_mask_variant_refused():
    with pytest.raises(ValueError, match="^unknown mask variant: 'half'$"):
        build_mask("half", np.array([True, False]))
