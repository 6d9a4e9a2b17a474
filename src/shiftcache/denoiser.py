"""Pluggable denoisers.

``ToyDenoiser`` is a small seeded latent network that keeps the structural
commitments that matter for scheduling experiments:

* 13-channel input: 4 noise + 4 masked-video + 1 binary mask + 4 pose maps;
* a shallow stage at full resolution and a deep stage at half resolution,
  with a single cut point whose output can be cached and re-injected;
* per-block: spatial self-attention whose keys/values are extended with
  garment tokens, temporal self-attention over the (H*W) x L x C view with
  sinusoidal frame encodings, then a pointwise MLP;
* partial evaluation that skips the deep stage entirely and substitutes
  cached features, applying a freshness mask to the post-injection
  temporal attention.

``OracleDenoiser`` predicts the exact residual toward a known target and is
frame-local, so scheduling policies must not change its end result.

FLOP counters track matrix-multiply FLOPs (2*m*k*n), which dominate cost;
softmax and normalization traffic is not counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .cache import FreshnessFlags, build_mask
from .diffusion import NoiseSchedule, oracle_eps
from .numerics import AttentionMask, MaskVariant

MLP_RATIO = 2
NORM_EPS = 1e-6

NOISE_CHANNELS = 4
VIDEO_CHANNELS = 4
MASK_CHANNELS = 1
POSE_CHANNELS = 4
INPUT_CHANNELS = NOISE_CHANNELS + VIDEO_CHANNELS + MASK_CHANNELS + POSE_CHANNELS  # 13
EPS_CHANNELS = 4


class FlopTally:
    """Matmul FLOP accumulator with a deep/shallow bucket switch."""

    def __init__(self):
        self.deep = 0
        self.shallow = 0
        self._in_deep = False

    def add(self, flops: int) -> None:
        if self._in_deep:
            self.deep += flops
        else:
            self.shallow += flops

    @property
    def total(self) -> int:
        return self.deep + self.shallow


def _mm(a: np.ndarray, b: np.ndarray, tally: FlopTally | None) -> np.ndarray:
    out = np.matmul(a, b)
    if tally is not None:
        tally.add(2 * a.size * b.shape[-1])
    return out


def _rms_norm(x: np.ndarray) -> np.ndarray:
    sumsq = np.einsum("...c,...c->...", x, x)
    scale = np.sqrt(sumsq / x.shape[-1] + NORM_EPS)
    return x / scale[..., None]


def attention(q, k, v, mask: AttentionMask | None = None,
              tally: FlopTally | None = None) -> np.ndarray:
    """Softmax attention of projected [B, Q, C] queries over [B, K, C]
    keys/values: the one kernel behind spatial and temporal attention.

    The 1/sqrt(C) scale must already be folded into q; the optional [Q, K]
    additive mask is shared across the batch axis. Normalization divides
    the (small) output instead of the logits array, and the usual
    max-subtraction is skipped: inputs are RMS-normalized upstream, which
    bounds |logit| well below float32 exp overflow. Blocked mask entries
    push logits to the bottom of the float range, where exp underflows to
    an exact zero weight.
    """
    logits = np.matmul(q, np.swapaxes(k, -1, -2))
    if tally is not None:
        tally.add(2 * q.size * k.shape[-2])
    if mask is not None:
        if mask.size != k.shape[-2]:
            raise ValueError(f"mask size {mask.size} != sequence length {k.shape[-2]}")
        # adding MASK_BLOCK to bounded logits cannot overflow: the logit is
        # far below one ulp at that magnitude, so the sum rounds back to
        # MASK_BLOCK and exp() underflows it to an exact zero
        logits += mask.matrix
    np.exp(logits, out=logits)
    denom = logits.sum(axis=-1, keepdims=True)
    out = np.matmul(logits, v)
    if tally is not None:
        tally.add(2 * logits.size * v.shape[-1])
    out /= denom
    return out


@dataclass(frozen=True)
class DenoiserInput:
    """One chunk of conditioning, plus where it sits in the video/schedule."""

    noise_latent: np.ndarray        # [L, 4, H, W]
    masked_video_latent: np.ndarray  # [L, 4, H, W]
    binary_mask: np.ndarray          # [L, 1, H, W], values in {0, 1}
    pose_features: np.ndarray        # [L, 4, H, W]
    step_index: int
    frame_offsets: np.ndarray        # [L] absolute frame indices

    @property
    def length(self) -> int:
        return self.noise_latent.shape[0]


@dataclass(frozen=True)
class GarmentCondition:
    """Flattened garment feature tokens used as extra attention keys/values."""

    garment_tokens: np.ndarray  # [M, C_f]; M = 0 disables reference attention

    @property
    def count(self) -> int:
        return self.garment_tokens.shape[0]


def assemble_input(noise, masked_video, mask, pose) -> np.ndarray:
    """Concatenate conditioning into the fixed 13-channel layout.

    Channel order is contractual: [noise(4) | masked video(4) | mask(1) | pose(4)].
    """
    noise = np.asarray(noise)
    masked_video = np.asarray(masked_video)
    mask = np.asarray(mask)
    pose = np.asarray(pose)
    expected = (noise.shape[0], noise.shape[2], noise.shape[3])
    for name, arr, channels in (
        ("noise", noise, NOISE_CHANNELS),
        ("masked_video", masked_video, VIDEO_CHANNELS),
        ("mask", mask, MASK_CHANNELS),
        ("pose", pose, POSE_CHANNELS),
    ):
        if arr.ndim != 4 or arr.shape[1] != channels:
            raise ValueError(f"{name}: expected [L, {channels}, H, W], got {arr.shape}")
        if (arr.shape[0], arr.shape[2], arr.shape[3]) != expected:
            raise ValueError(f"{name}: L/H/W mismatch: {arr.shape} vs noise {noise.shape}")
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError("binary mask must contain only 0 and 1")
    return np.concatenate([noise, masked_video, mask, pose], axis=1)


@dataclass(frozen=True)
class SpatialAttentionWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    wg: np.ndarray | None = None  # garment adapter [C_g, C], None if widths match


@dataclass(frozen=True)
class TemporalAttentionWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray


@dataclass(frozen=True)
class MlpWeights:
    w1: np.ndarray
    w2: np.ndarray


@dataclass(frozen=True)
class BlockWeights:
    spatial: SpatialAttentionWeights
    temporal: TemporalAttentionWeights
    mlp: MlpWeights


def spatial_attention(tokens, garment_tokens, w: SpatialAttentionWeights,
                      tally: FlopTally | None = None) -> np.ndarray:
    """Spatial attention on [L, HW, C] tokens with garment keys/values.

    Queries come from the frame tokens only; keys/values additionally see the
    garment tokens, replicated identically for every frame. Garment tokens
    are RMS-normalized after their adapter so logits stay bounded.
    """
    length, _, channels = tokens.shape
    q = _mm(tokens, w.wq, tally)
    q *= np.asarray(1.0 / np.sqrt(channels), dtype=q.dtype)
    if garment_tokens.shape[0] > 0:
        g = garment_tokens
        if w.wg is not None:
            g = _rms_norm(_mm(g, w.wg, tally))
        if g.shape[-1] != channels:
            raise ValueError(
                f"garment token width {g.shape[-1]} != feature width {channels}"
            )
        g_rep = np.broadcast_to(g[None], (length,) + g.shape)
        kv_src = np.concatenate([tokens, g_rep], axis=1)
    else:
        kv_src = tokens
    k = _mm(kv_src, w.wk, tally)
    v = _mm(kv_src, w.wv, tally)
    out = attention(q, k, v, None, tally)
    return _mm(out, w.wo, tally)


@dataclass(frozen=True)
class ToyDenoiserConfig:
    """Sizing and seeding for the toy denoiser.

    ``deep_cost_share`` is the target fraction of per-chunk matmul FLOPs
    spent in the (cacheable, skippable) deep stage; the default widths and
    block counts are calibrated so the measured share lands within 5% of it
    at the default benchmark shape (L=16, 16x12 latents), and so wall time
    tracks the FLOP split (many narrow deep blocks rather than few wide
    ones, keeping per-block cost comparable across stages).
    """

    shallow_width: int = 8
    deep_width: int = 12
    shallow_blocks: int = 2
    deep_blocks: int = 31
    seed: int = 0
    deep_cost_share: float = 0.75

    def __post_init__(self):
        if self.shallow_blocks < 2:
            raise ValueError("need at least one shallow block before and after the deep stage")
        if self.deep_blocks < 1:
            raise ValueError("need at least one deep block")
        if self.shallow_width % 2 or self.deep_width % 2:
            raise ValueError("widths must be even (sinusoidal encodings pair sin/cos)")
        if not 0.0 < self.deep_cost_share < 1.0:
            raise ValueError("deep_cost_share must lie in (0, 1)")


class ToyDenoiser:
    """Seeded, frozen toy network with a cacheable deep stage."""

    def __init__(self, config: ToyDenoiserConfig):
        self.config = config
        self._pe_cache: dict = {}
        self._cost_cache: dict = {}
        rng = np.random.default_rng(config.seed)
        cf, cd = config.shallow_width, config.deep_width

        def w(fan_in, fan_out):
            return (rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)).astype(np.float32)

        def block(width):
            return BlockWeights(
                spatial=SpatialAttentionWeights(
                    wq=w(width, width), wk=w(width, width),
                    wv=w(width, width), wo=w(width, width),
                    wg=w(cf, width),
                ),
                temporal=TemporalAttentionWeights(
                    wq=w(width, width), wk=w(width, width),
                    wv=w(width, width), wo=w(width, width),
                ),
                mlp=MlpWeights(w1=w(width, MLP_RATIO * width), w2=w(MLP_RATIO * width, width)),
            )

        self.w_in = w(INPUT_CHANNELS, cf)
        n_out = config.shallow_blocks // 2
        n_in = config.shallow_blocks - n_out
        self.shallow_in = [block(cf) for _ in range(n_in)]
        self.shallow_out = [block(cf) for _ in range(n_out)]
        self.w_down = w(cf, cd)
        self.deep = [block(cd) for _ in range(config.deep_blocks)]
        self.w_up = w(cd, cf)
        self.w_out = w(cf, EPS_CHANNELS)

    # -- geometry -----------------------------------------------------------

    def deep_feature_shape(self, h: int, w: int) -> tuple[int, int, int]:
        if h % 2 or w % 2:
            raise ValueError(f"latent dims must be even for the 2x downsample, got {h}x{w}")
        return (self.config.deep_width, h // 2, w // 2)

    # -- sublayers ----------------------------------------------------------

    def _temporal(self, tokens, weights: TemporalAttentionWeights, pos_enc,
                  mask: AttentionMask | None, tally) -> np.ndarray:
        """Temporal self-attention over the [(HW), L, C] view of [L, HW, C] tokens."""
        x = np.ascontiguousarray(tokens.transpose(1, 0, 2))  # [HW, L, C]
        n = _rms_norm(x)
        n += pos_enc[None, :, :]
        q = _mm(n, weights.wq, tally)
        q *= np.float32(1.0 / np.sqrt(n.shape[-1]))
        k = _mm(n, weights.wk, tally)
        v = _mm(n, weights.wv, tally)
        out = attention(q, k, v, mask, tally)
        x += _mm(out, weights.wo, tally)
        return np.ascontiguousarray(x.transpose(1, 0, 2))

    def _block(self, tokens, weights: BlockWeights, g_tokens, pos_enc,
               mask: AttentionMask | None, tally) -> np.ndarray:
        tokens = tokens + spatial_attention(_rms_norm(tokens), g_tokens,
                                            weights.spatial, tally)
        tokens = self._temporal(tokens, weights.temporal, pos_enc, mask, tally)
        hidden = _mm(_rms_norm(tokens), weights.mlp.w1, tally)
        np.maximum(hidden, 0.0, out=hidden)
        tokens = tokens + _mm(hidden, weights.mlp.w2, tally)
        return tokens

    # -- stages -------------------------------------------------------------

    def _pos_enc(self, offsets, width: int) -> np.ndarray:
        # chunk offset patterns repeat every sampling step; memoize them
        offsets = np.ascontiguousarray(np.asarray(offsets, dtype=np.int64))
        key = (offsets.tobytes(), width)
        cache = self._pe_cache
        hit = cache.get(key)
        if hit is None:
            if len(cache) > 8192:
                cache.clear()
            hit = numerics.sinusoidal_encoding_batch(offsets, width)
            cache[key] = hit
        return hit

    def _shallow_in(self, inp: DenoiserInput, garment: GarmentCondition,
                    mask, tally):
        if len(inp.frame_offsets) != inp.length:
            raise ValueError("frame_offsets length must match chunk length")
        x = assemble_input(inp.noise_latent, inp.masked_video_latent,
                           inp.binary_mask, inp.pose_features)
        length, _, h, w = x.shape
        tokens = np.ascontiguousarray(x.transpose(0, 2, 3, 1).reshape(length, h * w, INPUT_CHANNELS))
        tokens = _mm(tokens, self.w_in, tally)
        g = np.asarray(garment.garment_tokens, dtype=np.float32)
        pe = self._pos_enc(inp.frame_offsets, self.config.shallow_width)
        for blk in self.shallow_in:
            tokens = self._block(tokens, blk, g, pe, mask, tally)
        return tokens, g, (h, w)

    def _deep_stage(self, tokens, g, hw, offsets, mask, tally) -> np.ndarray:
        h, w = hw
        length = tokens.shape[0]
        cf = self.config.shallow_width
        grid = tokens.reshape(length, h // 2, 2, w // 2, 2, cf)
        pooled = grid.mean(axis=(2, 4)).reshape(length, (h // 2) * (w // 2), cf)
        d = _mm(pooled, self.w_down, tally)
        pe = self._pos_enc(offsets, self.config.deep_width)
        for blk in self.deep:
            d = self._block(d, blk, g, pe, mask, tally)
        return d  # [L, (H/2)(W/2), C_d]

    def _shallow_out(self, tokens, deep_tokens, g, hw, offsets, mask, tally) -> np.ndarray:
        h, w = hw
        length = tokens.shape[0]
        cf = self.config.shallow_width
        up = _mm(deep_tokens, self.w_up, tally)
        up = up.reshape(length, h // 2, w // 2, cf)
        up = np.repeat(np.repeat(up, 2, axis=1), 2, axis=2).reshape(length, h * w, cf)
        tokens = tokens + up
        pe = self._pos_enc(offsets, self.config.shallow_width)
        for blk in self.shallow_out:
            tokens = self._block(tokens, blk, g, pe, mask, tally)
        out = _mm(_rms_norm(tokens), self.w_out, tally)
        return np.ascontiguousarray(
            out.reshape(length, h, w, EPS_CHANNELS).transpose(0, 3, 1, 2)
        )

    @staticmethod
    def _deep_to_feats(deep_tokens, hw) -> np.ndarray:
        h, w = hw
        length, _, cd = deep_tokens.shape
        return np.ascontiguousarray(
            deep_tokens.reshape(length, h // 2, w // 2, cd).transpose(0, 3, 1, 2)
        )

    @staticmethod
    def _feats_to_deep(feats) -> np.ndarray:
        length, cd = feats.shape[0], feats.shape[1]
        return np.ascontiguousarray(
            feats.transpose(0, 2, 3, 1).reshape(length, -1, cd)
        )

    # -- public entry points --------------------------------------------------

    def denoise_full(self, inp: DenoiserInput, garment: GarmentCondition,
                     mask: AttentionMask | None = None,
                     tally: FlopTally | None = None):
        """Full forward pass. Returns (eps [L,4,H,W], deep features [L,C_d,H/2,W/2])."""
        tokens, g, hw = self._shallow_in(inp, garment, mask, tally)
        if tally is not None:
            tally._in_deep = True
        deep_tokens = self._deep_stage(tokens, g, hw, inp.frame_offsets, mask, tally)
        if tally is not None:
            tally._in_deep = False
        eps = self._shallow_out(tokens, deep_tokens, g, hw, inp.frame_offsets, mask, tally)
        if not np.all(np.isfinite(eps)):
            raise FloatingPointError("denoiser produced non-finite output")
        return eps, self._deep_to_feats(deep_tokens, hw)

    def denoise_partial(self, inp: DenoiserInput, cached: np.ndarray,
                        flags: FreshnessFlags, mask_variant: MaskVariant,
                        garment: GarmentCondition,
                        tally: FlopTally | None = None) -> np.ndarray:
        """Partial pass: shallow-in, cached [L,C_d,H/2,W/2] deep features,
        masked shallow-out.

        The deep stage never runs (and its FLOP bucket is untouched); the
        freshness mask applies to temporal attention after the injection.
        """
        length = inp.length
        if len(flags) != length:
            raise ValueError(f"flags length {len(flags)} != chunk length {length}")
        h, w = inp.noise_latent.shape[2], inp.noise_latent.shape[3]
        expected = (length,) + self.deep_feature_shape(h, w)
        if cached.shape != expected:
            raise ValueError(
                f"cached deep features shape {cached.shape} != expected {expected}"
            )
        mask = build_mask(mask_variant, flags)
        tokens, g, hw = self._shallow_in(inp, garment, None, tally)
        deep_tokens = self._feats_to_deep(cached)
        eps = self._shallow_out(tokens, deep_tokens, g, hw, inp.frame_offsets, mask, tally)
        if not np.all(np.isfinite(eps)):
            raise FloatingPointError("denoiser produced non-finite output")
        return eps

    # -- cost model -----------------------------------------------------------

    def chunk_cost(self, length: int, h: int, w: int, garment_count: int):
        """Measured matmul FLOPs for one chunk: (full deep, full shallow,
        partial shallow). Runs tiny zero-input evaluations once per shape."""
        key = (length, h, w, garment_count)
        cache = self._cost_cache
        if key not in cache:
            zeros = np.zeros((length, 4, h, w), dtype=np.float32)
            inp = DenoiserInput(
                noise_latent=zeros,
                masked_video_latent=zeros,
                binary_mask=np.zeros((length, 1, h, w), dtype=np.float32),
                pose_features=zeros,
                step_index=0,
                frame_offsets=np.arange(length),
            )
            garment = GarmentCondition(
                garment_tokens=np.zeros((garment_count, self.config.shallow_width),
                                        dtype=np.float32))
            full_tally = FlopTally()
            _, feats = self.denoise_full(inp, garment, tally=full_tally)
            part_tally = FlopTally()
            flags = FreshnessFlags(good=np.ones(length, dtype=bool))
            self.denoise_partial(inp, feats, flags, MaskVariant.FULL, garment,
                                 tally=part_tally)
            cache[key] = (full_tally.deep, full_tally.shallow, part_tally.shallow)
        return cache[key]

    def deep_share(self, length: int, h: int, w: int, garment_count: int) -> float:
        deep, shallow, _ = self.chunk_cost(length, h, w, garment_count)
        return deep / (deep + shallow)


class OracleDenoiser:
    """Frame-local analytic denoiser steering toward a fixed target video."""

    def __init__(self, target_x0: np.ndarray, sched: NoiseSchedule):
        self.target_x0 = target_x0
        self.sched = sched

    def eps_for(self, noise_latent: np.ndarray, step_index: int, frames) -> np.ndarray:
        """The oracle residual for the target frames ``frames`` selects: a
        slice (a view, no copy) or an index array."""
        return oracle_eps(noise_latent, step_index, self.target_x0[frames], self.sched)
