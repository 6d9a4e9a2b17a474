"""Pluggable denoisers.

``ToyDenoiser`` is a small seeded latent network that keeps the structural
commitments that matter for scheduling experiments:

* 13-channel input: 4 noise + 4 masked-video + 1 binary mask + 4 pose maps;
* a shallow stage at full resolution and a deep stage at half resolution,
  with a single cut point whose output can be cached and re-injected;
* per-block: spatial self-attention whose keys/values are extended with
  garment tokens, temporal self-attention over the (H*W) x L x C view with
  sinusoidal frame encodings, both through the one attention sublayer
  ``attend``, then a pointwise MLP;
* partial evaluation that skips the deep stage entirely and substitutes
  cached features, applying a freshness mask to the post-injection
  temporal attention.

``OracleDenoiser`` predicts the exact residual toward a known target and is
frame-local, so scheduling policies must not change its end result.

``ToyDenoiser.chunk_cost`` counts matrix-multiply FLOPs (2*m*k*n), which
dominate cost, in closed form from a chunk's shape, sublayer by sublayer
(``block_flops``); softmax and normalization traffic is not counted. The
forward pass keeps no counters.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import numerics
from .cache import build_mask
from .diffusion import NoiseSchedule, step_scales
from .numerics import MaskVariant, frame_windows

MLP_RATIO = 2
NORM_EPS = 1e-6

NOISE_CHANNELS = 4
VIDEO_CHANNELS = 4
MASK_CHANNELS = 1
POSE_CHANNELS = 4
INPUT_CHANNELS = NOISE_CHANNELS + VIDEO_CHANNELS + MASK_CHANNELS + POSE_CHANNELS  # 13
EPS_CHANNELS = 4


def _rms_norm(x: np.ndarray) -> np.ndarray:
    sumsq = np.einsum("...c,...c->...", x, x)
    scale = np.sqrt(sumsq / x.shape[-1] + NORM_EPS)
    return x / scale[..., None]


def attention(q, k, v, mask: np.ndarray | None = None) -> np.ndarray:
    """Softmax attention of projected [B, Q, C] queries over [B, K, C]
    keys/values: the one kernel behind spatial and temporal attention.

    The 1/sqrt(C) scale must already be folded into q, as ``attend``
    does; the optional [Q, K] bool mask of ``build_mask`` is shared across
    the batch axis and multiplies the weights after the exp, so each
    blocked key gets an exact zero weight. Normalization divides the
    (small) output instead of the logits array, and the usual
    max-subtraction is skipped: inputs are RMS-normalized upstream, which
    bounds |logit|, blocked or open, well below float32 exp overflow.
    """
    logits = np.matmul(q, np.swapaxes(k, -1, -2))
    np.exp(logits, out=logits)
    if mask is not None:
        logits *= ~mask
    denom = logits.sum(axis=-1, keepdims=True)
    out = np.matmul(logits, v)
    out /= denom
    return out


def assemble_input(noise, masked_video, mask, pose) -> np.ndarray:
    """Concatenate one chunk's [L, c, H, W] conditioning into the denoiser's
    [L, 13, H, W] input. Channel order is contractual:
    [noise(4) | masked video(4) | mask(1) | pose(4)]. Shapes and the 0/1
    mask are checked once per run, by ``Conditions.check``.
    """
    return np.concatenate([noise, masked_video, mask, pose], axis=1)


@dataclass(frozen=True)
class AttentionWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray


@dataclass(frozen=True)
class BlockWeights:
    spatial: AttentionWeights
    adapter: np.ndarray  # garment adapter [C_f, C]
    temporal: AttentionWeights
    w1: np.ndarray       # MLP [C, MLP_RATIO * C]
    w2: np.ndarray       # MLP [MLP_RATIO * C, C]


def attend(queries, keys, w: AttentionWeights, mask: np.ndarray | None = None) -> np.ndarray:
    """One attention sublayer: [B, Q, C] queries over [B, K, C] keys (which
    are also the values) through the q/k/v/o projections of ``w``, with q
    scaled by 1/sqrt(C) in its own dtype, and the optional [Q, K] mask."""
    q = np.matmul(queries, w.wq)
    q *= np.asarray(1.0 / np.sqrt(q.shape[-1]), dtype=q.dtype)
    k = np.matmul(keys, w.wk)
    v = np.matmul(keys, w.wv)
    return np.matmul(attention(q, k, v, mask), w.wo)


def spatial_attention(tokens, garment_tokens, adapter, w: AttentionWeights) -> np.ndarray:
    """Spatial attention on [L, HW, C] tokens with garment keys/values.

    Queries come from the frame tokens only; keys/values additionally see the
    garment tokens, replicated identically for every frame. Garment tokens
    pass through their ``adapter``, then RMS normalization so logits stay
    bounded.
    """
    g = _rms_norm(np.matmul(garment_tokens, adapter))
    g_rep = np.broadcast_to(g[None], (tokens.shape[0],) + g.shape)
    return attend(tokens, np.concatenate([tokens, g_rep], axis=1), w)


def block_flops(length: int, tokens: int, width: int, garment_count: int,
                garment_width: int) -> dict[str, int]:
    """Matmul FLOPs (2*m*k*n each) of one block's sublayers over ``length``
    frames of ``tokens`` tokens of ``width`` channels, with ``garment_count``
    garment tokens of ``garment_width`` channels."""
    lt, keys = length * tokens, tokens + garment_count
    return {
        # q, o; garment adapter; k, v over frame + garment tokens; logits, sum
        "spatial": (4 * lt * width ** 2 + 2 * garment_count * garment_width * width
                    + 4 * length * keys * width ** 2 + 4 * lt * width * keys),
        # q, k, v, o; L x L logits and weighted sum per token
        "temporal": 8 * lt * width ** 2 + 4 * tokens * length ** 2 * width,
        "mlp": 4 * MLP_RATIO * lt * width ** 2,
    }


# The values a config field with a default of each type accepts, as the
# JSON config does: a bool is no number, and an int passes for a float.
_KINDS = {bool: (bool, np.bool_), int: numbers.Integral, float: numbers.Real}


def check_field_types(config, prefix: str = "") -> None:
    """Raise ValueError naming the first field of the dataclass ``config``
    whose default is a bool, int or float and whose value is not of that
    kind (numpy scalars pass); ``prefix`` goes before the field's name."""
    for f in fields(config):
        value, kind = getattr(config, f.name), type(f.default)
        if kind in _KINDS and (not isinstance(value, _KINDS[kind])
                               or kind is not bool and isinstance(value, bool)):
            raise ValueError(f"{prefix}{f.name} must be {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class ToyDenoiserConfig:
    """Sizing and seeding for the toy denoiser.

    The default widths and block counts are calibrated so the (cacheable,
    skippable) deep stage takes 0.75 of per-chunk matmul FLOPs, within 5%,
    at the default benchmark shape (L=16, 16x12 latents), and so wall time
    tracks the FLOP split (many narrow deep blocks rather than few wide
    ones, keeping per-block cost comparable across stages).
    """

    shallow_width: int = 8
    deep_width: int = 12
    shallow_blocks: int = 2
    deep_blocks: int = 31
    seed: int = 0

    def __post_init__(self):
        check_field_types(self, "toy.")
        if self.shallow_blocks < 2:
            raise ValueError("need at least one shallow block before and after the deep stage")
        if self.deep_blocks < 1:
            raise ValueError("need at least one deep block")
        if any(width < 2 or width % 2 for width in (self.shallow_width, self.deep_width)):
            raise ValueError("widths must be even and >= 2 (sinusoidal encodings pair sin/cos)")
        if self.seed < 0:
            raise ValueError("toy.seed must be >= 0")


class ToyDenoiser:
    """Seeded, frozen toy network with a cacheable deep stage; it holds its
    config and weights only, so an output depends on its call alone."""

    def __init__(self, config: ToyDenoiserConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        cf, cd = config.shallow_width, config.deep_width

        def w(fan_in, fan_out):
            return (rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)).astype(np.float32)

        def attention_weights(width):  # drawn q, k, v, o
            return AttentionWeights(*(w(width, width) for _ in range(4)))

        def block(width):
            # the seeded weights depend on this draw order
            return BlockWeights(spatial=attention_weights(width), adapter=w(cf, width),
                                temporal=attention_weights(width),
                                w1=w(width, MLP_RATIO * width), w2=w(MLP_RATIO * width, width))

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

    def deep_feature_shape(self, h: int, w: int) -> tuple[int, int]:
        """Per-frame shape of the deep stage's output and the cache unit:
        [(H/2)(W/2), C_d] tokens."""
        if h % 2 or w % 2:
            raise ValueError(f"latent dims must be even for the 2x downsample, got {h}x{w}")
        return ((h // 2) * (w // 2), self.config.deep_width)

    # -- sublayers ----------------------------------------------------------

    def _block(self, tokens, weights: BlockWeights, g_tokens, pos_enc,
               mask: np.ndarray | None) -> np.ndarray:
        tokens = tokens + spatial_attention(_rms_norm(tokens), g_tokens, weights.adapter,
                                            weights.spatial)
        # temporal self-attention over the [(HW), L, C] view
        x = np.ascontiguousarray(tokens.transpose(1, 0, 2))
        n = _rms_norm(x)
        n += pos_enc[None, :, :]
        x += attend(n, n, weights.temporal, mask)
        tokens = np.ascontiguousarray(x.transpose(1, 0, 2))
        hidden = np.matmul(_rms_norm(tokens), weights.w1)
        np.maximum(hidden, 0.0, out=hidden)
        return tokens + np.matmul(hidden, weights.w2)

    # -- stages -------------------------------------------------------------

    def _shallow_in(self, x, pe, garment):
        if x.ndim != 4 or x.shape[1] != INPUT_CHANNELS or len(pe) != x.shape[0]:
            raise ValueError(f"expected x [L, {INPUT_CHANNELS}, H, W] and L offsets, "
                             f"got {x.shape} and {len(pe)}")
        length, _, h, w = x.shape
        tokens = np.ascontiguousarray(x.transpose(0, 2, 3, 1).reshape(length, h * w, INPUT_CHANNELS))
        tokens = np.matmul(tokens, self.w_in)
        for blk in self.shallow_in:
            tokens = self._block(tokens, blk, garment, pe, None)
        return tokens, (h, w)

    def _deep_stage(self, tokens, garment, hw, offsets) -> np.ndarray:
        h, w = hw
        length = tokens.shape[0]
        cf = self.config.shallow_width
        grid = tokens.reshape(length, h // 2, 2, w // 2, 2, cf)
        pooled = grid.mean(axis=(2, 4)).reshape(length, (h // 2) * (w // 2), cf)
        d = np.matmul(pooled, self.w_down)
        pe = numerics.sinusoidal_encoding_batch(offsets, self.config.deep_width)
        for blk in self.deep:
            d = self._block(d, blk, garment, pe, None)
        return d  # [L, (H/2)(W/2), C_d]

    def _shallow_out(self, tokens, deep_tokens, garment, hw, pe, mask) -> np.ndarray:
        h, w = hw
        length = tokens.shape[0]
        cf = self.config.shallow_width
        up = np.matmul(deep_tokens, self.w_up)
        up = up.reshape(length, h // 2, w // 2, cf)
        up = np.repeat(np.repeat(up, 2, axis=1), 2, axis=2).reshape(length, h * w, cf)
        tokens = tokens + up
        for blk in self.shallow_out:
            tokens = self._block(tokens, blk, garment, pe, mask)
        out = np.matmul(_rms_norm(tokens), self.w_out)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("denoiser produced non-finite output")
        return np.ascontiguousarray(
            out.reshape(length, h, w, EPS_CHANNELS).transpose(0, 3, 1, 2)
        )

    # -- public entry points --------------------------------------------------

    def denoise_full(self, x: np.ndarray, offsets: np.ndarray, garment: np.ndarray):
        """Full forward pass over the [L, 13, H, W] ``x`` of ``assemble_input``,
        at the [L] absolute frame indices ``offsets`` (an integer dtype, else
        ValueError), with [M, C_f] garment tokens. Returns (eps [L,4,H,W],
        deep features [L,(H/2)(W/2),C_d]), encoding ``offsets`` per call."""
        pe = numerics.sinusoidal_encoding_batch(offsets, self.config.shallow_width)
        tokens, hw = self._shallow_in(x, pe, garment)
        deep_tokens = self._deep_stage(tokens, garment, hw, offsets)
        return self._shallow_out(tokens, deep_tokens, garment, hw, pe, None), deep_tokens

    def denoise_partial(self, x: np.ndarray, offsets: np.ndarray, cached: np.ndarray,
                        good: np.ndarray, mask_variant: MaskVariant,
                        garment: np.ndarray) -> np.ndarray:
        """Partial pass: shallow-in, cached [L,(H/2)(W/2),C_d] deep features,
        masked shallow-out. ``x``, ``offsets`` and ``garment`` are as for
        ``denoise_full``; ``good`` is the chunk's [L] bool freshness.

        The deep stage never runs; the freshness mask applies to temporal
        attention after the injection.
        """
        pe = numerics.sinusoidal_encoding_batch(offsets, self.config.shallow_width)
        tokens, hw = self._shallow_in(x, pe, garment)
        length = len(tokens)
        if len(good) != length:
            raise ValueError(f"freshness length {len(good)} != chunk length {length}")
        expected = (length,) + self.deep_feature_shape(*hw)
        if cached.shape != expected:
            raise ValueError(
                f"cached deep features shape {cached.shape} != expected {expected}"
            )
        mask = build_mask(mask_variant, good)
        return self._shallow_out(tokens, cached, garment, hw, pe, mask)

    # -- cost model -----------------------------------------------------------

    def chunk_cost(self, length: int, h: int, w: int, garment_count: int) -> tuple[int, int]:
        """Matmul FLOPs of one chunk of ``length`` h x w frames with
        ``garment_count`` garment tokens, in closed form: (deep, shallow).
        A full eval costs both; a partial eval skips the deep stage and
        costs ``shallow``, whose stages are the same on both paths."""
        t_deep, cd = self.deep_feature_shape(h, w)
        t, cf = h * w, self.config.shallow_width
        shallow = (2 * length * t * cf * (INPUT_CHANNELS + EPS_CHANNELS)  # w_in, w_out
                   + 2 * length * t_deep * cd * cf                        # w_up
                   + self.config.shallow_blocks * sum(
                       block_flops(length, t, cf, garment_count, cf).values()))
        deep = (2 * length * t_deep * cf * cd                             # w_down
                + self.config.deep_blocks * sum(
                    block_flops(length, t_deep, cd, garment_count, cf).values()))
        return deep, shallow


class OracleDenoiser:
    """Frame-local analytic denoiser steering toward a fixed target video.

    The ``step_scales`` of every step, the ones ``ddim_step`` uses, are
    computed once, here, in the target's dtype, and a step whose
    ``alpha_bar`` is 1 in that dtype is rejected before any chunk runs.
    """

    def __init__(self, target_x0: np.ndarray, sched: NoiseSchedule):
        self.target_x0 = target_x0
        self.scales = tuple(step_scales(sched.alpha_bar_at(k), target_x0.dtype)
                            for k in range(sched.num_steps))
        if any(root == 0 for _, root in self.scales):  # eps_for divides by it
            raise ValueError("alpha_bar == 1 at this step; oracle residual undefined")
        self._windows = functools.cache(functools.partial(frame_windows, target_x0))

    def eps_for(self, noise_latent: np.ndarray, step_index: int, frames,
                out: np.ndarray | None = None, length: int | None = None) -> np.ndarray:
        """``(z_t - sqrt(abar) * target) / sqrt(1 - abar)``: the residual that
        steers ``ddim_step`` toward the target frames ``frames`` selects (a
        slice, read as a view, or an integer index array), into ``out`` when given.
        With ``length``, ``frames`` selects the starts of a run of chunks of
        that length, read as one [g, length, ...] view of the target's
        windows: g chunks take one call, and each keeps its bits."""
        if not 0 <= step_index < len(self.scales):
            raise IndexError(f"step index {step_index} outside 0..{len(self.scales) - 1}")
        if noise_latent.dtype != self.target_x0.dtype:
            raise ValueError(f"latent dtype {noise_latent.dtype} differs from the "
                             f"target's {self.target_x0.dtype}")
        if not isinstance(frames, slice):  # no bool array read as a mask, no float cast
            frames = numerics.as_frame_indices(frames)
        target = (self.target_x0 if length is None else self._windows(length))[frames]
        if noise_latent.shape != target.shape:
            raise ValueError(f"latent/target shape mismatch: {noise_latent.shape} vs {target.shape}")
        sqrt_abar, sqrt_one_minus_abar = self.scales[step_index]
        out = np.multiply(target, sqrt_abar, out=out)
        return np.divide(np.subtract(noise_latent, out, out=out), sqrt_one_minus_abar, out=out)
