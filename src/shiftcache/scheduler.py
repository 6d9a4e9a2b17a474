"""Chunk planning and the timestep-loop inference engine.

Two scheduling policies over a video of ``n_total`` frames:

* overlap: sliding chunks sharing ``overlap_s`` frames; overlapping noise
  predictions are averaged per frame before the DDIM update (the
  temporal-aggregation baseline).
* shift: non-overlapping chunks whose boundary offset rotates every
  sampling step (fixed stride ``delta`` or a fresh uniform draw), with
  optional partial computation backed by the deep-feature cache.

All randomness (initial noise, random shifts, partial marking, synthetic
conditioning) derives from the single config seed via tagged substreams,
so identical configs reproduce bit-identical runs.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cache import FeatureCache
from .denoiser import (
    DenoiserInput,
    FlopTally,
    GarmentCondition,
    OracleDenoiser,
    ToyDenoiser,
    ToyDenoiserConfig,
)
from .diffusion import LatentVideo, NoiseSchedule, ddim_step, make_schedule
from .numerics import MaskVariant, correlate_symmetric

# Seed-stream tags: keep distinct so config fields never alias each other.
_STREAM_NOISE = 1
_STREAM_SHIFT = 2
_STREAM_MARK = 3
_STREAM_CONDITIONS = 4

# Spatial smoothing of the synthetic conditions: a Gaussian of sigma 1.5
# truncated at 4 sigma (radius 6), normalized the way scipy.ndimage builds
# its gaussian_filter kernel so the smoothed noise is bit-identical to it.
_CONDITION_KERNEL = np.exp(-0.5 / 1.5 ** 2 * np.arange(-6, 7) ** 2)
_CONDITION_KERNEL /= _CONDITION_KERNEL.sum()
# Frames smoothed per pass. A pass filters axis 0 of a block laid out
# [H, W, frames, C] (then [W, H, frames, C]), so every shifted slice is one
# contiguous run. At the default 16x12 latent a block of 32 frames is
# ~200 KB per array, so the padded input, the output and the temporary of
# a pass stay in L2; smoothing all 2048 frames of a long video in one pass
# spills to memory and runs about twice as slow.
_SMOOTH_BLOCK_FRAMES = 32


class ChunkMode(enum.Enum):
    FULL = "full"
    PARTIAL = "partial"


@dataclass(frozen=True)
class Chunk:
    start: int
    length: int
    mode: ChunkMode = ChunkMode.FULL

    def __post_init__(self):
        if self.start < 0 or self.length < 1:
            raise ValueError(f"bad chunk [{self.start}, +{self.length})")

    @property
    def stop(self) -> int:
        return self.start + self.length

    def frames(self) -> range:
        return range(self.start, self.stop)


@dataclass(frozen=True)
class ChunkPlan:
    """Chunks for one sampling step."""

    step_index: int
    chunks: tuple[Chunk, ...]


def plan_overlap(n_total: int, chunk_len: int, overlap: int) -> list[Chunk]:
    """Sliding-window chunks of fixed length sharing ``overlap`` frames.

    Starts advance by ``chunk_len - overlap``; the final start is pulled back
    so the last chunk ends exactly at ``n_total``. Every chunk has full
    length, so the union covers [0, n_total).
    """
    if not 0 <= overlap < chunk_len:
        raise ValueError(f"need 0 <= overlap < chunk_len, got {overlap} vs {chunk_len}")
    if chunk_len > n_total:
        raise ValueError(f"chunk_len {chunk_len} exceeds video length {n_total}")
    stride = chunk_len - overlap
    starts = [0]
    while starts[-1] + chunk_len < n_total:
        starts.append(starts[-1] + stride)
    if starts[-1] + chunk_len > n_total:
        starts[-1] = n_total - chunk_len
    return [Chunk(start=s, length=chunk_len) for s in starts]


def plan_shift(n_total: int, chunk_len: int, delta: int, step_index: int,
               mode: str = "fixed", seed: int = 0) -> list[Chunk]:
    """Disjoint chunks exactly covering [0, n_total), rotated per step.

    The offset is (step_index * delta) mod chunk_len for fixed mode, or a
    per-step uniform draw from {0..chunk_len-1} for random mode. A nonzero
    offset produces short leading/trailing edge chunks.
    """
    if not 0 <= delta < chunk_len:
        raise ValueError(f"need 0 <= delta < chunk_len, got {delta} vs {chunk_len}")
    if chunk_len > n_total:
        raise ValueError(f"chunk_len {chunk_len} exceeds video length {n_total}")
    if mode == "fixed":
        offset = (step_index * delta) % chunk_len
    elif mode == "random":
        rng = np.random.default_rng([seed, _STREAM_SHIFT, step_index])
        offset = int(rng.integers(0, chunk_len))
    else:
        raise ValueError(f"unknown shift mode: {mode!r}")

    chunks = []
    if offset > 0:
        chunks.append(Chunk(start=0, length=min(offset, n_total)))
    start = offset
    while start + chunk_len <= n_total:
        chunks.append(Chunk(start=start, length=chunk_len))
        start += chunk_len
    if start < n_total:
        chunks.append(Chunk(start=start, length=n_total - start))
    return chunks


class OverlapSum:
    """Per-frame sum and cover count of one step's chunk predictions.

    ``reset`` zeroes the sum and counts, once per plan, how many chunks
    cover each frame; each prediction is then added as soon as its chunk
    is evaluated, so no step holds its chunk predictions, and ``mean``
    divides once, in place. The sum takes the first prediction's shape and
    dtype and is allocated once.
    """

    def __init__(self, n_total: int):
        self.n_total = n_total
        self.total: np.ndarray | None = None   # [N, ...]
        self.count: np.ndarray | None = None   # [N] int64

    def reset(self, chunks) -> None:
        """Zero the sum and count the covers of ``chunks`` (difference of
        chunk starts and stops, then a running sum). Raise ValueError
        naming the first frame no chunk covers."""
        n = self.n_total
        bounds = np.array([(c.start, c.start + c.length) for c in chunks],
                          dtype=np.int64).reshape(-1, 2)
        if len(bounds) and bounds[:, 1].max() > n:
            raise ValueError(f"a chunk ends past the video's {n} frames")
        edges = (np.bincount(bounds[:, 0], minlength=n + 1)
                 - np.bincount(bounds[:, 1], minlength=n + 1))
        self.count = np.cumsum(edges[:n])
        if np.any(self.count == 0):
            raise ValueError(f"frame {int(np.argmin(self.count))} not covered by any chunk")
        if self.total is not None:
            self.total.fill(0)

    def add(self, chunk: Chunk, eps: np.ndarray) -> None:
        if self.total is None:
            self.total = np.zeros((self.n_total,) + eps.shape[1:], dtype=eps.dtype)
        self.total[chunk.start:chunk.stop] += eps

    def mean(self) -> np.ndarray:
        """The per-frame mean, in the sum's own buffer (valid until the
        next ``reset``). A frame covered once divides by 1, which is exact."""
        return np.divide(self.total, self.count.astype(self.total.dtype)[:, None, None, None],
                         out=self.total)


def aggregate_overlaps(per_chunk_eps: list[np.ndarray], chunks: list[Chunk],
                       n_total: int) -> np.ndarray:
    """Per-frame unweighted mean of every chunk prediction covering it."""
    if len(per_chunk_eps) != len(chunks):
        raise ValueError("one eps array per chunk required")
    if any(eps.shape[0] != chunk.length for eps, chunk in zip(per_chunk_eps, chunks)):
        raise ValueError("eps length does not match its chunk")
    sums = OverlapSum(n_total)
    sums.reset(chunks)
    for eps, chunk in zip(per_chunk_eps, chunks):
        sums.add(chunk, eps)
    return sums.mean()


@dataclass
class FreshnessRecord:
    """The run's one record of deep-feature freshness, from the marking pass.

    ``trace[k, f]`` is the staleness of the deep features used for frame f
    at step k (0 when the frame is fully computed that step), and
    ``last_full[f]`` the step frame f was last fully computed at (-1 before
    the first step).
    """

    trace: np.ndarray      # [steps, N]
    last_full: np.ndarray  # [N]
    eligible_decisions: int = 0
    bernoulli_partials: int = 0
    forced_full: int = 0


def mark_partial(plans: list[list[Chunk]], p: float, staleness_cap: int, seed: int,
                 chunk_len: int) -> tuple[list[list[Chunk]], FreshnessRecord]:
    """Annotate per-step plans with partial-computation marks.

    Rules, applied in step order with a per-frame freshness simulation:
    first and last steps stay full; short edge chunks stay full; a chunk
    whose members would exceed ``staleness_cap`` steps since their last
    full computation is forced full; everything else flips an independent
    seeded coin with probability ``p``. The simulation is returned as the
    run's FreshnessRecord.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"partial fraction must lie in [0, 1], got {p}")
    num_steps = len(plans)
    n_total = max(c.stop for c in plans[0]) if plans else 0
    record = FreshnessRecord(trace=np.zeros((num_steps, n_total), dtype=np.int64),
                             last_full=np.full(n_total, -1, dtype=np.int64))
    last_full = record.last_full
    marked: list[list[Chunk]] = []
    for k, chunks in enumerate(plans):
        rng = np.random.default_rng([seed, _STREAM_MARK, k])
        step_out = []
        for chunk in chunks:
            mode = ChunkMode.FULL
            interior = 0 < k < num_steps - 1 and chunk.length == chunk_len
            if interior:
                worst = k - int(last_full[chunk.start:chunk.stop].min())
                if worst > staleness_cap:
                    record.forced_full += 1
                else:
                    record.eligible_decisions += 1
                    if rng.random() < p:
                        mode = ChunkMode.PARTIAL
                        record.bernoulli_partials += 1
            if mode is ChunkMode.FULL:
                last_full[chunk.start:chunk.stop] = k
            else:
                record.trace[k, chunk.start:chunk.stop] = k - last_full[chunk.start:chunk.stop]
            step_out.append(replace(chunk, mode=mode))
        marked.append(step_out)
    return marked, record


@dataclass
class EngineConfig:
    """Fully-resolved run configuration; one seed drives all randomness."""

    n_total: int = 144
    chunk_len: int = 16
    policy: str = "shift"                      # "overlap" | "shift"
    overlap_s: int = 0
    delta: int = 4
    shift_mode: str = "fixed"                  # "fixed" | "random"
    partial_fraction: float = 0.0
    # ablation: drop marked chunks outright instead of computing them
    # partially; their frames miss that step's DDIM update entirely
    hard_skip: bool = False
    mask_variant: MaskVariant = MaskVariant.HALF
    staleness_cap: int = 2
    seed: int = 0
    ddim_steps: int = 25
    denoiser: str = "toy"                      # "toy" | "oracle"
    toy: ToyDenoiserConfig = field(default_factory=ToyDenoiserConfig)
    latent_h: int = 16
    latent_w: int = 12
    garment_tokens: int = 4
    t_train: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02

    def validate(self) -> None:
        if self.n_total < 1:
            raise ValueError("n_total must be >= 1")
        if not 1 <= self.chunk_len <= self.n_total:
            raise ValueError("need 1 <= chunk_len <= n_total")
        if self.policy not in ("overlap", "shift"):
            raise ValueError(f"unknown policy {self.policy!r}")
        if not 0 <= self.overlap_s < self.chunk_len:
            raise ValueError("need 0 <= overlap_s < chunk_len")
        if not 0 <= self.delta < self.chunk_len:
            raise ValueError("need 0 <= delta < chunk_len")
        if self.shift_mode not in ("fixed", "random"):
            raise ValueError(f"unknown shift mode {self.shift_mode!r}")
        if not 0.0 <= self.partial_fraction <= 1.0:
            raise ValueError("partial_fraction must lie in [0, 1]")
        if self.policy == "overlap" and self.partial_fraction > 0:
            raise ValueError("partial computation is not combined with the overlap policy")
        if self.denoiser not in ("toy", "oracle"):
            raise ValueError(f"unknown denoiser {self.denoiser!r}")
        if self.denoiser == "oracle" and self.partial_fraction > 0 and not self.hard_skip:
            raise ValueError("the oracle denoiser has no deep stage to cache; use partial_fraction=0")
        if self.hard_skip and self.policy != "shift":
            raise ValueError("hard_skip is an ablation of the shift policy")
        if self.staleness_cap not in (1, 2):
            raise ValueError("staleness_cap must be 1 or 2 (freshness is binary good/bad)")
        if self.ddim_steps < 1 or self.ddim_steps > self.t_train:
            raise ValueError("need 1 <= ddim_steps <= t_train")
        if self.latent_h % 2 or self.latent_w % 2 or self.latent_h < 2 or self.latent_w < 2:
            raise ValueError("latent dims must be even and >= 2")
        if self.garment_tokens < 0:
            raise ValueError("garment_tokens must be >= 0")

    def schedule(self) -> NoiseSchedule:
        return make_schedule(self.t_train, self.beta_start, self.beta_end, self.ddim_steps)


@dataclass
class RunStats:
    """Counters and traces from one completed inference run.

    FLOP counters track matmul FLOPs as reported by the denoiser.
    ``freshness_trace`` and ``forced_full`` come from the plan's
    FreshnessRecord.
    """

    n_total: int
    chunk_len: int
    steps: int
    latent_h: int
    latent_w: int
    garment_count: int
    full_chunk_evals: int = 0
    partial_chunk_evals: int = 0
    skipped_chunk_evals: int = 0
    deep_flops: int = 0
    shallow_flops: int = 0
    wall_seconds: float = 0.0
    freshness_trace: np.ndarray | None = None
    forced_full: int = 0

    @property
    def total_flops(self) -> int:
        return self.deep_flops + self.shallow_flops

    @property
    def fps_proxy(self) -> float:
        if self.wall_seconds <= 0:
            raise ValueError("run recorded no wall time")
        return self.n_total / self.wall_seconds


@dataclass
class Conditions:
    """Per-frame conditioning plus the oracle's target video."""

    masked_video: np.ndarray   # [N, 4, H, W]
    binary_mask: np.ndarray    # [N, 1, H, W]
    pose: np.ndarray           # [N, 4, H, W]
    garment: GarmentCondition
    target_x0: np.ndarray      # [N, 4, H, W]

    def check(self, config: EngineConfig) -> None:
        """Raise ValueError naming the first field whose shape does not
        match the config."""
        n, h, w = config.n_total, config.latent_h, config.latent_w
        for name, shape, expected in (
                ("masked_video", self.masked_video.shape, (n, 4, h, w)),
                ("binary_mask", self.binary_mask.shape, (n, 1, h, w)),
                ("pose", self.pose.shape, (n, 4, h, w)),
                ("target_x0", self.target_x0.shape, (n, 4, h, w)),
                ("garment", self.garment.garment_tokens.shape,
                 (config.garment_tokens, config.toy.shallow_width))):
            if shape != expected:
                raise ValueError(f"conditions.{name} has shape {shape}, "
                                 f"expected {expected} for this config")


def synthesize_conditions(config: EngineConfig, dtype=np.float32) -> Conditions:
    """Seeded smooth-noise stand-ins for the real conditioning inputs."""
    rng = np.random.default_rng([config.seed, _STREAM_CONDITIONS])
    n, h, w = config.n_total, config.latent_h, config.latent_w

    def smooth(channels):
        x = rng.standard_normal((n, channels, h, w))
        for first in range(0, n, _SMOOTH_BLOCK_FRAMES):
            frames = slice(first, first + _SMOOTH_BLOCK_FRAMES)
            # H, then W: the axis order of gaussian_filter, which the bits follow
            block = correlate_symmetric(x[frames].transpose(2, 3, 0, 1),
                                        _CONDITION_KERNEL, 0, "wrap")
            block = correlate_symmetric(block.transpose(1, 0, 2, 3),
                                        _CONDITION_KERNEL, 0, "wrap")
            x[frames] = block.transpose(2, 3, 1, 0)
        x /= max(x.std(), 1e-12)
        return x.astype(dtype)

    video = smooth(4)
    mask = np.zeros((n, 1, h, w), dtype=dtype)
    mask[:, :, h // 4: (3 * h) // 4, w // 4: (3 * w) // 4] = 1
    masked_video = video * (1 - mask)
    pose = smooth(4)
    target = smooth(4)
    garment = GarmentCondition(
        garment_tokens=rng.standard_normal(
            (config.garment_tokens, config.toy.shallow_width)).astype(np.float32))
    return Conditions(masked_video=masked_video, binary_mask=mask, pose=pose,
                      garment=garment, target_x0=target)


def build_plans(config: EngineConfig) -> tuple[list[ChunkPlan], FreshnessRecord]:
    """Per-step chunk plans for a config, with partial marks applied, and
    the freshness record of the marking pass."""
    config.validate()
    steps = config.ddim_steps
    if config.policy == "overlap":
        # every frame is fully computed at every step: nothing to simulate
        base = plan_overlap(config.n_total, config.chunk_len, config.overlap_s)
        plans = [ChunkPlan(step_index=k, chunks=tuple(base)) for k in range(steps)]
        record = FreshnessRecord(trace=np.zeros((steps, config.n_total), dtype=np.int64),
                                 last_full=np.full(config.n_total, steps - 1, dtype=np.int64))
        return plans, record
    raw = [
        plan_shift(config.n_total, config.chunk_len, config.delta, k,
                   mode=config.shift_mode, seed=config.seed)
        for k in range(steps)
    ]
    marked, record = mark_partial(raw, config.partial_fraction, config.staleness_cap,
                                  config.seed, config.chunk_len)
    plans = [ChunkPlan(step_index=k, chunks=tuple(step)) for k, step in enumerate(marked)]
    return plans, record


def run_inference(config: EngineConfig, conditions: Conditions | None = None,
                  dtype=np.float32) -> tuple[LatentVideo, RunStats]:
    """Run the full sampling loop under the configured policy.

    Per step, the chunks run one at a time in plan order: a full chunk
    writes the deep-feature cache on shift runs as soon as it is evaluated,
    a partial chunk reads it under the configured mask variant. Each
    chunk's prediction goes into one per-frame sum as soon as the chunk
    finishes, so peak memory does not grow with the overlap; the sum is
    divided once per frame by its cover count, counted once per plan (a
    single cover passes through unchanged), and one DDIM update is applied
    per frame. The oracle writes each chunk's residual into one scratch
    buffer per chunk length, allocated once per run. Under ``hard_skip``
    each kept chunk's frames are updated as soon as it is evaluated
    instead.
    """
    plans, freshness = build_plans(config)
    if config.denoiser == "oracle":
        # Allocated before the run's latent-sized arrays: placed after them,
        # these long-lived buffers split the heap space those arrays reuse
        # from run to run, and a later run grew peak RSS by one latent.
        scratch = {length: np.empty((length, 4, config.latent_h, config.latent_w), dtype=dtype)
                   for length in {c.length for plan in plans for c in plan.chunks}}
    if conditions is None:
        conditions = synthesize_conditions(config, dtype=dtype)
    else:
        conditions.check(config)
    sched = config.schedule()
    n = config.n_total

    if config.denoiser == "toy":
        toy = ToyDenoiser(config.toy)
        oracle = None
    else:
        toy = None
        oracle = OracleDenoiser(conditions.target_x0.astype(dtype, copy=False), sched)

    rng = np.random.default_rng([config.seed, _STREAM_NOISE])
    z = rng.standard_normal((n, 4, config.latent_h, config.latent_w)).astype(dtype)

    cache = None
    if config.policy == "shift" and toy is not None and not config.hard_skip:
        # deep features take the widest dtype of the latents and conditions
        feat_dtype = np.result_type(z, conditions.masked_video, conditions.binary_mask,
                                    conditions.pose)
        cache = FeatureCache(n, toy.deep_feature_shape(config.latent_h, config.latent_w),
                             staleness_cap=config.staleness_cap, dtype=feat_dtype)
    tally = FlopTally()

    def eval_chunk(step_index, chunk):
        sl = slice(chunk.start, chunk.stop)
        if oracle is not None:
            return oracle.eps_for(z[sl], step_index, sl, out=scratch[chunk.length])
        inp = DenoiserInput(
            noise_latent=z[sl],
            masked_video_latent=conditions.masked_video[sl],
            binary_mask=conditions.binary_mask[sl],
            pose_features=conditions.pose[sl],
            step_index=step_index,
            frame_offsets=np.arange(chunk.start, chunk.stop),
        )
        if chunk.mode is ChunkMode.FULL:
            eps, feats = toy.denoise_full(inp, conditions.garment, tally=tally)
            if cache is not None:
                cache.store_block(chunk.start, feats, step_index)
            return eps
        feats, _, flags = cache.fetch(chunk.frames(), step_index)
        return toy.denoise_partial(inp, feats, flags, config.mask_variant,
                                   conditions.garment, tally=tally)

    sums = OverlapSum(n)
    t_start = time.perf_counter()
    for k, plan in enumerate(plans):
        if config.hard_skip:
            # naive-skip ablation: frames of dropped chunks miss this DDIM
            # update; shift chunks are disjoint, so each kept one updates
            # in place as soon as it is evaluated
            for c in plan.chunks:
                if c.mode is ChunkMode.FULL:
                    sl = slice(c.start, c.stop)
                    z[sl] = ddim_step(z[sl], eval_chunk(k, c), k, sched)
            continue
        sums.reset(plan.chunks)
        for c in plan.chunks:
            sums.add(c, eval_chunk(k, c))
        z = ddim_step(z, sums.mean(), k, sched)
    wall_seconds = time.perf_counter() - t_start

    modes = [c.mode for plan in plans for c in plan.chunks]
    partials = modes.count(ChunkMode.PARTIAL)
    stats = RunStats(
        n_total=n, chunk_len=config.chunk_len, steps=sched.num_steps,
        latent_h=config.latent_h, latent_w=config.latent_w,
        garment_count=config.garment_tokens,
        full_chunk_evals=modes.count(ChunkMode.FULL),
        partial_chunk_evals=0 if config.hard_skip else partials,
        skipped_chunk_evals=partials if config.hard_skip else 0,
        deep_flops=tally.deep, shallow_flops=tally.shallow,
        wall_seconds=wall_seconds,
        freshness_trace=freshness.trace, forced_full=freshness.forced_full,
    )
    video = LatentVideo(z=z, freshness=freshness.last_full)
    return video, stats
