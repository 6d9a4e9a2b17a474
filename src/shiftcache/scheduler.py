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

A large run is evaluated on every usable core, inside the timed region,
by helper processes forked for the call (one per usable core; there is
no setting), each with a ``multiprocessing`` pipe. Latents, freshness and
counters are the same bits on any number of cores.

* Toy runs: the chunks of one step do not depend on each other (shift
  chunks are disjoint, a partial chunk reads only deep features stored at
  earlier steps, and overlap predictions are averaged only after the whole
  step), and a chunk of the next step needs only its own frames' updates.
  So the caller sends each chunk, with its latents and a partial chunk's
  cached features and freshness, as soon as its frames are updated
  through the step before, lowest step first, ``_DEPTH`` in flight per
  helper, and commits each step's results in plan order as they arrive:
  the cache writes, the overlap sum, and the DDIM update of each run of
  frames the step has finished. So steps overlap. At most one helper runs
  per chunk of the largest step.
* Oracle runs: the oracle is frame-local, so a frame's residual, overlap
  sum and DDIM update read only that frame. Each helper gets one
  contiguous band of frames and runs every step on it, through the serial
  loop with each chunk clipped to the band, and sends back the band's
  latents. Every (chunk, frame) residual and add runs once, in plan order
  for each frame; the overlap work is not deduplicated. At most one helper
  runs per frame.

A helper's error is raised with its type and message; a helper that dies
raises RuntimeError. On an error in the caller the requests in flight
finish before the helpers are joined, and a helper ends when its pipe
does, so none outlives its caller or the call. The path is serial
(``RunStats.processes`` 1) under ``_MIN_PARALLEL_FLOPS`` of work, on one
usable core, without ``fork`` or ``sched_getaffinity``, in a daemonic
process, and while a second Python thread is alive, since forking a
threaded process is unsafe. README's engine section gives the caveats
for measurements.
"""

from __future__ import annotations

import bisect
import contextlib
import enum
import itertools
import multiprocessing
import os
import queue
import signal
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cache import GOOD_MAX_STALENESS, FeatureCache
from .denoiser import OracleDenoiser, ToyDenoiser, ToyDenoiserConfig, assemble_input
from .diffusion import LatentVideo, NoiseSchedule, check_betas, ddim_step, make_schedule
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


@dataclass(frozen=True)
class ChunkPlan:
    """Chunks for one sampling step (the step is its index in the plan list)."""

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
    """Per-frame sum and cover count of one step's chunk predictions over
    frames [first, stop) of the video.

    ``reset`` zeroes the sum and counts, once per plan, how many chunks
    cover each frame; each prediction is then added as its chunk is
    committed, so no list of a step's predictions is built, and ``mean``
    divides once, in place. The sum takes the first prediction's shape and
    dtype and is allocated once.
    """

    def __init__(self, stop: int, first: int = 0):
        self.first, self.stop = first, stop
        self.total: np.ndarray | None = None   # [stop - first, ...]
        self.count: np.ndarray | None = None   # [stop - first] int64

    def reset(self, chunks) -> None:
        """Zero the sum and count the covers of ``chunks`` (difference of
        chunk starts and stops, then a running sum). Raise ValueError
        naming the first frame no chunk covers."""
        n = self.stop - self.first
        bounds = np.array([(c.start, c.start + c.length) for c in chunks],
                          dtype=np.int64).reshape(-1, 2) - self.first
        if len(bounds) and bounds[:, 1].max() > n:
            raise ValueError(f"a chunk ends past the video's {self.stop} frames")
        edges = (np.bincount(bounds[:, 0], minlength=n + 1)
                 - np.bincount(bounds[:, 1], minlength=n + 1))
        self.count = np.cumsum(edges[:n])
        if np.any(self.count == 0):
            frame = self.first + int(np.argmin(self.count))
            raise ValueError(f"frame {frame} not covered by any chunk")
        if self.total is not None:
            self.total.fill(0)

    def add(self, chunk: Chunk, eps: np.ndarray) -> None:
        if self.total is None:
            self.total = np.zeros((self.stop - self.first,) + eps.shape[1:], dtype=eps.dtype)
        self.total[chunk.start - self.first:chunk.stop - self.first] += eps

    def mean(self, frames: slice = slice(None)) -> np.ndarray:
        """The per-frame mean of ``frames`` (default: all; counted from
        ``first``), in the sum's own buffer (valid until the next
        ``reset``). A frame covered once divides by 1, which is exact."""
        total = self.total[frames]
        return np.divide(total, self.count[frames].astype(total.dtype)[:, None, None, None],
                         out=total)


def _clip(chunks: tuple[Chunk, ...], first: int, stop: int) -> tuple[Chunk, ...]:
    """The parts of a plan's ``chunks`` inside frames [first, stop), in plan
    order. Plan chunks ascend in start and in stop, so the chunks that meet
    the band are one run of the plan, and only those an edge cuts are
    rebuilt."""
    inside = chunks[bisect.bisect_right(chunks, first, key=lambda c: c.stop):
                    bisect.bisect_left(chunks, stop, key=lambda c: c.start)]
    if inside and (inside[0].start < first or inside[-1].stop > stop):
        inside = tuple(c if first <= c.start and c.stop <= stop else
                       Chunk(max(c.start, first), min(c.stop, stop) - max(c.start, first), c.mode)
                       for c in inside)
    return inside


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
                elif rng.random() < p:
                    mode = ChunkMode.PARTIAL
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
        if not isinstance(self.mask_variant, MaskVariant):
            raise ValueError(f"mask_variant must be a MaskVariant, got {self.mask_variant!r}")
        if self.staleness_cap not in (1, 2):
            raise ValueError("staleness_cap must be 1 or 2 (freshness is binary good/bad)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.ddim_steps < 1 or self.ddim_steps > self.t_train:
            raise ValueError("need 1 <= ddim_steps <= t_train")
        if self.latent_h % 2 or self.latent_w % 2 or self.latent_h < 2 or self.latent_w < 2:
            raise ValueError("latent dims must be even and >= 2")
        if self.garment_tokens < 0:
            raise ValueError("garment_tokens must be >= 0")
        check_betas(self.beta_start, self.beta_end)

    def schedule(self) -> NoiseSchedule:
        return make_schedule(self.t_train, self.beta_start, self.beta_end, self.ddim_steps)


@dataclass
class RunStats:
    """Counters and traces from one completed inference run.

    FLOP counters sum ``ToyDenoiser.chunk_cost`` over the evaluated chunks;
    they are the one FLOP count, so two policies' predicted throughputs
    compare as the inverse ratio of their runs' ``total_flops``.
    ``freshness_trace`` and ``forced_full`` come from the plan's
    FreshnessRecord. ``processes`` counts the processes that evaluated
    chunks: the helpers, or 1, the caller, on the serial path.
    """

    n_total: int
    full_chunk_evals: int = 0
    partial_chunk_evals: int = 0
    skipped_chunk_evals: int = 0
    deep_flops: int = 0
    shallow_flops: int = 0
    wall_seconds: float = 0.0
    freshness_trace: np.ndarray | None = None
    forced_full: int = 0
    processes: int = 1

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
    binary_mask: np.ndarray    # [N, 1, H, W], values in {0, 1}
    pose: np.ndarray           # [N, 4, H, W]
    garment: np.ndarray        # [M, C_f] tokens; M = 0 disables reference attention
    target_x0: np.ndarray      # [N, 4, H, W]

    def check(self, config: EngineConfig, dtype) -> None:
        """Raise ValueError naming the first field whose shape does not
        match the config, whose dtype is not the run's ``dtype`` (float32
        for the garment, which meets the toy's float32 weights) or which
        holds NaN or inf, or the mask if it holds a value other than 0 and
        1. Run once per run: the engine checks no chunk again."""
        n, h, w = config.n_total, config.latent_h, config.latent_w
        run = np.dtype(dtype)
        for name, expected, expected_dtype in (
                ("masked_video", (n, 4, h, w), run),
                ("binary_mask", (n, 1, h, w), run),
                ("pose", (n, 4, h, w), run),
                ("target_x0", (n, 4, h, w), run),
                ("garment", (config.garment_tokens, config.toy.shallow_width),
                 np.dtype(np.float32))):
            array = getattr(self, name)
            if array.shape != expected:
                raise ValueError(f"conditions.{name} has shape {array.shape}, "
                                 f"expected {expected} for this config")
            if array.dtype != expected_dtype:
                raise ValueError(f"conditions.{name} has dtype {array.dtype}, "
                                 f"expected {expected_dtype} for this run")
            if not np.all(np.isfinite(array)):
                raise ValueError(f"conditions.{name} holds NaN or inf")
        if not np.all((self.binary_mask == 0) | (self.binary_mask == 1)):
            raise ValueError("conditions.binary_mask must contain only 0 and 1")


def _check_dtype(dtype) -> None:
    """Raise ValueError unless ``dtype`` is float32 or float64."""
    if np.dtype(dtype) not in (np.float32, np.float64):
        raise ValueError(f"dtype must be float32 or float64, got {np.dtype(dtype)}")


def synthesize_conditions(config: EngineConfig, dtype=np.float32) -> Conditions:
    """Seeded smooth-noise stand-ins for the real conditioning inputs."""
    _check_dtype(dtype)
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
    garment = rng.standard_normal(
        (config.garment_tokens, config.toy.shallow_width)).astype(np.float32)
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
        plans = [ChunkPlan(chunks=tuple(base)) for _ in range(steps)]
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
    plans = [ChunkPlan(chunks=tuple(step)) for step in marked]
    return plans, record


# Below this much work a run stays serial. A toy run's work is its FLOPs
# (``chunk_cost`` summed over the plan). The oracle counts no FLOPs, so
# its work is counted, for this decision only, as _ORACLE_OPS elementwise
# operations per latent element per chunk-frame it evaluates; its serial
# loop (residual, add, mean, DDIM update) runs about 3 G of those a second
# on one core of a 2-core host, near the toy's matmul rate. A helper costs
# 10-30 ms to start (the fork, then the first write to each page it shares
# with its parent), several percent of 10**9 units of work (about 0.3 s on
# one core) and more than it saves on the tests' 0.1 G runs.
_MIN_PARALLEL_FLOPS = 10 ** 9
_ORACLE_OPS = 4


# Chunks in flight per helper, so that it never waits for this process.
_DEPTH = 2


def _helper(conn, evaluate, inherited) -> None:
    """A helper's loop: answer each request, ``evaluate``'s arguments, with
    its result or exception, until the pipe ends. Closing the
    ``inherited`` ends lets it end when the caller dies. A thread reads the
    requests as they come, so the two ends never both block writing. Ctrl-C
    interrupts the caller alone, whose pipes then close."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    requests = queue.SimpleQueue()

    def read():
        try:
            while True:
                requests.put(conn.recv())
        except (EOFError, OSError):
            requests.put(None)

    threading.Thread(target=read, daemon=True).start()
    for args in iter(requests.get, None):
        try:
            reply = evaluate(*args)
        except Exception as exc:
            reply = exc
        try:
            conn.send(reply)
        except OSError:  # the caller has closed its end
            return


@contextlib.contextmanager
def _forked_helpers(count: int, evaluate):
    """``count`` helper processes forked here, each running ``_helper`` with
    ``evaluate``; yields our ends of their pipes. On exit the pipes close,
    and each helper, once it has answered the requests it holds, ends and
    is joined."""
    context = multiprocessing.get_context("fork")
    conns, processes = [], []
    try:
        for _ in range(count):
            ours, theirs = context.Pipe()
            conns.append(ours)
            process = context.Process(target=_helper, daemon=True,
                                      args=(theirs, evaluate, list(conns)))
            process.start()
            processes.append(process)
            theirs.close()
        yield conns
    finally:
        for conn in conns:
            conn.close()
        for process in processes:
            process.join()


def _send(conn, request) -> None:
    try:
        conn.send(request)
    except OSError:
        raise RuntimeError("a helper process ended") from None


def _receive(conn):
    """A helper's reply; its exception is raised here."""
    try:
        reply = conn.recv()
    except (EOFError, OSError):
        raise RuntimeError("a helper process ended without replying") from None
    if isinstance(reply, Exception):
        raise reply
    return reply


def _run_bands_on_helpers(helpers: int, run_band, z: np.ndarray) -> None:
    """Split the frames of ``z`` into ``helpers`` contiguous bands of nearly
    equal length, none empty, run ``run_band(first, stop)`` for each on its
    own helper forked here, and write each band's latents into ``z``."""
    n = len(z)
    bands = [(n * i // helpers, n * (i + 1) // helpers) for i in range(helpers)]
    with _forked_helpers(helpers, run_band) as conns:
        for conn, band in zip(conns, bands):
            _send(conn, band)
        for conn, (first, stop) in zip(conns, bands):
            z[first:stop] = _receive(conn)


def _evaluate_on_helpers(helpers: int, evaluate, steps: list[list[Chunk]], n_total: int,
                         inputs, commit, advance) -> None:
    """Evaluate every chunk of ``steps`` (per step, its chunks in plan
    order) on ``helpers`` processes forked here, and commit it here,
    without waiting for a step to end before starting the next.

    A chunk is sent as ``inputs(k, chunk)``, to be answered with
    ``evaluate(*inputs)``, as soon as every frame it reads is updated
    through the step before its own, lowest step first, to the helper with
    the fewest of its ``_DEPTH`` chunks in flight. Each step's results are
    committed in plan order, ``commit(k, chunk, result)``, as they become a
    prefix of the plan. Frames that no uncommitted chunk of step k covers
    and that are updated through step k - 1 are then updated through step
    k, by ``advance(k, first, stop)`` per newly finished run of frames,
    lowest step first. So a frame's inputs, adds and updates are those of
    the serial loop, in its order.
    """
    from multiprocessing import connection  # only a parallel run pays for the import

    count = len(steps)
    committed = [0] * count    # per step: chunks committed, a prefix of the plan
    sent = [0] * count         # per step: chunks sent, a prefix of the plan
    held = {}                  # (step, index) -> result waiting for its turn
    # frontier[k]: frames below it are updated through step k
    frontier = list(itertools.accumulate((c[0].start if c else n_total for c in steps), min))
    lowest = 0                 # the lowest step with a chunk not sent
    left = sum(len(chunks) for chunks in steps)
    queued = {}                # our end of a helper's pipe -> its keys in flight, oldest first

    def send_ready():
        nonlocal lowest
        for k in range(lowest, count):
            limit = frontier[k - 1] if k else n_total
            while sent[k] < len(steps[k]) and steps[k][sent[k]].stop <= limit:
                conn = min(queued, key=lambda c: len(queued[c]))
                if len(queued[conn]) == _DEPTH:
                    return
                _send(conn, inputs(k, steps[k][sent[k]]))
                queued[conn].append((k, sent[k]))
                sent[k] += 1
            if lowest == k and sent[k] == len(steps[k]):
                lowest += 1

    with _forked_helpers(helpers, evaluate) as conns:
        queued.update((conn, []) for conn in conns)
        send_ready()
        while left:
            if not any(queued.values()):
                raise RuntimeError("no chunk can be evaluated before the ones it waits for")
            arrived = set()
            for conn in connection.wait(conns):
                key = queued[conn].pop(0)
                held[key] = _receive(conn)
                arrived.add(key[0])
            send_ready()  # before the commits, so no helper waits on them
            for first in sorted(arrived):
                while (first, committed[first]) in held:
                    commit(first, steps[first][committed[first]],
                           held.pop((first, committed[first])))
                    committed[first] += 1
                    left -= 1
                for k in range(first, count):
                    limit = frontier[k - 1] if k else n_total
                    if committed[k] < len(steps[k]):
                        limit = min(limit, steps[k][committed[k]].start)
                    if limit == frontier[k]:
                        break
                    advance(k, frontier[k], limit)
                    frontier[k] = limit
            send_ready()


def _helper_count(config: EngineConfig, plans: list[ChunkPlan], flops: int) -> int:
    """Helper processes for a run of ``flops`` FLOPs (0 for the oracle,
    whose work is counted here in ``_ORACLE_OPS`` units): one per usable
    core, at most one per chunk of the largest step of a toy run and one
    per frame of an oracle run, or 0 (module docstring)."""
    if config.denoiser == "oracle":
        # the oracle evaluates full chunks only: hard_skip drops the others
        frames = sum(c.length for plan in plans for c in plan.chunks if c.mode is ChunkMode.FULL)
        flops = _ORACLE_OPS * 4 * config.latent_h * config.latent_w * frames
        most = config.n_total
    else:
        most = max(len(plan.chunks) for plan in plans)
    if (flops < _MIN_PARALLEL_FLOPS
            or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1 or multiprocessing.current_process().daemon):
        return 0
    count = min(len(os.sched_getaffinity(0)), most)
    return count if count > 1 else 0


def run_inference(config: EngineConfig, conditions: Conditions | None = None,
                  dtype=np.float32) -> tuple[LatentVideo, RunStats]:
    """Run the full sampling loop under the configured policy.

    The loop is ``run_band``, over a band of frames [first, stop). Per
    step, the plan's chunks, each clipped to the band, run one at a time in
    plan order: a full chunk writes the deep-feature cache on shift runs as
    soon as it is evaluated, a partial chunk reads it under the configured
    mask variant. Each chunk's prediction goes into one per-frame sum as
    soon as the chunk finishes, so peak memory does not grow with the
    overlap; the sum is divided once per frame by its cover count, counted
    once per plan (a single cover passes through unchanged), and one DDIM
    update is applied per frame. The oracle writes each chunk's residual
    into one scratch buffer per chunk length, allocated once per run. Under
    ``hard_skip`` each kept chunk's frames are updated as soon as it is
    evaluated instead. ``dtype`` must be float32 or float64.

    A serial run is ``run_band`` on all frames, where no chunk is cut. A
    large oracle run gives each helper one band, which the frame-local
    oracle evaluates with the same bits; a large toy run is evaluated
    chunk by chunk on every usable core, also with the same bits (module
    docstring).
    """
    _check_dtype(dtype)
    plans, freshness = build_plans(config)
    if config.denoiser == "oracle":
        # Allocated before the run's latent-sized arrays: placed after them,
        # these long-lived buffers split the heap space those arrays reuse
        # from run to run, and a later run grew peak RSS by one latent. A
        # chunk a band edge cuts gets a buffer of its own.
        scratch = {length: np.empty((length, 4, config.latent_h, config.latent_w), dtype=dtype)
                   for length in {c.length for plan in plans for c in plan.chunks}}
    if conditions is None:
        conditions = synthesize_conditions(config, dtype=dtype)
    else:
        conditions.check(config, dtype)
    sched = config.schedule()
    n = config.n_total

    if config.denoiser == "toy":
        toy = ToyDenoiser(config.toy)
        oracle = None
    else:
        toy = None
        oracle = OracleDenoiser(conditions.target_x0, sched)

    rng = np.random.default_rng([config.seed, _STREAM_NOISE])
    z = rng.standard_normal((n, 4, config.latent_h, config.latent_w)).astype(dtype)

    cache = None
    if config.policy == "shift" and toy is not None and not config.hard_skip:
        cache = FeatureCache(n, toy.deep_feature_shape(config.latent_h, config.latent_w),
                             dtype=dtype)

    def evaluate(step_index, chunk, z_chunk, feats, good):
        """(eps, deep features to cache or None) of a toy chunk, from its
        latents, cached features and freshness (None for a full chunk) and
        what the run fixed before its first step."""
        sl = slice(chunk.start, chunk.stop)
        x = assemble_input(z_chunk, conditions.masked_video[sl], conditions.binary_mask[sl],
                           conditions.pose[sl])
        offsets = np.arange(chunk.start, chunk.stop)
        if chunk.mode is ChunkMode.PARTIAL:
            return toy.denoise_partial(x, offsets, feats, good, config.mask_variant,
                                       conditions.garment), None
        eps, feats = toy.denoise_full(x, offsets, conditions.garment)
        return eps, feats if cache is not None else None

    def inputs(step_index, chunk, z_chunk):
        """``evaluate``'s arguments for a toy chunk: a partial chunk's cached
        features are fetched here, its freshness read from the record."""
        feats = good = None
        if chunk.mode is ChunkMode.PARTIAL:
            feats = cache.fetch(np.arange(chunk.start, chunk.stop))
            good = freshness.trace[step_index, chunk.start:chunk.stop] <= GOOD_MAX_STALENESS
        return step_index, chunk, z_chunk, feats, good

    def eval_chunk(step_index, chunk, z_chunk):
        if oracle is not None:
            return oracle.eps_for(z_chunk, step_index, slice(chunk.start, chunk.stop),
                                  out=scratch.get(chunk.length))
        eps, feats = evaluate(*inputs(step_index, chunk, z_chunk))
        if feats is not None:
            cache.store_block(chunk.start, feats)
        return eps

    def run_band(first, stop):
        """Every step of the plan on frames [first, stop) of ``z``, each
        chunk clipped to them; returns their latents."""
        band = z[first:stop]
        sums = OverlapSum(stop, first)
        for k, plan in enumerate(plans):
            chunks = _clip(plan.chunks, first, stop)
            if config.hard_skip:
                # naive-skip ablation: frames of dropped chunks miss this DDIM
                # update; shift chunks are disjoint, so each kept one updates
                # in place as soon as it is evaluated
                for c in chunks:
                    if c.mode is ChunkMode.FULL:
                        sl = slice(c.start - first, c.stop - first)
                        band[sl] = ddim_step(band[sl], eval_chunk(k, c, band[sl]), k, sched)
                continue
            sums.reset(chunks)
            for c in chunks:
                sums.add(c, eval_chunk(k, c, band[c.start - first:c.stop - first]))
            band = ddim_step(band, sums.mean(), k, sched)
        return band

    deep_flops = shallow_flops = 0
    if toy is not None:  # a partial chunk skips the deep stage, a dropped one everything
        shape = (config.latent_h, config.latent_w, config.garment_tokens)
        for c in (c for plan in plans for c in plan.chunks):
            deep, shallow = toy.chunk_cost(c.length, *shape)
            if c.mode is ChunkMode.FULL:
                deep_flops += deep
            if c.mode is ChunkMode.FULL or not config.hard_skip:
                shallow_flops += shallow

    t_start = time.perf_counter()
    helpers = _helper_count(config, plans, deep_flops + shallow_flops)
    if not helpers:
        z = run_band(0, n)
    elif oracle is not None:
        _run_bands_on_helpers(helpers, run_band, z)
    else:
        # the chunks each step evaluates
        steps = [[c for c in plan.chunks if c.mode is ChunkMode.FULL or not config.hard_skip]
                 for plan in plans]
        open_sums, spare_sums = {}, []

        def commit(step_index, chunk, result):
            eps, feats = result
            if feats is not None:
                cache.store_block(chunk.start, feats)
            if config.hard_skip:  # z is updated in place on this path
                sl = slice(chunk.start, chunk.stop)
                z[sl] = ddim_step(z[sl], eps, step_index, sched)
                return
            if step_index not in open_sums:
                open_sums[step_index] = spare_sums.pop() if spare_sums else OverlapSum(n)
                open_sums[step_index].reset(steps[step_index])
            open_sums[step_index].add(chunk, eps)

        def advance(step_index, first, stop):
            if config.hard_skip:  # frames of dropped chunks miss this update
                return
            frames = slice(first, stop)
            z[frames] = ddim_step(z[frames], open_sums[step_index].mean(frames),
                                  step_index, sched)
            if stop == n:
                spare_sums.append(open_sums.pop(step_index))

        _evaluate_on_helpers(helpers, evaluate, steps, n,
                             lambda k, c: inputs(k, c, z[c.start:c.stop]), commit, advance)
    wall_seconds = time.perf_counter() - t_start

    chunks = [c for plan in plans for c in plan.chunks]
    full = sum(1 for c in chunks if c.mode is ChunkMode.FULL)
    partials = len(chunks) - full
    stats = RunStats(
        n_total=n, full_chunk_evals=full,
        partial_chunk_evals=0 if config.hard_skip else partials,
        skipped_chunk_evals=partials if config.hard_skip else 0,
        deep_flops=deep_flops, shallow_flops=shallow_flops,
        wall_seconds=wall_seconds,
        freshness_trace=freshness.trace, forced_full=freshness.forced_full,
        processes=max(helpers, 1),
    )
    video = LatentVideo(z=z, freshness=freshness.last_full)
    return video, stats
