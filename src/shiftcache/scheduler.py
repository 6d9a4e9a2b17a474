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
so identical configs reproduce bit-identical runs on one numpy and BLAS
build at one BLAS thread count (a matmul may round differently on another
count).

Each run has one loop, ``run_band``: per step, each chunk in plan order is
evaluated (``evaluate``, from cached deep features for a partial chunk)
and committed, its deep features cached and its prediction added to the
step's per-frame overlap sum (or, under ``hard_skip``, its frames
updated), and then the frames get one DDIM update by their overlap mean.
The loop gives the same bits on any number of cores:

* Serial: ``run_band`` over all frames, one update a step.
* Oracle bands: the oracle is frame-local, so each helper runs the loop
  on one contiguous band of frames, each chunk clipped to it, and sends
  back the band's latents. Every (chunk, frame) residual and add runs
  once, in plan order for each frame; at most one helper runs per frame.
* Toy helpers: the loop takes each chunk's result from ``_in_order``,
  which sends chunks ahead. A step's chunks do not depend on each other
  (shift chunks are disjoint, a partial chunk reads only deep features
  stored at earlier steps, and a frame's overlap mean is taken once no
  later chunk of the step covers it), and a chunk of the next step needs
  only its own frames' updates. So after each commit the loop updates the
  frames no later chunk of the step covers, and a chunk, with its latents
  and a partial chunk's cached features and freshness, is sent in plan
  order once its frames are updated through the step before, ``_DEPTH``
  in flight per helper: the next step's first chunks run while this
  step's last ones do. At most one helper runs per chunk of the largest
  step. Each helper keeps the caller's BLAS thread setting, so its
  matmuls round as the caller's do and a helper run has the serial bits.

Helpers are forked for the call, one per usable core (there is no
setting), each with a ``multiprocessing`` pipe. A helper's error is
raised with its type and message; a helper that dies raises
RuntimeError. On an error in the caller the requests in flight
finish before the helpers are joined, and a helper ends when its pipe
does, so none outlives its caller or the call. A run is serial
(``RunStats.processes`` 1) under ``_MIN_PARALLEL_FLOPS`` of work, on one
usable core, without ``fork`` or ``sched_getaffinity``, in a daemonic
process, and while a second Python thread is alive, since forking a
threaded process is unsafe. README's engine section gives the caveats
for measurements.
"""

from __future__ import annotations

import bisect
import collections
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
from .numerics import MaskVariant, correlate_symmetric, gaussian_kernel

# Seed-stream tags: keep distinct so config fields never alias each other.
_STREAM_NOISE = 1
_STREAM_SHIFT = 2
_STREAM_MARK = 3
_STREAM_CONDITIONS = 4

# Spatial smoothing of the synthetic conditions: a Gaussian of sigma 1.5
# truncated at 4 sigma (radius 6), so the smoothed noise is bit-identical
# to scipy.ndimage's gaussian_filter in its "wrap" mode.
_CONDITION_KERNEL = gaussian_kernel(1.5, 6)
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
    """Per-frame conditioning plus the oracle's target video. The toy reads
    the first four fields and the oracle ``target_x0``. A caller passes all
    five arrays; a run that synthesizes its own holds None in unread ones."""

    masked_video: np.ndarray   # [N, 4, H, W]
    binary_mask: np.ndarray    # [N, 1, H, W], values in {0, 1}
    pose: np.ndarray           # [N, 4, H, W]
    garment: np.ndarray        # [M, C_f] tokens; M = 0 disables reference attention
    target_x0: np.ndarray      # [N, 4, H, W]

    def check(self, config: EngineConfig, dtype) -> None:
        """Raise ValueError naming the first field that is not an ndarray,
        whose shape does not match the config, whose dtype is not the run's
        ``dtype`` (float32 for the garment, which meets the toy's float32
        weights) or which holds NaN or inf, or the mask if it holds a value
        other than 0 and 1. Run once per run: the engine checks no chunk again."""
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
            if not isinstance(array, np.ndarray):
                raise ValueError(f"conditions.{name} is a {type(array).__name__}, not an ndarray")
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
    """Seeded smooth-noise stand-ins for every conditioning input; ValueError
    for a ``dtype`` other than float32 or float64, then for an invalid config."""
    _check_dtype(dtype)
    config.validate()
    return _synthesize(config, dtype, ("toy", "oracle"))


def _synthesize(config: EngineConfig, dtype, readers) -> Conditions:
    """The fields the ``readers`` denoisers read, with the bits of
    ``synthesize_conditions``, and None for the rest. Each field's noise is
    drawn from one stream in one order (video, pose, target, garment), so
    an unread field costs its draw alone: no smoothing, scaling or cast."""
    rng = np.random.default_rng([config.seed, _STREAM_CONDITIONS])
    n, h, w = config.n_total, config.latent_h, config.latent_w

    def smooth(reader):
        x = rng.standard_normal((n, 4, h, w))
        if reader not in readers:
            return None
        for first in range(0, n, _SMOOTH_BLOCK_FRAMES):
            frames = slice(first, first + _SMOOTH_BLOCK_FRAMES)
            # H, then W: the axis order of gaussian_filter, which the bits follow
            block = correlate_symmetric(x[frames].transpose(2, 3, 0, 1), _CONDITION_KERNEL, 0)
            block = correlate_symmetric(block.transpose(1, 0, 2, 3), _CONDITION_KERNEL, 0)
            x[frames] = block.transpose(2, 3, 1, 0)
        x /= max(x.std(), 1e-12)
        return x.astype(dtype)

    video, pose, target = smooth("toy"), smooth("toy"), smooth("oracle")
    garment = rng.standard_normal((config.garment_tokens, config.toy.shallow_width))
    if "toy" not in readers:
        return Conditions(None, None, None, None, target_x0=target)
    mask = np.zeros((n, 1, h, w), dtype=dtype)
    mask[:, :, h // 4: (3 * h) // 4, w // 4: (3 * w) // 4] = 1
    return Conditions(masked_video=video * (1 - mask), binary_mask=mask, pose=pose,
                      garment=garment.astype(np.float32), target_x0=target)


def build_plans(config: EngineConfig) -> tuple[list[ChunkPlan], FreshnessRecord]:
    """Per-step chunk plans for a config, with partial marks applied, and
    the freshness record of the marking pass. A run with no partial
    fraction skips the pass: its record is the one marking gives at p = 0,
    every frame fully computed at every step."""
    config.validate()
    steps, n = config.ddim_steps, config.n_total
    if config.policy == "overlap":
        raw = [plan_overlap(n, config.chunk_len, config.overlap_s)] * steps
    else:
        raw = [plan_shift(n, config.chunk_len, config.delta, k, mode=config.shift_mode,
                          seed=config.seed) for k in range(steps)]
    if config.partial_fraction > 0:
        raw, record = mark_partial(raw, config.partial_fraction, config.staleness_cap,
                                   config.seed, config.chunk_len)
    else:
        record = FreshnessRecord(trace=np.zeros((steps, n), dtype=np.int64),
                                 last_full=np.full(n, steps - 1, dtype=np.int64))
    return [ChunkPlan(chunks=tuple(chunks)) for chunks in raw], record


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


def _in_order(conns, requests, ready, inputs):
    """Yield the answers to ``requests`` (toy (step, chunk) pairs or oracle
    (first, stop) bands) in their order, from the helpers at the other ends
    of ``conns``. Each is sent in order as ``inputs(*request)``, once
    ``ready(*request)``, to the helper with the fewest of its ``_DEPTH`` in flight."""
    from multiprocessing import connection  # only a parallel run pays for the import

    queued = {conn: collections.deque() for conn in conns}  # indices in flight, oldest first
    answers, sent = {}, 0
    for i in range(len(requests)):
        while True:
            while sent < len(requests) and ready(*requests[sent]):
                conn = min(queued, key=lambda c: len(queued[c]))
                if len(queued[conn]) == _DEPTH:
                    break
                _send(conn, inputs(*requests[sent]))
                queued[conn].append(sent)
                sent += 1
            if i in answers:
                break
            for conn in connection.wait([c for c in conns if queued[c]]):
                answers[queued[conn].popleft()] = _receive(conn)
        yield answers.pop(i)


def _helper_count(work: int, most: int) -> int:
    """Helper processes for a run of ``work`` units (``_MIN_PARALLEL_FLOPS``):
    one per usable core, at most ``most``, or 0 for a serial run (module
    docstring)."""
    if (work < _MIN_PARALLEL_FLOPS
            or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1 or multiprocessing.current_process().daemon):
        return 0
    count = min(len(os.sched_getaffinity(0)), most)
    return count if count > 1 else 0


def run_inference(config: EngineConfig, conditions: Conditions | None = None,
                  dtype=np.float32) -> tuple[LatentVideo, RunStats]:
    """Run the full sampling loop under the configured policy.

    Per step, each chunk is evaluated and committed in plan order: a full
    chunk writes the deep-feature cache on shift runs, a partial chunk
    reads it under the configured mask variant, and each prediction goes
    into one per-frame sum, so peak memory does not grow with the overlap.
    The DDIM update divides the sum by each frame's cover count, counted
    once per plan (a single cover passes through unchanged). The oracle
    writes each chunk's residual into the first frames of one scratch
    buffer, allocated once per run. Under ``hard_skip`` each kept chunk's
    frames are updated as soon as it is committed instead. ``dtype`` must
    be float32 or float64. Without ``conditions`` the run synthesizes the
    ones its denoiser reads, with the bits ``synthesize_conditions`` gives.

    One walk over the evaluated chunks gives the counts, the toy's FLOPs and
    the work ``_helper_count`` weighs. ``run_band`` is the one loop of a
    serial run, of each band of a large oracle run and of a large toy run;
    both parallel paths send their bands or chunks through ``_in_order``.
    """
    _check_dtype(dtype)
    plans, freshness = build_plans(config)
    if conditions is None:
        conditions = _synthesize(config, dtype, (config.denoiser,))
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
        # a chunk of any length, one a band edge cuts too, gets a view of it
        buffer = np.empty((config.chunk_len, 4, config.latent_h, config.latent_w), dtype=dtype)
        scratch = {length: buffer[:length] for length in range(1, config.chunk_len + 1)}

    rng = np.random.default_rng([config.seed, _STREAM_NOISE])
    z = rng.standard_normal((n, 4, config.latent_h, config.latent_w)).astype(dtype)

    cache = None
    if config.policy == "shift" and toy is not None and not config.hard_skip:
        cache = FeatureCache(n, toy.deep_feature_shape(config.latent_h, config.latent_w),
                             dtype=dtype)

    # the chunks each step evaluates: hard_skip drops the partial ones
    steps = [tuple(c for c in plan.chunks if c.mode is ChunkMode.FULL) if config.hard_skip
             else plan.chunks for plan in plans]
    # one walk prices the run: its evaluated partials and chunk-frames, and the toy's FLOPs
    partial = ChunkMode.PARTIAL  # looked up once, not per chunk: an enum lookup is ~0.1 us
    partials = chunk_frames = deep_flops = shallow_flops = 0
    for c in itertools.chain.from_iterable(steps):
        partials += c.mode is partial
        chunk_frames += c.length
        if toy is not None:  # a partial chunk skips the deep stage
            deep, shallow = toy.chunk_cost(c.length, config.latent_h, config.latent_w,
                                           config.garment_tokens)
            deep_flops += 0 if c.mode is partial else deep
            shallow_flops += shallow
    evaluated = sum(map(len, steps))
    if toy is not None:  # at most one helper per chunk of the largest step
        work, most = deep_flops + shallow_flops, max(map(len, steps))
    else:  # the oracle counts no FLOPs: _ORACLE_OPS units per latent element; a band per frame
        work, most = _ORACLE_OPS * 4 * config.latent_h * config.latent_w * chunk_frames, n

    def evaluate(step_index, chunk, z_chunk, feats, good):
        """(eps, deep features to cache or None) of a chunk, from its
        latents, a partial chunk's cached features and freshness (None for
        a full chunk) and what the run fixed before its first step."""
        sl = slice(chunk.start, chunk.stop)
        if oracle is not None:
            # scratch eps: valid until the next evaluate, so the loop adds it first
            return oracle.eps_for(z_chunk, step_index, sl, out=scratch[chunk.length]), None
        x = assemble_input(z_chunk, conditions.masked_video[sl], conditions.binary_mask[sl],
                           conditions.pose[sl])
        offsets = np.arange(chunk.start, chunk.stop)
        if chunk.mode is partial:
            return toy.denoise_partial(x, offsets, feats, good, config.mask_variant,
                                       conditions.garment), None
        eps, feats = toy.denoise_full(x, offsets, conditions.garment)
        return eps, feats if cache is not None else None

    def inputs(step_index, chunk):
        """``evaluate``'s arguments for a chunk: its latents, and a partial
        chunk's cached features, fetched here, and freshness from the record."""
        feats = good = None
        if chunk.mode is partial:
            feats = cache.fetch(np.arange(chunk.start, chunk.stop))
            good = freshness.trace[step_index, chunk.start:chunk.stop] <= GOOD_MAX_STALENESS
        return step_index, chunk, z[chunk.start:chunk.stop], feats, good

    def run_band(first, stop, conns=None):
        """Every step on frames [first, stop) of ``z``, each chunk clipped to
        them, in plan order: evaluated here, or on the helpers at the other
        ends of ``conns``, and committed here. Returns their latents."""
        band = [_clip(chunks, first, stop) for chunks in steps]
        sums = OverlapSum(stop, first)
        # frames below at[1] are updated through step at[0], the rest through one step less
        at = [0, first]
        if conns:
            answers = _in_order(conns, [(k, c) for k, chunks in enumerate(band) for c in chunks],
                                lambda k, c: k <= at[0] or (k == at[0] + 1 and c.stop <= at[1]),
                                inputs)

        def update(k, upto):
            """Step k's DDIM update of frames [at[1], upto) by their overlap
            mean; under hard_skip they had theirs at their commit, if any."""
            if not config.hard_skip:
                frames = slice(at[1], upto)
                z[frames] = ddim_step(z[frames], sums.mean(slice(at[1] - first, upto - first)),
                                      k, sched)
            at[1] = upto

        for k, chunks in enumerate(band):
            at[:] = k, first
            if not config.hard_skip:
                sums.reset(chunks)
            for i, c in enumerate(chunks):
                eps, feats = next(answers) if conns else evaluate(*inputs(k, c))
                if feats is not None:
                    cache.store_block(c.start, feats)
                if config.hard_skip:
                    z[c.start:c.stop] = ddim_step(z[c.start:c.stop], eps, k, sched)
                else:
                    sums.add(c, eps)
                if conns and i + 1 < len(chunks):  # so the next step's chunks go out sooner
                    update(k, chunks[i + 1].start)
            update(k, stop)
        return z[first:stop]

    t_start = time.perf_counter()
    helpers = _helper_count(work, most)
    if not helpers:
        run_band(0, n)
    elif oracle is not None:  # one band of nearly equal length per helper, none empty
        bands = [(n * i // helpers, n * (i + 1) // helpers) for i in range(helpers)]
        with _forked_helpers(helpers, run_band) as conns:
            for (first, stop), latents in zip(bands, _in_order(
                    conns, bands, lambda *band: True, lambda *band: band)):
                z[first:stop] = latents
    else:
        with _forked_helpers(helpers, evaluate) as conns:
            run_band(0, n, conns)
    wall_seconds = time.perf_counter() - t_start

    stats = RunStats(
        n_total=n, full_chunk_evals=evaluated - partials, partial_chunk_evals=partials,
        skipped_chunk_evals=sum(len(plan.chunks) for plan in plans) - evaluated,
        deep_flops=deep_flops, shallow_flops=shallow_flops,
        wall_seconds=wall_seconds,
        freshness_trace=freshness.trace, forced_full=freshness.forced_full,
        processes=max(helpers, 1),
    )
    video = LatentVideo(z=z, freshness=freshness.last_full)
    return video, stats
