"""Whole-engine properties of ``run_inference`` over random tiny configs.

One derandomized hypothesis strategy draws an ``EngineConfig`` of at most
20 frames, chunks of at most 6, 2- or 4-wide latents, at most 5 steps and
a toy of width 4 with one deep block, run in float32 or float64; about
one config in four is broken past one rule of ``validate``. Each example
checks, on the code the engine runs, that:

* validity is one rule: a config ``validate`` refuses is refused with
  ValueError by ``build_plans``, ``run_inference`` and
  ``config_from_dict`` on its dict form, and a config it accepts runs;
* a field the run does not read (``delta`` outside fixed shift,
  ``overlap_s`` under shift, ``mask_variant`` and ``staleness_cap`` at
  p=0, the toy and garment fields under the oracle), changed within its
  own rules, changes neither validity nor bits;
* a run with helpers forced gives the serial run's bits, on either
  denoiser and under ``hard_skip``;
* the ``RunStats`` counts and FLOPs equal a count over ``build_plans``
  and ``chunk_cost``, and the freshness trace and forced-full count equal
  a frame-by-frame simulation of the plan's marks;
* an oracle run at p=0 recovers ``target_x0``.

A second test applies each break to one valid config and has every entry
refuse it, so each rule is checked whichever breaks the draw reaches.
"""

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcache import scheduler
from shiftcache.denoiser import ToyDenoiser, ToyDenoiserConfig
from shiftcache.fileio import config_from_dict, config_to_dict
from shiftcache.numerics import MaskVariant
from shiftcache.scheduler import (ChunkMode, EngineConfig, build_plans, run_inference,
                                  synthesize_conditions)

TOY = ToyDenoiserConfig(shallow_width=4, deep_width=4, shallow_blocks=2, deep_blocks=1)
# the processes a forced-parallel run may use: run_inference forks only with both
CORES = (len(os.sched_getaffinity(0))
         if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else 1)
TOYS = st.builds(ToyDenoiserConfig, shallow_width=st.sampled_from([2, 4]),
                 deep_width=st.sampled_from([2, 4]), shallow_blocks=st.integers(2, 3),
                 deep_blocks=st.integers(1, 2), seed=st.integers(0, 2))


# Ways to break a valid config, each past one rule of ``validate`` (a
# field's range or type, or a pair of fields it refuses together).
BREAKS = (
    lambda c: dict(n_total=float(c.n_total)),
    lambda c: dict(chunk_len=c.n_total + 1),
    lambda c: dict(policy="sideways"),
    lambda c: dict(overlap_s=c.chunk_len),
    lambda c: dict(policy="shift", shift_mode="fixed", delta=c.chunk_len, overlap_s=0),
    lambda c: dict(shift_mode="sideways"),
    lambda c: dict(partial_fraction=1.5),
    lambda c: dict(policy="overlap", partial_fraction=0.5, hard_skip=False),
    lambda c: dict(policy="overlap", hard_skip=True, partial_fraction=0.0),
    lambda c: dict(denoiser="oracle", policy="shift", partial_fraction=0.5, hard_skip=False),
    lambda c: dict(denoiser="sideways"),
    lambda c: dict(staleness_cap=3),
    lambda c: dict(seed=-1),
    lambda c: dict(t_train=c.ddim_steps - 1),
    lambda c: dict(latent_h=3),
    lambda c: dict(garment_tokens=-1),
    lambda c: dict(denoiser="oracle", partial_fraction=0.0, beta_start=1e-20),
)


@st.composite
def configs(draw):
    """A tiny config, a run dtype and the fields a break set: a valid
    config, and in about one example of four that config broken one way
    (``BREAKS``). ``delta`` reaches past ``chunk_len`` where the run does
    not read it."""
    n = draw(st.integers(1, 20))
    chunk_len = draw(st.integers(1, min(n, 6)))
    policy = draw(st.sampled_from(["overlap", "shift"]))
    shift_mode = draw(st.sampled_from(["fixed", "random"]))
    denoiser = draw(st.sampled_from(["toy", "oracle"]))
    hard_skip = policy == "shift" and draw(st.booleans())
    partial = (0.0 if policy == "overlap" or denoiser == "oracle" and not hard_skip
               else draw(st.sampled_from([0.0, 0.5, 1.0])))
    fixed = policy == "shift" and shift_mode == "fixed"
    config = EngineConfig(
        n_total=n, chunk_len=chunk_len, policy=policy,
        overlap_s=draw(st.integers(0, chunk_len - 1)),
        delta=draw(st.integers(0, chunk_len - 1 if fixed else chunk_len + 2)),
        shift_mode=shift_mode, partial_fraction=partial, hard_skip=hard_skip,
        mask_variant=draw(st.sampled_from(list(MaskVariant))),
        staleness_cap=draw(st.sampled_from([1, 2])),
        seed=draw(st.integers(0, 3)),
        ddim_steps=draw(st.integers(1, 5)),
        denoiser=denoiser,
        toy=dataclasses.replace(TOY, seed=draw(st.integers(0, 1))),
        latent_h=draw(st.sampled_from([2, 4])), latent_w=draw(st.sampled_from([2, 4])),
        garment_tokens=draw(st.integers(0, 2)),
        t_train=draw(st.sampled_from([1000, 5])))
    broken = draw(st.sampled_from((None,) * 3 * len(BREAKS) + BREAKS))
    fields = {} if broken is None else broken(config)
    return (dataclasses.replace(config, **fields),
            draw(st.sampled_from([np.float32, np.float64])), set(fields))


def unread_fields(config: EngineConfig, broken: set) -> dict:
    """field -> strategy of its values within its own rules, for each field
    of ``config`` the run does not read and that no break set (changing a
    broken field could mend it)."""
    fields = {}
    if config.policy == "overlap" or config.shift_mode == "random":
        fields["delta"] = st.integers(0, config.chunk_len + 3)
    if config.policy == "shift":
        fields["overlap_s"] = st.integers(0, config.chunk_len - 1)
    if config.partial_fraction == 0:
        fields["mask_variant"] = st.sampled_from(list(MaskVariant))
        fields["staleness_cap"] = st.sampled_from([1, 2])
    if config.denoiser == "oracle":
        fields["toy"] = TOYS
        fields["garment_tokens"] = st.integers(0, 3)
    return {name: values for name, values in fields.items() if name not in broken}


def is_valid(config: EngineConfig) -> bool:
    try:
        config.validate()
    except ValueError:
        return False
    return True


def run(config: EngineConfig, dtype, parallel: bool = False):
    """``run_inference`` with its own conditions; with ``parallel``, with
    helpers at any amount of work."""
    with pytest.MonkeyPatch.context() as patch:
        if parallel:
            patch.setattr(scheduler, "_MIN_PARALLEL_FLOPS", 0)
        return run_inference(config, dtype=dtype)


def assert_same_bits(a, b) -> None:
    (video_a, stats_a), (video_b, stats_b) = a, b
    for x, y in ((video_a.z, video_b.z), (video_a.freshness, video_b.freshness),
                 (stats_a.freshness_trace, stats_b.freshness_trace)):
        np.testing.assert_array_equal(x, y, strict=True)
    counts = ("full_chunk_evals", "partial_chunk_evals", "skipped_chunk_evals",
              "deep_flops", "shallow_flops", "forced_full")
    assert [getattr(stats_a, f) for f in counts] == [getattr(stats_b, f) for f in counts]


def expected_counts(config: EngineConfig) -> dict:
    """The run's counters and FLOPs, chunk by chunk over ``build_plans``."""
    plans, _ = build_plans(config)
    toy = ToyDenoiser(config.toy) if config.denoiser == "toy" else None
    got = dict.fromkeys(("full_chunk_evals", "partial_chunk_evals", "skipped_chunk_evals",
                         "deep_flops", "shallow_flops"), 0)
    for plan in plans:
        for chunk in plan.chunks:
            full = chunk.mode is ChunkMode.FULL
            if not full and config.hard_skip:
                got["skipped_chunk_evals"] += 1
                continue
            got["full_chunk_evals" if full else "partial_chunk_evals"] += 1
            if toy is not None:
                deep, shallow = toy.chunk_cost(chunk.length, config.latent_h, config.latent_w,
                                               config.garment_tokens)
                got["deep_flops"] += deep if full else 0
                got["shallow_flops"] += shallow
    return got


def simulated_freshness(config: EngineConfig):
    """(trace, last full step, forced-full count) of the plan's marks, frame
    by frame: a frame a full chunk covers is fresh at that step; any other
    is as stale as the steps since its last full one. A chunk is forced
    full when it is interior, of full length, and one of its frames would
    be staler than the cap."""
    plans, _ = build_plans(config)
    steps, n = config.ddim_steps, config.n_total
    trace = np.zeros((steps, n), dtype=np.int64)
    last = np.full(n, -1, dtype=np.int64)
    forced = 0
    for k, plan in enumerate(plans):
        for chunk in plan.chunks:
            if (0 < k < steps - 1 and chunk.length == config.chunk_len
                    and k - last[chunk.start:chunk.stop].min() > config.staleness_cap):
                assert chunk.mode is ChunkMode.FULL
                forced += 1
            if chunk.mode is ChunkMode.PARTIAL:
                assert 0 < k < steps - 1 and chunk.length == config.chunk_len
        for f in range(n):
            if any(c.mode is ChunkMode.FULL for c in plan.chunks if c.start <= f < c.stop):
                last[f] = k
            else:
                trace[k, f] = k - last[f]
    assert trace.max(initial=0) <= config.staleness_cap
    return trace, last, forced


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drawn=configs(), data=st.data())
def test_engine_properties(drawn, data):
    config, dtype, broken = drawn
    valid = is_valid(config)
    changes = {name: data.draw(values, label=name)
               for name, values in unread_fields(config, broken).items()}
    changed = dataclasses.replace(config, **changes)
    assert is_valid(changed) == valid, f"changing unread fields {changes} changed validity"

    if not valid:
        for refuses in (build_plans, lambda c: run_inference(c, dtype=dtype),
                        lambda c: config_from_dict(config_to_dict(c))):
            with pytest.raises(ValueError):
                refuses(config)
        return

    assert config_from_dict(config_to_dict(config)) == config
    serial = run(config, dtype)
    video, stats = serial
    assert video.z.dtype == dtype and stats.processes == 1
    assert_same_bits(run(changed, dtype), serial)

    parallel = run(config, dtype, parallel=True)
    evaluated = max(sum(c.mode is ChunkMode.FULL or not config.hard_skip for c in plan.chunks)
                    for plan in build_plans(config)[0])
    most = min(CORES, evaluated if config.denoiser == "toy" else config.n_total)
    assert parallel[1].processes == (most if most > 1 else 1)
    assert_same_bits(parallel, serial)

    counts = expected_counts(config)
    assert {name: getattr(stats, name) for name in counts} == counts
    trace, last, forced = simulated_freshness(config)
    np.testing.assert_array_equal(stats.freshness_trace, trace, strict=True)
    np.testing.assert_array_equal(video.freshness, last, strict=True)
    assert stats.forced_full == forced

    if config.denoiser == "oracle" and config.partial_fraction == 0:
        target = synthesize_conditions(config, dtype=dtype).target_x0
        tolerance = 1e-4 if dtype is np.float32 else 1e-9
        assert np.max(np.abs(video.z - target)) <= tolerance


# A valid base for ``BREAKS`` one at a time: the derandomized draw above
# reaches only some of them in its 200 examples.
BASE = EngineConfig(n_total=8, chunk_len=4, policy="shift", delta=1, ddim_steps=2, toy=TOY,
                    latent_h=2, latent_w=2, garment_tokens=1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("index", range(len(BREAKS)))
def test_every_break_is_refused_by_every_entry(index, dtype):
    assert is_valid(BASE)
    config = dataclasses.replace(BASE, **BREAKS[index](BASE))
    for refuses in (EngineConfig.validate, build_plans,
                    lambda c: config_from_dict(config_to_dict(c)),
                    lambda c: synthesize_conditions(c, dtype=dtype),
                    lambda c: run_inference(c, dtype=dtype)):
        with pytest.raises(ValueError):
            refuses(config)
