import dataclasses
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from shiftcache.denoiser import OracleDenoiser, ToyDenoiser, ToyDenoiserConfig
from shiftcache.numerics import MaskVariant, correlate_symmetric
from shiftcache import fileio, scheduler
from shiftcache.diffusion import ddim_step
from shiftcache.scheduler import (
    Chunk,
    ChunkMode,
    EngineConfig,
    _SMOOTH_BLOCK_FRAMES,
    _STREAM_CONDITIONS,
    aggregate_overlaps,
    build_plans,
    mark_partial,
    plan_overlap,
    plan_shift,
    run_inference,
    synthesize_conditions,
)

from test_golden import CONFIGS as GOLDEN_RUNS, FLOAT64, golden_config
from test_parallel import assert_bands_equal_serial, assert_same_run, fake_cores, needs_fork

TINY_TOY = ToyDenoiserConfig(shallow_width=4, deep_width=8, shallow_blocks=2,
                             deep_blocks=2, seed=0)


def starts(chunks):
    return [c.start for c in chunks]


def covers_exactly(chunks, n_total):
    hits = np.zeros(n_total, dtype=int)
    for c in chunks:
        hits[c.start:c.stop] += 1
    return hits


class TestPlanOverlap:
    def test_spec_example_32_16_8(self):
        assert starts(plan_overlap(32, 16, 8)) == [0, 8, 16]

    def test_no_overlap_disjoint_cover(self):
        chunks = plan_overlap(40, 8, 0)
        assert starts(chunks) == [0, 8, 16, 24, 32]
        assert np.all(covers_exactly(chunks, 40) == 1)

    def test_counts_for_table_sweep(self):
        for s, expected in ((0, 9), (4, 12), (8, 17), (15, 129)):
            assert len(plan_overlap(144, 16, s)) == expected

    def test_last_chunk_clamped_to_end(self):
        chunks = plan_overlap(150, 16, 8)
        assert chunks[-1].stop == 150
        assert all(c.length == 16 for c in chunks)

    def test_every_frame_covered(self):
        for n, l, s in ((17, 16, 4), (100, 7, 3), (16, 16, 0)):
            assert np.all(covers_exactly(plan_overlap(n, l, s), n) >= 1)

    def test_overlap_must_be_smaller_than_chunk(self):
        with pytest.raises(ValueError):
            plan_overlap(32, 16, 16)
        with pytest.raises(ValueError):
            plan_overlap(8, 16, 0)


class TestPlanShift:
    def test_spec_example_12_4_2(self):
        k0 = plan_shift(12, 4, 2, step_index=0)
        assert [(c.start, c.stop) for c in k0] == [(0, 4), (4, 8), (8, 12)]
        k1 = plan_shift(12, 4, 2, step_index=1)
        assert [(c.start, c.stop) for c in k1] == [(0, 2), (2, 6), (6, 10), (10, 12)]

    def test_delta_zero_matches_overlap_s0(self):
        for k in range(5):
            shift = plan_shift(48, 8, 0, step_index=k)
            overlap = plan_overlap(48, 8, 0)
            assert [(c.start, c.stop) for c in shift] == \
                [(c.start, c.stop) for c in overlap]

    def test_disjoint_exact_cover(self):
        for k in range(8):
            chunks = plan_shift(45, 8, 3, step_index=k)
            assert np.all(covers_exactly(chunks, 45) == 1)

    def test_boundary_phase_count_is_l_over_gcd(self):
        # modular-arithmetic oracle over a long horizon of steps
        for l, delta in ((16, 4), (16, 6), (12, 8), (8, 3), (10, 0)):
            offsets = {(k * delta) % l for k in range(4 * l)}
            expected = l // math.gcd(l, delta) if delta else 1
            assert len(offsets) == expected
            seen = set()
            for k in range(4 * l):
                chunks = plan_shift(8 * l, l, delta, step_index=k)
                seen.add(tuple(c.start for c in chunks))
            assert len(seen) == expected

    def test_fixed_shift_boundary_membership(self):
        # interior boundary sits between frames j-1 and j exactly when
        # j is congruent to k * delta (mod L)
        n, l, delta = 40, 8, 3
        for k in range(3 * l):
            offset = (k * delta) % l
            boundaries = {c.start for c in plan_shift(n, l, delta, k)} - {0}
            expected = {j for j in range(1, n) if j % l == offset}
            assert boundaries == expected

    def test_random_mode_seeded_and_in_range(self):
        a = [plan_shift(32, 8, 0, k, mode="random", seed=5) for k in range(6)]
        b = [plan_shift(32, 8, 0, k, mode="random", seed=5) for k in range(6)]
        for pa, pb in zip(a, b):
            assert [(c.start, c.stop) for c in pa] == [(c.start, c.stop) for c in pb]
        offsets = {p[0].stop for p in a if p[0].length < 8}
        assert all(0 < o < 8 for o in offsets)

    def test_delta_bounds(self):
        with pytest.raises(ValueError):
            plan_shift(32, 8, 8, 0)
        with pytest.raises(ValueError):
            plan_shift(4, 8, 0, 0)

    @pytest.mark.parametrize("chunk_len", [2, 3, 4])
    def test_random_shift_takes_any_delta_but_a_negative_one(self, chunk_len):
        # only fixed shift reads delta
        plans = [plan_shift(8, chunk_len, delta, k, mode="random", seed=5)
                 for k in range(6) for delta in (0, 4)]
        assert plans[0::2] == plans[1::2]
        with pytest.raises(ValueError, match="need 0 <= delta"):
            plan_shift(8, chunk_len, -1, 0, mode="random")

    @given(n=st.integers(4, 200), l=st.integers(1, 32), delta=st.integers(0, 31),
           k=st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_property_disjoint_cover(self, n, l, delta, k):
        l = min(l, n)
        delta = min(delta, l - 1)
        chunks = plan_shift(n, l, delta, k)
        assert np.all(covers_exactly(chunks, n) == 1)
        assert all(c.length <= l for c in chunks)


class TestAggregateOverlaps:
    def test_mean_of_two(self):
        chunks = [Chunk(0, 2), Chunk(0, 2)]
        eps = [np.zeros((2, 1, 1, 1), dtype=np.float32),
               np.ones((2, 1, 1, 1), dtype=np.float32)]
        out = aggregate_overlaps(eps, chunks, 2)
        np.testing.assert_array_equal(out, np.full((2, 1, 1, 1), 0.5, dtype=np.float32))

    def test_single_cover_is_identity_bitwise(self):
        chunks = [Chunk(0, 3)]
        eps = [np.random.default_rng(0).standard_normal((3, 4, 2, 2)).astype(np.float32)]
        np.testing.assert_array_equal(aggregate_overlaps(eps, chunks, 3), eps[0])

    def test_three_covers_order_independent(self):
        rng = np.random.default_rng(1)
        vals = [rng.standard_normal((2, 1, 1, 1)).astype(np.float32) for _ in range(3)]
        chunks = [Chunk(0, 2)] * 3
        base = aggregate_overlaps(vals, chunks, 2)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            out = aggregate_overlaps([vals[i] for i in perm],
                                     [chunks[i] for i in perm], 2)
            np.testing.assert_allclose(out, base, atol=1e-6)
        np.testing.assert_allclose(base, (vals[0] + vals[1] + vals[2]) / 3, atol=1e-6)

    def test_uncovered_frame_rejected(self):
        with pytest.raises(ValueError, match="not covered"):
            aggregate_overlaps([np.zeros((2, 1, 1, 1))], [Chunk(0, 2)], 3)


def band_calls(monkeypatch, name, **kw):
    """The (first, stop) of each call of ``scheduler.<name>(chunks, first,
    stop)`` in a serial 6-step run of ``small_config(**kw)``."""
    calls, original = [], getattr(scheduler, name)

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(scheduler, name, counted)
    _, stats = run_inference(small_config(ddim_steps=6, **kw))
    assert stats.processes == 1
    return calls


class TestOverlapSumCoverCount:
    """``_covers`` counts a plan's covers from the chunk bounds, once per
    plan in each band; the count must equal counting chunk by chunk, and
    ``OverlapSum.reset`` takes it and zeroes the sum."""

    @pytest.mark.parametrize("chunks", [
        plan_overlap(100, 16, 0),
        plan_overlap(100, 16, 4),
        plan_overlap(100, 16, 15),
        plan_shift(100, 16, 5, 3),
        plan_shift(100, 16, 5, 3, mode="random", seed=4),
        plan_shift(100, 16, 0, 7, mode="random", seed=9),
    ], ids=["overlap-s0", "overlap-s4", "overlap-s15", "shift-fixed", "shift-random",
            "shift-random-2"])
    def test_equals_per_chunk_counting(self, chunks):
        np.testing.assert_array_equal(scheduler._covers(chunks, 0, 100),
                                      covers_exactly(chunks, 100))

    def test_uncovered_frame_named(self):
        with pytest.raises(ValueError, match="^frame 4 not covered by any chunk$"):
            scheduler._covers([Chunk(0, 4), Chunk(5, 4)], 0, 9)

    def test_chunk_past_the_end_rejected(self):
        with pytest.raises(ValueError, match="ends past"):
            scheduler._covers([Chunk(0, 4), Chunk(3, 4)], 0, 6)

    def test_sum_zeroed_every_reset(self):
        chunks, sums = tuple(plan_overlap(40, 8, 3)), scheduler.OverlapSum(40)
        count = scheduler._covers(chunks, 0, 40)
        for _ in range(2):
            sums.reset(count)
            assert sums.count is count
            assert sums.total is None or not sums.total.any()
            for c in chunks:
                sums.add(c, np.ones((c.length, 4, 2, 2), dtype=np.float32))
            assert sums.total.any()
        np.testing.assert_array_equal(scheduler._covers(tuple(plan_shift(40, 8, 3, 1)), 0, 40),
                                      np.ones(40))

    @pytest.mark.parametrize("kw,counts", [
        (dict(policy="overlap", overlap_s=3), 1),
        (dict(policy="overlap", overlap_s=3, denoiser="oracle"), 1),
        (dict(), 6),
        (dict(delta=0), 6),  # shift plans equal at every step are still one per step
        (dict(shift_mode="random", partial_fraction=0.5, hard_skip=True), 0),  # no overlap sum
    ])
    @pytest.mark.usefixtures("one_core")  # the spy counts in this process only
    def test_covers_counted_once_per_plan(self, monkeypatch, kw, counts):
        assert band_calls(monkeypatch, "_covers", **kw) == [(0, 24)] * counts


class TestOnePlanPerOverlapRun:
    """An overlap run's chunks are the same at every step: ``build_plans``
    gives one plan object, which a band lays out (clips, cuts into runs and
    counts) once."""

    def test_overlap_plans_are_one_object_shift_plans_one_per_step(self):
        overlap, _ = build_plans(small_config(policy="overlap", overlap_s=3, ddim_steps=5))
        assert len(overlap) == 5 and all(plan is overlap[0] for plan in overlap)
        shift, _ = build_plans(small_config(ddim_steps=5, partial_fraction=0.5))
        assert len({id(plan) for plan in shift}) == 5

    @pytest.mark.parametrize("kw,clips", [
        (dict(policy="overlap", overlap_s=3), 1),
        (dict(policy="overlap", overlap_s=3, denoiser="oracle"), 1),
        (dict(), 6),
        (dict(delta=0), 6),  # shift plans equal at every step are still one per step
        (dict(shift_mode="random", partial_fraction=0.5, hard_skip=True), 6),
    ])
    @pytest.mark.usefixtures("one_core")  # the spy counts in this process only
    def test_clip_calls_per_band(self, monkeypatch, kw, clips):
        assert band_calls(monkeypatch, "_clip", **kw) == [(0, 24)] * clips


class TestBandLayout:
    """A band's layout of a plan, over the bands ``run_inference`` splits a
    video into: ``_clip`` keeps every (frame, chunk) pair of the band in
    plan order, ``_covers`` of the bands joins into the whole plan's, and
    ``_runs`` cuts each clipped plan into runs that give back its chunks."""

    @given(data=st.data(), n=st.integers(1, 48), length=st.integers(1, 8),
           policy=st.sampled_from(["overlap", "fixed", "random"]),
           bands=st.integers(1, 5), cap=st.integers(1, 8), drop=st.booleans())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_bands_lay_out_the_plan(self, data, n, length, policy, bands, cap, drop):
        length = min(length, n)
        if policy == "overlap":
            plan = plan_overlap(n, length, data.draw(st.integers(0, length - 1), "overlap"))
        else:
            delta = data.draw(st.integers(0, length - 1 if policy == "fixed" else 20), "delta")
            plan = plan_shift(n, length, delta, data.draw(st.integers(0, 30), "step"),
                              mode=policy, seed=data.draw(st.integers(0, 2 ** 16), "seed"))
        marks = data.draw(st.lists(st.booleans(), min_size=len(plan), max_size=len(plan)),
                          "marks")
        plan = tuple(dataclasses.replace(c, mode=ChunkMode.PARTIAL) if marked else c
                     for c, marked in zip(plan, marks))
        if drop:  # hard_skip drops the partial chunks, which can leave frames uncovered
            plan = tuple(c for c in plan if c.mode is ChunkMode.FULL)
        hits = covers_exactly(plan, n)

        def checked_covers(chunks, first, stop):
            """``_covers`` of the band: each frame's count, or, where a frame
            is left uncovered, the ValueError naming the first one."""
            if hits[first:stop].all():
                count = scheduler._covers(chunks, first, stop)
                np.testing.assert_array_equal(count, hits[first:stop])
                return count
            frame = first + int(np.argmin(hits[first:stop]))
            with pytest.raises(ValueError, match=f"^frame {frame} not covered by any chunk$"):
                scheduler._covers(chunks, first, stop)

        whole, bands, joined = checked_covers(plan, 0, n), min(bands, n), []
        for i in range(bands):
            first, stop = n * i // bands, n * (i + 1) // bands
            clipped = scheduler._clip(plan, first, stop)
            assert all(first <= c.start and c.stop <= stop for c in clipped)
            assert starts(clipped) == sorted(starts(clipped))
            for f in range(first, stop):  # each frame's chunks, in plan order, clipped
                assert [c for c in clipped if c.start <= f < c.stop] == [
                    Chunk(max(c.start, first), min(c.stop, stop) - max(c.start, first), c.mode)
                    for c in plan if c.start <= f < c.stop]
            joined.append(checked_covers(clipped, first, stop))
            runs = scheduler._runs(clipped, cap)
            expanded = [(s, size) for _, run, size in runs
                        for s in range(run.start, run.stop, run.step)]
            assert expanded == [(c.start, c.length) for c in clipped]
            for count, run, _ in runs:  # one length and even nonzero spacing by its slice
                assert 1 <= count <= cap and run.step > 0
                assert len(range(run.start, run.stop, run.step)) == count
        if whole is not None:
            np.testing.assert_array_equal(np.concatenate(joined), whole)


def all_full_plans(n, l, delta, steps, mode="fixed", seed=0):
    return [plan_shift(n, l, delta, k, mode=mode, seed=seed) for k in range(steps)]


class TestMarkPartial:
    def test_p_zero_all_full(self):
        plans, _ = mark_partial(all_full_plans(48, 8, 2, 10), 0.0, 2, 0, 8)
        assert all(c.mode is ChunkMode.FULL for step in plans for c in step)

    def test_first_and_last_steps_full(self):
        plans, _ = mark_partial(all_full_plans(48, 8, 2, 12), 1.0, 2, 0, 8)
        assert all(c.mode is ChunkMode.FULL for c in plans[0])
        assert all(c.mode is ChunkMode.FULL for c in plans[-1])

    def test_short_chunks_always_full(self):
        plans, _ = mark_partial(all_full_plans(48, 8, 3, 12), 1.0, 2, 0, 8)
        for step in plans:
            for c in step:
                if c.length < 8:
                    assert c.mode is ChunkMode.FULL

    def test_p_one_staleness_pattern(self):
        # static chunks, p=1: per frame the pattern is F, P, P, F, P, P, ...
        steps = 14
        plans, _ = mark_partial(all_full_plans(32, 8, 0, steps), 1.0, 2, 0, 8)
        modes = [[c.mode for c in step] for step in plans]
        last_full = np.zeros(4, dtype=int)
        for k, step in enumerate(modes):
            for idx, mode in enumerate(step):
                if mode is ChunkMode.PARTIAL:
                    staleness = k - last_full[idx]
                    assert 1 <= staleness <= 2
                else:
                    last_full[idx] = k
        # interior steps alternate in period-3 cycles: exactly the forced ones
        interior = modes[1:-1]
        partial_count = sum(m is ChunkMode.PARTIAL for step in interior for m in step)
        assert partial_count == pytest.approx(len(interior) * 4 * 2 / 3, abs=6)

    def test_realized_fraction_near_p(self):
        # 25 steps x 9 static chunks -> 207 interior chunk slots; the marked
        # fraction over actual coin decisions (the interior full-length
        # chunks not forced full) tracks p within ten points
        plans, stats = mark_partial(all_full_plans(144, 16, 0, 25), 0.5, 2, 3, 16)
        interior_slots = sum(c.length == 16 for step in plans[1:-1] for c in step)
        assert interior_slots == 23 * 9
        eligible = interior_slots - stats.forced_full
        partials = sum(c.mode is ChunkMode.PARTIAL for step in plans for c in step)
        assert abs(partials / eligible - 0.5) <= 0.10

    def test_seeded_reproducibility(self):
        a, _ = mark_partial(all_full_plans(64, 8, 4, 20), 0.7, 2, 9, 8)
        b, _ = mark_partial(all_full_plans(64, 8, 4, 20), 0.7, 2, 9, 8)
        assert [[c.mode for c in s] for s in a] == [[c.mode for c in s] for s in b]

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            mark_partial(all_full_plans(16, 8, 0, 3), 1.5, 2, 0, 8)

    def test_record_replays_the_marks(self):
        # the record's trace and last_full follow from the marks alone
        plans, record = mark_partial(all_full_plans(40, 8, 3, 9, "random", 5), 0.6, 2, 5, 8)
        last_full = np.full(40, -1)
        for k, step in enumerate(plans):
            expected = np.zeros(40, dtype=np.int64)
            for c in step:
                if c.mode is ChunkMode.PARTIAL:
                    expected[c.start:c.stop] = k - last_full[c.start:c.stop]
                else:
                    last_full[c.start:c.stop] = k
            np.testing.assert_array_equal(record.trace[k], expected)
        np.testing.assert_array_equal(record.last_full, last_full)
        assert record.trace.max() <= 2
        assert any(c.mode is ChunkMode.PARTIAL for step in plans for c in step)


def small_config(**kw):
    base = dict(n_total=24, chunk_len=8, policy="shift", delta=2, shift_mode="fixed",
                partial_fraction=0.0, ddim_steps=4, seed=0, toy=TINY_TOY,
                latent_h=8, latent_w=8, denoiser="toy")
    base.update(kw)
    return EngineConfig(**base)


class TestRunInference:
    def test_shift_delta0_equals_overlap_s0_bitwise(self):
        shift_cfg = small_config(policy="shift", delta=0)
        overlap_cfg = small_config(policy="overlap", overlap_s=0)
        va, sa = run_inference(shift_cfg)
        vb, sb = run_inference(overlap_cfg)
        np.testing.assert_array_equal(va.z, vb.z)
        assert sa.full_chunk_evals == sb.full_chunk_evals
        assert sa.partial_chunk_evals == sb.partial_chunk_evals == 0
        assert sa.deep_flops == sb.deep_flops
        assert sa.shallow_flops == sb.shallow_flops

    @pytest.mark.parametrize("policy,kw", [
        ("overlap", dict(overlap_s=0)),
        ("overlap", dict(overlap_s=3)),
        ("shift", dict(delta=0)),
        ("shift", dict(delta=3)),
        ("shift", dict(delta=2, shift_mode="random")),
    ])
    def test_oracle_recovers_target_any_policy(self, policy, kw):
        cfg = small_config(policy=policy, denoiser="oracle", ddim_steps=25, **kw)
        conditions = synthesize_conditions(cfg)
        video, stats = run_inference(cfg, conditions)
        assert np.max(np.abs(video.z - conditions.target_x0)) <= 1e-4

    def test_undefined_oracle_residual_rejected_before_any_chunk(self, monkeypatch):
        # beta_start 1e-20 rounds 1 - beta to 1.0, so the last step's alpha_bar is 1
        cfg = small_config(policy="overlap", overlap_s=4, denoiser="oracle", beta_start=1e-20)
        assert cfg.schedule().alpha_bar_at(cfg.ddim_steps - 1) == 1.0
        calls = []
        eps_for = OracleDenoiser.eps_for
        monkeypatch.setattr(OracleDenoiser, "eps_for",
                            lambda self, *a, **kw: calls.append(1) or eps_for(self, *a, **kw))
        with pytest.raises(ValueError, match="alpha_bar == 1 at this step; oracle residual undefined"):
            run_inference(cfg)
        assert calls == []

    def test_oracle_float64_recovers_target_tightly(self):
        cfg = small_config(policy="shift", delta=3, denoiser="oracle", ddim_steps=25)
        conditions = synthesize_conditions(cfg, dtype=np.float64)
        video, _ = run_inference(cfg, conditions, dtype=np.float64)
        assert video.z.dtype == np.float64
        assert np.max(np.abs(video.z - conditions.target_x0)) <= 1e-9

    def test_eval_counts_match_plan_sizes(self):
        cfg = small_config(policy="overlap", overlap_s=0, ddim_steps=3)
        _, stats = run_inference(cfg)
        assert stats.full_chunk_evals == 3 * 3  # ceil(24/8) chunks x 3 steps

    def test_partial_run_respects_staleness_cap(self):
        cfg = small_config(partial_fraction=0.7, ddim_steps=8, delta=3,
                           mask_variant=MaskVariant.HALF)
        _, stats = run_inference(cfg)
        assert stats.partial_chunk_evals > 0
        assert stats.freshness_trace.max() <= cfg.staleness_cap
        assert stats.freshness_trace[0].max() == 0
        assert stats.freshness_trace[-1].max() == 0

    def test_reproducible_bitwise(self):
        cfg = small_config(partial_fraction=0.5, shift_mode="random", ddim_steps=6)
        va, sa = run_inference(cfg)
        vb, sb = run_inference(cfg)
        np.testing.assert_array_equal(va.z, vb.z)
        assert sa.deep_flops == sb.deep_flops
        assert sa.full_chunk_evals == sb.full_chunk_evals
        np.testing.assert_array_equal(sa.freshness_trace, sb.freshness_trace)

    def test_monotone_deep_cost_in_partial_fraction(self):
        # expectation over seeds: more partial marking, less deep compute
        lows, highs = [], []
        for seed in range(10):
            cfg_lo = small_config(partial_fraction=0.2, ddim_steps=6, seed=seed)
            cfg_hi = small_config(partial_fraction=0.8, ddim_steps=6, seed=seed)
            lows.append(run_inference(cfg_lo)[1].deep_flops)
            highs.append(run_inference(cfg_hi)[1].deep_flops)
        assert np.mean(highs) < np.mean(lows)

    @pytest.mark.parametrize("chunk_len", [2, 3, 4])
    @pytest.mark.parametrize("kw", [dict(policy="overlap"), dict(shift_mode="random")])
    def test_delta_the_plan_does_not_read_is_not_held_under_chunk_len(self, kw, chunk_len):
        # the default delta, 4, is not under these chunk lengths
        cfg = EngineConfig(n_total=8, chunk_len=chunk_len, ddim_steps=3, toy=TINY_TOY,
                           latent_h=8, latent_w=8, **kw)
        assert cfg.delta == 4
        assert_same_run(run_inference(cfg), run_inference(dataclasses.replace(cfg, delta=0)))
        with pytest.raises(ValueError, match="need 0 <= delta"):
            dataclasses.replace(cfg, delta=-1).validate()

    @pytest.mark.parametrize("chunk_len", [2, 3, 4])
    def test_fixed_shift_delta_held_under_chunk_len(self, chunk_len):
        with pytest.raises(ValueError, match="delta < chunk_len under fixed shift"):
            EngineConfig(n_total=8, chunk_len=chunk_len).validate()
        EngineConfig(n_total=8, chunk_len=chunk_len, delta=chunk_len - 1).validate()

    def test_overlap_with_partial_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            small_config(policy="overlap", partial_fraction=0.5).validate()

    def test_oracle_with_partial_rejected(self):
        with pytest.raises(ValueError, match="oracle"):
            small_config(denoiser="oracle", partial_fraction=0.5).validate()

    @pytest.mark.parametrize("kw,match", [
        (dict(seed=-1), "^seed must be >= 0"),
        (dict(beta_start=0.5, beta_end=0.1), "beta_start <= beta_end"),
        (dict(beta_start=0.0), "0 < beta_start"),
        (dict(beta_end=1.0), "beta_end < 1"),
    ])
    def test_bad_seed_or_betas_rejected_naming_the_key(self, kw, match):
        # rejected when the config is validated, before any conditions are
        # synthesized or any chunk runs
        with pytest.raises(ValueError, match=match):
            small_config(**kw).validate()

    @pytest.mark.parametrize("beta_start,beta_end,match", [
        # alpha_bar underflows to 0 in float64 as well, so it stops decreasing
        (0.5, 0.9, "alpha_bars must be strictly decreasing"),
        # sampled alpha_bars down to 1.5e-71, 0 in float32: ddim_step would
        # divide by their roots
        (0.1, 0.2, "rounds to 0 in float32"),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_schedule_a_run_cannot_use_rejected_before_any_chunk(self, beta_start, beta_end,
                                                                 match, dtype):
        with pytest.raises(ValueError, match=match):
            fileio.config_from_dict({"beta_start": beta_start, "beta_end": beta_end})
        for denoiser in ("toy", "oracle"):
            config = small_config(denoiser=denoiser, beta_start=beta_start, beta_end=beta_end)
            for refuse in (config.validate, lambda: build_plans(config),
                           lambda: run_inference(config, dtype=dtype)):
                with pytest.raises(ValueError, match=match):
                    refuse()

    @pytest.mark.parametrize("kw", [dict(mask_variant="half", partial_fraction=0.5),
                                    dict(mask_variant="nonsense", partial_fraction=0.0)])
    def test_mask_variant_not_a_mask_variant_rejected_naming_the_key(self, kw):
        # rejected when the config is validated, not at the first partial
        # chunk, and also on a run that would build no mask
        with pytest.raises(ValueError, match="^mask_variant must be a MaskVariant"):
            small_config(**kw).validate()

    @pytest.mark.parametrize("kw,field", [
        # a truthy string would run the hard_skip ablation
        (dict(hard_skip="no", partial_fraction=0.5), "hard_skip"),
        (dict(delta=True), "delta"),
        (dict(partial_fraction=True), "partial_fraction"),
        (dict(n_total=32.0), "n_total"),
        (dict(staleness_cap=np.bool_(True)), "staleness_cap"),
    ])
    def test_wrong_types_rejected_naming_the_field(self, kw, field):
        # the JSON path's rule: a bool is never a number
        with pytest.raises(ValueError, match=f"^{field} must be "):
            small_config(**kw).validate()

    @pytest.mark.parametrize("toy", [{"seed": 0}, None, "default"])
    def test_toy_that_is_no_toy_config_rejected(self, toy):
        with pytest.raises(ValueError, match="^toy must be a ToyDenoiserConfig, got "):
            small_config(toy=toy).validate()

    def test_int_and_numpy_scalars_accepted(self):
        small_config(partial_fraction=1, beta_end=np.float32(0.02), n_total=np.int64(24),
                     hard_skip=np.False_).validate()

    def test_latent_video_freshness_tracks_last_full(self):
        cfg = small_config(partial_fraction=0.0, ddim_steps=4)
        video, _ = run_inference(cfg)
        np.testing.assert_array_equal(video.freshness, np.full(24, 3))

    @pytest.mark.parametrize("kw", [dict(partial_fraction=0.6, shift_mode="random"),
                                    dict(partial_fraction=0.6, hard_skip=True),
                                    dict(policy="overlap", overlap_s=3)])
    def test_freshness_comes_from_the_plan_record(self, kw):
        cfg = small_config(ddim_steps=6, **kw)
        _, record = build_plans(cfg)
        video, stats = run_inference(cfg)
        np.testing.assert_array_equal(stats.freshness_trace, record.trace)
        np.testing.assert_array_equal(video.freshness, record.last_full)
        assert stats.forced_full == record.forced_full

    @pytest.mark.parametrize("kw,marks", [
        (dict(policy="overlap", overlap_s=4), False),
        (dict(policy="overlap", overlap_s=4, denoiser="oracle"), False),
        (dict(shift_mode="fixed"), False),
        (dict(shift_mode="random"), False),
        # hard_skip marks chunks, then drops the partial ones unevaluated
        (dict(shift_mode="random", partial_fraction=0.6, hard_skip=True), True),
    ])
    def test_runs_without_a_partial_chunk_build_no_cache(self, monkeypatch, kw, marks):
        def forbidden(*args, **kwargs):
            raise AssertionError("a run without a partial chunk must not mark or cache")

        if not marks:
            monkeypatch.setattr(scheduler, "mark_partial", forbidden)
        monkeypatch.setattr(scheduler, "FeatureCache", forbidden)
        cfg = small_config(ddim_steps=3, **kw)
        _, stats = run_inference(cfg)
        assert stats.partial_chunk_evals == 0
        if marks:
            assert stats.skipped_chunk_evals > 0
        else:
            _, record = build_plans(cfg)
            np.testing.assert_array_equal(record.trace, np.zeros((3, 24), dtype=np.int64))
            np.testing.assert_array_equal(record.last_full, np.full(24, 2))


class TestStreamedAggregation:
    """The engine adds each chunk's prediction into one per-step sum as the
    chunk finishes; the mean it hands to ddim_step must be the mean of the
    step's chunk predictions, to the bit."""

    @staticmethod
    def record(monkeypatch):
        """Patch the denoisers and ddim_step to record, per step, each
        chunk's prediction and the mean the engine passed on; an oracle
        call for a run of chunks is split into its chunks' predictions."""
        preds, means = [[]], []

        def keep(eps):
            preds[-1].append(eps.copy())
            return eps

        full, partial = ToyDenoiser.denoise_full, ToyDenoiser.denoise_partial
        eps_for, step = OracleDenoiser.eps_for, scheduler.ddim_step

        def denoise_full(self, *args, **kwargs):
            eps, feats = full(self, *args, **kwargs)
            return keep(eps), feats

        def ddim_step(z, eps, k, sched, **kwargs):
            means.append(eps.copy())
            preds.append([])
            return step(z, eps, k, sched, **kwargs)

        monkeypatch.setattr(ToyDenoiser, "denoise_full", denoise_full)
        monkeypatch.setattr(ToyDenoiser, "denoise_partial",
                            lambda self, *a, **kw: keep(partial(self, *a, **kw)))

        def eps_for_each(self, *args, length=None, **kwargs):
            eps = eps_for(self, *args, length=length, **kwargs)
            for chunk_eps in [eps] if length is None else eps:  # a run: one per chunk
                keep(chunk_eps)
            return eps

        monkeypatch.setattr(OracleDenoiser, "eps_for", eps_for_each)
        monkeypatch.setattr(scheduler, "ddim_step", ddim_step)
        return preds, means

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("denoiser", ["toy", "oracle"])
    @pytest.mark.parametrize("plan", [
        dict(policy="overlap", overlap_s=0),
        dict(policy="overlap", overlap_s=4),
        dict(policy="overlap", overlap_s=15),
        dict(policy="shift", delta=5),
        dict(policy="shift", shift_mode="random"),
    ], ids=["overlap-s0", "overlap-s4", "overlap-s15", "shift-fixed", "shift-random"])
    @pytest.mark.usefixtures("one_core")  # the spies record in this process only
    def test_streamed_mean_equals_mean_of_chunk_list(self, monkeypatch, dtype, denoiser, plan):
        partial = 0.5 if denoiser == "toy" and plan["policy"] == "shift" else 0.0
        cfg = small_config(n_total=40, chunk_len=16, ddim_steps=4, denoiser=denoiser,
                           partial_fraction=partial, **plan)
        plans, _ = build_plans(cfg)
        preds, means = self.record(monkeypatch)
        run_inference(cfg, synthesize_conditions(cfg, dtype=dtype), dtype=dtype)
        assert len(means) == cfg.ddim_steps
        for plan_k, eps, mean in zip(plans, preds, means):
            chunks = list(plan_k.chunks)
            assert len(eps) == len(chunks)
            np.testing.assert_array_equal(mean, aggregate_overlaps(eps, chunks, cfg.n_total),
                                          strict=True)
            # the list mean written out: zeros, adds in plan order, one divide
            total = np.zeros_like(eps[0], shape=(cfg.n_total,) + eps[0].shape[1:])
            count = np.zeros(cfg.n_total)
            for chunk_eps, c in zip(eps, chunks):
                total[c.start:c.stop] += chunk_eps
                count[c.start:c.stop] += 1
            np.testing.assert_array_equal(
                mean, total / count.astype(total.dtype)[:, None, None, None], strict=True)
        if partial:
            assert any(c.mode is ChunkMode.PARTIAL for p in plans for c in p.chunks)

    def test_overlap_peak_memory_stays_near_the_latents(self):
        # oracle overlap S=15: each step evaluates 497 chunks of 16 frames
        # over 512 frames, 15.5x the latents if the predictions were held
        cfg = EngineConfig(n_total=512, chunk_len=16, latent_h=16, latent_w=12,
                           ddim_steps=4, policy="overlap", overlap_s=15, denoiser="oracle")
        conditions = synthesize_conditions(cfg)
        latent_bytes = cfg.n_total * 4 * cfg.latent_h * cfg.latent_w * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            run_inference(cfg, conditions)
            # the latents live in an anonymous mapping of latent_bytes, which
            # tracemalloc does not see
            peak = tracemalloc.get_traced_memory()[1] + latent_bytes
        finally:
            tracemalloc.stop()
        assert peak <= 8 * latent_bytes, f"peak {peak / latent_bytes:.1f}x the latents"


def per_chunk_oracle_run(config, dtype):
    """An oracle run's final latents, written out with one ``eps_for`` call
    per chunk: adds in plan order and one divide and update a step, or,
    under hard_skip, one update per kept chunk as it is evaluated."""
    plans, _ = build_plans(config)
    sched = config.schedule()
    oracle = OracleDenoiser(synthesize_conditions(config, dtype).target_x0, sched)
    z = np.random.default_rng([config.seed, scheduler._STREAM_NOISE]).standard_normal(
        oracle.target_x0.shape).astype(dtype)
    for k, plan in enumerate(plans):
        total, count = np.zeros_like(z), np.zeros(len(z), dtype=dtype)
        for c in plan.chunks:
            frames = slice(c.start, c.stop)
            if config.hard_skip and c.mode is ChunkMode.PARTIAL:
                continue
            eps = oracle.eps_for(z[frames], k, frames)
            if config.hard_skip:
                z[frames] = ddim_step(z[frames], eps, k, sched)
            else:
                total[frames] += eps
                count[frames] += 1
        if not config.hard_skip:
            z = ddim_step(z, total / count[:, None, None, None], k, sched)
    return z


class TestOracleRuns:
    """An oracle run evaluates each run of a step's chunks (consecutive,
    of one length, evenly spaced, at most a byte cap's worth) in one
    ``eps_for`` call, and commits its chunks one by one, with the bits of
    one call per chunk wherever a run breaks."""

    RUNS = {
        # stride 4, and the last chunk pulled back to start at 33, not 36
        "overlap_pulled_back": dict(policy="overlap", overlap_s=4, n_total=41),
        "overlap_s6": dict(policy="overlap", overlap_s=6, n_total=41),
        "shift_random": dict(shift_mode="random", seed=1),  # short edge chunks
        "hard_skip": GOLDEN_RUNS["hard_skip"],  # gaps where chunks are dropped
    }

    def test_runs_break_where_length_or_spacing_changes(self):
        assert scheduler._runs(tuple(plan_overlap(41, 8, 4)), 100) == [
            (9, slice(0, 33, 4), 8), (1, slice(33, 34, 1), 8)]
        # a hard_skip gap, then a short edge chunk
        gap = (Chunk(0, 8), Chunk(8, 8), Chunk(24, 8), Chunk(32, 8), Chunk(40, 3))
        assert scheduler._runs(gap, 100) == [
            (2, slice(0, 9, 8), 8), (2, slice(24, 33, 8), 8), (1, slice(40, 41, 1), 3)]
        # a band of one frame clips every chunk over it to that frame
        clipped = scheduler._clip(tuple(plan_overlap(20, 8, 6)), 5, 6)
        assert clipped == (Chunk(5, 1),) * 3
        assert scheduler._runs(clipped, 100) == [(1, slice(5, 6, 1), 1)] * 3

    @pytest.mark.parametrize("cap,counts", [(4, [4, 1]), (5, [5]), (6, [5])])
    def test_runs_break_at_the_cap(self, cap, counts):
        # five chunks spaced 8 apart: a run of the cap's length, one more, one less
        chunks = tuple(plan_shift(40, 8, 0, 0))
        assert [count for count, _, _ in scheduler._runs(chunks, cap)] == counts

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(RUNS))
    @pytest.mark.usefixtures("one_core")
    def test_run_equals_one_call_per_chunk(self, name, dtype):
        config = golden_config(**self.RUNS[name], denoiser="oracle")
        video, stats = run_inference(config, synthesize_conditions(config, dtype), dtype)
        assert stats.processes == 1
        np.testing.assert_array_equal(video.z, per_chunk_oracle_run(config, dtype), strict=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cap,sizes", [(4, [4, 1]), (5, [5]), (6, [5])])
    @pytest.mark.usefixtures("one_core")  # the spy counts in this process only
    def test_run_at_the_cap_equals_one_call_per_chunk(self, monkeypatch, cap, sizes, dtype):
        # five 8-frame chunks a step; the byte cap holds ``cap`` of them
        config = golden_config(denoiser="oracle", delta=0)
        frame_bytes = 4 * config.latent_h * config.latent_w * np.dtype(dtype).itemsize
        monkeypatch.setattr(scheduler, "_RUN_BYTES", cap * config.chunk_len * frame_bytes)
        calls, eps_for = [], OracleDenoiser.eps_for

        def spied(self, noise_latent, *args, **kwargs):
            calls.append(len(noise_latent))
            return eps_for(self, noise_latent, *args, **kwargs)

        expected = per_chunk_oracle_run(config, dtype)
        monkeypatch.setattr(OracleDenoiser, "eps_for", spied)
        video, _ = run_inference(config, synthesize_conditions(config, dtype), dtype)
        assert calls == sizes * config.ddim_steps  # chunks per call
        np.testing.assert_array_equal(video.z, expected, strict=True)

    @needs_fork
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cores", [2, 3, 5])
    def test_band_edges_break_runs_and_keep_the_bits(self, monkeypatch, cores, dtype):
        # overlap 6 of 8 on 81 frames: each band edge clips chunks to
        # lengths 1 to 7, each its own run, beside runs of whole chunks
        monkeypatch.setattr(scheduler, "_MIN_PARALLEL_FLOPS", 0)
        config = golden_config(denoiser="oracle", policy="overlap", overlap_s=6, n_total=81)
        chunks = build_plans(config)[0][0].chunks
        for i in range(cores):
            first, stop = 81 * i // cores, 81 * (i + 1) // cores
            runs = scheduler._runs(scheduler._clip(chunks, first, stop), 100)
            assert any(count > 1 for count, _, _ in runs)
            assert any(length < config.chunk_len for _, _, length in runs)
        assert_bands_equal_serial(config, monkeypatch, cores=cores, bands=cores, dtype=dtype)
        np.testing.assert_array_equal(run_inference(config, dtype=dtype)[0].z,
                                      per_chunk_oracle_run(config, dtype), strict=True)


class TestOneUpdatePerStep:
    """A serial run applies one DDIM update a step to all its frames, not
    one per run of frames, except under hard_skip, which updates each kept
    chunk as it is committed."""

    RUNS = {**GOLDEN_RUNS, "oracle_hard_skip": dict(GOLDEN_RUNS["hard_skip"], denoiser="oracle")}

    @pytest.mark.parametrize("name", sorted(RUNS))
    @pytest.mark.usefixtures("one_core")  # the spy counts in this process only
    def test_ddim_step_calls(self, monkeypatch, name):
        config = golden_config(**self.RUNS[name])
        calls, step = [], scheduler.ddim_step

        def counted(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(scheduler, "ddim_step", counted)
        _, stats = run_inference(config)
        assert stats.processes == 1
        if config.hard_skip:
            kept = sum(c.mode is ChunkMode.FULL for p in build_plans(config)[0] for c in p.chunks)
            assert stats.skipped_chunk_evals > 0
            assert len(calls) == kept == stats.full_chunk_evals
        else:
            assert len(calls) == config.ddim_steps


class TestInitialNoise:
    """The noise stream is drawn into the latents on a thread, in blocks of
    ``_SMOOTH_BLOCK_FRAMES`` frames, while the conditions are made or
    checked; the thread is joined before the run goes on, on every path."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, _SMOOTH_BLOCK_FRAMES - 1, _SMOOTH_BLOCK_FRAMES,
                                   _SMOOTH_BLOCK_FRAMES + 1, 2 * _SMOOTH_BLOCK_FRAMES + 1])
    @pytest.mark.usefixtures("one_core")  # the spy records in this process only
    def test_equals_one_whole_draw(self, monkeypatch, n, dtype):
        cfg = small_config(n_total=n, chunk_len=min(n, 8), policy="overlap", denoiser="oracle",
                           ddim_steps=2, seed=3)
        first, step = [], scheduler.ddim_step

        def spied_step(z, eps, k, sched, **kwargs):
            if not first:
                first.append(z.copy())
            return step(z, eps, k, sched, **kwargs)

        monkeypatch.setattr(scheduler, "ddim_step", spied_step)
        run_inference(cfg, dtype=dtype)
        whole = np.random.default_rng([cfg.seed, scheduler._STREAM_NOISE]).standard_normal(
            (n, 4, cfg.latent_h, cfg.latent_w))
        np.testing.assert_array_equal(first[0], whole.astype(dtype), strict=True)

    @staticmethod
    def noise_stream(monkeypatch, seed, draw):
        """Make the run's noise stream a generator whose ``standard_normal`` is ``draw``."""
        real = np.random.default_rng

        class Stream:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, *args, **kwargs):
                return draw(self.rng, *args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", lambda seed_=None: Stream(real(seed_))
                            if seed_ == [seed, scheduler._STREAM_NOISE] else real(seed_))

    def slow_noise(self, monkeypatch, seed):
        # a draw still running when the caller is done with the conditions
        def slow(rng, *args, **kwargs):
            time.sleep(0.05)
            return rng.standard_normal(*args, **kwargs)

        self.noise_stream(monkeypatch, seed, slow)

    @staticmethod
    def no_thread_left(call):
        """``call()``, checking that as many threads are alive after it,
        however it ends, as before."""
        threads = threading.active_count()
        try:
            return call()
        finally:
            assert threading.active_count() == threads

    @pytest.mark.usefixtures("one_core")
    def test_serial_run_leaves_no_thread(self, monkeypatch):
        self.slow_noise(monkeypatch, 0)
        assert self.no_thread_left(lambda: run_inference(small_config()))[1].processes == 1

    @needs_fork
    def test_oracle_band_run_leaves_no_thread(self, monkeypatch):
        fake_cores(monkeypatch, 2)
        monkeypatch.setattr(scheduler, "_MIN_PARALLEL_FLOPS", 0)
        self.slow_noise(monkeypatch, 0)
        _, stats = self.no_thread_left(lambda: run_inference(small_config(denoiser="oracle")))
        assert stats.processes == 2

    @pytest.mark.parametrize("denoiser", ["toy", "oracle"])
    def test_refused_conditions_leave_no_thread(self, monkeypatch, denoiser):
        cfg = small_config(denoiser=denoiser)
        conditions = synthesize_conditions(cfg, dtype=np.float64)
        self.slow_noise(monkeypatch, cfg.seed)
        with pytest.raises(ValueError, match="conditions.masked_video has dtype float64"):
            self.no_thread_left(lambda: run_inference(cfg, conditions))

    def test_interrupted_synthesis_leaves_no_thread(self, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(scheduler, "_synthesize", interrupted)
        self.slow_noise(monkeypatch, 0)
        with pytest.raises(KeyboardInterrupt):
            self.no_thread_left(lambda: run_inference(small_config()))

    def test_failed_draw_raised_with_its_type_before_any_chunk(self, monkeypatch):
        class DrawFailed(Exception):
            pass

        def failed(rng, *args, **kwargs):
            raise DrawFailed("no noise")

        calls = []
        self.noise_stream(monkeypatch, 0, failed)
        monkeypatch.setattr(scheduler, "assemble_input", lambda *a: calls.append(a))
        with pytest.raises(DrawFailed, match="^no noise$"):
            self.no_thread_left(lambda: run_inference(small_config()))
        assert calls == []


class TestRunFlops:
    @pytest.mark.parametrize("kw", [
        *(dict(partial_fraction=0.5, mask_variant=mask) for mask in MaskVariant),
        dict(partial_fraction=0.5, hard_skip=True),
        dict(policy="overlap", overlap_s=3),
        dict(denoiser="oracle", policy="overlap", overlap_s=3),
    ], ids=["p50_full", "p50_half", "p50_quarter", "p50_causal", "hard_skip", "overlap_s3",
            "oracle"])
    @pytest.mark.usefixtures("one_core")  # matmul_count counts in this process only
    def test_counters_equal_the_matmuls_the_run_ran(self, kw, matmul_count):
        # full chunks run deep + shallow, partial chunks shallow, skipped
        # chunks nothing, and the oracle no matmul at all
        cfg = small_config(ddim_steps=6, **kw)
        plans, _ = build_plans(cfg)
        modes = [c.mode for plan in plans for c in plan.chunks]
        if cfg.partial_fraction > 0:
            assert ChunkMode.PARTIAL in modes
        _, stats = run_inference(cfg)
        assert (stats.deep_flops, stats.shallow_flops) == (matmul_count.deep,
                                                           matmul_count.shallow)
        assert (stats.deep_flops > 0) == (cfg.denoiser == "toy")
        partials = modes.count(ChunkMode.PARTIAL)
        assert stats.full_chunk_evals == modes.count(ChunkMode.FULL)
        assert stats.partial_chunk_evals == (0 if cfg.hard_skip else partials)
        assert stats.skipped_chunk_evals == (partials if cfg.hard_skip else 0)

    def test_overlap_ratio_matches_count_formula(self):
        # 48 frames in chunks of 8: the S=0 run evaluates 6 chunks a step,
        # and a run's FLOP ratio to it is the ratio of the chunk counts
        base = small_config(n_total=48, policy="overlap", overlap_s=0, ddim_steps=2)
        _, stats_s0 = run_inference(base)
        assert stats_s0.full_chunk_evals == 2 * 6
        for s, count in ((2, 8), (4, 11), (7, 41)):
            _, stats = run_inference(dataclasses.replace(base, overlap_s=s))
            assert stats.full_chunk_evals == 2 * count
            assert stats_s0.total_flops / stats.total_flops == pytest.approx(6 / count)


class TestRunDtype:
    @pytest.mark.parametrize("denoiser", ["toy", "oracle"])
    @pytest.mark.parametrize("dtype", [np.float16, np.int32, np.complex64])
    def test_unsupported_dtype_rejected_before_planning(self, denoiser, dtype, monkeypatch):
        cfg = small_config(denoiser=denoiser)
        calls = []
        monkeypatch.setattr(scheduler, "build_plans", lambda *a: calls.append(a))
        match = f"dtype must be float32 or float64, got {np.dtype(dtype)}"
        with pytest.raises(ValueError, match=match):
            run_inference(cfg, dtype=dtype)
        with pytest.raises(ValueError, match=match):
            synthesize_conditions(cfg, dtype=dtype)
        assert calls == []


class TestCallerConditions:
    @pytest.mark.parametrize("denoiser", ["toy", "oracle"])
    @pytest.mark.parametrize("name,shape", [
        ("masked_video", (32, 4, 8, 8)),  # more frames than the config
        ("masked_video", (24, 3, 8, 8)),
        ("binary_mask", (24, 4, 8, 8)),
        ("pose", (24, 4, 8, 6)),
        ("target_x0", (16, 4, 8, 8)),
        ("target_x0", (24, 4, 6, 8)),
        ("garment", (7, 4)),              # more tokens than garment_tokens
        ("garment", (4, 8)),
    ])
    def test_mismatched_shape_rejected_naming_the_field(self, denoiser, name, shape):
        cfg = small_config(denoiser=denoiser, garment_tokens=4)
        value = np.zeros(shape, dtype=np.float32)
        conditions = dataclasses.replace(synthesize_conditions(cfg), **{name: value})
        with pytest.raises(ValueError, match=f"conditions.{name} has shape"):
            run_inference(cfg, conditions)

    @pytest.mark.parametrize("denoiser", ["toy", "oracle"])
    def test_fields_left_none_rejected_naming_the_first(self, denoiser):
        # the shape a run's own conditions have on the oracle: a caller's
        # conditions need all five arrays, whichever denoiser reads them
        cfg = small_config(denoiser=denoiser)
        target = synthesize_conditions(cfg).target_x0
        with pytest.raises(ValueError, match="conditions.masked_video is a NoneType, not an"):
            run_inference(cfg, scheduler.Conditions(None, None, None, None, target))

    @pytest.mark.parametrize("denoiser", ["toy", "oracle"])
    @pytest.mark.parametrize("name", ["masked_video", "binary_mask", "pose", "garment",
                                      "target_x0"])
    def test_field_as_a_list_rejected_naming_it(self, denoiser, name):
        cfg = small_config(denoiser=denoiser, garment_tokens=4)
        conditions = synthesize_conditions(cfg)
        conditions = dataclasses.replace(conditions, **{name: getattr(conditions, name).tolist()})
        with pytest.raises(ValueError, match=f"conditions.{name} is a list, not an ndarray"):
            run_inference(cfg, conditions)

    @pytest.mark.parametrize("denoiser", ["toy", "oracle"])
    @pytest.mark.parametrize("name,dtype", [
        ("masked_video", np.int64),
        ("masked_video", np.float64),
        ("binary_mask", np.int64),
        ("pose", np.int64),
        ("pose", np.float16),
        ("target_x0", np.float64),
        ("garment", np.int64),
        ("garment", np.float64),
        ("garment", np.float16),
    ])
    def test_wrong_dtype_rejected_naming_the_field(self, denoiser, name, dtype):
        cfg = small_config(denoiser=denoiser, garment_tokens=4)
        conditions = synthesize_conditions(cfg)
        value = getattr(conditions, name).astype(dtype)
        conditions = dataclasses.replace(conditions, **{name: value})
        with pytest.raises(ValueError, match=f"conditions.{name} has dtype {np.dtype(dtype)}"):
            run_inference(cfg, conditions)

    @pytest.mark.parametrize("denoiser", ["toy", "oracle"])
    def test_conditions_must_have_the_run_dtype(self, denoiser):
        # float32 conditions in a float64 run are refused; float64 ones run,
        # with the garment still float32, and the toy caches float64 features
        toy = denoiser == "toy"
        cfg = small_config(denoiser=denoiser, partial_fraction=0.5 if toy else 0.0,
                           ddim_steps=6)
        with pytest.raises(ValueError, match="conditions.masked_video has dtype float32"):
            run_inference(cfg, synthesize_conditions(cfg), dtype=np.float64)
        conditions = synthesize_conditions(cfg, dtype=np.float64)
        assert conditions.garment.dtype == np.float32
        video, stats = run_inference(cfg, conditions, dtype=np.float64)
        assert video.z.dtype == np.float64
        assert (stats.partial_chunk_evals > 0) == toy

    @pytest.mark.parametrize("denoiser", ["toy", "oracle"])
    @pytest.mark.parametrize("name", ["masked_video", "binary_mask", "pose", "garment",
                                      "target_x0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_naming_the_field(self, denoiser, name, value):
        cfg = small_config(denoiser=denoiser, garment_tokens=4)
        conditions = synthesize_conditions(cfg)
        getattr(conditions, name).flat[5] = value
        with pytest.raises(ValueError, match=f"conditions.{name} holds NaN or inf"):
            run_inference(cfg, conditions)

    @pytest.mark.parametrize("denoiser", ["toy", "oracle"])
    def test_non_binary_mask_rejected_before_any_chunk(self, denoiser, monkeypatch):
        cfg = small_config(denoiser=denoiser)
        conditions = synthesize_conditions(cfg)
        conditions.binary_mask[5, 0, 2, 3] = 0.5
        calls = []
        monkeypatch.setattr(scheduler, "assemble_input",
                            lambda *a: calls.append(a) or np.concatenate(a, axis=1))
        with pytest.raises(ValueError, match="conditions.binary_mask must contain only 0 and 1"):
            run_inference(cfg, conditions)
        assert calls == []


class TestSynthesizeConditions:
    @pytest.mark.parametrize("h,w", [(2, 2), (4, 6), (8, 8), (16, 12)])
    def test_bit_identical_to_scipy_gaussian_filter(self, h, w):
        # two full smoothing blocks and a short last one
        n = 2 * _SMOOTH_BLOCK_FRAMES + 5
        cfg = small_config(n_total=n, latent_h=h, latent_w=w, seed=3)
        got = synthesize_conditions(cfg, dtype=np.float64)
        rng = np.random.default_rng([cfg.seed, _STREAM_CONDITIONS])
        expected = []
        for _ in range(3):  # video, pose, target, drawn in this order
            x = ndimage.gaussian_filter(rng.standard_normal((n, 4, h, w)),
                                        sigma=(0, 0, 1.5, 1.5), mode="wrap")
            expected.append(x / max(x.std(), 1e-12))
        video, pose, target = expected
        np.testing.assert_array_equal(got.masked_video, video * (1 - got.binary_mask))
        np.testing.assert_array_equal(got.pose, pose)
        np.testing.assert_array_equal(got.target_x0, target)

    @pytest.mark.parametrize("kw,match", [(dict(latent_h=3), "latent dims must be even"),
                                          (dict(n_total=0), "n_total must be >= 1")])
    def test_invalid_config_rejected_after_the_dtype(self, kw, match):
        cfg = EngineConfig(**kw)
        with pytest.raises(ValueError, match=match):
            synthesize_conditions(cfg)
        with pytest.raises(ValueError, match="dtype must be float32 or float64"):
            synthesize_conditions(cfg, dtype=np.float16)


class TestConditionDraws:
    """``synthesize_conditions`` draws the fields on a thread, in blocks of
    ``_SMOOTH_BLOCK_FRAMES`` frames, while the caller smooths each block as
    it lands; the thread is joined before the call returns or raises."""

    @staticmethod
    def whole_draws(config, dtype):
        """The five fields from whole draws, smoothed whole (H, then W)."""
        rng = np.random.default_rng([config.seed, _STREAM_CONDITIONS])
        shape = (config.n_total, 4, config.latent_h, config.latent_w)
        fields = []
        for _ in range(3):  # video, pose, target
            x = rng.standard_normal(shape).transpose(2, 3, 0, 1)
            x = correlate_symmetric(x, scheduler._CONDITION_KERNEL, 0).transpose(1, 0, 2, 3)
            x = correlate_symmetric(x, scheduler._CONDITION_KERNEL, 0).transpose(2, 3, 1, 0)
            x = np.ascontiguousarray(x)  # the std of a [N, 4, H, W] array, summed in its order
            fields.append((x / max(x.std(), 1e-12)).astype(dtype))
        garment = rng.standard_normal((config.garment_tokens, config.toy.shallow_width))
        return fields, garment.astype(np.float32)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, _SMOOTH_BLOCK_FRAMES - 1, _SMOOTH_BLOCK_FRAMES,
                                   _SMOOTH_BLOCK_FRAMES + 1, 2 * _SMOOTH_BLOCK_FRAMES + 1])
    def test_equals_whole_draws(self, n, dtype):
        config = small_config(n_total=n, chunk_len=min(n, 8), policy="overlap", seed=5)
        got = TestInitialNoise.no_thread_left(lambda: synthesize_conditions(config, dtype))
        (video, pose, target), garment = self.whole_draws(config, dtype)
        np.testing.assert_array_equal(got.masked_video, video * (1 - got.binary_mask),
                                      strict=True)
        np.testing.assert_array_equal(got.pose, pose, strict=True)
        np.testing.assert_array_equal(got.target_x0, target, strict=True)
        np.testing.assert_array_equal(got.garment, garment, strict=True)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failed_smoothing_leaves_no_thread(self, monkeypatch, error):
        # the third block's smoothing fails while later blocks are drawn
        config = small_config(n_total=3 * _SMOOTH_BLOCK_FRAMES)
        calls, correlate = [], scheduler.correlate_symmetric

        def failing(*args):
            calls.append(1)
            if len(calls) == 5:  # two calls a block
                raise error("smoothing failed")
            return correlate(*args)

        monkeypatch.setattr(scheduler, "correlate_symmetric", failing)
        with pytest.raises(error, match="^smoothing failed$"):
            TestInitialNoise.no_thread_left(lambda: synthesize_conditions(config))

    @pytest.mark.parametrize("denoiser", ["toy", "oracle"])
    def test_failed_draw_raised_with_its_type(self, monkeypatch, denoiser):
        class DrawFailed(Exception):
            pass

        real, draws = np.random.default_rng, []

        class Stream:  # the conditions stream, failing at its fourth block
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, *args, **kwargs):
                draws.append(1)
                if len(draws) == 4:
                    raise DrawFailed("no conditions")
                return self.rng.standard_normal(*args, **kwargs)

        config = small_config(n_total=2 * _SMOOTH_BLOCK_FRAMES, denoiser=denoiser)
        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: Stream(real(seed))
                            if seed == [config.seed, _STREAM_CONDITIONS] else real(seed))
        for call in (lambda: synthesize_conditions(config), lambda: run_inference(config)):
            draws.clear()
            with pytest.raises(DrawFailed, match="^no conditions$"):
                TestInitialNoise.no_thread_left(call)


class TestOwnConditions:
    """A run given no conditions synthesizes only the fields its denoiser
    reads, each with the bits ``synthesize_conditions`` gives it."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_same_run_as_with_synthesized_conditions(self, name):
        config = golden_config(**GOLDEN_RUNS[name])
        dtype = np.float64 if name in FLOAT64 else np.float32
        assert_same_run(run_inference(config, dtype=dtype),
                        run_inference(config, synthesize_conditions(config, dtype), dtype))

    @needs_fork
    def test_same_run_on_oracle_bands(self, monkeypatch):
        monkeypatch.setattr(scheduler, "_MIN_PARALLEL_FLOPS", 0)
        fake_cores(monkeypatch, 2)
        config = golden_config(**GOLDEN_RUNS["oracle_f64"])
        own = run_inference(config, dtype=np.float64)
        given = run_inference(config, synthesize_conditions(config, np.float64), np.float64)
        assert own[1].processes == given[1].processes == 2
        assert_same_run(own, given)

    @pytest.mark.parametrize("denoiser,fields", [("toy", 2), ("oracle", 1)])
    def test_smooths_only_the_fields_its_denoiser_reads(self, monkeypatch, denoiser, fields):
        # the toy reads the video and the pose, the oracle the target; each
        # field is smoothed along H, then W, in blocks of frames
        config = golden_config(denoiser=denoiser)
        calls, correlate = [], scheduler.correlate_symmetric
        monkeypatch.setattr(scheduler, "correlate_symmetric",
                            lambda *args: calls.append(1) or correlate(*args))
        blocks = math.ceil(config.n_total / _SMOOTH_BLOCK_FRAMES)
        assert blocks == 2
        run_inference(config)
        assert len(calls) == 2 * blocks * fields
        calls.clear()
        synthesize_conditions(config)
        assert len(calls) == 2 * blocks * 3


class TestHardSkipAblation:
    def test_skipped_chunks_are_not_evaluated(self):
        cfg = small_config(partial_fraction=1.0, hard_skip=True, ddim_steps=8, delta=3)
        video, stats = run_inference(cfg)
        assert stats.skipped_chunk_evals > 0
        assert stats.partial_chunk_evals == 0
        assert np.all(np.isfinite(video.z))
        full_only = small_config(partial_fraction=0.0, ddim_steps=8, delta=3)
        _, full_stats = run_inference(full_only)
        assert stats.deep_flops < full_stats.deep_flops
        assert not np.array_equal(video.z, run_inference(full_only)[0].z)

    def test_skipped_frames_miss_their_update(self):
        # two steps: step 1 skips a chunk; those frames keep their step-0 value
        cfg = small_config(n_total=16, chunk_len=8, delta=0, partial_fraction=1.0,
                           hard_skip=True, ddim_steps=3)
        video, stats = run_inference(cfg)
        cfg_full = small_config(n_total=16, chunk_len=8, delta=0,
                                partial_fraction=0.0, ddim_steps=3)
        video_full, _ = run_inference(cfg_full)
        assert stats.skipped_chunk_evals == 2  # both chunks at the interior step
        assert not np.allclose(video.z, video_full.z)

    def test_hard_skip_reproducible(self):
        cfg = small_config(partial_fraction=0.6, hard_skip=True, ddim_steps=6,
                           shift_mode="random")
        va, sa = run_inference(cfg)
        vb, sb = run_inference(cfg)
        np.testing.assert_array_equal(va.z, vb.z)
        assert sa.skipped_chunk_evals == sb.skipped_chunk_evals

    def test_hard_skip_requires_shift_policy(self):
        with pytest.raises(ValueError, match="hard_skip"):
            small_config(policy="overlap", overlap_s=0, hard_skip=True,
                         partial_fraction=0.0).validate()
