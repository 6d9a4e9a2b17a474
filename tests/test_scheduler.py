import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from shiftcache.denoiser import OracleDenoiser, ToyDenoiser, ToyDenoiserConfig
from shiftcache.numerics import MaskVariant
from shiftcache import scheduler
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
from test_parallel import assert_same_run, fake_cores, needs_fork

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


class TestOverlapSumCoverCount:
    """``OverlapSum.reset`` counts a plan's covers once, from the chunk
    bounds; the count must equal counting chunk by chunk."""

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
        sums = scheduler.OverlapSum(100)
        sums.reset(chunks)
        np.testing.assert_array_equal(sums.count, covers_exactly(chunks, 100))

    def test_uncovered_frame_named_at_reset(self):
        sums = scheduler.OverlapSum(9)
        with pytest.raises(ValueError, match="^frame 4 not covered by any chunk$"):
            sums.reset([Chunk(0, 4), Chunk(5, 4)])

    def test_chunk_past_the_end_rejected(self):
        with pytest.raises(ValueError, match="ends past"):
            scheduler.OverlapSum(6).reset([Chunk(0, 4), Chunk(3, 4)])


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

    @pytest.mark.parametrize("kw", [dict(mask_variant="half", partial_fraction=0.5),
                                    dict(mask_variant="nonsense", partial_fraction=0.0)])
    def test_mask_variant_not_a_mask_variant_rejected_naming_the_key(self, kw):
        # rejected when the config is validated, not at the first partial
        # chunk, and also on a run that would build no mask
        with pytest.raises(ValueError, match="^mask_variant must be a MaskVariant"):
            small_config(**kw).validate()

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

    def test_overlap_runs_skip_marking_and_cache(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("overlap runs must not mark or cache")

        monkeypatch.setattr(scheduler, "mark_partial", forbidden)
        monkeypatch.setattr(scheduler, "FeatureCache", forbidden)
        cfg = small_config(policy="overlap", overlap_s=4, ddim_steps=3)
        run_inference(cfg)
        run_inference(small_config(policy="overlap", overlap_s=4, denoiser="oracle"))
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
        chunk's prediction and the mean the engine passed on."""
        preds, means = [[]], []

        def keep(eps):
            preds[-1].append(eps.copy())
            return eps

        full, partial = ToyDenoiser.denoise_full, ToyDenoiser.denoise_partial
        eps_for, step = OracleDenoiser.eps_for, scheduler.ddim_step

        def denoise_full(self, *args, **kwargs):
            eps, feats = full(self, *args, **kwargs)
            return keep(eps), feats

        def ddim_step(z, eps, k, sched):
            means.append(eps.copy())
            preds.append([])
            return step(z, eps, k, sched)

        monkeypatch.setattr(ToyDenoiser, "denoise_full", denoise_full)
        monkeypatch.setattr(ToyDenoiser, "denoise_partial",
                            lambda self, *a, **kw: keep(partial(self, *a, **kw)))
        monkeypatch.setattr(OracleDenoiser, "eps_for",
                            lambda self, *a, **kw: keep(eps_for(self, *a, **kw)))
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
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * latent_bytes, f"peak {peak / latent_bytes:.1f}x the latents"


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

        def counted(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(scheduler, "ddim_step", counted)
        _, stats = run_inference(config)
        assert stats.processes == 1
        if config.hard_skip:
            kept = sum(c.mode is ChunkMode.FULL for p in build_plans(config)[0] for c in p.chunks)
            assert stats.skipped_chunk_evals > 0
            assert len(calls) == kept == stats.full_chunk_evals
        else:
            assert len(calls) == config.ddim_steps


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
