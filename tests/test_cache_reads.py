"""The engine's cache reads, checked against the run's freshness record.

``FeatureCache`` is a plain feature store: it keeps no step of its own,
so nothing in a run checks that a partial chunk reads the features the
run's ``FreshnessRecord`` says it reads. These tests do, on the golden
p50 configs, on the serial path and on the parallel one. No step argument
is needed: per frame, the j-th store is the frame's j-th FULL step in the
plan, and the j-th fetch its j-th PARTIAL step. On the serial path the
freshness each partial chunk's mask is built from is checked as well.
"""

import numpy as np
import pytest

from shiftcache import denoiser, scheduler
from shiftcache.cache import FeatureCache
from shiftcache.scheduler import ChunkMode, build_plans, run_inference, synthesize_conditions
from test_golden import CONFIGS, golden_config
from test_parallel import needs_cores

P50 = sorted(name for name in CONFIGS if name.startswith("p50_"))


def partial_chunks(plans):
    """(step, chunk) of every partial chunk, in plan order."""
    return [(k, c) for k, plan in enumerate(plans) for c in plan.chunks
            if c.mode is ChunkMode.PARTIAL]


def recording_cache(plans, record, staleness_cap):
    """A FeatureCache subclass whose ``fetch`` asserts, per frame, that the
    frame was stored before, last at step ``k - trace[k, f]``, and that
    ``1 <= trace[k, f] <= staleness_cap``; and the set of (step, frame)
    pairs it checked."""
    trace = record.trace
    n = trace.shape[1]
    full_steps = [[] for _ in range(n)]
    partial_steps = [[] for _ in range(n)]
    for k, plan in enumerate(plans):
        for c in plan.chunks:
            for f in range(c.start, c.stop):
                (full_steps if c.mode is ChunkMode.FULL else partial_steps)[f].append(k)
    stored, fetched, checked = [0] * n, [0] * n, set()

    class RecordingCache(FeatureCache):
        def store_block(self, first_frame, feats):
            super().store_block(first_frame, feats)
            for f in range(first_frame, first_frame + len(feats)):
                stored[f] += 1

        def fetch(self, frames):
            for f in map(int, frames):
                k = partial_steps[f][fetched[f]]
                fetched[f] += 1
                assert stored[f], f"frame {f} fetched at step {k} before any store"
                assert full_steps[f][stored[f] - 1] == k - trace[k, f], (
                    f"frame {f} at step {k} was last stored at step "
                    f"{full_steps[f][stored[f] - 1]}, the record says {k - trace[k, f]}")
                assert 1 <= trace[k, f] <= staleness_cap, (k, f, trace[k, f])
                checked.add((k, f))
            return super().fetch(frames)

    return RecordingCache, checked


def run_recorded(name, monkeypatch):
    """Run a golden config with the recording cache; assert that every
    partial frame-step was checked, and return its plans, record and stats."""
    config = golden_config(**CONFIGS[name])
    plans, record = build_plans(config)
    cache, checked = recording_cache(plans, record, config.staleness_cap)
    monkeypatch.setattr(scheduler, "FeatureCache", cache)
    _, stats = run_inference(config, synthesize_conditions(config))
    expected = {(k, f) for k, c in partial_chunks(plans) for f in range(c.start, c.stop)}
    assert expected and checked == expected
    return plans, record, stats


@pytest.mark.parametrize("name", P50)
def test_serial_cache_reads_and_masks_follow_the_record(name, monkeypatch, one_core):
    goods = []
    build_mask = denoiser.build_mask

    def spy(variant, good):
        goods.append(good.copy())
        return build_mask(variant, good)

    monkeypatch.setattr(denoiser, "build_mask", spy)
    plans, record, stats = run_recorded(name, monkeypatch)
    assert stats.processes == 1
    # both freshness values occur, so the flags below are not all one value
    assert set(record.trace[record.trace > 0].tolist()) == {1, 2}
    expected = [record.trace[k, c.start:c.stop] == 1 for k, c in partial_chunks(plans)]
    assert len(goods) == len(expected)
    for got, want in zip(goods, expected):
        np.testing.assert_array_equal(got, want, strict=True)


@needs_cores
@pytest.mark.parametrize("name", P50)
def test_parallel_cache_reads_follow_the_record(name, monkeypatch):
    monkeypatch.setattr(scheduler, "_MIN_PARALLEL_FLOPS", 0)
    _, _, stats = run_recorded(name, monkeypatch)
    assert stats.processes > 1
