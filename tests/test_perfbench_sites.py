"""Every function ``perfbench/run.py --trace 1`` wraps exists in this checkout.

The tracer looks each (module, owner, attribute) of its ``TRACED`` table up
with ``getattr`` and stops on a missing one, so a rename in the library
would break the per-layer benchmark without failing any other test.
The benchmark's ``Checker``, ``Tracer`` and ``layer_metrics`` also read
the plan, the eval and FLOP counters and the length of each cached block,
so each workload's small warm-up run goes through them here.
"""

import importlib.util
from pathlib import Path

import pytest

import shiftcache

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PERFBENCH = load_perfbench()
TRACED = PERFBENCH.TRACED


def test_library_is_this_checkout():
    assert Path(shiftcache.__file__).resolve().parent == ROOT / "src" / "shiftcache"


@pytest.mark.parametrize("module_name,owner_name,attr,span", TRACED,
                         ids=[site[-1] for site in TRACED])
def test_traced_site_resolves(module_name, owner_name, attr, span):
    module = getattr(shiftcache, module_name) if module_name else shiftcache
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("workload", list(PERFBENCH.WORKLOADS))
def test_checker_tracer_and_layer_metrics_read_this_checkout(workload):
    # the benchmark's own checks and per-layer metrics, on the workload's
    # small warm-up run: two checked calls, then one under the tracer
    config = PERFBENCH.warmup_config(PERFBENCH.make_config(shiftcache, workload, 0))
    checker = PERFBENCH.Checker(shiftcache, config)
    tracer = PERFBENCH.Tracer(shiftcache)
    checker.run(shiftcache, config)
    checker.run(shiftcache, config)
    tracer.install()
    try:
        traced = checker.run(shiftcache, config)
    finally:
        tracer.close()
    tracer.calibrate()
    assert (checker.attempted, checker.failed) == (3, 0)
    stats = traced[2]
    metrics, _ = PERFBENCH.layer_metrics(tracer, stats, 0.0)
    assert metrics["denoiser.deep_flops"][0] == stats.deep_flops
    assert metrics["denoiser.shallow_flops"][0] == stats.shallow_flops
    assert (stats.deep_flops > 0) == (config.denoiser == "toy")
    # the cache counters read len() of the stored and fetched blocks
    plans, _ = shiftcache.build_plans(config)
    frames = {mode: sum(c.length for plan in plans for c in plan.chunks if c.mode is mode)
              for mode in shiftcache.ChunkMode}
    cached = config.policy == "shift" and config.denoiser == "toy"
    assert metrics["cache.frames_stored"][0] == (frames[shiftcache.ChunkMode.FULL] if cached else 0)
    assert metrics["cache.frames_fetched"][0] == frames[shiftcache.ChunkMode.PARTIAL]
