"""End-to-end and per-layer benchmark of shiftcache's public inference entry.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload shift-p50 --seconds 25 [--seed 0] [--trace 0]

``--trace 0`` times whole ``shiftcache.run_inference`` calls from outside
and prints the end-to-end metrics. ``--trace 1`` wraps the public
functions of the scheduler, denoiser, cache and diffusion modules and
prints the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. See README.md in
this directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
MIN_REPEATS = 3
# Host-speed reference (README.md, "Host speed"): the reference kernel's
# time on an undisturbed host, to which timings are scaled, how many times
# it runs per sample, and the sizes of its two parts. Their split makes the
# kernel slow down as much as the program when the host slows.
REF_SECONDS = 0.010
REF_REPEATS = 3
REF_ATTENTION_ITERATIONS = 10
REF_PYTHON_ITERATIONS = 60_000
ORACLE_TOLERANCE = 1e-5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
# Calibration of the tracer's own cost: the median of CALIBRATION_ROUNDS
# rounds of CALIBRATION_CALLS wrapped no-op calls each.
CALIBRATION_ROUNDS = 5
CALIBRATION_CALLS = 4_000
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SHIFTCACHE_THREADS")

_SHAPE = dict(chunk_len=16, latent_h=16, latent_w=12, ddim_steps=25)
WORKLOADS = {
    "shift-p50": dict(_SHAPE, n_total=144, policy="shift", shift_mode="random",
                      partial_fraction=0.5, mask_variant="half", staleness_cap=2,
                      denoiser="toy"),
    "overlap-s4": dict(_SHAPE, n_total=144, policy="overlap", overlap_s=4, denoiser="toy"),
    "oracle-s15": dict(_SHAPE, n_total=2048, policy="overlap", overlap_s=15,
                       denoiser="oracle"),
}

# (module, class or None, function name, span name); module None is the
# package itself, whose run_inference is the entry the benchmark calls. The engine
# looks up ddim_step, build_plans, synthesize_conditions and
# aggregate_overlaps as globals of shiftcache.scheduler, and build_mask as a
# global of shiftcache.denoiser, so those module attributes are wrapped.
TRACED = (
    (None, None, "run_inference", "scheduler.run_inference"),
    ("scheduler", None, "build_plans", "scheduler.build_plans"),
    ("scheduler", None, "synthesize_conditions", "scheduler.synthesize_conditions"),
    ("scheduler", None, "aggregate_overlaps", "scheduler.aggregate_overlaps"),
    ("denoiser", "ToyDenoiser", "denoise_full", "denoiser.denoise_full"),
    ("denoiser", "ToyDenoiser", "denoise_partial", "denoiser.denoise_partial"),
    ("denoiser", "OracleDenoiser", "eps_for", "denoiser.oracle_eps_for"),
    ("cache", "FeatureCache", "fetch", "cache.fetch"),
    ("cache", "FeatureCache", "store_block", "cache.store_block"),
    ("denoiser", None, "build_mask", "cache.build_mask"),
    ("scheduler", None, "ddim_step", "diffusion.ddim_step"),
)
ROOT_SPAN = "scheduler.run_inference"
# Frames moved per call, for the cache counters: fetch(self, frames, step)
# and store_block(self, first_frame, feats, step).
FRAME_COUNTS = {
    "cache.fetch": lambda self, frames, *_: len(frames),
    "cache.store_block": lambda self, first, feats, *_: len(feats),
}


def import_shiftcache():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    package = SRC / "shiftcache"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from the root of a shiftcache checkout")
    sys.path.insert(0, str(SRC))
    import shiftcache

    if Path(shiftcache.__file__).resolve().parent != package:
        sys.exit(f"perfbench: imported shiftcache from {shiftcache.__file__}, not {package}")
    return shiftcache


def make_config(sc, workload: str, seed: int, **overrides):
    from shiftcache.numerics import MaskVariant

    kwargs = dict(WORKLOADS[workload], seed=seed, **overrides)
    if "mask_variant" in kwargs:
        kwargs["mask_variant"] = MaskVariant(kwargs["mask_variant"])
    return sc.EngineConfig(**kwargs)


def warmup_config(config):
    """The small run that ends set-up: the workload's policy on two chunks."""
    return replace(config, n_total=2 * config.chunk_len, ddim_steps=3)


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def reference_kernel_s() -> float:
    """Host speed now: the fastest of REF_REPEATS runs of a fixed kernel made
    of the two kinds of work the program does. One is softmax attention over
    L=16 frames of 8-wide tokens, dispatched from a Python loop, as in the
    toy denoiser. The other is plain interpreted Python, as in the engine.
    It uses numpy only, so no change to shiftcache moves it."""
    import numpy as np

    rng = np.random.default_rng(0)
    q, k, v = (rng.standard_normal((192, 16, 8), dtype=np.float32) for _ in range(3))
    best = math.inf
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        for _ in range(REF_ATTENTION_ITERATIONS):
            scores = q @ k.transpose(0, 2, 1)
            weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
            out = (weights / weights.sum(axis=-1, keepdims=True)) @ v
            out / np.sqrt(np.einsum("...c,...c->...", out, out) / 8 + 1e-6)[..., None]
        acc = 0
        for i in range(REF_PYTHON_ITERATIONS):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def at_reference_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    """A timing scaled to a host that runs the reference kernel in
    REF_SECONDS, given the kernel's time just before and just after it."""
    return seconds * REF_SECONDS * 2 / (ref_before + ref_after)


def measure_setup(args) -> float:
    """Median over fresh processes of start to ready, at reference speed:
    interpreter start, ``import shiftcache`` and one small warm-up
    ``run_inference``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    ref = reference_kernel_s()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        ref_before, ref = ref, reference_kernel_s()
        times.append(at_reference_speed(ready - start, ref_before, ref))
    return statistics.median(times)


class Checker:
    """Correctness checks applied to every measured ``run_inference`` call."""

    def __init__(self, sc, config):
        plans, _ = sc.build_plans(config)
        self.chunk_count = sum(len(plan.chunks) for plan in plans)
        self.target = None
        if config.denoiser == "oracle":
            self.target = sc.synthesize_conditions(config).target_x0
        self.first_bytes = None
        self.attempted = 0
        self.failed = 0

    def run(self, sc, config):
        """One checked call: returns (wall seconds, video, stats), or None if
        the call raised or failed a check."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            video, stats = sc.run_inference(config)
            wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        problems = self.problems(video.z, stats)
        if problems:
            print(f"perfbench: check failed: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
            return None
        return wall, video, stats

    def problems(self, z, stats) -> list[str]:
        import numpy as np

        found = []
        evals = stats.full_chunk_evals + stats.partial_chunk_evals
        if evals != self.chunk_count:
            found.append(f"{evals} chunk evals, build_plans has {self.chunk_count} chunks")
        if not np.all(np.isfinite(z)):
            found.append("final latents are not finite")
        if self.first_bytes is None:
            self.first_bytes = z.tobytes()
        elif z.tobytes() != self.first_bytes:
            found.append("final latents differ from the first repeat")
        if self.target is not None:
            err = float(np.max(np.abs(z - self.target)))
            if err > ORACLE_TOLERANCE:
                found.append(f"oracle max|z - target| = {err:.3g} > {ORACLE_TOLERANCE}")
        return found


def timed_loop(sc, config, checker: Checker, seconds: float):
    """Closed loop: one caller, one call at a time, for ``seconds`` and at
    least MIN_REPEATS calls, with the reference kernel timed between calls.
    Returns the walls of passing calls, the same walls at reference speed,
    and the last passing (wall, video, stats)."""
    walls, scaled, last, calls = [], [], None, 0
    ref = reference_kernel_s()
    start = time.perf_counter()
    while calls < MIN_REPEATS or time.perf_counter() - start < seconds:
        calls += 1
        result = checker.run(sc, config)
        ref_before, ref = ref, reference_kernel_s()
        if result is not None:
            walls.append(result[0])
            scaled.append(at_reference_speed(result[0], ref_before, ref))
            last = result
    return walls, scaled, last


def traced_loop(sc, config, checker: Checker, tracer: Tracer, seconds: float):
    """The closed loop in pairs: an untraced call, then a traced one, so that
    host drift hits both halves of a pair alike. Returns the untraced and
    traced walls of the passing pairs and the last passing traced call.
    The tracer's cost is calibrated after each traced call."""
    walls, traced_walls, last, pairs = [], [], None, 0
    start = time.perf_counter()
    while pairs < MIN_REPEATS or time.perf_counter() - start < seconds:
        pairs += 1
        plain = checker.run(sc, config)
        tracer.install()
        try:
            traced = checker.run(sc, config)
        finally:
            tracer.close()
        tracer.calibrate()
        if plain is not None and traced is not None:
            walls.append(plain[0])
            traced_walls.append(traced[0])
            last = traced
    return walls, traced_walls, last


class Tracer:
    """Wraps the traced functions and keeps one span per call in memory:
    (name, start_ns, end_ns, parent span index, ok). ``wrapper_ns`` holds,
    for each traced call, the calibrated time a traced call adds outside its
    own span."""

    def __init__(self, sc):
        self.spans: list[tuple | None] = []
        self.wrapper_ns: list[float] = []
        self.frames = dict.fromkeys(FRAME_COUNTS, 0)
        self._stack: list[int] = []
        self._sites = []
        for module_name, owner_name, attr, name in TRACED:
            module = getattr(sc, module_name) if module_name else sc
            owner = getattr(module, owner_name) if owner_name else module
            fn = getattr(owner, attr)
            self._sites.append((owner, attr, fn, self._wrap(fn, name)))

    def _wrap(self, fn, name):
        spans, stack, frames = self.spans, self._stack, self.frames
        count = FRAME_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, ok)
                if ok and count is not None:
                    frames[name] += count(*args, **kwargs)

        return traced

    def install(self):
        for owner, attr, _, traced in self._sites:
            setattr(owner, attr, traced)

    def close(self):
        for owner, attr, fn, _ in self._sites:
            setattr(owner, attr, fn)

    def calibrate(self):
        """Append the time one traced call adds outside its own span: that
        time lands in its parent's self time. It is a wrapped no-op call,
        less a direct call of the no-op, less the no-op's span."""
        def noop(*args):
            return None

        traced = self._wrap(noop, "calibration")
        costs = []
        for _ in range(CALIBRATION_ROUNDS):
            first = len(self.spans)
            start = time.perf_counter_ns()
            for _ in range(CALIBRATION_CALLS):
                traced(1, 2, 3)
            wrapped_ns = time.perf_counter_ns() - start
            start = time.perf_counter_ns()
            for _ in range(CALIBRATION_CALLS):
                noop(1, 2, 3)
            direct_ns = time.perf_counter_ns() - start
            inside_ns = sum(span[2] - span[1] for span in self.spans[first:])
            del self.spans[first:]
            costs.append((wrapped_ns - direct_ns - inside_ns) / CALIBRATION_CALLS)
        self.wrapper_ns.append(statistics.median(costs))


def tail(durations: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest listed percentile with at least
    TAIL_MIN_BEYOND samples above it (nearest rank); the maximum, labelled
    100, when there are too few samples for any."""
    ordered = sorted(durations)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def layer_metrics(tracer: Tracer, stats, trace_overhead: float) -> tuple[dict, dict]:
    """(metrics for the result line, metrics printed in the report only)."""
    spans = tracer.spans
    by_name: dict[str, list[tuple]] = {name: [] for *_, name in TRACED}
    for span in spans:
        by_name[span[0]].append(span)
    repeats = len(by_name[ROOT_SPAN])
    m, report = {}, {}
    for name, group in by_name.items():
        durations = [(end - start) / 1e9 for _, start, end, _, _ in group]
        pct, tail_s = tail(durations) if durations else (100.0, 0.0)
        # The root runs once per call by definition.
        (report if name == ROOT_SPAN else m)[f"{name}.calls"] = (len(group) / repeats, "count")
        m[f"{name}.total_s"] = (sum(durations) / repeats, "s")
        m[f"{name}.p50_ms"] = (statistics.median(durations) * 1e3 if durations else 0.0, "ms")
        m[f"{name}.tail_ms"] = (tail_s * 1e3, "ms")
        report[f"{name}.tail_pct"] = (pct, "%")
        report[f"{name}.samples"] = (len(group), "count")

    # Self time is the root's wall less its direct children's spans and
    # less the tracer's cost outside each of those spans, calibrated after
    # the same traced call. Children, self and wrapper cost sum to the
    # traced wall by definition.
    roots = [i for i, span in enumerate(spans) if span[0] == ROOT_SPAN]
    wrapper_ns = dict(zip(roots, tracer.wrapper_ns))
    children_ns = outside_ns = 0.0
    for _, start, end, parent, _ in spans:
        if parent in wrapper_ns:
            children_ns += end - start
            outside_ns += wrapper_ns[parent]
    wall_ns = sum(spans[i][2] - spans[i][1] for i in wrapper_ns)
    m["scheduler.engine_self_s"] = ((wall_ns - children_ns - outside_ns) / 1e9 / repeats, "s")
    report["scheduler.trace_wrapper_s"] = (outside_ns / 1e9 / repeats, "s")
    report["trace_wrapper_ns_per_call"] = (statistics.median(tracer.wrapper_ns), "ns")

    evals = stats.full_chunk_evals + stats.partial_chunk_evals
    m["scheduler.partial_share"] = (stats.partial_chunk_evals / evals, "1")
    m["scheduler.forced_full"] = (stats.forced_full, "count")

    flops = stats.deep_flops + stats.shallow_flops
    denoise_s = m["denoiser.denoise_full.total_s"][0] + m["denoiser.denoise_partial.total_s"][0]
    m["denoiser.deep_flops"] = (stats.deep_flops, "FLOP")
    m["denoiser.shallow_flops"] = (stats.shallow_flops, "FLOP")
    m["denoiser.gflop_per_frame"] = (flops / stats.n_total / 1e9, "GFLOP/frame")
    m["denoiser.gflops_per_s"] = (flops / 1e9 / denoise_s if denoise_s else 0.0, "GFLOP/s")
    # Derived, not measured: the deep stage is the only work a partial eval
    # skips, until the engine can time its stages itself.
    partial_p50 = m["denoiser.denoise_partial.p50_ms"][0]
    m["denoiser.deep_ms_est"] = (
        m["denoiser.denoise_full.p50_ms"][0] - partial_p50 if partial_p50 else 0.0, "ms")

    fetches = by_name["cache.fetch"]
    hits = sum(1 for span in fetches if span[4])
    # A failed fetch raises and fails the call, so a passing run reads 1
    # wherever the cache is read and 0 elsewhere: reported, not compared.
    report["cache.hit_ratio"] = (hits / len(fetches) if fetches else 0.0, "1")
    m["cache.frames_fetched"] = (tracer.frames["cache.fetch"] / repeats, "count")
    m["cache.frames_stored"] = (tracer.frames["cache.store_block"] / repeats, "count")
    m["trace_overhead"] = (trace_overhead, "1")
    return m, report


def run(args) -> int:
    machine = machine_record()
    # The load is the engine's default threading: serial chunk evaluation.
    os.environ.pop("SHIFTCACHE_THREADS", None)
    sc = import_shiftcache()
    config = make_config(sc, args.workload, args.seed)
    sc.run_inference(warmup_config(config))
    print("machine " + json.dumps(machine))

    checker = Checker(sc, config)
    metrics, report = {}, {}
    if args.trace:
        tracer = Tracer(sc)
        walls, traced_walls, last = traced_loop(sc, config, checker, tracer, args.seconds)
        if checker.failed == 0:
            overhead = 1.0 - statistics.median(
                plain / traced for plain, traced in zip(walls, traced_walls))
            metrics, report = layer_metrics(tracer, last[2], overhead)
    else:
        walls, scaled, last = timed_loop(sc, config, checker, args.seconds)
        if checker.failed == 0:
            metrics, report = end_to_end_metrics(sc, args, config, checker, walls, scaled, last)

    ok = checker.failed == 0
    print(f"{args.workload} call_s " + " ".join(f"{wall:.4f}" for wall in walls))
    report["error_rate"] = (checker.failed / checker.attempted, "1")
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": ok,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if ok else 1


def end_to_end_metrics(sc, args, config, checker: Checker, walls, scaled, last):
    """(metrics for the result line, metrics printed in the report only).
    fps is report-only because it follows the host's speed (README.md),
    gflop_per_frame because the oracle denoiser counts no FLOPs, and
    error_rate is carried by the result line's failed/attempted."""
    _, video, stats = last
    ssim = 1.0  # a full-compute workload is its own full-compute reference
    if config.partial_fraction > 0:
        # The full-compute run of the same schedule and seed, made outside
        # the timed region.
        full = replace(config, partial_fraction=0.0)
        result = Checker(sc, full).run(sc, full)
        checker.attempted += 1
        if result is None:
            checker.failed += 1
            return {}, {}
        ssim = sc.video_ssim(video.z, result[1].z)
    metrics = {
        "fps_at_ref": (config.n_total / statistics.median(scaled), "frames/s"),
        "ssim_vs_full": (ssim, "1"),
        "setup_s": (measure_setup(args), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    flops = stats.deep_flops + stats.shallow_flops
    return metrics, {
        "fps": (config.n_total / statistics.median(walls), "frames/s"),
        "host_slowdown": (statistics.median(w / r for w, r in zip(walls, scaled)), "1"),
        "gflop_per_frame": (flops / config.n_total / 1e9, "GFLOP/frame"),
    }


def setup_probe(args) -> int:
    sc = import_shiftcache()
    sc.run_inference(warmup_config(make_config(sc, args.workload, args.seed)))
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop; BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
