"""Parallel chunk evaluation in ``run_inference``.

On a host with more than one usable core, a toy run forks helper
processes that evaluate its chunks as their frames become ready, and an
oracle run forks one helper per band of frames, which runs every step on
its band. The golden configs are below the work threshold for that, so
every test here lowers it to 0. These tests hold the result to the serial
path's bits on every golden config, on oracle runs whose band edges cut
chunks or that have fewer frames than cores, on more toy helpers than
cores and on replies larger than a pipe holds. They check that a toy run
sends chunks of the next step before the step's last update, that a toy
request names its chunk alone and a toy reply is its eps alone (the
helper reads and writes the run's shared latents and feature cache),
that an oracle band's reply carries no latents (the helper writes them
into the shared latents), and that no helper outlives a run, whether
it ends normally, by an error or the death of a helper, by an error in
this process, by Ctrl-C (with one traceback, the caller's) or by the
death of the process that made the helpers; and they check which
benchmark runs go parallel.
"""

import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import shiftcache
from shiftcache import scheduler
from shiftcache.denoiser import OracleDenoiser, ToyDenoiser
from shiftcache.scheduler import ChunkMode, build_plans, run_inference, synthesize_conditions
from test_golden import CONFIGS, FLOAT64, golden_config
from test_perfbench_sites import PERFBENCH

MULTI_CORE = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
needs_cores = pytest.mark.skipif(
    not MULTI_CORE, reason="one usable core: run_inference forks no helpers to compare with")
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="run_inference forks no helpers")


# Beside the golden configs: with overlap 6 of 8 frames, four chunks cover
# most frames, so the order of a step's adds shows in the bits (the sum of
# two covers is the same in either order); the oracle runs it on bands, as
# it does the shift policy with half the chunks dropped by hard_skip.
RUNS = {**CONFIGS, "overlap_s6": dict(policy="overlap", overlap_s=6),
        "oracle_overlap_s6": dict(policy="overlap", overlap_s=6, denoiser="oracle"),
        "oracle_hard_skip": dict(CONFIGS["hard_skip"], denoiser="oracle")}
THRESHOLD = scheduler._MIN_PARALLEL_FLOPS


@pytest.fixture(autouse=True)
def helpers_for_any_run(monkeypatch):
    monkeypatch.setattr(scheduler, "_MIN_PARALLEL_FLOPS", 0)


def run(name: str):
    config = golden_config(**RUNS[name])
    dtype = np.float64 if name in FLOAT64 else np.float32
    return run_inference(config, synthesize_conditions(config, dtype=dtype), dtype=dtype)


def assert_same_run(a, b):
    (video_a, stats_a), (video_b, stats_b) = a, b
    assert video_a.z.tobytes() == video_b.z.tobytes()
    assert video_a.z.dtype == video_b.z.dtype
    np.testing.assert_array_equal(stats_a.freshness_trace, stats_b.freshness_trace, strict=True)
    np.testing.assert_array_equal(video_a.freshness, video_b.freshness, strict=True)
    for counter in ("full_chunk_evals", "partial_chunk_evals", "skipped_chunk_evals",
                    "deep_flops", "shallow_flops", "forced_full"):
        assert getattr(stats_a, counter) == getattr(stats_b, counter), counter


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_cores
@pytest.mark.parametrize("name", sorted(RUNS))
def test_parallel_run_equals_serial_run(name, request):
    parallel = run(name)
    request.getfixturevalue("one_core")
    serial = run(name)
    assert_same_run(parallel, serial)
    assert parallel[1].processes > 1
    assert serial[1].processes == 1


def fake_cores(monkeypatch, count: int) -> None:
    """Make ``run_inference`` see ``count`` usable cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def assert_bands_equal_serial(config, monkeypatch, cores: int, bands: int,
                              dtype=np.float32) -> None:
    """A run on ``cores`` usable cores forks ``bands`` helpers (an oracle
    run's bands) and has the serial run's bits."""
    fake_cores(monkeypatch, cores)
    parallel = run_inference(config, dtype=dtype)
    assert parallel[1].processes == bands
    monkeypatch.setattr(scheduler, "_MIN_PARALLEL_FLOPS", THRESHOLD)
    serial = run_inference(config, dtype=dtype)
    assert serial[1].processes == 1
    assert_same_run(parallel, serial)
    assert_no_child_left()


@needs_fork
def test_band_edges_that_cut_chunks_keep_the_bits(monkeypatch):
    # 41 frames on 3 bands, [0, 13), [13, 27) and [27, 41): overlap 6 of 8
    # starts a chunk every 2 frames, so each edge cuts four chunks a step
    config = golden_config(denoiser="oracle", policy="overlap", overlap_s=6, n_total=41)
    chunks = build_plans(config)[0][0].chunks
    for edge in (13, 27):
        assert sum(c.start < edge < c.stop for c in chunks) == 4
    assert_bands_equal_serial(config, monkeypatch, cores=3, bands=3)


@needs_fork
def test_band_edges_that_cut_kept_hard_skip_chunks_keep_the_bits(monkeypatch):
    # the golden hard_skip run on the oracle, 41 frames on 3 bands: each
    # kept chunk an edge cuts is updated in place on its in-band frames only
    config = golden_config(**RUNS["oracle_hard_skip"], n_total=41)
    kept = [c for plan in build_plans(config)[0] for c in plan.chunks
            if c.mode is ChunkMode.FULL]
    assert any(c.start < edge < c.stop for c in kept for edge in (13, 27))
    assert_bands_equal_serial(config, monkeypatch, cores=3, bands=3)


@needs_fork
@pytest.mark.parametrize("bands", [2, 3, 5])
def test_band_replies_carry_no_latents(monkeypatch, bands):
    # each helper writes its band into the run's shared latents; 5 bands
    # are more writers than a 2-core host has cores
    config = golden_config(denoiser="oracle", policy="overlap", overlap_s=6, n_total=41)
    replies, receive = [], scheduler._receive
    monkeypatch.setattr(scheduler, "_receive",
                        lambda conn: replies.append(receive(conn)) or replies[-1])
    assert_bands_equal_serial(config, monkeypatch, cores=bands, bands=bands)
    assert len(replies) == bands
    assert all(reply is None for reply in replies)


@needs_fork
def test_fewer_frames_than_cores_gives_one_frame_per_band(monkeypatch):
    config = golden_config(denoiser="oracle", policy="overlap", overlap_s=2, n_total=5,
                           chunk_len=4)
    assert_bands_equal_serial(config, monkeypatch, cores=8, bands=5)


@needs_fork
def test_benchmark_oracle_run_goes_parallel_and_its_warmup_stays_serial(monkeypatch):
    # oracle-s15 evaluates 25 steps of 2033 16-frame chunks of 4x16x12
    # latents, 4 units of work per element: 2.5e9 in all; its warm-up, 3
    # steps of 17 chunks on 32 frames, counts 2.5e6. The spy records the
    # engine's own (work, most) and stops the run before its loop.
    fake_cores(monkeypatch, 2)
    config = PERFBENCH.make_config(shiftcache, "oracle-s15", 0)
    warmup = PERFBENCH.warmup_config(config)
    helper_count = scheduler._helper_count

    class Priced(Exception):
        pass

    def spy(work, most):
        raise Priced(work, most)

    monkeypatch.setattr(scheduler, "_helper_count", spy)
    for run_config, helpers, work in ((config, 2, 2_498_150_400), (warmup, 0, 2_506_752)):
        with pytest.raises(Priced) as priced:
            run_inference(run_config)
        assert priced.value.args == (work, run_config.n_total)
        for threshold, expected in ((work, 2), (work + 1, 0), (THRESHOLD, helpers)):
            monkeypatch.setattr(scheduler, "_MIN_PARALLEL_FLOPS", threshold)
            assert helper_count(*priced.value.args) == expected


@needs_fork
@pytest.mark.parametrize("name", ["overlap_s4", "p50_half"])
def test_helpers_send_the_next_step_before_this_one_ends(name, monkeypatch):
    # the caller updates a step's frames as its chunks are committed, so
    # some of the next step's chunks are already out when its last one is
    fake_cores(monkeypatch, 2)
    events, send, step = [], scheduler._send, scheduler.ddim_step

    def spied_send(conn, request):
        events.append(("send", request[0]))
        send(conn, request)

    def spied_step(z, eps, k, sched, **kwargs):
        events.append(("update", k))
        return step(z, eps, k, sched, **kwargs)

    monkeypatch.setattr(scheduler, "_send", spied_send)
    monkeypatch.setattr(scheduler, "ddim_step", spied_step)
    _, stats = run(name)
    assert stats.processes == 2
    steps = golden_config(**RUNS[name]).ddim_steps
    for k in range(steps - 1):
        last_update = max(i for i, event in enumerate(events) if event == ("update", k))
        assert events.index(("send", k + 1)) < last_update, k


@needs_fork
@pytest.mark.parametrize("name", ["overlap_s4", "p50_half"])
def test_toy_requests_name_their_chunk_and_replies_are_eps(name, monkeypatch):
    # a helper reads the latents and cached features from the run's shared
    # mappings, so a request stays far below a pipe's buffer and a reply
    # is the chunk's eps alone
    fake_cores(monkeypatch, 2)
    requests, replies, send, receive = [], [], scheduler._send, scheduler._receive
    monkeypatch.setattr(scheduler, "_send",
                        lambda conn, request: requests.append(request) or send(conn, request))
    monkeypatch.setattr(scheduler, "_receive",
                        lambda conn: replies.append(receive(conn)) or replies[-1])
    _, stats = run(name)
    assert stats.processes == 2
    assert len(requests) == len(replies) == stats.full_chunk_evals + stats.partial_chunk_evals
    assert (stats.partial_chunk_evals > 0) == (name == "p50_half")
    for request in requests:
        assert type(request) is tuple and len(request) == 2
        assert type(request[0]) is int and type(request[1]) is scheduler.Chunk
        assert len(pickle.dumps(request)) <= 1024
    assert all(type(reply) is np.ndarray for reply in replies)


@needs_fork
def test_more_toy_helpers_than_cores_keep_the_bits(monkeypatch):
    # five helpers read and write the shared latents and feature cache,
    # more processes than a 2-core host has cores
    config = golden_config(**RUNS["p50_half"])
    assert max(len(plan.chunks) for plan in build_plans(config)[0]) >= 5
    assert_bands_equal_serial(config, monkeypatch, cores=5, bands=5)


@needs_cores
def test_run_under_the_flop_threshold_is_serial(monkeypatch):
    flops = run("p50_half")[1].total_flops
    monkeypatch.setattr(scheduler, "_MIN_PARALLEL_FLOPS", flops + 1)
    assert run("p50_half")[1].processes == 1
    monkeypatch.setattr(scheduler, "_MIN_PARALLEL_FLOPS", flops)
    assert run("p50_half")[1].processes > 1


@needs_cores
def test_normal_run_leaves_no_process():
    _, stats = run("p50_half")
    assert stats.processes > 1
    assert_no_child_left()


def in_helpers(monkeypatch, owner, name: str, action) -> None:
    """Patch ``owner.name`` to call ``action()`` first in a helper only: the
    patch is inherited at fork, and this process's pid is not a helper's."""
    parent = os.getpid()
    original = getattr(owner, name)

    def patched(*args, **kwargs):
        if os.getpid() != parent:
            action()
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, patched)


def raise_in_helper():
    raise FloatingPointError("raised in a helper")


def kill_helper():
    os.kill(os.getpid(), signal.SIGKILL)


# (owner, method, run): the helper evaluating toy chunks, then bands
HELPER_SITES = {"toy": (ToyDenoiser, "denoise_full", "overlap_s4"),
                "bands": (OracleDenoiser, "eps_for", "oracle_f64")}


def assert_helper_error_raised_with_its_type_and_message(monkeypatch, site: str) -> None:
    owner, name, run_name = HELPER_SITES[site]
    in_helpers(monkeypatch, owner, name, raise_in_helper)
    with pytest.raises(FloatingPointError) as caught:
        run(run_name)
    assert caught.type is FloatingPointError
    assert str(caught.value) == "raised in a helper"
    assert_no_child_left()


def assert_killed_helper_raises(monkeypatch, site: str) -> None:
    owner, name, run_name = HELPER_SITES[site]
    in_helpers(monkeypatch, owner, name, kill_helper)
    with pytest.raises(RuntimeError):
        run(run_name)
    assert_no_child_left()


@needs_cores
def test_helper_error_is_raised_with_its_type_and_message(monkeypatch):
    assert_helper_error_raised_with_its_type_and_message(monkeypatch, "toy")


@needs_cores
def test_band_helper_error_is_raised_with_its_type_and_message(monkeypatch):
    assert_helper_error_raised_with_its_type_and_message(monkeypatch, "bands")


@needs_cores
@pytest.mark.parametrize("where", ["commit", "dispatch"])
def test_error_in_this_process_mid_run_leaves_no_process(where, monkeypatch):
    # "commit": overlap_s4's fourteenth update, after the fifth commit of
    # its second step (a toy helper run updates once per commit), with
    # helpers busy on the chunks after it; "dispatch": an interrupt in the
    # fifth request p50_half sends to its helpers
    calls = []
    if where == "commit":
        name, attr, error, after = "overlap_s4", "ddim_step", ValueError, 9 + 5
    else:
        name, attr, error, after = "p50_half", "_send", KeyboardInterrupt, 5
    original = getattr(scheduler, attr)

    def patched(*args, **kwargs):
        calls.append(1)
        if len(calls) == after:
            raise error("failed here")
        return original(*args, **kwargs)

    monkeypatch.setattr(scheduler, attr, patched)
    with pytest.raises(error):
        run(name)
    assert len(calls) == after
    assert_no_child_left()


@needs_cores
def test_run_with_a_second_thread_alive_is_serial_and_equal():
    parallel = run("p50_half")
    assert parallel[1].processes > 1
    release = threading.Event()
    thread = threading.Thread(target=release.wait, daemon=True)
    thread.start()
    try:
        serial = run("p50_half")
        assert_no_child_left()
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert serial[1].processes == 1
    assert_same_run(parallel, serial)


@needs_cores
def test_chunks_larger_than_a_pipe_buffer_do_not_hang(request):
    # 128 frames of 12x12 float64 latents: each reply, a full or a partial
    # chunk's eps, is about 600 KB, more than a socket buffer holds, so the
    # caller must read replies while a helper writes one; its requests are
    # small enough that it never blocks writing one. The shift run at
    # p = 0.5 evaluates partial chunks as well.
    configs = [golden_config(**policy, n_total=3 * 128, chunk_len=128, latent_h=12, latent_w=12)
               for policy in (dict(policy="overlap", ddim_steps=1),
                              dict(policy="shift", partial_fraction=0.5, ddim_steps=4))]
    conditions = [synthesize_conditions(config, dtype=np.float64) for config in configs]

    def hang(signum, frame):
        pytest.fail("the runs were still waiting on their helpers after 60 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        parallel = [run_inference(config, given, dtype=np.float64)
                    for config, given in zip(configs, conditions)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert all(stats.processes > 1 for _, stats in parallel)
    assert parallel[1][1].partial_chunk_evals > 0
    request.getfixturevalue("one_core")
    for config, given, run in zip(configs, conditions, parallel):
        assert_same_run(run, run_inference(config, given, dtype=np.float64))


@needs_cores
def test_helper_killed_mid_run_raises_and_leaves_no_process(monkeypatch):
    assert_killed_helper_raises(monkeypatch, "toy")


@needs_cores
def test_band_helper_killed_mid_run_raises_and_leaves_no_process(monkeypatch):
    assert_killed_helper_raises(monkeypatch, "bands")


# Runs overlap_s4 with helpers, prints their pids at its fourteenth update
# (after the fifth commit of its second step, with helpers busy) and does
# {action} there.
PROBE = """
import multiprocessing, os, signal
from shiftcache import scheduler
from shiftcache.scheduler import run_inference, synthesize_conditions
from test_golden import CONFIGS, golden_config

scheduler._MIN_PARALLEL_FLOPS = 0
calls, update = [], scheduler.ddim_step

def patched(*args, **kwargs):
    calls.append(1)
    if len(calls) == 14:
        print(*(child.pid for child in multiprocessing.active_children()), flush=True)
        {action}
    return update(*args, **kwargs)

scheduler.ddim_step = patched
config = golden_config(**CONFIGS["overlap_s4"])
run_inference(config, synthesize_conditions(config))
"""


def start_probe(action: str, **popen):
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    return subprocess.Popen([sys.executable, "-c", PROBE.format(action=action)],
                            stdout=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": path}, **popen)


def ended(pid: int) -> bool:
    """Whether process ``pid`` is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


def assert_all_end(pids: list[int]) -> None:
    """Every process of ``pids`` ends within 5 s; any left is killed."""
    assert len(pids) > 1
    deadline = time.monotonic() + 5
    while not all(ended(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = [pid for pid in pids if not ended(pid)]
    for pid in alive:  # so that a failure leaks no process
        os.kill(pid, signal.SIGKILL)
    assert alive == []


@needs_cores
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads process states from /proc")
def test_helpers_end_when_their_caller_is_killed_mid_run():
    # the helpers inherit the probe's stdout, so read its first line only
    with start_probe("os.kill(os.getpid(), signal.SIGKILL)") as probe:
        pids = [int(pid) for pid in probe.stdout.readline().split()]
        assert probe.wait(timeout=120) == -signal.SIGKILL
    assert_all_end(pids)


@needs_cores
@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads process states from /proc")
def test_ctrl_c_mid_run_prints_one_traceback_and_leaves_no_helper():
    # SIGINT to the probe's whole process group, as Ctrl-C in a terminal
    # sends it: the caller alone raises KeyboardInterrupt
    with start_probe("os.killpg(os.getpgrp(), signal.SIGINT)", stderr=subprocess.PIPE,
                     start_new_session=True) as probe:
        try:
            out, err = probe.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(probe.pid, signal.SIGKILL)
            raise
    assert probe.returncode == -signal.SIGINT, err
    assert err.count("Traceback") == 1, err
    assert err.rstrip().endswith("KeyboardInterrupt"), err
    assert_all_end([int(pid) for pid in out.split()])


@needs_cores
def test_two_parallel_runs_in_a_row_leave_no_thread():
    # a thread left alive would send the next run down the serial path
    threads = threading.active_count()
    for _ in range(2):
        assert run("p50_half")[1].processes > 1
        assert threading.active_count() == threads
