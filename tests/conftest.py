"""Shared fixtures.

``matmul_count`` counts the matmuls the toy network really runs, so tests
can hold ``ToyDenoiser.chunk_cost`` and the run's FLOP counters, which
are a closed-form model, against them.

``one_core`` narrows this test process to one usable core, so
``run_inference`` takes its serial path and evaluates every chunk in this
process, where a spy patched into it (such as ``matmul_count``) sees it.

``no_child_left`` fails the session if any test left a child process,
such as a helper of ``run_inference``, running or unreaped.
"""

import os

import numpy as np
import pytest

from shiftcache import denoiser


class MatmulCounter:
    """2*m*k*n of every ``np.matmul`` that ``shiftcache.denoiser`` runs,
    as deep while ``ToyDenoiser._deep_stage`` runs and shallow otherwise."""

    def __init__(self):
        self.deep = self.shallow = 0
        self.in_deep_stage = False

    def reset(self):
        self.deep = self.shallow = 0

    def matmul(self, a, b):
        out = np.matmul(a, b)
        flops = 2 * out.size * a.shape[-1]
        if self.in_deep_stage:
            self.deep += flops
        else:
            self.shallow += flops
        return out


class _NumpyCountingMatmul:
    """numpy, except that ``matmul`` goes through a counter."""

    def __init__(self, counter: MatmulCounter):
        self.matmul = counter.matmul

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.fixture
def matmul_count(monkeypatch) -> MatmulCounter:
    counter = MatmulCounter()
    monkeypatch.setattr(denoiser, "np", _NumpyCountingMatmul(counter))
    deep_stage = denoiser.ToyDenoiser._deep_stage

    def counted_deep_stage(self, *args):
        counter.in_deep_stage = True
        try:
            return deep_stage(self, *args)
        finally:
            counter.in_deep_stage = False

    monkeypatch.setattr(denoiser.ToyDenoiser, "_deep_stage", counted_deep_stage)
    return counter


@pytest.fixture(scope="session", autouse=True)
def no_child_left():
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a test left a child process behind (waitpid gave pid {pid})")


@pytest.fixture
def one_core():
    """This process's CPU affinity narrowed to its lowest core for the test,
    and restored afterwards."""
    if not hasattr(os, "sched_setaffinity"):  # run_inference is serial there
        yield
        return
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cores)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cores)
