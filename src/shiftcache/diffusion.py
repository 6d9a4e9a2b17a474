"""DDIM machinery: linear-beta noise schedule, the deterministic (eta=0)
sampling update, which can write into the latents in L2-sized frame
blocks, and ``step_scales``, the one home of a step's scalars
sqrt(abar) and sqrt(1 - abar), which the update shares with the analytic
oracle (``denoiser.OracleDenoiser``). The oracle's residual makes the
update reconstruct a chosen target, frame by frame, so any correct chunk
schedule must reproduce the target bit-for-bit up to float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Bytes per array in a block of ``ddim_step``'s frames: 85 float32 frames at
# 16x12, so a block's arrays stay in L2 (unblocked, 1024 frames run ~1.4x slower).
_UPDATE_BLOCK_BYTES = 256 * 1024


@dataclass
class LatentVideo:
    """Evolving latent frames plus per-frame deep-feature freshness.

    ``freshness[i]`` is the sampling-step position at which frame i's deep
    features were last fully computed (-1 before the first step runs).
    """

    z: np.ndarray          # [N, 4, H, W]
    freshness: np.ndarray  # [N] int step positions

    def __post_init__(self):
        if self.z.ndim != 4:
            raise ValueError(f"latents must be [N, C, H, W], got {self.z.shape}")
        if self.freshness.shape != (self.z.shape[0],):
            raise ValueError("freshness must have one entry per frame")

    @property
    def num_frames(self) -> int:
        return self.z.shape[0]


@dataclass(frozen=True)
class NoiseSchedule:
    """Training-time betas plus the descending DDIM sampling subset."""

    t_train: int
    betas: np.ndarray
    alpha_bars: np.ndarray
    sampling_steps: np.ndarray  # timesteps, strictly decreasing

    def __post_init__(self):
        if self.betas.shape != (self.t_train,) or self.alpha_bars.shape != (self.t_train,):
            raise ValueError("betas/alpha_bars must have length t_train")
        if np.any(self.betas <= 0.0) or np.any(self.betas >= 1.0):
            raise ValueError("betas must lie strictly inside (0, 1)")
        if np.any(np.diff(self.alpha_bars) >= 0.0):
            raise ValueError("alpha_bars must be strictly decreasing")
        if np.any(np.diff(self.sampling_steps) >= 0):
            raise ValueError("sampling_steps must be strictly decreasing")
        if self.sampling_steps[0] >= self.t_train or self.sampling_steps[-1] < 0:
            raise ValueError("sampling_steps out of range")

    @property
    def num_steps(self) -> int:
        return len(self.sampling_steps)

    def alpha_bar_at(self, step_index: int) -> float:
        return float(self.alpha_bars[self.timestep_at(step_index)])

    def timestep_at(self, step_index: int) -> int:
        if not 0 <= step_index < self.num_steps:
            raise IndexError(f"step index {step_index} outside 0..{self.num_steps - 1}")
        return int(self.sampling_steps[step_index])


def check_betas(beta_start: float, beta_end: float) -> None:
    """Raise ValueError unless 0 < beta_start <= beta_end < 1."""
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(f"need 0 < beta_start <= beta_end < 1, got {beta_start}, {beta_end}")


def make_schedule(t_train: int, beta_start: float, beta_end: float, k: int) -> NoiseSchedule:
    """Linear betas over t_train steps, k evenly spaced DDIM steps descending."""
    if t_train < 1:
        raise ValueError("t_train must be >= 1")
    check_betas(beta_start, beta_end)
    if not 1 <= k <= t_train:
        raise ValueError(f"k must lie in 1..t_train, got {k}")
    betas = np.linspace(beta_start, beta_end, t_train, dtype=np.float64)
    alpha_bars = np.cumprod(1.0 - betas)
    steps = np.unique(np.round(np.linspace(t_train - 1, 0, k)).astype(np.int64))[::-1]
    if len(steps) != k:
        raise ValueError("sampling steps collapsed after rounding; reduce k")
    return NoiseSchedule(t_train=t_train, betas=betas, alpha_bars=alpha_bars, sampling_steps=steps)


def step_scales(alpha_bar: float, dtype: np.dtype) -> tuple[np.generic, np.generic]:
    """``(sqrt(alpha_bar), sqrt(1 - alpha_bar))``, with ``alpha_bar`` first
    cast to ``dtype`` and both roots taken in it: the two scalars of one
    sampling step, for the DDIM update and the oracle alike."""
    alpha_bar = dtype.type(alpha_bar)
    return np.sqrt(alpha_bar, dtype=dtype), np.sqrt(1.0 - alpha_bar, dtype=dtype)


def ddim_step(z_t: np.ndarray, eps_pred: np.ndarray, step_index: int, sched: NoiseSchedule,
              out: np.ndarray | None = None) -> np.ndarray:
    """One deterministic DDIM update, on the ``step_scales`` of steps t and
    prev in the latents' dtype. At the final step returns the clean estimate.

    x0_hat = (z_t - sqrt(1 - abar_t) * eps) / sqrt(abar_t)
    z_prev = sqrt(abar_prev) * x0_hat + sqrt(1 - abar_prev) * eps

    Writes into and returns ``out``: new if None, else ``z_t`` itself or an
    array of the result's shape and dtype sharing no memory with ``z_t`` or
    ``eps_pred`` (else ValueError). Blocks of ``_UPDATE_BLOCK_BYTES`` frames
    pass through one scratch, and each element through the formula's
    operations in order, so neither changes a bit.
    """
    if z_t.shape != eps_pred.shape:
        raise ValueError(f"latent/eps shape mismatch: {z_t.shape} vs {eps_pred.shape}")
    dtype = np.result_type(z_t, eps_pred)
    if out is None:
        out = np.empty(z_t.shape, dtype=dtype)
    elif (out.shape != z_t.shape or out.dtype != dtype or np.shares_memory(out, eps_pred)
          or out is not z_t and np.shares_memory(out, z_t)):
        raise ValueError(f"out must be z_t or a {dtype} {z_t.shape} array apart from z_t and eps")
    sqrt_abar, sqrt_one_minus_abar = step_scales(sched.alpha_bar_at(step_index), z_t.dtype)
    last = step_index == sched.num_steps - 1
    prev = None if last else step_scales(sched.alpha_bar_at(step_index + 1), z_t.dtype)
    frames = max(1, _UPDATE_BLOCK_BYTES // (out[:1].nbytes or 1))
    scratch = np.empty_like(out[:frames])
    for first in range(0, len(out), frames):
        eps, dest = eps_pred[first:first + frames], out[first:first + frames]
        tmp = scratch[:len(dest)]
        np.multiply(eps, sqrt_one_minus_abar, out=tmp)
        np.subtract(z_t[first:first + frames], tmp, out=tmp)
        np.divide(tmp, sqrt_abar, out=dest if last else tmp)
        if not last:
            np.multiply(tmp, prev[0], out=dest)
            dest += np.multiply(eps, prev[1], out=tmp)
    return out
