"""DDIM machinery: linear-beta noise schedule, the deterministic (eta=0)
sampling update, and an analytic noise oracle used to verify scheduling
end to end.

The oracle returns the exact noise residual that makes the DDIM update
reconstruct a chosen target, frame by frame, so any correct chunk schedule
must reproduce the target bit-for-bit up to float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def make_schedule(t_train: int, beta_start: float, beta_end: float, k: int) -> NoiseSchedule:
    """Linear betas over t_train steps, k evenly spaced DDIM steps descending."""
    if t_train < 1:
        raise ValueError("t_train must be >= 1")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(f"need 0 < beta_start <= beta_end < 1, got {beta_start}, {beta_end}")
    if not 1 <= k <= t_train:
        raise ValueError(f"k must lie in 1..t_train, got {k}")
    betas = np.linspace(beta_start, beta_end, t_train, dtype=np.float64)
    alpha_bars = np.cumprod(1.0 - betas)
    steps = np.unique(np.round(np.linspace(t_train - 1, 0, k)).astype(np.int64))[::-1]
    if len(steps) != k:
        raise ValueError("sampling steps collapsed after rounding; reduce k")
    return NoiseSchedule(t_train=t_train, betas=betas, alpha_bars=alpha_bars, sampling_steps=steps)


def ddim_step(z_t: np.ndarray, eps_pred: np.ndarray, step_index: int, sched: NoiseSchedule) -> np.ndarray:
    """One deterministic DDIM update. At the final step returns the clean estimate.

    x0_hat = (z_t - sqrt(1 - abar_t) * eps) / sqrt(abar_t)
    z_prev = sqrt(abar_prev) * x0_hat + sqrt(1 - abar_prev) * eps
    """
    if z_t.shape != eps_pred.shape:
        raise ValueError(f"latent/eps shape mismatch: {z_t.shape} vs {eps_pred.shape}")
    dtype = z_t.dtype
    abar_t = dtype.type(sched.alpha_bar_at(step_index))
    # one output buffer, the formula's operations in its order (same bits)
    out = np.multiply(eps_pred, np.sqrt(1.0 - abar_t, dtype=dtype))
    np.subtract(z_t, out, out=out)
    out /= np.sqrt(abar_t, dtype=dtype)
    if step_index == sched.num_steps - 1:
        return out
    abar_prev = dtype.type(sched.alpha_bar_at(step_index + 1))
    out *= np.sqrt(abar_prev, dtype=dtype)
    out += np.sqrt(1.0 - abar_prev, dtype=dtype) * eps_pred
    return out


def oracle_eps(z_t: np.ndarray, step_index: int, target_x0: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Noise residual that makes ddim_step steer z_t toward target_x0.

    eps = (z_t - sqrt(abar_t) * target) / sqrt(1 - abar_t). Purely
    elementwise, hence frame-local: frame i of the output depends only on
    frame i of z_t and the target.
    """
    scales = oracle_scales(sched.alpha_bar_at(step_index), z_t.dtype)
    return oracle_residual(z_t, target_x0, scales)


def oracle_scales(abar_t: float, dtype: np.dtype) -> tuple[np.generic, np.generic]:
    """``(sqrt(abar_t), sqrt(1 - abar_t))`` in ``dtype``: the two scalars of
    one step's oracle residual."""
    if abar_t >= 1.0:
        raise ValueError("alpha_bar == 1 at this step; oracle residual undefined")
    abar_t = dtype.type(abar_t)
    return np.sqrt(abar_t, dtype=dtype), np.sqrt(1.0 - abar_t, dtype=dtype)


def oracle_residual(z_t: np.ndarray, target_x0: np.ndarray, scales: tuple,
                    out: np.ndarray | None = None) -> np.ndarray:
    """``(z_t - sqrt_abar * target_x0) / sqrt_one_minus_abar`` for the
    ``scales`` of ``oracle_scales``, written into ``out`` when given."""
    if z_t.shape != target_x0.shape:
        raise ValueError(f"latent/target shape mismatch: {z_t.shape} vs {target_x0.shape}")
    sqrt_abar, sqrt_one_minus_abar = scales
    out = np.multiply(target_x0, sqrt_abar, out=out)
    np.subtract(z_t, out, out=out)
    out /= sqrt_one_minus_abar
    return out
