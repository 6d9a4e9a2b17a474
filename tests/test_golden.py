"""Golden outputs: small end-to-end runs pinned to exact bytes and counters.

Each config runs the whole engine (planning, marking, cache, masks, toy or
oracle denoiser, DDIM) on a 40-frame, 8x8 video with L=8 and 6 steps. The
sha256 digests cover the final latents, ``RunStats.freshness_trace`` and
``LatentVideo.freshness`` (dtype, shape and raw bytes), so any refactor
that changes a single bit of the result, or the freshness bookkeeping,
fails here. The counters pin the plan and the FLOP accounting.

The digests were recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (Haswell
kernels) and are the same with OPENBLAS_NUM_THREADS=1. A different BLAS
build may round matmuls differently; re-record only for such a platform
change, never for a code change.
"""

import hashlib

import numpy as np
import pytest

from shiftcache.denoiser import ToyDenoiserConfig
from shiftcache.numerics import MaskVariant
from shiftcache.scheduler import EngineConfig, run_inference, synthesize_conditions

TINY_TOY = ToyDenoiserConfig(shallow_width=4, deep_width=8, shallow_blocks=2,
                             deep_blocks=2, seed=0)


def golden_config(**kw) -> EngineConfig:
    base = dict(n_total=40, chunk_len=8, policy="shift", delta=3, shift_mode="fixed",
                partial_fraction=0.0, ddim_steps=6, seed=0, toy=TINY_TOY,
                latent_h=8, latent_w=8, garment_tokens=4, denoiser="toy")
    base.update(kw)
    return EngineConfig(**base)


def p50(mask: MaskVariant) -> dict:
    return dict(shift_mode="random", partial_fraction=0.5, mask_variant=mask, seed=3)


CONFIGS = {
    "overlap_s4": dict(policy="overlap", overlap_s=4),
    "shift_fixed": dict(),
    "shift_random": dict(shift_mode="random", seed=1),
    "p50_full": p50(MaskVariant.FULL),
    "p50_half": p50(MaskVariant.HALF),
    "p50_quarter": p50(MaskVariant.QUARTER),
    "p50_causal": p50(MaskVariant.CAUSAL),
    "hard_skip": dict(p50(MaskVariant.HALF), hard_skip=True),
    "oracle_f64": dict(denoiser="oracle", seed=2),
}

FLOAT64 = {"oracle_f64"}

# name -> (z, freshness_trace, video.freshness digests,
#          (full, partial, skipped evals), (deep, shallow FLOPs))
GOLDEN = {
    "overlap_s4": (
        "6fa21b66a9a15888f7611eae9b573261ec7eb129255ec8e1ee3572a194036c46",
        "eb1179f1980c0d7026044eedafef2b390dea82558de6b53eb930646330fde33b",
        "eada62dbe4dc8ddf316ddb843dea377167ad87ded465019d1307a4922b6aa47b",
        (54, 0, 0), (34974720, 92911104)),
    "shift_fixed": (
        "969a466aa29c72310dd388267a0705479d143511b5fe86545c2e6df0e11ff8b8",
        "eb1179f1980c0d7026044eedafef2b390dea82558de6b53eb930646330fde33b",
        "eada62dbe4dc8ddf316ddb843dea377167ad87ded465019d1307a4922b6aa47b",
        (35, 0, 0), (19316224, 51385088)),
    "shift_random": (
        "f7cfb490ab96299d5e63d9513ed0445cccfe36c9368e1c7faa1c129fcdc8f81f",
        "eb1179f1980c0d7026044eedafef2b390dea82558de6b53eb930646330fde33b",
        "eada62dbe4dc8ddf316ddb843dea377167ad87ded465019d1307a4922b6aa47b",
        (36, 0, 0), (19288064, 51328000)),
    "p50_full": (
        "66b0c886d327d62a0cb1b1bc86d3b5f0332580265eea25c5feb3ef0b9bddee8b",
        "9386abef60f984961cb224891c3cee54a93ab3b2dbece39ca5a0ea7e2f7513e2",
        "eada62dbe4dc8ddf316ddb843dea377167ad87ded465019d1307a4922b6aa47b",
        (30, 5, 0), (16051200, 51331840)),
    "p50_half": (
        "7eccb4e819f64e95112aef7a891c87ed28e82b52255fd962100a4f6e6fbc6363",
        "9386abef60f984961cb224891c3cee54a93ab3b2dbece39ca5a0ea7e2f7513e2",
        "eada62dbe4dc8ddf316ddb843dea377167ad87ded465019d1307a4922b6aa47b",
        (30, 5, 0), (16051200, 51331840)),
    "p50_quarter": (
        "694485f43dfb993a3279939ac141c453ea3fc118a5e91b58de22da1cec7ef98a",
        "9386abef60f984961cb224891c3cee54a93ab3b2dbece39ca5a0ea7e2f7513e2",
        "eada62dbe4dc8ddf316ddb843dea377167ad87ded465019d1307a4922b6aa47b",
        (30, 5, 0), (16051200, 51331840)),
    "p50_causal": (
        "76217bb711680fd691244e3684ce952b0af8f8d97ec6375c7413aafb355b268b",
        "9386abef60f984961cb224891c3cee54a93ab3b2dbece39ca5a0ea7e2f7513e2",
        "eada62dbe4dc8ddf316ddb843dea377167ad87ded465019d1307a4922b6aa47b",
        (30, 5, 0), (16051200, 51331840)),
    "hard_skip": (
        "9ec60acbc8757dd1b4385d11a204c6d3d2e3bd8c23bf2d0f70163802a47c3750",
        "9386abef60f984961cb224891c3cee54a93ab3b2dbece39ca5a0ea7e2f7513e2",
        "eada62dbe4dc8ddf316ddb843dea377167ad87ded465019d1307a4922b6aa47b",
        (30, 0, 5), (16051200, 42728960)),
    "oracle_f64": (
        "348b18768ee0567899a34eb7439b43c64edafb7f6d46396de67988315caede42",
        "eb1179f1980c0d7026044eedafef2b390dea82558de6b53eb930646330fde33b",
        "eada62dbe4dc8ddf316ddb843dea377167ad87ded465019d1307a4922b6aa47b",
        (35, 0, 0), (0, 0)),
}


def digest(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def observe(name: str):
    config = golden_config(**CONFIGS[name])
    dtype = np.float64 if name in FLOAT64 else np.float32
    conditions = synthesize_conditions(config, dtype=dtype)
    video, stats = run_inference(config, conditions, dtype=dtype)
    return (
        digest(video.z), digest(stats.freshness_trace), digest(video.freshness),
        (stats.full_chunk_evals, stats.partial_chunk_evals, stats.skipped_chunk_evals),
        (stats.deep_flops, stats.shallow_flops),
    )


def test_configs_cover_every_path():
    assert set(GOLDEN) == set(CONFIGS)
    masks = {CONFIGS[n]["mask_variant"] for n in CONFIGS if n.startswith("p50_")}
    assert masks == set(MaskVariant)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden(name):
    assert observe(name) == GOLDEN[name]


if __name__ == "__main__":
    # Print the observed values in GOLDEN's layout (for a platform change).
    for name in CONFIGS:
        print(f"    {name!r}: {observe(name)!r},")
