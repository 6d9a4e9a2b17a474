"""Command-line surface: plan inspection, sampling, benchmark sweeps,
mask dumps, and keypoint-based frame selection.

Every run prints its fully-resolved effective config as a JSON line, so
any output can be reproduced from its own log.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .cache import build_mask
from .metrics import SSIM_WINDOW, flicker_index, video_ssim
from .numerics import MaskVariant
from .pose_select import (
    DEFAULT_CONF_THRESHOLD,
    DEFAULT_JOINT_TRIPLES,
    pose_select,
    score_table,
)
from .scheduler import EngineConfig, build_plans, run_inference


def _print_effective_config(config: EngineConfig) -> None:
    print(f"effective-config: {json.dumps(fileio.config_to_dict(config), sort_keys=True)}")


def cmd_plan(args) -> int:
    config = fileio.load_config(args.config)
    _print_effective_config(config)
    plans, _ = build_plans(config)
    sched = config.schedule()
    for k, plan in enumerate(plans):
        cells = " | ".join(
            f"[{c.start},{c.stop}) {c.mode.value}" for c in plan.chunks
        )
        print(f"step {k:3d} (t={sched.timestep_at(k):4d}): {cells}")
    return 0


def cmd_sample(args) -> int:
    config = fileio.load_config(args.config)
    _print_effective_config(config)
    video, stats = run_inference(config)
    fileio.save_latents(args.out, video)
    print(
        f"wrote {args.out}: {stats.n_total} frames, "
        f"{stats.full_chunk_evals} full / {stats.partial_chunk_evals} partial chunk evals, "
        f"{stats.total_flops} matmul FLOPs, {stats.wall_seconds * 1e3:.1f} ms, "
        f"{stats.processes} processes"
    )
    if args.dump_frames:
        out_dir = Path(args.dump_frames)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i in range(video.num_frames):
            fileio.write_pgm(out_dir / f"frame_{i:05d}.pgm", video.z[i, 0])
        print(f"dumped {video.num_frames} PGM frames to {out_dir}")
    return 0


def _sweep_configs(base: EngineConfig, sweep: str):
    """(label, config) pairs for a named sweep over the base config. Rows
    on the overlap policy compute every chunk fully and drop none."""
    L = base.chunk_len
    overlap = dict(policy="overlap", partial_fraction=0.0, hard_skip=False)
    if sweep == "none":
        return [("run", base)]
    if sweep == "overlap":
        return [
            (f"overlap_s{s}", dataclasses.replace(base, overlap_s=s, **overlap))
            for s in dict.fromkeys((0, L // 4, L // 2, L - 1))  # L < 4 repeats values
        ]
    if sweep == "chunk_length":
        return [
            (f"chunk{length}", dataclasses.replace(
                base, chunk_len=length, overlap_s=length // 4, **overlap))
            for length in (8, 16, 24)
        ]
    if sweep == "shiftcache":
        return [
            ("baseline_s0", dataclasses.replace(base, overlap_s=0, **overlap)),
            ("fs", dataclasses.replace(
                base, policy="shift", shift_mode="fixed", partial_fraction=0.0)),
            ("rs", dataclasses.replace(
                base, policy="shift", shift_mode="random", partial_fraction=0.0)),
            ("fs_p50", dataclasses.replace(
                base, policy="shift", shift_mode="fixed", partial_fraction=0.5)),
            ("rs_p50", dataclasses.replace(
                base, policy="shift", shift_mode="random", partial_fraction=0.5)),
        ]
    raise ValueError(f"unknown sweep {sweep!r}")


def cmd_bench(args) -> int:
    base = fileio.load_config(args.config)
    runs = _sweep_configs(base, args.sweep)
    rows = []
    reference = None
    for label, config in runs:
        _print_effective_config(config)
        video, stats = run_inference(config)
        if reference is None:
            reference = video.z
        if args.sweep != "none" and min(config.latent_h, config.latent_w) >= SSIM_WINDOW:
            ssim_val = video_ssim(video.z, reference)
        else:
            ssim_val = None  # frames smaller than the SSIM window: leave blank
        rows.append(fileio.format_bench_row(label, config, stats, flicker_index(video.z),
                                            ssim_val))
        print(f"run {label}: fps_proxy={stats.fps_proxy:.4g} "
              f"flops={stats.total_flops} processes={stats.processes}")
    fileio.write_bench_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_masks(args) -> int:
    tokens = args.flags.lower()
    if not tokens or any(c not in "gb" for c in tokens):
        raise ValueError("flags must be a non-empty string over {g, b}, e.g. 'bbgg'")
    blocked = build_mask(MaskVariant(args.variant), np.array([c == "g" for c in tokens]))
    for row in blocked:
        print(" ".join("X" if cell else "0" for cell in row))
    return 0


def cmd_select_frame(args) -> int:
    frames = fileio.load_keypoints(args.keypoints)
    specs = fileio.load_joint_specs(args.specs) if args.specs else DEFAULT_JOINT_TRIPLES
    table = score_table(frames, specs, args.conf_threshold)
    print("frame_index,score,visible_parts")
    for idx, score, visible in table:
        print(f"{idx},{score:.6g},{visible}")
    print(f"selected frame: {pose_select(table)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftcache",
        description="Shifted-chunk video diffusion scheduling benchmark tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="print per-step chunk tables for a config")
    p_plan.add_argument("--config", required=True)
    p_plan.set_defaults(func=cmd_plan)

    p_sample = sub.add_parser("sample", help="run inference and write final latents")
    p_sample.add_argument("--config", required=True)
    p_sample.add_argument("--out", required=True, help="output latent (.lvt) path")
    p_sample.add_argument("--dump-frames", default=None,
                          help="directory for diagnostic PGM dumps of channel 0")
    p_sample.set_defaults(func=cmd_sample)

    p_bench = sub.add_parser("bench", help="sweep configs and write a CSV")
    p_bench.add_argument("--config", required=True, help="base config for the sweep")
    p_bench.add_argument("--sweep", default="none",
                         choices=["none", "overlap", "chunk_length", "shiftcache"])
    p_bench.add_argument("--out", required=True, help="output CSV path")
    p_bench.set_defaults(func=cmd_bench)

    p_masks = sub.add_parser("masks", help="dump an attention mask as a 0/X grid")
    p_masks.add_argument("--variant", required=True,
                         choices=[v.value for v in MaskVariant])
    p_masks.add_argument("--flags", required=True,
                         help="per-frame freshness, e.g. 'bbgg' (g=good, b=bad)")
    p_masks.set_defaults(func=cmd_masks)

    p_select = sub.add_parser("select-frame",
                              help="pick the best frame for mask prompting")
    p_select.add_argument("--keypoints", required=True, help="keypoints JSON file")
    p_select.add_argument("--specs", default=None, help="joint triple spec JSON")
    p_select.add_argument("--conf-threshold", type=float, default=DEFAULT_CONF_THRESHOLD)
    p_select.set_defaults(func=cmd_select_frame)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: fail with a message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
