"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
report. Wall-clock measurements: criterion 2 times interleaved base/partial
pairs and takes the median pair ratio to suppress machine noise, and
criterion 8 reads one bench sweep; everything else is exact or
tolerance-pinned.
"""

import json
import math
import time

import numpy as np

from shiftcache.cache import FeatureCache, FreshnessFlags, build_mask
from shiftcache.cli import main as cli_main
from shiftcache.denoiser import (
    DenoiserInput,
    GarmentCondition,
    ToyDenoiser,
    ToyDenoiserConfig,
    attention,
)
from shiftcache.diffusion import ddim_step, make_schedule
from shiftcache.metrics import throughput_model
from shiftcache.numerics import MaskVariant
from shiftcache.pose_select import (
    JointTripleSpec,
    KeypointFrame,
    calculate_angle,
    perfect_pose_score,
    select_best_frame,
)
from shiftcache.scheduler import (
    ChunkMode,
    EngineConfig,
    mark_partial,
    plan_overlap,
    plan_shift,
    run_inference,
    synthesize_conditions,
)

# Reference pipeline throughput: FPS 1.544/1.176/0.801/0.104 for overlap
# S=0/4/8/15, and 2.270 FPS with 50% partial computation on the shift schedule.
REFERENCE_OVERLAP_FPS_RATIOS = {4: 1.176 / 1.544, 8: 0.801 / 1.544, 15: 0.104 / 1.544}
REFERENCE_SHIFTCACHE_SPEEDUP = 2.270 / 1.544  # ~1.47x
# Interleaved base/partial pairs behind criterion 2's median speedup.
SPEEDUP_PAIRS = 7

SMALL_TOY = ToyDenoiserConfig(shallow_width=4, deep_width=8, shallow_blocks=2,
                              deep_blocks=4, seed=0)
TINY_TOY = ToyDenoiserConfig(shallow_width=4, deep_width=8, shallow_blocks=2,
                             deep_blocks=2, seed=0)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_overlap_tradeoff_ratios():
    """Relative throughput for S in {4, 8, 15} vs S=0 within 10% of the
    reference FPS ratios, from eval counts of real toy runs at 16x12."""
    t0 = time.perf_counter()
    stats = {}
    for s in (0, 4, 8, 15):
        cfg = EngineConfig(n_total=144, chunk_len=16, policy="overlap", overlap_s=s,
                           partial_fraction=0.0, ddim_steps=25, seed=0,
                           latent_h=16, latent_w=12, toy=SMALL_TOY)
        _, stats[s] = run_inference(cfg)
    denoiser = ToyDenoiser(SMALL_TOY)
    assert throughput_model(stats[0], denoiser) == 1.0
    details = []
    ok = True
    for s, ref in REFERENCE_OVERLAP_FPS_RATIOS.items():
        measured = throughput_model(stats[s], denoiser)
        rel_err = abs(measured / ref - 1.0)
        ok = ok and rel_err <= 0.10
        details.append(f"S={s}: {measured:.4f} vs ref {ref:.4f} ({rel_err * 100:.1f}%)")
    wall = time.perf_counter() - t0
    report(1, ok, "; ".join(details) + f"; suite wall {wall:.1f}s")


def test_criterion_2_shiftcaching_wall_speedup():
    """Wall-clock speedup of random-shift p=0.5 over the S=0 full-compute
    baseline in [1.3, 1.8] (reference speedup ~1.47x = 2.270/1.544, the
    random-shift full-compute row vs its partially-computed row). The
    baseline is the same non-overlapping (S=0) random-shift schedule with
    partial computation off, so the measurement isolates exactly the
    partial-computation effect. The speedup is the median of the per-pair
    ratios of SPEEDUP_PAIRS interleaved base/partial pairs: a pair runs
    within one host state, and the median ignores the few pairs a change
    of state splits."""
    # deep_cost_share target 0.75, achieved at the shape this run uses; the
    # wall measurement runs at 8x8 latents where per-block costs are uniform
    # enough for wall time to track the FLOP split
    toy = ToyDenoiserConfig(shallow_width=8, deep_width=8, deep_blocks=38)
    assert toy.deep_cost_share == 0.75
    share = ToyDenoiser(toy).deep_share(16, 8, 8, 4)
    assert abs(share - 0.75) <= 0.05 * 0.75, f"measured share {share:.4f}"
    common = dict(n_total=240, chunk_len=16, policy="shift", shift_mode="random",
                  staleness_cap=2, ddim_steps=25, seed=0, toy=toy,
                  latent_h=8, latent_w=8)
    base_cfg = EngineConfig(partial_fraction=0.0, **common)
    shift_cfg = EngineConfig(partial_fraction=0.5, **common)
    run_inference(EngineConfig(n_total=32, chunk_len=16, ddim_steps=2, toy=toy,
                               latent_h=8, latent_w=8))  # warm
    ratios = []
    for _ in range(SPEEDUP_PAIRS):
        _, sb = run_inference(base_cfg)
        _, ss = run_inference(shift_cfg)
        ratios.append(sb.wall_seconds / ss.wall_seconds)
    partial_evals = ss.partial_chunk_evals
    total_evals = ss.partial_chunk_evals + ss.full_chunk_evals
    q1, speedup, q3 = np.percentile(ratios, [25, 50, 75])
    ok = 1.3 <= speedup <= 1.8
    report(2, ok,
           f"speedup {speedup:.3f} in [1.3, 1.8] (ref {REFERENCE_SHIFTCACHE_SPEEDUP:.2f}),"
           f" median of {len(ratios)} pair ratios, quartiles {q1:.3f}-{q3:.3f},"
           f" range {min(ratios):.3f}-{max(ratios):.3f}; deep share {share:.3f};"
           f" partial evals {partial_evals}/{total_evals}")


def test_criterion_3_oracle_equivalence():
    """Every policy with p=0 and the oracle denoiser recovers the target
    within 1e-4 max-abs in float32."""
    policies = [("overlap", dict(overlap_s=s)) for s in (0, 4, 8, 15)]
    policies += [("shift", dict(delta=d, shift_mode="fixed")) for d in (0, 4, 8)]
    policies += [("shift", dict(delta=4, shift_mode="random"))]
    worst = 0.0
    for policy, kw in policies:
        cfg = EngineConfig(n_total=144, chunk_len=16, policy=policy,
                           partial_fraction=0.0, denoiser="oracle", ddim_steps=25,
                           seed=3, latent_h=16, latent_w=12, toy=TINY_TOY, **kw)
        conditions = synthesize_conditions(cfg)
        video, _ = run_inference(cfg, conditions)
        err = float(np.max(np.abs(video.z - conditions.target_x0)))
        worst = max(worst, err)
    ok = worst <= 1e-4
    report(3, ok, f"worst max-abs error {worst:.2e} <= 1e-4 over {len(policies)} policies")


def test_criterion_4_baseline_identity():
    """Shift delta=0 p=0 and overlap S=0 are bit-identical with equal
    counters for 10 random configs."""
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(10):
        length = int(rng.choice([2, 4, 8]))
        n_total = length * int(rng.integers(1, 5))
        seed = int(rng.integers(0, 2**31))
        steps = int(rng.integers(2, 5))
        h = int(rng.choice([4, 6, 8]))
        w = int(rng.choice([4, 6, 8]))
        common = dict(n_total=n_total, chunk_len=length, partial_fraction=0.0,
                      delta=0, ddim_steps=steps, seed=seed, latent_h=h, latent_w=w,
                      toy=TINY_TOY)
        va, sa = run_inference(EngineConfig(policy="shift", **common))
        vb, sb = run_inference(EngineConfig(policy="overlap", overlap_s=0, **common))
        assert np.array_equal(va.z, vb.z), "final latents differ bitwise"
        assert (sa.full_chunk_evals, sa.partial_chunk_evals,
                sa.deep_flops, sa.shallow_flops) == \
               (sb.full_chunk_evals, sb.partial_chunk_evals,
                sb.deep_flops, sb.shallow_flops), "eval counters differ"
        checked += 1
    report(4, checked == 10, f"{checked}/10 random configs bit-identical with equal counters")


def test_criterion_5_scheduling_invariants():
    """Property suite over >= 1000 random configs: exact cover/disjointness,
    overlap coverage with exact overlap S, boundary-phase counts, one DDIM
    update per frame per step, freshness never above the cap."""
    rng = np.random.default_rng(99)
    n_configs = 1000
    phase_checks = 0
    for i in range(n_configs):
        n = int(rng.integers(4, 200))
        length = int(rng.integers(1, min(n, 24) + 1))
        delta = int(rng.integers(0, length))
        overlap = int(rng.integers(0, length))
        steps = int(rng.integers(1, 12))
        seed = int(rng.integers(0, 2**31))
        mode = "fixed" if rng.random() < 0.5 else "random"

        # shift plans: pairwise disjoint, exact cover == one update per frame
        hits = np.zeros(n, dtype=int)
        for k in range(steps):
            hits[:] = 0
            for c in plan_shift(n, length, delta, k, mode=mode, seed=seed):
                hits[c.start:c.stop] += 1
            assert np.all(hits == 1), "shift plan must cover each frame exactly once"

        # overlap plans: full cover, consecutive chunks overlap exactly S
        chunks = plan_overlap(n, length, overlap)
        hits[:] = 0
        for c in chunks:
            hits[c.start:c.stop] += 1
        assert np.all(hits >= 1), "overlap plan must cover every frame"
        for a, b in zip(chunks, chunks[1:-1]):
            assert a.stop - b.start == overlap, "interior overlap must equal S"
        if len(chunks) >= 2:
            assert chunks[-2].stop - chunks[-1].start >= overlap

        # fixed-shift boundary phases: distinct plans == L / gcd(L, delta)
        if mode == "fixed" and i % 10 == 0:
            seen = set()
            for k in range(4 * length):
                seen.add(tuple(c.start for c in plan_shift(n, length, delta, k)))
            expected = length // math.gcd(length, delta) if delta else 1
            assert len(seen) == expected, "boundary phase count"
            phase_checks += 1

        # partial marking never lets staleness exceed the cap
        if i % 5 == 0:
            p = float(rng.random())
            plans = [plan_shift(n, length, delta, k, mode=mode, seed=seed)
                     for k in range(max(steps, 3))]
            marked, _ = mark_partial(plans, p, 2, seed, length)
            last_full = np.zeros(n, dtype=int)
            for k, step in enumerate(marked):
                for c in step:
                    if c.mode is ChunkMode.PARTIAL:
                        staleness = k - last_full[c.start:c.stop]
                        assert staleness.max() <= 2, "staleness cap violated"
                    else:
                        last_full[c.start:c.stop] = k
    report(5, True, f"{n_configs} random configs, {phase_checks} phase-count checks")


def test_criterion_6_mask_structure_suite():
    """500 random freshness partitions x 4 variants: definitions, no blocked
    rows, and on the engine's attention kernel, full-mask equivalence and
    half-mask information-flow exactness for every partition."""
    rng = np.random.default_rng(7)
    equivalence_checked = exactness_checked = 0
    for i in range(500):
        length = int(rng.integers(1, 25))
        good = rng.random(length) < rng.random()
        flags = FreshnessFlags(good=good)
        for variant in MaskVariant:
            mask = build_mask(variant, flags)
            blocked = mask.blocked()
            assert not blocked.all(axis=1).any(), "no fully blocked query rows"
            if variant is MaskVariant.FULL:
                assert not blocked.any()
            elif variant is MaskVariant.HALF:
                if good.any():
                    # query frames attend exactly to the accurate frames
                    np.testing.assert_array_equal(
                        blocked, np.broadcast_to(~good[None, :], (length, length)))
                else:
                    assert not blocked.any()  # fallback to full
            elif variant is MaskVariant.QUARTER:
                # accurate queries never attend to less accurate keys;
                # less accurate queries attend to all
                np.testing.assert_array_equal(blocked[good],
                                              np.broadcast_to(~good[None, :],
                                                              (int(good.sum()), length)))
                assert not blocked[~good].any()
            elif variant is MaskVariant.CAUSAL:
                idx = np.arange(length)
                np.testing.assert_array_equal(blocked, idx[None, :] < idx[:, None])

        q = rng.standard_normal((2, length, 6)).astype(np.float32) / np.float32(math.sqrt(6))
        k = rng.standard_normal((2, length, 6)).astype(np.float32)
        v = rng.standard_normal((2, length, 6)).astype(np.float32)
        full = build_mask(MaskVariant.FULL, flags)
        diff = np.abs(attention(q, k, v, full) - attention(q, k, v))
        assert diff.max() <= 1e-6, "full mask must equal unmasked attention"
        if good.any() and not good.all():
            half = build_mask(MaskVariant.HALF, flags)
            base = attention(q, k, v, half)
            v2 = v.copy()
            v2[:, ~good, :] += 50.0
            np.testing.assert_array_equal(attention(q, k, v2, half), base)
            exactness_checked += 1
        equivalence_checked += 1
    report(6, True, f"500 partitions x 4 variants; {equivalence_checked} full-mask and "
                    f"{exactness_checked} half-mask exactness checks on the engine kernel")


def test_criterion_7_partial_compute_sanity():
    """Same-step cache reproduces the full output within relative L2 1e-5;
    a one-step-stale cache beats zero-feature substitution on 10 seeds."""
    sched = make_schedule(1000, 1e-4, 0.02, 25)
    worst_rel = 0.0
    stale_wins = 0
    for seed in range(10):
        cfg = ToyDenoiserConfig(shallow_width=4, deep_width=8, shallow_blocks=2,
                                deep_blocks=4, seed=seed)
        d = ToyDenoiser(cfg)
        rng = np.random.default_rng(seed)
        L, h, w = 16, 16, 12
        z = rng.standard_normal((L, 4, h, w)).astype(np.float32)
        video = rng.standard_normal((L, 4, h, w)).astype(np.float32)
        mask_img = np.zeros((L, 1, h, w), dtype=np.float32)
        mask_img[:, :, 4:12, 3:9] = 1
        pose = rng.standard_normal((L, 4, h, w)).astype(np.float32)
        garment = GarmentCondition(rng.standard_normal((4, 4)).astype(np.float32))
        inp = DenoiserInput(z, video, mask_img, pose, 3, np.arange(L))

        eps_full, deep = d.denoise_full(inp, garment)
        cache = FeatureCache(L, d.deep_feature_shape(h, w), staleness_cap=2)
        cache.store_block(0, deep, 3)
        feats, _, flags = cache.fetch(range(L), 3)
        eps_part = d.denoise_partial(inp, feats, flags, MaskVariant.FULL, garment)
        rel = float(np.linalg.norm(eps_part - eps_full) / np.linalg.norm(eps_full))
        worst_rel = max(worst_rel, rel)

        z_next = ddim_step(z, eps_full, 3, sched)
        inp_next = DenoiserInput(z_next, video, mask_img, pose, 4, np.arange(L))
        eps_ref, _ = d.denoise_full(inp_next, garment)
        feats, _, flags = cache.fetch(range(L), 4)
        eps_stale = d.denoise_partial(inp_next, feats, flags, MaskVariant.FULL, garment)
        eps_zero = d.denoise_partial(inp_next, np.zeros_like(feats), flags,
                                     MaskVariant.FULL, garment)
        if np.linalg.norm(eps_stale - eps_ref) < np.linalg.norm(eps_zero - eps_ref):
            stale_wins += 1
    ok = worst_rel < 1e-5 and stale_wins == 10
    report(7, ok, f"same-step rel L2 {worst_rel:.2e} < 1e-5; "
                  f"stale cache beat zero features on {stale_wins}/10 seeds")


def test_criterion_8_chunk_length_ablation(tmp_path, capsys):
    """Bench over chunk lengths 8/16/24 at S = L/4 orders fps_proxy the way
    the reference measurements do: fps(24) > fps(16) > fps(8)."""
    cfg_path = tmp_path / "base.json"
    cfg_path.write_text(json.dumps({
        "n_total": 144, "chunk_len": 16, "policy": "overlap", "overlap_s": 0,
        "ddim_steps": 25, "seed": 0, "latent": {"h": 8, "w": 8},
        "toy": {"shallow_width": 8, "deep_width": 8, "deep_blocks": 38},
    }))
    out_csv = tmp_path / "chunk_length.csv"
    code = cli_main(["bench", "--config", str(cfg_path),
                     "--sweep", "chunk_length", "--out", str(out_csv)])
    capsys.readouterr()
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    fps = {int(r["config"].removeprefix("chunk")): float(r["fps_proxy"]) for r in rows}
    ok = fps[24] > fps[16] > fps[8]
    report(8, ok, f"fps_proxy: L=8 {fps[8]:.3f}, L=16 {fps[16]:.3f}, L=24 {fps[24]:.3f} "
                  f"(reference: 0.914 < 1.176 < 1.723)")


def test_criterion_9_pose_algorithm_suite():
    """Angle identities, similarity-transform invariance within 1e-6 deg,
    and visibility-first selection ordering."""
    ok = True
    ok &= abs(calculate_angle((1, 0), (0, 0), (-1, 0)) - 180.0) < 1e-9
    ok &= abs(calculate_angle((1, 0), (0, 0), (0, 1)) - 90.0) < 1e-9
    ok &= abs(calculate_angle((1, 0), (0, 0), (1, 1)) - 45.0) < 1e-9

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        pts = [tuple(p) for p in rng.uniform(-5, 5, (3, 2))]
        if any(np.allclose(pts[i], pts[1]) for i in (0, 2)):
            continue
        base = calculate_angle(*pts)
        theta = rng.uniform(0, 2 * np.pi)
        scale = rng.uniform(0.1, 20.0)
        tx, ty = rng.uniform(-50, 50, 2)
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        moved = [tuple(scale * rot @ np.asarray(p) + (tx, ty)) for p in pts]
        worst = max(worst, abs(calculate_angle(*moved) - base))
    ok &= worst <= 1e-6

    specs = (
        JointTripleSpec("j1", ("a", "b", "c"), 180.0),
        JointTripleSpec("j2", ("b", "c", "d"), 180.0),
    )
    # visible parts dominate: (2 visible, score 90) beats (1 visible, score 0)
    many_visible = KeypointFrame(0, {"a": (0, 1, 1.0), "b": (0, 0, 1.0),
                                     "c": (1, 0, 1.0), "d": (2, 0.5, 1.0)})
    few_perfect = KeypointFrame(1, {"a": (0, 0, 1.0), "b": (1, 0, 1.0),
                                    "c": (2, 0, 1.0)})
    s0 = perfect_pose_score(many_visible, specs)
    s1 = perfect_pose_score(few_perfect, specs)
    ok &= s0[1] > s1[1] and s0[0] > s1[0]
    ok &= select_best_frame([few_perfect, many_visible], specs) == 0
    report(9, bool(ok), f"angle identities exact; similarity invariance {worst:.2e} deg;"
                        " visibility-first ordering holds")


def test_criterion_10_reproducibility(tmp_path, capsys):
    """Identical config+seed: byte-identical CSV (excluding wall-derived
    columns) and bit-identical latent files across two runs."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n_total": 32, "chunk_len": 8, "policy": "shift", "delta": 2,
        "shift_mode": "random", "partial_fraction": 0.5, "ddim_steps": 5,
        "seed": 11, "latent": {"h": 12, "w": 12},
        "toy": {"shallow_width": 4, "deep_width": 8, "deep_blocks": 2},
    }))

    def strip_wall(csv_text):
        lines = csv_text.strip().splitlines()
        header = lines[1].split(",")
        wall_cols = {header.index("wall_ms"), header.index("fps_proxy")}
        out = lines[:2]
        for line in lines[2:]:
            cells = [("<wall>" if i in wall_cols else cell)
                     for i, cell in enumerate(line.split(","))]
            out.append(",".join(cells))
        return "\n".join(out)

    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["bench", "--config", str(cfg_path), "--sweep", "shiftcache",
                     "--out", str(a_csv)]) == 0
    assert cli_main(["bench", "--config", str(cfg_path), "--sweep", "shiftcache",
                     "--out", str(b_csv)]) == 0
    csv_ok = strip_wall(a_csv.read_text()) == strip_wall(b_csv.read_text())

    a_lvt, b_lvt = tmp_path / "a.lvt", tmp_path / "b.lvt"
    assert cli_main(["sample", "--config", str(cfg_path), "--out", str(a_lvt)]) == 0
    assert cli_main(["sample", "--config", str(cfg_path), "--out", str(b_lvt)]) == 0
    capsys.readouterr()
    lvt_ok = a_lvt.read_bytes() == b_lvt.read_bytes()
    report(10, csv_ok and lvt_ok,
           "CSV byte-identical outside wall-derived columns; latent files bit-identical")
