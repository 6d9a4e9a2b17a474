import json
import re
import statistics

import pytest

from shiftcache import fileio, pose_select
from shiftcache.cli import _sweep_configs, main
from shiftcache.scheduler import EngineConfig

CSV_COLUMNS = fileio.CSV_HEADER.split(",")


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


TINY = {
    "n_total": 24, "chunk_len": 8, "policy": "shift", "delta": 2,
    "partial_fraction": 0.0, "ddim_steps": 4, "seed": 0,
    "latent": {"h": 12, "w": 12},
    "toy": {"shallow_width": 4, "deep_width": 8, "deep_blocks": 2},
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlan:
    def test_prints_shift_tables_from_spec_example(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "n_total": 12, "chunk_len": 4, "policy": "shift", "delta": 2,
            "ddim_steps": 3, "latent": {"h": 4, "w": 4},
        })
        code, out, _ = run_cli(capsys, "plan", "--config", cfg)
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("step")]
        assert "[0,4) full | [4,8) full | [8,12) full" in lines[0]
        assert "[0,2) full | [2,6) full | [6,10) full | [10,12) full" in lines[1]

    def test_emits_effective_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        code, out, _ = run_cli(capsys, "plan", "--config", cfg)
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("effective-config:"))
        doc = json.loads(line.split(": ", 1)[1])
        assert doc["n_total"] == 24
        assert doc["toy"]["deep_blocks"] == 2

    def test_negative_seed_rejected_naming_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**TINY, "seed": -1})
        code, out, err = run_cli(capsys, "plan", "--config", cfg)
        assert code == 1
        assert "error: seed must be >= 0" in err
        assert "step" not in out

    def test_partial_marks_shown(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**TINY, "partial_fraction": 1.0, "ddim_steps": 6})
        code, out, _ = run_cli(capsys, "plan", "--config", cfg)
        assert code == 0
        assert "partial" in out


class TestSample:
    def test_writes_loadable_latents(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        out_path = tmp_path / "final.lvt"
        code, out, _ = run_cli(capsys, "sample", "--config", cfg, "--out", str(out_path))
        assert code == 0
        video = fileio.load_latents(out_path)
        assert video.z.shape == (24, 4, 12, 12)
        assert "effective-config:" in out

    def test_sample_and_bench_lines_show_the_process_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        code, out, _ = run_cli(capsys, "sample", "--config", cfg,
                               "--out", str(tmp_path / "f.lvt"))
        assert code == 0
        counts = re.findall(r"^wrote .*, (\d+) processes$", out, flags=re.M)
        code, out, _ = run_cli(capsys, "bench", "--config", cfg, "--sweep", "overlap",
                               "--out", str(tmp_path / "b.csv"))
        assert code == 0
        counts += re.findall(r"^run overlap_s\d+: .* processes=(\d+)$", out, flags=re.M)
        assert len(counts) == 1 + 4
        assert all(int(count) >= 1 for count in counts)

    def test_dump_frames_pgm(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        dump = tmp_path / "frames"
        code, _, _ = run_cli(capsys, "sample", "--config", cfg,
                             "--out", str(tmp_path / "f.lvt"),
                             "--dump-frames", str(dump))
        assert code == 0
        files = sorted(dump.glob("*.pgm"))
        assert len(files) == 24
        assert files[0].read_bytes().startswith(b"P5\n12 12\n255\n")

    def test_sample_runs_repeatably_bit_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        a, b = tmp_path / "a.lvt", tmp_path / "b.lvt"
        assert run_cli(capsys, "sample", "--config", cfg, "--out", str(a))[0] == 0
        assert run_cli(capsys, "sample", "--config", cfg, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_config_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sample", "--config",
                               str(tmp_path / "nope.json"), "--out", str(tmp_path / "x"))
        assert code == 1
        assert "error:" in err


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0] == fileio.CSV_VERSION_LINE
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    return header, rows


# Bench rounds behind the monotone-fps claim. Each round runs the whole
# overlap sweep, so the configs it compares run interleaved.
MONOTONE_ROUNDS = 7


class TestBench:
    def test_overlap_sweep_monotone_fps(self, tmp_path, capsys):
        # fps falls strictly as S grows, since cost grows with S. One
        # sub-second run is noisy, so each adjacent pair's fps ratio is
        # taken within each round, where the pair ran back to back, and
        # its median over the rounds must exceed 1.
        cfg = write_config(tmp_path, {**TINY, "policy": "overlap", "delta": 0})
        ratios = []  # [round][pair] fps(S_i) / fps(S_i+1)
        for rep in range(MONOTONE_ROUNDS):
            out_csv = tmp_path / f"bench{rep}.csv"
            code, _, _ = run_cli(capsys, "bench", "--config", cfg,
                                 "--sweep", "overlap", "--out", str(out_csv))
            assert code == 0
            header, rows = parse_csv(out_csv.read_text())
            fps = [float(r["fps_proxy"]) for r in rows]
            ratios.append([a / b for a, b in zip(fps, fps[1:])])
        assert header == fileio.CSV_HEADER.split(",")
        labels = [r["config"] for r in rows]
        assert labels == ["overlap_s0", "overlap_s2", "overlap_s4", "overlap_s7"]
        medians = []
        for a, b, pair in zip(labels, labels[1:], zip(*ratios)):
            medians.append(statistics.median(pair))
            print(f"fps {a}/{b}: median {medians[-1]:.3f} of "
                  + " ".join(f"{r:.3f}" for r in pair))
        assert all(m > 1 for m in medians), medians
        assert rows[0]["ssim"] == "1"  # first row is its own reference
        full = [int(r["full_chunks"]) for r in rows]
        assert full == [12, 16, 20, 68]  # count formula x 4 steps

    def test_csv_deterministic_except_wall_columns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**TINY, "shift_mode": "random",
                                      "partial_fraction": 0.5})
        a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "bench", "--config", cfg, "--sweep", "shiftcache",
                       "--out", str(a_csv))[0] == 0
        assert run_cli(capsys, "bench", "--config", cfg, "--sweep", "shiftcache",
                       "--out", str(b_csv))[0] == 0
        _, rows_a = parse_csv(a_csv.read_text())
        _, rows_b = parse_csv(b_csv.read_text())
        assert len(rows_a) == 5
        for ra, rb in zip(rows_a, rows_b):
            for key in ra:
                if key in ("wall_ms", "fps_proxy"):
                    continue
                assert ra[key] == rb[key], key

    # Every column of two sweeps' rows except the wall-clock pair, as
    # literal strings: the column formats, the counters and the quality
    # metrics. Like tests/test_golden.py, recorded with numpy 2.4.6 on
    # OpenBLAS 0.3.31; re-record only for a platform change.
    PINNED_ROWS = {
        "shiftcache": [
            "baseline_s0,overlap,0,0,0,half,12,0,21657600,81779712,*,24,*,80478.2271,1",
            "fs,shift,0,2,0,half,15,0,21474816,81411840,*,24,*,80479.6503,0.999995057",
            "rs,shift,0,2,0,half,16,0,21530624,81522688,*,24,*,80245.836,0.898346647",
            "fs_p50,shift,0,2,0.5,half,13,2,17865216,81411840,*,24,*,80420.7833,0.999363058",
            "rs_p50,shift,0,2,0.5,half,14,2,17921024,81522688,*,24,*,80099.179,0.898546855",
        ],
        "overlap": [
            "overlap_s0,overlap,0,0,0,half,12,0,21657600,81779712,*,24,*,80478.2271,1",
            "overlap_s2,overlap,2,0,0,half,16,0,28876800,109039616,*,24,*,78796.9176,0.930384804",
            "overlap_s4,overlap,4,0,0,half,20,0,36096000,136299520,*,24,*,78959.6458,0.938511369",
            "overlap_s7,overlap,7,0,0,half,68,0,122726400,463418368,*,24,*,78365.1989,0.914655591",
        ],
    }

    def test_csv_rows_pinned(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        wall_ms = CSV_COLUMNS.index("wall_ms")
        fps_proxy = CSV_COLUMNS.index("fps_proxy")
        for sweep, expected in self.PINNED_ROWS.items():
            out_csv = tmp_path / f"{sweep}.csv"
            assert run_cli(capsys, "bench", "--config", cfg, "--sweep", sweep,
                           "--out", str(out_csv))[0] == 0
            lines = out_csv.read_text().split("\n")
            assert lines[:2] == [fileio.CSV_VERSION_LINE, fileio.CSV_HEADER]
            assert lines[-1] == ""  # one newline ends the file
            rows = []
            for line in lines[2:-1]:
                cells = line.split(",")
                assert re.fullmatch(r"\d+\.\d{3}", cells[wall_ms]), cells[wall_ms]
                assert float(cells[fps_proxy]) > 0
                assert len(cells[fps_proxy].replace(".", "").lstrip("0")) <= 6
                cells[wall_ms] = cells[fps_proxy] = "*"
                rows.append(",".join(cells))
            assert rows == expected, sweep

    @pytest.mark.parametrize("sweep,count", [("shiftcache", 5), ("overlap", 4),
                                             ("chunk_length", 3)])
    def test_sweeps_run_on_a_hard_skip_base(self, tmp_path, capsys, sweep, count):
        # overlap rows drop hard_skip, an ablation of the shift policy;
        # shift rows keep it
        cfg = write_config(tmp_path, {**TINY, "hard_skip": True, "partial_fraction": 0.5})
        out_csv = tmp_path / f"{sweep}.csv"
        code, _, err = run_cli(capsys, "bench", "--config", cfg, "--sweep", sweep,
                               "--out", str(out_csv))
        assert code == 0, err
        _, rows = parse_csv(out_csv.read_text())
        assert len(rows) == count
        for label, config in _sweep_configs(EngineConfig(hard_skip=True), sweep):
            assert config.hard_skip == (config.policy == "shift"), label

    def test_overlap_sweep_labels_unique(self):
        # S in {0, L//4, L//2, L-1}, each value once and in that order
        for length, expected in ((2, [0, 1]), (3, [0, 1, 2]), (4, [0, 1, 2, 3]),
                                 (8, [0, 2, 4, 7]), (16, [0, 4, 8, 15])):
            runs = _sweep_configs(EngineConfig(n_total=32, chunk_len=length), "overlap")
            assert [label for label, _ in runs] == [f"overlap_s{s}" for s in expected]
            assert [config.overlap_s for _, config in runs] == expected

    def test_sweep_none_single_row_empty_ssim(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        out_csv = tmp_path / "one.csv"
        code, _, _ = run_cli(capsys, "bench", "--config", cfg, "--out", str(out_csv))
        assert code == 0
        _, rows = parse_csv(out_csv.read_text())
        assert len(rows) == 1
        assert rows[0]["ssim"] == ""


class TestMasks:
    def test_half_grid(self, capsys):
        code, out, _ = run_cli(capsys, "masks", "--variant", "half", "--flags", "bbgg")
        assert code == 0
        assert out.splitlines() == ["X X 0 0"] * 4

    def test_causal_grid(self, capsys):
        code, out, _ = run_cli(capsys, "masks", "--variant", "causal", "--flags", "gggg")
        assert code == 0
        assert out.splitlines() == [
            "0 0 0 0",
            "X 0 0 0",
            "X X 0 0",
            "X X X 0",
        ]

    # (variant, flags) -> printed grid; X marks a blocked key
    PINNED_GRIDS = {
        ("full", "bbgg"): ["0 0 0 0"] * 4,
        ("full", "gbgb"): ["0 0 0 0"] * 4,
        ("full", "bbbb"): ["0 0 0 0"] * 4,
        ("full", "g"): ["0"],
        ("half", "bbgg"): ["X X 0 0"] * 4,
        ("half", "gbgb"): ["0 X 0 X"] * 4,
        ("half", "bbbb"): ["0 0 0 0"] * 4,  # no good frame: falls back to full
        ("half", "g"): ["0"],
        ("quarter", "bbgg"): ["0 0 0 0", "0 0 0 0", "X X 0 0", "X X 0 0"],
        ("quarter", "gbgb"): ["0 X 0 X", "0 0 0 0", "0 X 0 X", "0 0 0 0"],
        ("quarter", "bbbb"): ["0 0 0 0"] * 4,
        ("quarter", "g"): ["0"],
        ("causal", "bbgg"): ["0 0 0 0", "X 0 0 0", "X X 0 0", "X X X 0"],
        ("causal", "gbgb"): ["0 0 0 0", "X 0 0 0", "X X 0 0", "X X X 0"],
        ("causal", "bbbb"): ["0 0 0 0", "X 0 0 0", "X X 0 0", "X X X 0"],
        ("causal", "g"): ["0"],
    }

    def test_grids_pinned(self, capsys):
        for (variant, flags), expected in self.PINNED_GRIDS.items():
            code, out, _ = run_cli(capsys, "masks", "--variant", variant, "--flags", flags)
            assert code == 0
            assert out.splitlines() == expected, (variant, flags)

    def test_bad_flags_rejected(self, capsys):
        code, _, err = run_cli(capsys, "masks", "--variant", "half", "--flags", "xyz")
        assert code == 1
        assert "error:" in err


class TestSelectFrame:
    def test_singleton(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"frames": [
            {"frame_index": 5, "joints": {
                "neck": [0, 0, 1.0], "left_shoulder": [1, 0, 1.0],
                "left_elbow": [2, 0, 1.0]}},
        ]}))
        code, out, _ = run_cli(capsys, "select-frame", "--keypoints", str(path))
        assert code == 0
        assert "selected frame: 5" in out

    def test_custom_specs(self, tmp_path, capsys):
        kp = tmp_path / "k.json"
        kp.write_text(json.dumps({"frames": [
            {"frame_index": 0, "joints": {"a": [0, 1, 1.0], "b": [0, 0, 1.0],
                                          "c": [1, 0, 1.0]}},
            {"frame_index": 1, "joints": {"a": [1, 0, 1.0], "b": [0, 0, 1.0],
                                          "c": [-1, 0.01, 1.0]}},
        ]}))
        specs = tmp_path / "s.json"
        specs.write_text(json.dumps([
            {"name": "x", "triple": ["a", "b", "c"], "target_angle": 180.0},
        ]))
        code, out, _ = run_cli(capsys, "select-frame", "--keypoints", str(kp),
                               "--specs", str(specs))
        assert code == 0
        assert "selected frame: 1" in out

    def test_scores_each_frame_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        score = pose_select.perfect_pose_score
        monkeypatch.setattr(pose_select, "perfect_pose_score",
                            lambda frame, *a: calls.append(frame.frame_index) or score(frame, *a))
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"frames": [
            {"frame_index": i, "joints": {"neck": [0, 0, 1.0], "left_shoulder": [1, 0, 1.0],
                                          "left_elbow": [2, i, 1.0]}} for i in (0, 1)]}))
        code, out, _ = run_cli(capsys, "select-frame", "--keypoints", str(path))
        assert code == 0 and "selected frame: 0" in out
        assert calls == [0, 1]

    @pytest.mark.parametrize("threshold", ["nan", "-1"])
    def test_threshold_outside_unit_interval_fails(self, tmp_path, capsys, threshold):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"frames": [{"frame_index": 0, "joints": {
            "neck": [0, 0, 0.0], "left_shoulder": [1, 0, 0.0], "left_elbow": [2, 0, 0.0]}}]}))
        code, out, err = run_cli(capsys, "select-frame", "--keypoints", str(path),
                                 "--conf-threshold", threshold)
        assert code == 1 and "outside [0, 1]" in err
        assert "selected frame" not in out

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "select-frame", "--keypoints", "missing.json")
        assert code == 1
        assert "error:" in err
