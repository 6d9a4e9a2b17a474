"""The library's import and run paths need numpy alone: scipy is only a
test-time reference for the in-repo filters. A serial run also leaves
``multiprocessing.connection`` unimported: only the parallel path pays for
it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys

import shiftcache
import shiftcache.cli
import shiftcache.fileio
from shiftcache.denoiser import ToyDenoiserConfig

toy = ToyDenoiserConfig(shallow_width=4, deep_width=8, shallow_blocks=2, deep_blocks=2)
config = shiftcache.EngineConfig(n_total=24, chunk_len=8, policy="shift", shift_mode="random",
                                 partial_fraction=0.5, ddim_steps=4, toy=toy,
                                 latent_h=12, latent_w=12)
video, stats = shiftcache.run_inference(config)
shiftcache.video_ssim(video.z, video.z)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
print(stats.processes, "multiprocessing.connection" in sys.modules)
"""


def test_import_inference_and_ssim_load_no_scipy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "1 False"]
