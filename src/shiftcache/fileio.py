"""Bit-exact file formats: latent videos, keypoints, configs, benchmark CSV.

Latent files ("LVT1"): magic | u8 dtype tag (0=f32, 1=f64) | u32 rank (=4) |
4x u32 dims | row-major little-endian payload. Round-trips are lossless.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from pathlib import Path

import numpy as np

from .denoiser import ToyDenoiserConfig
from .diffusion import LatentVideo
from .numerics import MaskVariant
from .pose_select import JointTripleSpec, KeypointFrame
from .scheduler import EngineConfig, RunStats

LATENT_MAGIC = b"LVT1"
LATENT_RANK = 4
_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_TAG_FOR_KIND = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_MAX_ELEMENTS = 1 << 40  # refuse absurd dim products before allocating

CSV_VERSION_LINE = "# shiftcache-bench v1"
CSV_HEADER = ("config,policy,S,delta,partial_frac,mask,full_chunks,partial_chunks,"
              "deep_flops,shallow_flops,wall_ms,frames,fps_proxy,flicker,ssim")


class FormatError(ValueError):
    """A file does not match its declared format."""


def save_latents(path, video) -> None:
    """Write a LatentVideo (or bare [N, C, H, W] array) as an LVT1 file."""
    z = video.z if isinstance(video, LatentVideo) else np.asarray(video)
    if z.ndim != LATENT_RANK:
        raise FormatError(f"latents must have rank {LATENT_RANK}, got {z.ndim}")
    tag = _TAG_FOR_KIND.get(np.dtype(z.dtype))
    if tag is None:
        raise FormatError(f"unsupported dtype {z.dtype}; use float32 or float64")
    payload = np.ascontiguousarray(z, dtype=_DTYPE_TAGS[tag])
    with open(path, "wb") as fh:
        fh.write(LATENT_MAGIC)
        fh.write(struct.pack("<B", tag))
        fh.write(struct.pack("<I", LATENT_RANK))
        fh.write(struct.pack("<4I", *payload.shape))
        fh.write(payload.tobytes())


def load_latents(path) -> LatentVideo:
    """Read an LVT1 file. The format stores no freshness, so every frame
    comes back as never computed (-1)."""
    blob = Path(path).read_bytes()
    header = 4 + 1 + 4 + 4 * LATENT_RANK
    if len(blob) < header:
        raise FormatError("file too short for an LVT1 header")
    if blob[:4] != LATENT_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}; expected {LATENT_MAGIC!r}")
    tag = blob[4]
    if tag not in _DTYPE_TAGS:
        raise FormatError(f"unknown dtype tag {tag}")
    (rank,) = struct.unpack_from("<I", blob, 5)
    if rank != LATENT_RANK:
        raise FormatError(f"expected rank {LATENT_RANK}, got {rank}")
    dims = struct.unpack_from("<4I", blob, 9)
    if any(d < 1 for d in dims):
        raise FormatError(f"non-positive dimension in {dims}")
    count = 1
    for d in dims:
        count *= d
    if count > _MAX_ELEMENTS:
        raise FormatError(f"dims {dims} overflow the element budget")
    dtype = _DTYPE_TAGS[tag]
    expected = header + count * dtype.itemsize
    if len(blob) != expected:
        raise FormatError(
            f"payload length {len(blob) - header} != dims product {count} x {dtype.itemsize}"
        )
    z = np.frombuffer(blob, dtype=dtype, count=count, offset=header).reshape(dims).copy()
    return LatentVideo(z=z, freshness=np.full(dims[0], -1, dtype=np.int64))


# -- typed JSON fields --------------------------------------------------------

def _read_json(path, what: str):
    """The JSON document in ``path``; a parse error is a FormatError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{what} is not valid JSON: {exc}") from None


def _exact(value, kind: type, where: str):
    """``value``, which must have type ``kind`` exactly: no bool for an int,
    no float or string for either. An int is accepted for a float. Raises
    FormatError naming the field ``where``."""
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise FormatError(f'"{where}" must be {kind.__name__}, got {value!r}')
    return value


def _typed(doc: dict, key: str, default, where: str = ""):
    """``doc[key]`` with the exact type of ``default``, or ``default`` when
    the key is absent."""
    return _exact(doc[key], type(default), where + key) if key in doc else default


def _required(doc: dict, key: str, kind: type, where: str = ""):
    """``doc[key]`` with the exact type ``kind``; the key must be present."""
    if key not in doc:
        raise FormatError(f'"{where}{key}" is missing')
    return _exact(doc[key], kind, where + key)


def _reject_unknown(doc: dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise FormatError(f"unknown key(s) in {where}: {sorted(unknown)}")


# -- keypoints ---------------------------------------------------------------

def load_keypoints(path) -> list[KeypointFrame]:
    """Parse {"frames": [{"frame_index": i, "joints": {name: [x, y, conf]}}]}
    with the config parser's exact types; unknown keys are rejected."""
    doc = _read_json(path, "keypoints file")
    if not isinstance(doc, dict) or "frames" not in doc:
        raise FormatError('keypoints file must be an object with a "frames" list')
    _reject_unknown(doc, {"frames"}, "keypoints file")
    frames = []
    seen = set()
    for i, entry in enumerate(_exact(doc["frames"], list, "frames")):
        where = f"frames[{i}]"
        entry = _exact(entry, dict, where)
        _reject_unknown(entry, {"frame_index", "joints"}, where)
        idx = _required(entry, "frame_index", int, where + ".")
        if idx in seen:
            raise FormatError(f"duplicate frame_index {idx}")
        seen.add(idx)
        joints = {}
        for name, triple in _typed(entry, "joints", {}, where + ".").items():
            at = f"{where}.joints.{name}"
            if type(triple) is not list or len(triple) != 3:
                raise FormatError(f'"{at}" must be [x, y, confidence], got {triple!r}')
            joints[name] = tuple(_exact(value, float, f"{at}.{axis}")
                                 for value, axis in zip(triple, ("x", "y", "confidence")))
        try:
            frames.append(KeypointFrame(frame_index=idx, joints=joints))
        except ValueError as exc:  # a non-finite coordinate or confidence out of range
            raise FormatError(f'"{where}": {exc}') from None
    return frames


def load_joint_specs(path) -> tuple[JointTripleSpec, ...]:
    """Parse [{"name": ..., "triple": [a, b, c], "target_angle": deg}, ...]
    with the config parser's exact types; "name" defaults to "a-b-c", and
    unknown keys are rejected."""
    doc = _read_json(path, "joint spec file")
    if type(doc) is not list or not doc:
        raise FormatError("joint spec file must be a non-empty list")
    specs = []
    for i, entry in enumerate(doc):
        where = f"[{i}]"
        entry = _exact(entry, dict, where)
        _reject_unknown(entry, {"name", "triple", "target_angle"}, "joint spec " + where)
        triple = _required(entry, "triple", list, where + ".")
        if len(triple) != 3:
            raise FormatError(f'"{where}.triple" must name 3 joints, got {triple!r}')
        triple = tuple(_exact(joint, str, f"{where}.triple[{k}]")
                       for k, joint in enumerate(triple))
        name = _typed(entry, "name", "-".join(triple), where + ".")
        angle = _required(entry, "target_angle", float, where + ".")
        try:
            specs.append(JointTripleSpec(name=name, triple=triple, target_angle=angle))
        except ValueError as exc:  # target angle outside (0, 180]
            raise FormatError(f'"{where}": {exc}') from None
    return tuple(specs)


# -- config ------------------------------------------------------------------

# The JSON keys are the dataclass fields, except that latent_h and latent_w
# are written as the "latent" block {"h": ..., "w": ...}.
_TOY_KEYS = {f.name for f in dataclasses.fields(ToyDenoiserConfig)}
_LATENT_KEYS = {"h", "w"}
_TOP_KEYS = ({f.name for f in dataclasses.fields(EngineConfig)}
             - {"latent_h", "latent_w"} | {"latent"})


def config_from_dict(doc: dict) -> EngineConfig:
    """Build an EngineConfig from a JSON document; unknown keys and values of
    the wrong type are rejected, and every omitted key takes its documented
    default."""
    if not isinstance(doc, dict):
        raise FormatError("config must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")
    toy_doc = doc.get("toy", {})
    if not isinstance(toy_doc, dict):
        raise FormatError('"toy" must be an object')
    _reject_unknown(toy_doc, _TOY_KEYS, "toy block")
    latent_doc = doc.get("latent", {})
    if not isinstance(latent_doc, dict):
        raise FormatError('"latent" must be an object')
    _reject_unknown(latent_doc, _LATENT_KEYS, "latent block")

    defaults = EngineConfig()
    toy = ToyDenoiserConfig(**{key: _typed(toy_doc, key, default, "toy.")
                               for key, default in dataclasses.asdict(defaults.toy).items()})

    mask_name = _typed(doc, "mask_variant", defaults.mask_variant.value)
    try:
        mask_variant = MaskVariant(mask_name)
    except ValueError:
        raise FormatError(f"unknown mask_variant {mask_name!r}") from None

    config = EngineConfig(
        **{key: _typed(doc, key, getattr(defaults, key))
           for key in _TOP_KEYS - {"mask_variant", "toy", "latent"}},
        mask_variant=mask_variant,
        toy=toy,
        latent_h=_typed(latent_doc, "h", defaults.latent_h, "latent."),
        latent_w=_typed(latent_doc, "w", defaults.latent_w, "latent."),
    )
    config.validate()
    return config


def load_config(path) -> EngineConfig:
    return config_from_dict(_read_json(path, "config"))


def config_to_dict(config: EngineConfig) -> dict:
    """Fully-resolved effective config, loadable back via config_from_dict."""
    doc = dataclasses.asdict(config)
    doc["mask_variant"] = config.mask_variant.value
    doc["latent"] = {"h": doc.pop("latent_h"), "w": doc.pop("latent_w")}
    return doc


# -- diagnostics -------------------------------------------------------------

def write_pgm(path, image: np.ndarray) -> None:
    """8-bit binary PGM (P5) of a finite 2D array, min-max normalized."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"PGM dump needs a 2D image, got {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("PGM dump needs finite values, got NaN or inf")
    lo, hi = img.min(), img.max()
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    pixels = np.rint(np.clip((img - lo) * scale, 0, 255)).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


# -- benchmark CSV -----------------------------------------------------------

def format_bench_row(label: str, config: EngineConfig, stats: RunStats, flicker: float,
                     ssim: float | None) -> str:
    """One ``CSV_HEADER`` row for the run of ``config`` labelled ``label``;
    a None ``ssim`` (frames below the SSIM window) leaves its column empty."""
    return ",".join([
        label,
        config.policy,
        str(config.overlap_s if config.policy == "overlap" else 0),
        str(config.delta if config.policy == "shift" else 0),
        f"{config.partial_fraction:.9g}",
        config.mask_variant.value,
        str(stats.full_chunk_evals),
        str(stats.partial_chunk_evals),
        str(stats.deep_flops),
        str(stats.shallow_flops),
        f"{stats.wall_seconds * 1e3:.3f}",
        str(stats.n_total),
        f"{stats.fps_proxy:.6g}",
        f"{flicker:.9g}",
        "" if ssim is None else f"{ssim:.9g}",
    ])


def write_bench_csv(path, rows) -> None:
    """Write the rows of ``format_bench_row`` under the version line and
    the header."""
    Path(path).write_text("\n".join([CSV_VERSION_LINE, CSV_HEADER, *rows]) + "\n")
