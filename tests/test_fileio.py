import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcache import fileio
from shiftcache.diffusion import LatentVideo
from shiftcache.fileio import FormatError
from shiftcache.numerics import MaskVariant
from shiftcache.scheduler import EngineConfig


def video(seed=0, dtype=np.float32):
    z = np.random.default_rng(seed).standard_normal((3, 4, 6, 5)).astype(dtype)
    return LatentVideo(z=z, freshness=np.zeros(3, dtype=np.int64))


class TestLatentFiles:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_bit_exact(self, tmp_path, dtype):
        path = tmp_path / "v.lvt"
        v = video(dtype=dtype)
        fileio.save_latents(path, v)
        loaded = fileio.load_latents(path)
        np.testing.assert_array_equal(loaded.z, v.z)
        assert loaded.z.dtype == np.dtype(dtype)

    def test_round_trip_marks_frames_never_computed(self, tmp_path):
        # LVT1 carries no freshness: 0 would claim "fully computed at step 0"
        path = tmp_path / "v.lvt"
        v = video()
        v.freshness[:] = 5
        fileio.save_latents(path, v)
        loaded = fileio.load_latents(path)
        np.testing.assert_array_equal(loaded.freshness, np.full(3, -1))
        assert loaded.freshness.dtype == np.int64

    def test_accepts_bare_array(self, tmp_path):
        path = tmp_path / "v.lvt"
        z = video().z
        fileio.save_latents(path, z)
        np.testing.assert_array_equal(fileio.load_latents(path).z, z)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "v.lvt"
        fileio.save_latents(path, video())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            fileio.load_latents(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "v.lvt"
        fileio.save_latents(path, video())
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(FormatError, match="payload length"):
            fileio.load_latents(path)

    def test_unknown_dtype_tag_rejected(self, tmp_path):
        path = tmp_path / "v.lvt"
        fileio.save_latents(path, video())
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="dtype tag"):
            fileio.load_latents(path)

    def test_wrong_rank_rejected(self, tmp_path):
        path = tmp_path / "v.lvt"
        fileio.save_latents(path, video())
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 5, 3)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="rank"):
            fileio.load_latents(path)

    def test_dim_overflow_rejected(self, tmp_path):
        path = tmp_path / "v.lvt"
        header = fileio.LATENT_MAGIC + struct.pack("<B", 0) + struct.pack("<I", 4)
        header += struct.pack("<4I", 2**31, 2**31, 2, 2)
        path.write_bytes(header)
        with pytest.raises(FormatError, match="overflow"):
            fileio.load_latents(path)

    def test_int_array_rejected_on_save(self, tmp_path):
        with pytest.raises(FormatError, match="dtype"):
            fileio.save_latents(tmp_path / "v.lvt", np.zeros((1, 1, 1, 1), dtype=np.int32))


class TestKeypointsFiles:
    def test_parse(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"frames": [
            {"frame_index": 0, "joints": {"neck": [1.0, 2.0, 0.9]}},
            {"frame_index": 2, "joints": {"left_shoulder": [0.0, 0.0, 0.5]}},
        ]}))
        frames = fileio.load_keypoints(path)
        assert [f.frame_index for f in frames] == [0, 2]
        assert frames[0].joints["neck"] == (1.0, 2.0, 0.9)

    def test_duplicate_frame_index_rejected(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"frames": [
            {"frame_index": 1, "joints": {}},
            {"frame_index": 1, "joints": {}},
        ]}))
        with pytest.raises(FormatError, match="duplicate"):
            fileio.load_keypoints(path)

    def test_joint_arity_enforced(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"frames": [
            {"frame_index": 0, "joints": {"neck": [1.0, 2.0]}},
        ]}))
        with pytest.raises(FormatError, match="x, y, confidence"):
            fileio.load_keypoints(path)

    def test_joint_spec_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps([
            {"name": "custom", "triple": ["a", "b", "c"], "target_angle": 90.0},
        ]))
        specs = fileio.load_joint_specs(path)
        assert specs[0].triple == ("a", "b", "c")
        assert specs[0].target_angle == 90.0

    @pytest.mark.parametrize("doc,field", [
        ({"frames": {"0": {}}}, "frames"),
        ({"frames": [3]}, "frames[0]"),
        ({"frames": [{"frame_index": True, "joints": {}}]}, "frames[0].frame_index"),
        ({"frames": [{"frame_index": 1.0, "joints": {}}]}, "frames[0].frame_index"),
        ({"frames": [{"joints": {}}]}, "frames[0].frame_index"),
        ({"frames": [{"frame_index": 0}, {"frame_index": "1"}]}, "frames[1].frame_index"),
        ({"frames": [{"frame_index": 0, "joints": [1, 2, 3]}]}, "frames[0].joints"),
        ({"frames": [{"frame_index": 0, "joints": {"neck": ["x", 2.0, 0.9]}}]},
         "frames[0].joints.neck.x"),
        ({"frames": [{"frame_index": 0, "joints": {"neck": [1.0, None, 0.9]}}]},
         "frames[0].joints.neck.y"),
        ({"frames": [{"frame_index": 0, "joints": {"neck": [1.0, 2.0, True]}}]},
         "frames[0].joints.neck.confidence"),
    ])
    def test_keypoint_types_strict_naming_the_field(self, tmp_path, doc, field):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f'"{re.escape(field)}" (must be|is missing)'):
            fileio.load_keypoints(path)

    @pytest.mark.parametrize("doc,field", [
        (["spec"], "[0]"),
        ([{"target_angle": 90.0}], "[0].triple"),
        ([{"triple": "a-b-c", "target_angle": 90.0}], "[0].triple"),
        ([{"triple": [1, 2, 3], "target_angle": 90.0}], "[0].triple[0]"),
        ([{"triple": ["a", "b", "c"]}], "[0].target_angle"),
        ([{"triple": ["a", "b", "c"], "target_angle": "90"}], "[0].target_angle"),
        ([{"triple": ["a", "b", "c"], "target_angle": True}], "[0].target_angle"),
        ([{"triple": ["a", "b", "c"], "target_angle": 90.0},
          {"name": 7, "triple": ["a", "b", "c"], "target_angle": 90.0}], "[1].name"),
    ])
    def test_joint_spec_types_strict_naming_the_field(self, tmp_path, doc, field):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f'"{re.escape(field)}" (must be|is missing)'):
            fileio.load_joint_specs(path)

    @pytest.mark.parametrize("loader,text,entry", [
        ("load_keypoints", '{"frames": [{"frame_index": 0}, {"frame_index": 1, '
                           '"joints": {"neck": [NaN, 1.0, 0.5]}}]}', "frames[1]"),
        ("load_keypoints", '{"frames": [{"frame_index": 0, '
                           '"joints": {"neck": [0.0, 1.0, 1.5]}}]}', "frames[0]"),
        ("load_joint_specs", '[{"triple": ["a", "b", "c"], "target_angle": 270}]', "[0]"),
        ("load_joint_specs", '[{"triple": ["a", "b", "c"], "target_angle": 0}]', "[0]"),
    ])
    def test_out_of_range_values_rejected_naming_the_entry(self, tmp_path, loader, text,
                                                           entry):
        path = tmp_path / "f.json"
        path.write_text(text)
        with pytest.raises(FormatError, match=f'^"{re.escape(entry)}": '):
            getattr(fileio, loader)(path)

    @pytest.mark.parametrize("loader,doc,where,key", [
        ("load_keypoints", {"frames": [], "frame": []}, "keypoints file", "frame"),
        # a misspelt "joints" would load as a frame with no visible joints
        ("load_keypoints", {"frames": [{"frame_index": 0},
                                       {"frame_index": 1, "joint": {}}]}, "frames[1]", "joint"),
        # a misspelt "name" would take the default name
        ("load_joint_specs", [{"nme": "x", "triple": ["a", "b", "c"], "target_angle": 90}],
         "joint spec [0]", "nme"),
    ])
    def test_unknown_keys_rejected_naming_the_entry(self, tmp_path, loader, doc, where, key):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError,
                           match=re.escape(f"unknown key(s) in {where}: {[key]}")):
            getattr(fileio, loader)(path)

    @pytest.mark.parametrize("loader,what", [("load_keypoints", "keypoints file"),
                                             ("load_joint_specs", "joint spec file")])
    def test_invalid_json_reported(self, tmp_path, loader, what):
        path = tmp_path / "f.json"
        path.write_text('{"frames": [')
        with pytest.raises(FormatError, match=f"{what} is not valid JSON"):
            getattr(fileio, loader)(path)

    def test_int_accepted_for_float(self, tmp_path):
        kp = tmp_path / "k.json"
        kp.write_text(json.dumps({"frames": [{"frame_index": 0,
                                              "joints": {"neck": [1, 2, 1]}}]}))
        specs = tmp_path / "s.json"
        specs.write_text(json.dumps([{"triple": ["a", "b", "c"], "target_angle": 90}]))
        joint = fileio.load_keypoints(kp)[0].joints["neck"]
        spec = fileio.load_joint_specs(specs)[0]
        assert joint == (1.0, 2.0, 1.0) and all(type(v) is float for v in joint)
        assert spec.name == "a-b-c"
        assert type(spec.target_angle) is float and spec.target_angle == 90.0


class TestConfigFiles:
    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        config = fileio.load_config(path)
        assert config.n_total == 144
        assert config.chunk_len == 16
        assert config.mask_variant is MaskVariant.HALF
        assert config.staleness_cap == 2

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"nonsense": 1}))
        with pytest.raises(FormatError, match="unknown key"):
            fileio.load_config(path)

    def test_unknown_toy_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"toy": {"depth": 3}}))
        with pytest.raises(FormatError, match="toy block"):
            fileio.load_config(path)

    def test_unknown_latent_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"latent": {"height": 8}}))
        with pytest.raises(FormatError, match="latent block"):
            fileio.load_config(path)

    def test_bad_mask_variant_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"mask_variant": "diagonal"}))
        with pytest.raises(FormatError, match="mask_variant"):
            fileio.load_config(path)

    def test_invalid_combination_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"policy": "overlap", "partial_fraction": 0.5}))
        with pytest.raises(ValueError, match="overlap"):
            fileio.load_config(path)

    def test_effective_config_round_trips(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n_total": 32, "chunk_len": 8, "seed": 5,
                                    "latent": {"h": 8, "w": 10},
                                    "toy": {"deep_blocks": 3}}))
        config = fileio.load_config(path)
        doc = fileio.config_to_dict(config)
        again = fileio.config_from_dict(doc)
        assert fileio.config_to_dict(again) == doc

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="JSON"):
            fileio.load_config(path)

    @pytest.mark.parametrize("doc,key", [
        ({"hard_skip": "false"}, "hard_skip"),
        ({"hard_skip": 0}, "hard_skip"),
        ({"n_total": 143.9}, "n_total"),
        ({"n_total": 144.0}, "n_total"),
        ({"seed": True}, "seed"),
        ({"partial_fraction": "0.5"}, "partial_fraction"),
        ({"partial_fraction": False}, "partial_fraction"),
        ({"policy": 1}, "policy"),
        ({"mask_variant": None}, "mask_variant"),
        ({"toy": {"deep_width": "8"}}, "toy.deep_width"),
        ({"toy": {"seed": 1.0}}, "toy.seed"),
        ({"latent": {"h": 8.0}}, "latent.h"),
    ])
    def test_wrong_types_rejected_naming_the_key(self, doc, key):
        with pytest.raises(FormatError, match=f'"{re.escape(key)}" must be'):
            fileio.config_from_dict(doc)

    def test_int_accepted_for_float(self):
        for value in (0, 1):
            config = fileio.config_from_dict({"partial_fraction": value})
            assert type(config.partial_fraction) is float and config.partial_fraction == value

    def test_removed_deep_cost_share_is_an_unknown_key(self):
        with pytest.raises(FormatError, match=r"unknown key\(s\) in toy block: \['deep_cost_share'\]"):
            fileio.config_from_dict({"toy": {"deep_cost_share": 0.75}})

    @pytest.mark.parametrize("doc,match", [
        ({"seed": -1}, "^seed must be >= 0"),
        ({"toy": {"seed": -2}}, "^toy.seed must be >= 0"),
        ({"beta_start": 0.5, "beta_end": 0.1}, "beta_start <= beta_end"),
        ({"beta_start": 0}, "0 < beta_start"),
    ])
    def test_bad_seed_or_betas_rejected_at_load(self, doc, match):
        with pytest.raises(ValueError, match=match):
            fileio.config_from_dict(doc)

    DEFAULT_DOC = fileio.config_to_dict(EngineConfig())

    @given(
        key=st.sampled_from(
            sorted(set(DEFAULT_DOC) - {"mask_variant", "toy", "latent"})
            + [f"toy.{k}" for k in sorted(DEFAULT_DOC["toy"])]
            + [f"latent.{k}" for k in sorted(DEFAULT_DOC["latent"])]),
        value=st.one_of(st.none(), st.booleans(), st.integers(-3, 300),
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.text(max_size=6), st.lists(st.integers(), max_size=2)),
    )
    @settings(max_examples=300, deadline=None)
    def test_fuzz_values_load_exactly_or_are_rejected(self, key, value):
        # a value either loads unchanged, with the default's exact type, or
        # raises; nothing is coerced (an int may stand for a float)
        block, _, name = key.rpartition(".")
        doc = {block: {name: value}} if block else {name: value}
        try:
            config = fileio.config_from_dict(doc)
        except ValueError:  # FormatError, or a range check in validate()
            return
        attr = f"latent_{name}" if block == "latent" else name
        loaded, default = (getattr(c.toy if block == "toy" else c, attr)
                           for c in (config, EngineConfig()))
        assert type(loaded) is type(default)
        assert loaded == value


class TestPgm:
    def test_header_and_payload(self, tmp_path):
        path = tmp_path / "f.pgm"
        img = np.array([[0.0, 1.0], [2.0, 4.0]])
        fileio.write_pgm(path, img)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 2\n255\n")
        pixels = np.frombuffer(blob[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
        assert pixels.tolist() == [0, 64, 128, 255]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_rejected(self, tmp_path, bad):
        path = tmp_path / "f.pgm"
        with pytest.raises(ValueError, match="finite"):
            fileio.write_pgm(path, np.array([[0.0, bad], [2.0, 4.0]]))
        assert not path.exists()

    def test_constant_image_all_zero(self, tmp_path):
        path = tmp_path / "f.pgm"
        fileio.write_pgm(path, np.full((2, 2), 3.0))
        pixels = np.frombuffer(path.read_bytes()[-4:], dtype=np.uint8)
        assert pixels.tolist() == [0, 0, 0, 0]


def _latent_header(dims, tag=0):
    return fileio.LATENT_MAGIC + struct.pack("<B", tag) + struct.pack("<I", 4) + \
        struct.pack("<4I", *dims)


def _written(name, data):
    """A call that writes ``data`` (JSON, or bytes as they are) to ``name``
    under a test's directory and returns the path."""
    def write(tmp_path):
        path = tmp_path / name
        if isinstance(data, bytes):
            path.write_bytes(data)
        else:
            path.write_text(json.dumps(data))
        return path
    return write


@pytest.mark.parametrize("call,error,message", [
    (lambda tmp: fileio.save_latents(tmp / "v.lvt", np.zeros((2, 3), dtype=np.float32)),
     FormatError, "latents must have rank 4, got 2"),
    (lambda tmp: fileio.load_latents(_written("v.lvt", fileio.LATENT_MAGIC + b"\0")(tmp)),
     FormatError, "file too short for an LVT1 header"),
    (lambda tmp: fileio.load_latents(_written("v.lvt", _latent_header((0, 4, 2, 2)))(tmp)),
     FormatError, r"non-positive dimension in \(0, 4, 2, 2\)"),
    (lambda tmp: fileio.load_keypoints(_written("k.json", [])(tmp)),
     FormatError, 'keypoints file must be an object with a "frames" list'),
    (lambda tmp: fileio.load_joint_specs(_written("j.json", [])(tmp)),
     FormatError, "joint spec file must be a non-empty list"),
    (lambda tmp: fileio.load_joint_specs(
        _written("j.json", [{"triple": ["a", "b"], "target_angle": 90.0}])(tmp)),
     FormatError, r"\"\[0\].triple\" must name 3 joints, got \['a', 'b'\]"),
    (lambda tmp: fileio.config_from_dict([]), FormatError, "config must be a JSON object"),
    (lambda tmp: fileio.config_from_dict({"toy": []}), FormatError, '"toy" must be an object'),
    (lambda tmp: fileio.config_from_dict({"latent": []}), FormatError,
     '"latent" must be an object'),
    (lambda tmp: fileio.write_pgm(tmp / "x.pgm", np.zeros((2, 2, 2))), ValueError,
     r"PGM dump needs a 2D image, got \(2, 2, 2\)"),
], ids=["save-rank", "short-header", "zero-dim", "keypoints-not-object", "empty-specs",
        "two-joint-triple", "config-not-object", "toy-not-object", "latent-not-object",
        "pgm-rank"])
def test_refusals(tmp_path, call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(tmp_path)
