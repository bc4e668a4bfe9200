"""Tensor-file format, manifest schema, and GDS banding."""

import json
import tracemalloc

import numpy as np
import pytest

from vidmood.labels import BINARY_CLASSES, SEVERITY_CLASSES, binary_class, severity_class
from vidmood.manifest import (ManifestError, VideoRecord, load_crop_sidecar,
                              load_manifest, save_manifest)
from vidmood.vten import VtenError, read_vten, write_vten


class TestVten:
    @pytest.mark.parametrize("dtype", [np.uint8, np.float32, np.float64])
    def test_round_trip(self, tmp_path, dtype):
        rng = np.random.default_rng(0)
        arr = (rng.random((3, 4, 5)) * 200).astype(dtype)
        p = tmp_path / "t.vten"
        write_vten(p, arr)
        back = read_vten(p)
        assert back.dtype == arr.dtype and back.shape == arr.shape
        np.testing.assert_array_equal(back, arr)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "t.vten"
        write_vten(p, np.arange(6, dtype=np.uint8).reshape(2, 3))
        raw = p.read_bytes()
        assert raw[:4] == b"VTEN"
        assert raw[4] == 1          # version
        assert raw[5] == 0x01       # u8
        assert raw[6] == 2          # ndim
        assert raw[7:15] == (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
        assert raw[15:] == bytes(range(6))

    def test_float_payload_little_endian(self, tmp_path):
        import struct
        p = tmp_path / "t.vten"
        write_vten(p, np.array([1.5], dtype=np.float32))
        assert p.read_bytes()[-4:] == struct.pack("<f", 1.5)

    def test_bad_magic_names_file(self, tmp_path):
        p = tmp_path / "bad.vten"
        p.write_bytes(b"NOPE" + bytes(10))
        with pytest.raises(VtenError, match="bad.vten"):
            read_vten(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "t.vten"
        write_vten(p, np.zeros((4, 4), dtype=np.float32))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(VtenError, match="payload"):
            read_vten(p)

    def test_unknown_dtype_code(self, tmp_path):
        p = tmp_path / "t.vten"
        write_vten(p, np.zeros(2, dtype=np.uint8))
        raw = bytearray(p.read_bytes())
        raw[5] = 0x7F
        p.write_bytes(bytes(raw))
        with pytest.raises(VtenError, match="dtype"):
            read_vten(p)

    def test_rejects_unsupported_write_dtype(self, tmp_path):
        with pytest.raises(VtenError):
            write_vten(tmp_path / "t.vten", np.zeros(2, dtype=np.int64))

    def test_write_is_byte_stable(self, tmp_path):
        arr = np.random.default_rng(1).random((2, 3)).astype(np.float64)
        p1, p2 = tmp_path / "a.vten", tmp_path / "b.vten"
        write_vten(p1, arr)
        write_vten(p2, arr)
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_makes_no_payload_copy(self, tmp_path):
        arr = np.ones((4, 1024, 1024), dtype=np.float32)  # 16 MiB
        tracemalloc.start()
        try:
            write_vten(tmp_path / "big.vten", arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, f"write peak {peak / 2 ** 20:.1f} MiB for a 16 MiB payload"


def make_record(**over):
    base = dict(subject_id="s01", video="videos/s01_t1_ON.vten",
                task=1, state="ON", gds=5, site="synthetic")
    base.update(over)
    return base


class TestManifest:
    def test_round_trip(self, tmp_path):
        records = [VideoRecord(**make_record()),
                   VideoRecord(**make_record(subject_id="s02", state="OFF", gds=25))]
        p = tmp_path / "manifest.json"
        save_manifest(p, records)
        assert load_manifest(p) == records

    def test_rejects_unknown_keys(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps([make_record(extra=1)]))
        with pytest.raises(ManifestError, match="unknown"):
            load_manifest(p)

    def test_rejects_missing_keys(self, tmp_path):
        rec = make_record()
        del rec["gds"]
        p = tmp_path / "m.json"
        p.write_text(json.dumps([rec]))
        with pytest.raises(ManifestError, match="missing"):
            load_manifest(p)

    @pytest.mark.parametrize("field,value", [
        ("task", 0), ("task", 7), ("state", "on"), ("gds", -1), ("gds", 31),
        ("subject_id", ""), ("video", ""),
    ])
    def test_rejects_bad_values(self, tmp_path, field, value):
        p = tmp_path / "m.json"
        p.write_text(json.dumps([make_record(**{field: value})]))
        with pytest.raises(ManifestError):
            load_manifest(p)

    def test_rejects_non_array(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"not": "array"}))
        with pytest.raises(ManifestError, match="array"):
            load_manifest(p)

    def test_sidecar_round_trip(self, tmp_path):
        p = tmp_path / "crops.json"
        p.write_text(json.dumps([{"x": 1, "y": 2, "w": 3, "h": 4},
                                 {"x": 0, "y": 0, "w": 5, "h": 5}]))
        assert load_crop_sidecar(p) == [(1, 2, 3, 4), (0, 0, 5, 5)]
        with pytest.raises(ManifestError, match="rectangles"):
            load_crop_sidecar(p, n_frames=3)

    def test_sidecar_rejects_wrong_keys(self, tmp_path):
        p = tmp_path / "crops.json"
        p.write_text(json.dumps([{"x": 1, "y": 2, "w": 3}]))
        with pytest.raises(ManifestError):
            load_crop_sidecar(p)


class TestGdsLabels:
    @pytest.mark.parametrize("score,severity", [
        (0, "absent"), (9, "absent"), (10, "mild"),
        (19, "mild"), (20, "severe"), (30, "severe"),
    ])
    def test_band_boundaries(self, score, severity):
        assert SEVERITY_CLASSES[severity_class(score)] == severity

    def test_binary_collapse(self):
        assert BINARY_CLASSES[binary_class(0)] == "absent"
        assert BINARY_CLASSES[binary_class(10)] == "present"
        assert BINARY_CLASSES[binary_class(25)] == "present"

    def test_partition_no_gaps_no_overlap(self):
        seen = [SEVERITY_CLASSES[severity_class(s)] for s in range(31)]
        assert seen == ["absent"] * 10 + ["mild"] * 10 + ["severe"] * 11

    @pytest.mark.parametrize("bad", [-1, 31, 2.5, "9", True])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(ValueError):
            severity_class(bad)
        with pytest.raises(ValueError):
            binary_class(bad)

    def test_class_indices(self):
        assert [severity_class(s) for s in (5, 15, 25)] == [0, 1, 2]
        assert [binary_class(s) for s in (5, 15, 25)] == [0, 1, 1]
        assert BINARY_CLASSES[binary_class(9)] == "absent"
