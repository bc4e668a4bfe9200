"""Tensor-file format, manifest schema, atomic writes, and GDS banding."""

import errno
import json
import tracemalloc

import numpy as np
import pytest

from vidmood import atomic
from vidmood.cli import _write_json
from vidmood.labels import BINARY_CLASSES, SEVERITY_CLASSES, binary_class, severity_class
from vidmood.manifest import ManifestError, VideoRecord, load_manifest, save_manifest
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

    @pytest.mark.parametrize("shape", [(0,), (2, 0, 5)])
    def test_empty_round_trip(self, tmp_path, shape):
        p = tmp_path / "t.vten"
        write_vten(p, np.zeros(shape, dtype=np.float32))
        back = read_vten(p)
        assert back.shape == shape and back.dtype == np.float32

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

    def test_zero_dim_round_trip_keeps_shape(self, tmp_path):
        p = tmp_path / "t.vten"
        write_vten(p, np.float64(2.5))
        back = read_vten(p)
        assert back.shape == () and back.dtype == np.float64 and back == 2.5
        assert p.read_bytes()[6] == 0  # ndim

    @pytest.mark.parametrize("dtype", [">f4", ">f8"])
    def test_big_endian_input_stored_little_endian(self, tmp_path, dtype):
        arr = (np.arange(5) * 1.5).astype(dtype)
        assert arr.dtype.byteorder == ">"
        p = tmp_path / "t.vten"
        write_vten(p, arr)
        assert p.read_bytes()[-arr.nbytes:] == arr.astype(dtype.replace(">", "<")).tobytes()
        back = read_vten(p)
        assert back.dtype == np.dtype(dtype).newbyteorder("=")
        np.testing.assert_array_equal(back, arr)

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

    @pytest.mark.parametrize("cut", [0, 6])
    def test_truncated_header_names_file(self, tmp_path, cut):
        p = tmp_path / "short.vten"
        write_vten(p, np.zeros(2, dtype=np.uint8))
        p.write_bytes(p.read_bytes()[:cut])
        with pytest.raises(VtenError, match=f"short.vten: truncated header \\({cut} bytes"):
            read_vten(p)

    def test_truncated_extent_list_names_file(self, tmp_path):
        p = tmp_path / "ext.vten"
        write_vten(p, np.zeros((2, 3, 4), dtype=np.uint8))
        p.write_bytes(p.read_bytes()[:7 + 4 * 2 + 2])
        with pytest.raises(VtenError, match="ext.vten: truncated extent list"):
            read_vten(p)

    def test_unsupported_version_names_file(self, tmp_path):
        p = tmp_path / "ver.vten"
        write_vten(p, np.zeros(2, dtype=np.uint8))
        raw = bytearray(p.read_bytes())
        raw[4] = 2
        p.write_bytes(bytes(raw))
        with pytest.raises(VtenError, match="ver.vten: unsupported version 2"):
            read_vten(p)

    def test_overlong_payload_names_file(self, tmp_path):
        p = tmp_path / "long.vten"
        write_vten(p, np.zeros((4, 4), dtype=np.float32))
        p.write_bytes(p.read_bytes() + bytes(3))
        with pytest.raises(VtenError, match=r"long.vten: payload is 67 bytes, shape \(4, 4\) needs 64"):
            read_vten(p)

    def test_read_peak_is_the_array(self, tmp_path):
        """The payload is read straight into the returned array: no whole-file
        bytes object, no payload slice, no converted copy."""
        arr = np.arange(4 * 1024 * 1024, dtype=np.float32).reshape(4, 1024, 1024)  # 16 MiB
        p = tmp_path / "big.vten"
        write_vten(p, arr)
        tracemalloc.start()
        try:
            back = read_vten(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back, arr)
        assert peak < 1.1 * arr.nbytes, f"read peak {peak / arr.nbytes:.2f}x the array's bytes"

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


class _DiskFull:
    """A file opened for writing that takes half of its first write to the
    disk and then runs out of space."""

    def __init__(self, path, mode):
        self._fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicWrites:
    @pytest.mark.parametrize("write, error", [
        pytest.param(lambda p: write_vten(p, np.arange(1000, dtype=np.float32)), VtenError,
                     id="vten"),
        pytest.param(lambda p: save_manifest(p, [VideoRecord(**make_record())]), OSError,
                     id="manifest"),
        pytest.param(lambda p: _write_json(p, {"accuracy": 1.0, "folds": []}), OSError,
                     id="metrics"),
    ])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, write, error):
        """A write that fails partway creates no target and leaves an
        existing one as it was; no temp file stays behind either way. The
        error names the target, not the temp file: ``write_vten`` raises
        ``VtenError``, the others an ``OSError`` whose filename it is."""
        target = tmp_path / "out"
        monkeypatch.setattr(atomic, "open", _DiskFull, raising=False)
        with pytest.raises(error, match="No space left") as raised:
            write(target)
        assert str(target) in str(raised.value) and ".tmp" not in str(raised.value)
        if error is OSError:
            assert raised.value.filename == str(target)
            assert raised.value.errno == errno.ENOSPC
        assert list(tmp_path.iterdir()) == []

        monkeypatch.undo()
        write(target)
        whole = target.read_bytes()
        monkeypatch.setattr(atomic, "open", _DiskFull, raising=False)
        with pytest.raises(error, match="No space left"):
            write(target)
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == whole


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
