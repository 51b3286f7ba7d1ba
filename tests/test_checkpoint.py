import errno
import io
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from molmatch import checkpoint
from molmatch.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from molmatch.cli import _load_model, _save_model
from molmatch.config import ConfigError, RunConfig
from molmatch.meta import init_model
from helpers import first_name_offset


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "encoder.layer0.w1": rng.normal(size=(4, 3)),
        "matcher.wo": rng.normal(size=(2, 2)),
        "matcher.bias": np.array([0.5, -0.5]),
        "scalar.eps": np.array(0.25),
    }


class TestRoundTrip:
    def test_values_survive_to_float32(self, tmp_path):
        path = tmp_path / "model.ckpt"
        tensors = sample_tensors()
        save_checkpoint(path, tensors, {"seed": 7})
        loaded, meta = load_checkpoint(path)
        assert set(loaded) == set(tensors)
        for name, arr in tensors.items():
            assert loaded[name].dtype == np.float32
            np.testing.assert_array_equal(loaded[name], arr.astype(np.float32))
        assert meta["seed"] == 7

    def test_metadata_defaults_injected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"a": np.zeros(2)}, {})
        _, meta = load_checkpoint(path)
        assert meta["format_version"] == FORMAT_VERSION
        assert "build" in meta

    def test_save_load_save_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, sample_tensors(), {"seed": 1})
        loaded, meta = load_checkpoint(first)
        save_checkpoint(second, loaded, meta)
        assert first.read_bytes() == second.read_bytes()

    def test_record_order_is_name_sorted(self, tmp_path):
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        tensors = sample_tensors()
        save_checkpoint(a, tensors, {})
        save_checkpoint(b, dict(reversed(list(tensors.items()))), {})
        assert a.read_bytes() == b.read_bytes()

    def test_zero_dim_and_empty_tensors(self, tmp_path):
        path = tmp_path / "edge.ckpt"
        save_checkpoint(path, {"scalar": np.array(3.0), "empty": np.zeros((0, 4))}, {})
        loaded, _ = load_checkpoint(path)
        assert loaded["scalar"].shape == ()
        assert loaded["scalar"] == np.float32(3.0)
        assert loaded["empty"].shape == (0, 4)


class TestCorruption:
    def write_sample(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, sample_tensors(), {"seed": 0})
        return path

    def test_payload_corruption_fails_checksum(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # inside the last record's payload
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self.write_sample(tmp_path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError, match="2 trailing bytes"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_metadata_corruption_detected(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[12] = 0xFF  # first metadata byte: breaks the JSON
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="bad metadata"):
            load_checkpoint(path)

    def test_overlong_name_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="name too long"):
            save_checkpoint(tmp_path / "x.ckpt", {"n" * 70000: np.zeros(1)}, {})

    def test_tensor_name_corruption_rejected(self, tmp_path):
        path = self.write_sample(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[first_name_offset(raw)] = 0xFF  # never valid UTF-8
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="bad tensor name"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_names_the_tensor(self, tmp_path, bad):
        path = tmp_path / "model.ckpt"
        tensors = sample_tensors()
        name = sorted(tensors)[-1]
        tensors[name] = np.array(tensors[name], dtype=np.float64)
        tensors[name].reshape(-1)[0] = bad
        save_checkpoint(path, tensors, {"seed": 0})
        with pytest.raises(CheckpointError, match=f"tensor '{name}' holds non-finite values"):
            load_checkpoint(path)


class _HalfWrite(io.FileIO):
    """A file that runs out of space halfway through the first write."""

    def write(self, data):
        super().write(bytes(data)[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def _fail_replace(src, dst):
    raise OSError(errno.EIO, "I/O error")


class TestAtomicWrite:
    @pytest.mark.parametrize(
        "target, attr, fake",
        [
            (checkpoint, "open", _HalfWrite),
            (os, "replace", _fail_replace),
        ],
        ids=["write", "replace"],
    )
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch, target, attr, fake):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, sample_tensors(), {"seed": 0})
        before = path.read_bytes()
        monkeypatch.setattr(target, attr, fake, raising=False)
        with pytest.raises(OSError):
            save_checkpoint(path, {"other": np.ones(3)}, {"seed": 1})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left behind


@pytest.fixture(scope="module")
def model_checkpoint(tmp_path_factory):
    """A tiny model's checkpoint bytes and a scratch path to write variants to."""
    cfg = RunConfig()
    cfg.encoder.layers = 1
    cfg.encoder.hidden = 3
    root = tmp_path_factory.mktemp("fuzz")
    _save_model(root / "model.ckpt", init_model(cfg), cfg, epoch=0)
    return (root / "model.ckpt").read_bytes(), root / "variant.ckpt"


def _metadata_end(raw: bytes) -> int:
    (meta_len,) = struct.unpack("<I", raw[8:12])
    return 12 + meta_len


@st.composite
def damaged(draw, raw: bytes):
    """``raw`` truncated (one case in four), or with one to three bytes
    XOR-flipped.  Most flips land in the header and the metadata JSON,
    whose config decides which tensors and shapes the reader expects."""
    if draw(st.integers(0, 3)) == 0:
        return raw[: draw(st.integers(0, len(raw) - 1))]
    out = bytearray(raw)
    header = st.integers(0, _metadata_end(raw) - 1)
    anywhere = st.integers(0, len(raw) - 1)
    for _ in range(draw(st.integers(1, 3))):
        out[draw(st.one_of(header, header, anywhere))] ^= draw(st.integers(1, 255))
    return bytes(out)


class TestReaderFuzz:
    @settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.data_too_large])
    @given(st.data())
    def test_damaged_files_raise_only_reader_errors(self, model_checkpoint, data):
        raw, path = model_checkpoint
        path.write_bytes(data.draw(damaged(raw)))
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass
        try:
            _load_model(path)
        except (CheckpointError, ConfigError):
            pass

    def test_config_shape_mismatch_names_the_tensor(self, model_checkpoint):
        raw, path = model_checkpoint
        path.write_bytes(raw)
        tensors, meta = load_checkpoint(path)
        meta["config"]["encoder"]["hidden"] = 4
        save_checkpoint(path, tensors, meta)
        with pytest.raises(CheckpointError, match=r"tensor 'encoder\.input_w' has shape \(\d+, 3\).*\(\d+, 4\)"):
            _load_model(path)
