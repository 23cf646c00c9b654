"""IDX parsing against hand-built byte strings, plus synthetic data checks."""

import gzip
import struct

import numpy as np
import pytest

from prunescope.errors import ConfigurationError, DataFormatError
from prunescope.harness.data import (IDX_IMAGE_MAGIC, load_idx, load_image_matrix,
                                     synthetic_dataset)


def image_bytes(count=2, rows=2, cols=3, payload=None):
    if payload is None:
        payload = bytes(range(count * rows * cols))
    return struct.pack(">IIII", IDX_IMAGE_MAGIC, count, rows, cols) + payload


def test_load_idx_images_from_hand_built_bytes(tmp_path):
    path = tmp_path / "images.idx"
    path.write_bytes(image_bytes())
    out = load_idx(path)
    assert out.dtype == np.uint8
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out.reshape(-1), np.arange(12))


def test_load_idx_accepts_gzip_transparently(tmp_path):
    plain = tmp_path / "plain.idx"
    packed = tmp_path / "packed.idx.gz"
    plain.write_bytes(image_bytes())
    packed.write_bytes(gzip.compress(image_bytes()))
    np.testing.assert_array_equal(load_idx(plain), load_idx(packed))


def test_load_idx_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"\x00\x00")
    with pytest.raises(DataFormatError, match="too short"):
        load_idx(path)
    path.write_bytes(struct.pack(">I", 0x00000901))
    with pytest.raises(DataFormatError, match="bad magic"):
        load_idx(path)
    path.write_bytes(struct.pack(">III", IDX_IMAGE_MAGIC, 2, 2))
    with pytest.raises(DataFormatError, match="truncated header"):
        load_idx(path)
    path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 2, 0, 3))
    with pytest.raises(DataFormatError, match="zero-length"):
        load_idx(path)
    path.write_bytes(image_bytes(payload=bytes(11)))
    with pytest.raises(DataFormatError, match="payload holds 11 bytes"):
        load_idx(path)
    path.write_bytes(image_bytes(payload=bytes(13)))
    with pytest.raises(DataFormatError, match="payload holds 13 bytes"):
        load_idx(path)


def test_load_idx_refuses_a_gzip_stream_that_exceeds_memory(tmp_path, monkeypatch):
    path = tmp_path / "images.idx.gz"
    path.write_bytes(gzip.compress(image_bytes()))

    def out_of_memory(data):
        raise MemoryError

    monkeypatch.setattr(gzip, "decompress", out_of_memory)
    with pytest.raises(DataFormatError, match="decompressed stream exceeds memory"):
        load_idx(path)


def test_load_image_matrix_flattens_and_scales(tmp_path):
    path = tmp_path / "images.idx"
    path.write_bytes(image_bytes(count=2, rows=2, cols=2,
                                 payload=bytes([0, 51, 102, 153,
                                                204, 255, 0, 255])))
    out = load_image_matrix(path)
    assert out.shape == (2, 4)
    assert out.dtype == np.float64
    np.testing.assert_allclose(out[0], np.array([0, 51, 102, 153]) / 255.0)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_load_image_matrix_rejects_label_files(tmp_path):
    path = tmp_path / "labels.idx"
    path.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([1, 2]))
    with pytest.raises(DataFormatError, match="bad magic 0x00000801") as refusal:
        load_image_matrix(path)
    assert str(path) in str(refusal.value)


# -- synthetic data -----------------------------------------------------------


def test_synthetic_dataset_is_deterministic():
    a = synthetic_dataset(3, 32, 8, 10, 10, rank=4)
    b = synthetic_dataset(3, 32, 8, 10, 10, rank=4)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    c = synthetic_dataset(4, 32, 8, 10, 10, rank=4)
    assert not np.array_equal(a[0], c[0])


def test_synthetic_dataset_shapes_and_range():
    xtr, ytr, xte, yte = synthetic_dataset(0, 40, 12, 6, 6, rank=3)
    assert xtr.shape == (40, 6) and ytr.shape == (40, 6)
    assert xte.shape == (12, 6) and yte.shape == (12, 6)
    full = np.vstack([xtr, xte])
    assert full.min() >= 0.0 and full.max() <= 1.0


def test_identity_target_returns_the_inputs():
    xtr, ytr, xte, yte = synthetic_dataset(1, 16, 4, 5, 5, target="identity")
    np.testing.assert_array_equal(xtr, ytr)
    np.testing.assert_array_equal(xte, yte)


def test_affine_target_is_linear_in_the_inputs():
    """y = x A + c exactly, so the residual of the normal equations is zero."""
    xtr, ytr, _, _ = synthetic_dataset(2, 64, 0, 6, 3, rank=6, target="affine")
    design = np.hstack([xtr, np.ones((len(xtr), 1))])
    coef, *_ = np.linalg.lstsq(design, ytr, rcond=None)
    np.testing.assert_allclose(design @ coef, ytr, atol=1e-9)


def test_synthetic_dataset_validation():
    with pytest.raises(ConfigurationError):
        synthetic_dataset(0, 8, 2, 5, 4, target="identity")  # widths differ
    with pytest.raises(ConfigurationError):
        synthetic_dataset(0, 8, 2, 5, 5, rank=9)
    with pytest.raises(ConfigurationError):
        synthetic_dataset(0, 0, 2, 5, 5)
    with pytest.raises(ConfigurationError):
        synthetic_dataset(0, 8, 2, 5, 5, target="nonsense")


def test_unknown_synthetic_target_is_refused_before_any_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("data was drawn before the target was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ConfigurationError, match="bogus"):
        synthetic_dataset(0, 8, 2, 5, 5, target="bogus")
