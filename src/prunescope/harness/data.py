"""Datasets: IDX image files and deterministic synthetic generators."""

from __future__ import annotations

import gzip
import struct
import zlib
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError, DataFormatError
from ..netcore import MAX_FLOAT64S

IDX_IMAGE_MAGIC = 0x00000803  # unsigned bytes, rank 3

_MAX_ELEMENTS = 1 << 40


def load_idx(path: str | Path) -> np.ndarray:
    """Parse an IDX image file of unsigned bytes (gzip accepted transparently).

    The images (magic 0x00000803) come back as uint8 [count, rows, cols].
    The big-endian magic, one 32-bit dimension per axis, and the exact
    payload length are all validated; any other magic is refused, and so is
    a truncated or corrupt gzip stream or one that exceeds memory.
    """
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise DataFormatError(f"{path}: corrupt gzip stream: {exc}") from None
        except MemoryError:
            raise DataFormatError(f"{path}: the decompressed stream exceeds memory") from None
    if len(raw) < 4:
        raise DataFormatError(f"{path}: too short for an IDX magic number")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != IDX_IMAGE_MAGIC:
        raise DataFormatError(f"{path}: bad magic 0x{magic:08x}")
    header = 16  # the magic and three 32-bit dimensions
    if len(raw) < header:
        raise DataFormatError(
            f"{path}: truncated header, expected {header} bytes, got {len(raw)}")
    dims = struct.unpack(">3I", raw[4:header])
    if any(d == 0 for d in dims):
        raise DataFormatError(f"{path}: zero-length dimension in {dims}")
    elements = 1
    for d in dims:
        elements *= d
    if elements > _MAX_ELEMENTS:
        raise DataFormatError(f"{path}: dimensions {dims} overflow a sane payload")
    payload = len(raw) - header
    if payload != elements:
        raise DataFormatError(
            f"{path}: payload holds {payload} bytes but dimensions {dims} "
            f"require {elements}")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims).copy()


def load_image_matrix(path: str | Path) -> np.ndarray:
    """IDX images flattened to float64 rows scaled into [0, 1]."""
    images = load_idx(path)
    try:
        return images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    except MemoryError:
        raise DataFormatError(f"{path}: {images.shape} images exceed memory as float64") from None


def synthetic_dataset(seed: int, n_train: int, n_test: int, in_dim: int,
                      out_dim: int, rank: int | None = None,
                      target: str = "identity"
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A deterministic low-rank dataset with an affine or identity target.

    Inputs are a rank-limited linear mix of uniform factors, min-max scaled
    into [0, 1]. ``target='identity'`` returns the inputs themselves
    (reconstruction; requires out_dim == in_dim); ``target='affine'``
    returns ``X @ A + c`` for fixed seeded A, c. Same seed, same arrays.
    The four arrays are row slices of one input and one target array, and
    identity targets are the input slices themselves: they share memory,
    and nothing may write into them.
    """
    if n_train < 1 or n_test < 0:
        raise ConfigurationError("need n_train >= 1 and n_test >= 0")
    if in_dim < 1 or out_dim < 1:
        raise ConfigurationError("dataset widths must be positive")
    if target not in ("identity", "affine"):
        raise ConfigurationError(f"unknown synthetic target {target!r}")
    if target == "identity" and out_dim != in_dim:
        raise ConfigurationError(
            f"identity targets need out_dim == in_dim, got {in_dim} -> "
            f"{out_dim}; use target='affine'")
    if rank is None:
        rank = min(in_dim, 16)
    if not 1 <= rank <= in_dim:
        raise ConfigurationError(f"rank must lie in [1, {in_dim}], got {rank}")
    if (n_train + n_test) * max(in_dim, out_dim) > MAX_FLOAT64S:
        raise ConfigurationError(f"{n_train + n_test} dataset rows exceed any address space")
    rng = np.random.default_rng([int(seed), 9157])
    try:
        factors = rng.uniform(0.0, 1.0, size=(n_train + n_test, rank))
        mix = rng.uniform(-1.0, 1.0, size=(rank, in_dim))
        x = factors @ mix
        lo = x.min()
        span = x.max() - lo
        x -= lo
        x /= span if span > 0 else 1.0
        if target == "identity":
            y = x
        else:
            a = rng.uniform(-1.0, 1.0, size=(in_dim, out_dim)) / np.sqrt(in_dim)
            c = rng.uniform(0.0, 1.0, size=out_dim)
            y = x @ a + c
    except MemoryError:
        raise ConfigurationError(f"{n_train + n_test} dataset rows exceed memory") from None
    return x[:n_train], y[:n_train], x[n_train:], y[n_train:]
