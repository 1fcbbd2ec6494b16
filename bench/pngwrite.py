"""Seeded PNG writer for benchmark inputs.

The package's own encoder writes every scanline with filter type 0
(None), which its decoder undoes almost for free; its Sub, Average and
Paeth paths are far slower. So that the decode layer is measured on
filtered rows too, the benchmark writes its inputs with a seeded per-row
mix of all five filter types. The mix is balanced (each type gets the
same number of rows, up to one) and only the row order is drawn from the
seed, so decode work does not drift from one seed to the next.

The equal shares are an assumption, not a measurement: no share of
filter types in real KITTI PNGs was measured or taken from a source.
They decide how much of the KITTI workload's time is decode (see
README.md).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
FILTER_NAMES = ("none", "sub", "up", "average", "paeth")


def _chunk(kind: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + kind + data
            + struct.pack(">I", zlib.crc32(kind + data) & 0xFFFFFFFF))


def balanced_filter_types(rows: int, rng: np.random.Generator) -> np.ndarray:
    """One filter type per row: types 0-4 in equal shares, seeded order."""
    return rng.permutation(np.arange(rows) % len(FILTER_NAMES)).astype(np.uint8)


def filter_scanlines(raw: np.ndarray, bpp: int, types: np.ndarray) -> np.ndarray:
    """Apply PNG filter `types[r]` to row r of `raw` (rows x stride bytes).

    Returns rows x (1 + stride) bytes, each row led by its filter type.
    Every predictor reads the unfiltered neighbours, so all rows are
    filtered at once.
    """
    x = raw.astype(np.int16)
    left = np.zeros_like(x)
    left[:, bpp:] = x[:, :-bpp]
    up = np.zeros_like(x)
    up[1:] = x[:-1]
    upleft = np.zeros_like(x)
    upleft[1:, bpp:] = x[:-1, :-bpp]
    p = left + up - upleft
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
    predictors = (np.zeros_like(x), left, up, (left + up) // 2, paeth)
    out = np.empty((raw.shape[0], raw.shape[1] + 1), dtype=np.uint8)
    out[:, 0] = types
    for ftype, pred in enumerate(predictors):
        rows = types == ftype
        out[rows, 1:] = ((x[rows] - pred[rows]) % 256).astype(np.uint8)
    return out


def encode_png(samples: np.ndarray, bit_depth: int,
               rng: np.random.Generator) -> tuple[bytes, np.ndarray]:
    """PNG bytes for (M, N) gray or (M, N, 3) RGB unsigned samples.

    Returns the file bytes and the per-row filter types used.
    """
    if bit_depth not in (8, 16):
        raise ValueError("bit depth must be 8 or 16")
    if samples.ndim == 2:
        color_type, channels, rows = 0, 1, samples[:, :, None]
    elif samples.ndim == 3 and samples.shape[2] == 3:
        color_type, channels, rows = 2, 3, samples
    else:
        raise ValueError(f"unsupported sample shape {samples.shape}")
    if samples.min() < 0 or samples.max() >= 2 ** bit_depth:
        raise ValueError("samples outside the bit depth")
    height, width = rows.shape[:2]
    dtype = ">u2" if bit_depth == 16 else "u1"
    raw = np.frombuffer(np.ascontiguousarray(rows).astype(dtype).tobytes(),
                        dtype=np.uint8).reshape(height, -1)
    types = balanced_filter_types(height, rng)
    filtered = filter_scanlines(raw, channels * bit_depth // 8, types)
    ihdr = struct.pack(">IIBBBBB", width, height, bit_depth, color_type, 0, 0, 0)
    data = (PNG_SIGNATURE + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(filtered.tobytes()))
            + _chunk(b"IEND", b""))
    return data, types


def image_codes(frame: np.ndarray) -> np.ndarray:
    """8-bit codes of a (C, M, N) frame in [0, 1]."""
    return np.rint(np.clip(frame, 0.0, 1.0) * 255.0).astype(np.uint16)


def frame_png(codes: np.ndarray, rng) -> tuple[bytes, np.ndarray]:
    """8-bit gray or RGB PNG of (C, M, N) codes."""
    samples = codes[0] if codes.shape[0] == 1 else np.moveaxis(codes, 0, 2)
    return encode_png(samples, 8, rng)


def kitti_flow_codes(flow: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(M, N, 3) 16-bit samples: 64 * flow + 2^15, validity in channel 3.

    Invalid pixels store zero flow, as KITTI ground truth does.
    """
    stored = np.rint(64.0 * flow + 2.0 ** 15)
    if stored.min() < 0 or stored.max() > 65535:
        raise ValueError("flow exceeds the 16-bit storable range")
    stored = stored.astype(np.uint16)
    stored[:, ~mask] = 2 ** 15
    samples = np.zeros(flow.shape[1:] + (3,), dtype=np.uint16)
    samples[..., 0] = stored[0]
    samples[..., 1] = stored[1]
    samples[..., 2] = mask
    return samples


def decoded_kitti_flow(samples: np.ndarray) -> np.ndarray:
    """The flow a reader must recover from `kitti_flow_codes` output: the
    1/64-quantized field, zero where invalid."""
    mask = samples[..., 2] > 0
    flow = (np.stack([samples[..., 0], samples[..., 1]]).astype(np.float64)
            - 2.0 ** 15) / 64.0
    flow[:, ~mask] = 0.0
    return flow


def filter_share(type_lists) -> dict[str, float]:
    """Share of rows written with each filter type, over all files."""
    counts = np.zeros(len(FILTER_NAMES))
    for types in type_lists:
        counts += np.bincount(types, minlength=len(FILTER_NAMES))
    total = max(counts.sum(), 1.0)
    return {name: round(float(c / total), 4) for name, c in zip(FILTER_NAMES, counts)}
