"""Bit-exact file formats and flow visualization.

Flow files: the float32 'PIEH' format and 16-bit PNG fields storing
64 * value + 2^15 with a validity channel. Images: binary P6 PPM and
8/16-bit grayscale/RGB PNG through a minimal built-in codec (the stock
imaging libraries cannot write 16-bit RGB reliably, and the byte-exact
roundtrip guarantees here are easier to keep without them). Everything is
little-endian on disk where a choice exists, regardless of host. The PNG
writer stores every row with filter 0 and deflates with zlib's run-length
strategy, which encodes a KITTI-size image about four times faster than
the default strategy for files about 6% larger.

Readers treat files as untrusted. The PNG reader verifies every chunk's
CRC, rejects an IHDR that is not 13 bytes or declares a zero dimension,
and inflates at most the size IHDR implies, so a small compressed stream
cannot expand without bound. The perturbation reader accepts only the
uncompressed `.npz` members `write_perturbation` writes, each holding the
bytes its header declares, with floating-point fields that form a valid
`Perturbation`. Malformed input raises `FormatError`.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct
import zipfile
import zlib

import numpy as np

from .core import FlowField, Image, Perturbation, PerturbMode

__all__ = [
    "FormatError", "read_flo", "write_flo", "read_kitti_flow", "write_kitti_flow",
    "read_flow_any", "read_image", "write_image_png", "flow_to_color",
    "perturbation_to_image", "write_perturbation", "read_perturbation",
    "atomic_write_bytes",
]


class FormatError(ValueError):
    """File content does not match its declared format."""


FLO_MAGIC = 202021.25
_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_DEFLATE_MAX_RATIO = 1032


def atomic_write_bytes(path, data: bytes):
    """Write via a sibling temp file + rename, so readers never see a
    partial file. A failed write or rename removes the temp file.

    Every writer in the package goes through here, and the file's
    directory (with any missing parents) is created here, so an output
    directory appears with the first file written into it: a run that
    fails before its first write leaves none."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# .flo
# ---------------------------------------------------------------------------

def write_flo(path, flow: FlowField):
    data = np.asarray(flow.data if isinstance(flow, FlowField) else flow,
                      dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise ValueError("refusing to write non-finite flow")
    height, width = data.shape[1:]
    interleaved = np.empty((height, width, 2), dtype="<f4")
    interleaved[..., 0] = data[0]
    interleaved[..., 1] = data[1]
    payload = struct.pack("<fii", FLO_MAGIC, width, height) + interleaved.tobytes()
    atomic_write_bytes(path, payload)


def read_flo(path) -> FlowField:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12:
        raise FormatError(f"{path}: truncated flow file header")
    magic, width, height = struct.unpack("<fii", raw[:12])
    if np.float32(magic) != np.float32(FLO_MAGIC):
        raise FormatError(f"{path}: bad flow file magic {magic!r}")
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: invalid dimensions {width}x{height}")
    expected = 12 + 8 * width * height
    if len(raw) < expected:
        raise FormatError(f"{path}: truncated flow payload "
                         f"({len(raw)} bytes, expected {expected})")
    interleaved = np.frombuffer(raw[12:expected], dtype="<f4").reshape(
        height, width, 2)
    if not np.all(np.isfinite(interleaved)):
        raise FormatError(f"{path}: flow payload holds non-finite values")
    return FlowField(np.stack([interleaved[..., 0], interleaved[..., 1]]).astype(
        np.float64))


# ---------------------------------------------------------------------------
# minimal PNG codec: color types 0 (gray) and 2 (RGB), depths 8 and 16
# ---------------------------------------------------------------------------

def _png_chunk(kind: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + kind + data
            + struct.pack(">I", zlib.crc32(kind + data) & 0xFFFFFFFF))


def _png_encode(samples: np.ndarray, bit_depth: int) -> bytes:
    """samples: (M, N) or (M, N, 3) unsigned ints already within depth."""
    if bit_depth not in (8, 16):
        raise ValueError("bit depth must be 8 or 16")
    if samples.ndim == 2:
        color_type = 0
    elif samples.ndim == 3 and samples.shape[2] == 3:
        color_type = 2
    else:
        raise ValueError(f"unsupported sample shape {samples.shape}")
    height, width = samples.shape[:2]
    body = samples.astype(">u2" if bit_depth == 16 else "u1", order="C").view(np.uint8)
    raw = np.insert(body.reshape(height, -1), 0, 0, axis=1)  # filter None on every row
    deflate = zlib.compressobj(6, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    idat = deflate.compress(raw) + deflate.flush()
    ihdr = struct.pack(">IIBBBBB", width, height, bit_depth, color_type, 0, 0, 0)
    return (_PNG_SIG + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", idat)
            + _png_chunk(b"IEND", b""))


def _unfilter_sequential(ftype: int, line: list, prior: list, bpp: int) -> list:
    """Undo Average (3) or Paeth (4) on one scanline of Python ints. Each
    byte's predictor reads the reconstructed byte `bpp` to its left, so
    the row runs left to right."""
    if ftype == 3:
        rec = [(x + (b >> 1)) & 0xFF for x, b in zip(line[:bpp], prior)]
        for x, b in zip(line[bpp:], prior[bpp:]):
            rec.append((x + ((rec[-bpp] + b) >> 1)) & 0xFF)
        return rec
    # with no left neighbour the Paeth predictor is the byte above
    rec = [(x + b) & 0xFF for x, b in zip(line[:bpp], prior)]
    for x, b, c in zip(line[bpp:], prior[bpp:], prior):
        a = rec[-bpp]
        pa = abs(b - c)
        pb = abs(a - c)
        pc = abs(a + b - c - c)
        rec.append((x + (a if pa <= pb and pa <= pc else b if pb <= pc else c))
                   & 0xFF)
    return rec


def _png_decode(raw: bytes):
    """Returns (samples, bit_depth) with samples (M, N) or (M, N, 3)."""
    if not raw.startswith(_PNG_SIG):
        raise FormatError("not a PNG stream")
    pos = len(_PNG_SIG)
    ihdr = None
    idat = bytearray()
    while pos + 8 <= len(raw):
        length, kind = struct.unpack(">I4s", raw[pos:pos + 8])
        data = raw[pos + 8:pos + 8 + length]
        crc = raw[pos + 8 + length:pos + 12 + length]
        if len(data) < length or len(crc) < 4:
            raise FormatError("truncated PNG chunk")
        if struct.unpack(">I", crc)[0] != zlib.crc32(data, zlib.crc32(kind)):
            raise FormatError(f"PNG chunk {kind!r} fails its CRC check")
        pos += 12 + length
        if kind == b"IHDR":
            if length != 13:
                raise FormatError(f"PNG IHDR is {length} bytes, not 13")
            ihdr = struct.unpack(">IIBBBBB", data)
        elif kind == b"IDAT":
            idat += data
        elif kind == b"IEND":
            break
    if ihdr is None or not idat:
        raise FormatError("PNG missing IHDR or IDAT")
    width, height, depth, color_type, comp, filt, interlace = ihdr
    if not (0 < width < 2 ** 31 and 0 < height < 2 ** 31):
        raise FormatError(f"invalid PNG dimensions {width}x{height}")
    if comp != 0 or filt != 0 or interlace != 0:
        raise FormatError("unsupported PNG compression/filter/interlace mode")
    if depth not in (8, 16) or color_type not in (0, 2):
        raise FormatError(f"unsupported PNG depth {depth} / color type {color_type} "
                         "(only 8/16-bit grayscale or RGB)")
    channels = 1 if color_type == 0 else 3
    bpp = channels * (depth // 8)
    stride = width * bpp
    expected = height * (stride + 1)
    # deflate expands at most about 1032:1, so an IHDR needing more is
    # rejected before inflating; this also keeps expected + 1 a valid
    # max_length (it would overflow Py_ssize_t at 2^31-1 x 2^31-1)
    if expected > _DEFLATE_MAX_RATIO * len(idat):
        raise FormatError(f"PNG IHDR declares {width}x{height}, more pixel data "
                         "than its IDAT can inflate to")
    inflater = zlib.decompressobj()
    try:
        decompressed = inflater.decompress(idat, expected + 1)
    except zlib.error as exc:
        raise FormatError(f"corrupt PNG stream: {exc}") from exc
    if len(decompressed) != expected or not inflater.eof:
        raise FormatError("corrupt PNG pixel stream")
    flat = np.frombuffer(decompressed, dtype=np.uint8).reshape(height, stride + 1)
    out = np.empty((height, stride), dtype=np.uint8)
    prior = np.zeros(stride, dtype=np.uint8)
    for r in range(height):
        ftype = int(flat[r, 0])
        line = flat[r, 1:]
        if ftype == 0:
            out[r] = line
        elif ftype == 1:  # Sub: a running sum per byte lane, mod 256
            out[r] = np.cumsum(line.reshape(-1, bpp), axis=0,
                               dtype=np.uint8).reshape(-1)
        elif ftype == 2:  # Up
            np.add(line, prior, out=out[r])
        elif ftype in (3, 4):
            out[r] = _unfilter_sequential(ftype, line.tolist(), prior.tolist(), bpp)
        else:
            raise FormatError(f"unknown PNG filter type {ftype}")
        prior = out[r]
    if depth == 16:
        samples = out.reshape(height, width, channels, 2)
        values = (samples[..., 0].astype(np.uint16) << 8) | samples[..., 1]
    else:
        values = out.reshape(height, width, channels).astype(np.uint16)
    return (values[:, :, 0] if channels == 1 else values), depth


# ---------------------------------------------------------------------------
# KITTI-style 16-bit flow PNG
# ---------------------------------------------------------------------------

def write_kitti_flow(path, flow: FlowField, mask: np.ndarray | None = None):
    """Store flow as 16-bit RGB: 64 * value + 2^15 in the first two
    channels, validity (1/0) in the third. Invalid pixels store zero flow."""
    data = np.asarray(flow.data if isinstance(flow, FlowField) else flow,
                      dtype=np.float64)
    if not np.all(np.isfinite(data)):  # NaN would pass the range check below
        raise ValueError("refusing to write non-finite flow")
    height, width = data.shape[1:]
    if mask is None:
        mask = np.ones((height, width), dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    stored = np.rint(64.0 * data + 2.0 ** 15)
    if stored.min() < 0 or stored.max() > 65535:
        raise ValueError("flow magnitude exceeds the 16-bit storable range")
    stored = stored.astype(np.uint16)
    stored[:, ~mask] = 2 ** 15
    rgb = np.zeros((height, width, 3), dtype=np.uint16)
    rgb[..., 0] = stored[0]
    rgb[..., 1] = stored[1]
    rgb[..., 2] = mask.astype(np.uint16)
    atomic_write_bytes(path, _png_encode(rgb, 16))


def read_kitti_flow(path) -> tuple[FlowField, np.ndarray]:
    with open(path, "rb") as fh:
        samples, depth = _png_decode(fh.read())
    if depth != 16 or samples.ndim != 3:
        raise FormatError(f"{path}: flow PNG must be 16-bit, 3-channel")
    mask = samples[..., 2] > 0
    u = (samples[..., 0].astype(np.float64) - 2.0 ** 15) / 64.0
    v = (samples[..., 1].astype(np.float64) - 2.0 ** 15) / 64.0
    u[~mask] = 0.0
    v[~mask] = 0.0
    return FlowField(np.stack([u, v])), mask


def read_flow_any(path) -> tuple[FlowField, np.ndarray | None]:
    """Dispatch on content: .flo files or 16-bit flow PNGs. Returns the
    field plus a validity mask when the format carries one."""
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head.startswith(_PNG_SIG):
        return read_kitti_flow(path)
    return read_flo(path), None


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------

def read_image(path) -> Image:
    """Binary P6 PPM (8-bit) or 8/16-bit grayscale/RGB PNG, scaled to
    [0, 1] by the format's maximum code value."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw.startswith(_PNG_SIG):
        samples, depth = _png_decode(raw)
        scale = float(2 ** depth - 1)
        if samples.ndim == 2:
            return Image(samples[None].astype(np.float64) / scale)
        return Image(np.moveaxis(samples, 2, 0).astype(np.float64) / scale)
    if raw.startswith(b"P6"):
        return _read_ppm(raw, path)
    raise FormatError(f"{path}: unsupported image format")


def _read_ppm(raw: bytes, path) -> Image:
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        # no file holds 10**12 pixels, and int() rejects very long tokens
        if not token.isdigit() or len(token) > 12:
            raise FormatError(f"{path}: malformed PPM header")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if width == 0 or height == 0:
        raise FormatError(f"{path}: invalid PPM dimensions {width}x{height}")
    if not (0 < maxval < 256):
        raise FormatError(f"{path}: only 8-bit P6 supported (maxval {maxval})")
    need = width * height * 3
    body = raw[pos:pos + need]
    if len(body) < need:
        raise FormatError(f"{path}: truncated PPM pixel data")
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3)
    if pixels.max() > maxval:
        raise FormatError(f"{path}: PPM sample above maxval {maxval}")
    return Image(np.moveaxis(pixels, 2, 0).astype(np.float64) / maxval)


def write_image_png(path, image, bit_depth: int = 8):
    """Quantize an Image (or (C, M, N) array in [0, 1]) to a PNG."""
    data = image.data if isinstance(image, Image) else np.asarray(image,
                                                                  dtype=np.float64)
    if data.ndim != 3 or data.shape[0] not in (1, 3):
        raise ValueError("image must have 1 or 3 channels")
    top = 2 ** bit_depth - 1
    q = np.rint(np.clip(data, 0.0, 1.0) * top).astype(np.uint16)
    samples = q[0] if data.shape[0] == 1 else np.moveaxis(q, 0, 2)
    atomic_write_bytes(path, _png_encode(samples, bit_depth))


# ---------------------------------------------------------------------------
# visualization
# ---------------------------------------------------------------------------

def _make_color_wheel() -> np.ndarray:
    """The 55-bin wheel used across flow tooling: red-yellow-green-cyan-
    blue-magenta-red with uneven, perceptually tuned segment lengths."""
    ry, yg, gc, cb, bm, mr = 15, 6, 4, 11, 13, 6
    ncols = ry + yg + gc + cb + bm + mr
    wheel = np.zeros((ncols, 3))
    col = 0
    wheel[col:col + ry, 0] = 1.0
    wheel[col:col + ry, 1] = np.arange(ry) / ry
    col += ry
    wheel[col:col + yg, 0] = 1.0 - np.arange(yg) / yg
    wheel[col:col + yg, 1] = 1.0
    col += yg
    wheel[col:col + gc, 1] = 1.0
    wheel[col:col + gc, 2] = np.arange(gc) / gc
    col += gc
    wheel[col:col + cb, 1] = 1.0 - np.arange(cb) / cb
    wheel[col:col + cb, 2] = 1.0
    col += cb
    wheel[col:col + bm, 2] = 1.0
    wheel[col:col + bm, 0] = np.arange(bm) / bm
    col += bm
    wheel[col:col + mr, 2] = 1.0 - np.arange(mr) / mr
    wheel[col:col + mr, 0] = 1.0
    return wheel


_WHEEL = _make_color_wheel()


def flow_to_color(flow, max_magnitude: float | None = None) -> Image:
    """Standard flow color coding: hue encodes direction, distance from
    white encodes magnitude relative to `max_magnitude` (99th percentile
    when unset). Zero flow renders pure white."""
    data = flow.data if isinstance(flow, FlowField) else np.asarray(flow,
                                                                    dtype=np.float64)
    u, v = data[0], data[1]
    rad = np.sqrt(u * u + v * v)
    if max_magnitude is None:
        max_magnitude = float(np.percentile(rad, 99.0))
    sat = np.clip(rad / max(max_magnitude, 1e-12), 0.0, 1.0)
    ncols = _WHEEL.shape[0]
    angle = np.arctan2(-v, -u) / np.pi
    fk = (angle + 1.0) / 2.0 * (ncols - 1)
    k0 = np.floor(fk).astype(int) % ncols
    k1 = (k0 + 1) % ncols
    frac = fk - np.floor(fk)
    out = np.empty((3,) + u.shape)
    for ch in range(3):
        col = (1 - frac) * _WHEEL[k0, ch] + frac * _WHEEL[k1, ch]
        out[ch] = 1.0 - sat * (1.0 - col)
    return Image(out)


def write_perturbation(path, p: Perturbation):
    """Raw perturbation container (.npz): exact float64 fields plus mode."""
    arrays = {"mode": np.array(p.mode.value), "first": p.first}
    if p.second is not None:
        arrays["second"] = p.second
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    atomic_write_bytes(path, buf.getvalue())


def _check_npz_members(archive: zipfile.ZipFile):
    """Each member must be stored uncompressed, as `np.savez` writes it,
    and hold the bytes its array header declares, so loading allocates
    no more than the file holds."""
    for info in archive.infolist():
        if info.compress_type != zipfile.ZIP_STORED:
            raise FormatError(f"compressed member {info.filename!r}")
        with archive.open(info) as member:
            version = np.lib.format.read_magic(member)
            read_header = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                           else np.lib.format.read_array_header_2_0)
            shape, _, dtype = read_header(member)
        if math.prod(shape) * dtype.itemsize > info.file_size:
            raise FormatError(f"member {info.filename!r} declares {shape} "
                              f"{dtype} in {info.file_size} bytes")


def read_perturbation(path) -> Perturbation:
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"PK\x03\x04"):
        raise FormatError(f"{path}: not an .npz archive")
    try:
        with np.load(io.BytesIO(raw)) as bundle:
            _check_npz_members(bundle.zip)
            mode = PerturbMode(str(bundle["mode"]))
            first = bundle["first"]
            second = bundle["second"] if "second" in bundle else None
        for name, field in (("first", first), ("second", second)):
            if field is not None and field.dtype.kind != "f":
                raise FormatError(f"field {name!r} is {field.dtype}, not floating")
        return Perturbation(mode, first, second)
    except (ValueError, zipfile.BadZipFile, zlib.error, KeyError, EOFError,
            NotImplementedError) as exc:  # ValueError: FormatError included
        raise FormatError(f"{path}: corrupt perturbation archive: {exc}") from exc


def perturbation_to_image(p: Perturbation) -> list[Image]:
    """Min-max normalize each field to [0, 1] for display; a constant
    field renders mid-gray. Disjoint perturbations yield two images."""
    images = []
    fields = [p.first] if p.mode == PerturbMode.JOINT else [p.first, p.second]
    for d in fields:
        lo = float(d.min())
        hi = float(d.max())
        if hi - lo < 1e-300:
            images.append(Image(np.full_like(d, 0.5)))
        else:
            images.append(Image((d - lo) / (hi - lo)))
    return images
