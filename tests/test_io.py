import io
import struct
import tracemalloc
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowattack import io as flowio
from flowattack.core import FlowField, Perturbation, PerturbMode
from flowattack.evaluation import masked_aee


class TestAtomicWrite:
    def test_failed_rename_removes_temp_file(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(IsADirectoryError):
            flowio.atomic_write_bytes(tmp_path / "d", b"data")
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

    def test_failed_write_removes_temp_file(self, tmp_path):
        with pytest.raises(TypeError):
            flowio.atomic_write_bytes(tmp_path / "f", "not bytes")
        assert list(tmp_path.iterdir()) == []

    def test_creates_missing_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "f"
        flowio.atomic_write_bytes(path, b"data")
        assert path.read_bytes() == b"data"
        assert [p.name for p in path.parent.iterdir()] == ["f"]


class TestFlo:
    def test_single_pixel_layout(self, tmp_path):
        path = tmp_path / "one.flo"
        flowio.write_flo(path, FlowField(np.array([[[1.5]], [[-2.25]]])))
        raw = path.read_bytes()
        assert len(raw) == 20
        assert raw[:4] == b"PIEH"
        magic, width, height = struct.unpack("<fii", raw[:12])
        assert (width, height) == (1, 1)
        u, v = struct.unpack("<ff", raw[12:])
        assert (u, v) == (1.5, -2.25)

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for k in range(10):
            # float32-representable values roundtrip to identical arrays
            flow = rng.normal(0, 10, (2, 5, 7)).astype(np.float32).astype(
                np.float64)
            p1 = tmp_path / f"a{k}.flo"
            p2 = tmp_path / f"b{k}.flo"
            flowio.write_flo(p1, FlowField(flow))
            back = flowio.read_flo(p1)
            assert np.array_equal(back.data, flow)
            flowio.write_flo(p2, back)
            assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.flo"
        path.write_bytes(b"XXXX" + struct.pack("<ii", 1, 1) + b"\x00" * 8)
        with pytest.raises(flowio.FormatError):
            flowio.read_flo(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.flo"
        path.write_bytes(struct.pack("<fii", flowio.FLO_MAGIC, 4, 4) + b"\x00" * 7)
        with pytest.raises(flowio.FormatError):
            flowio.read_flo(path)

    def test_negative_dims(self, tmp_path):
        path = tmp_path / "neg.flo"
        path.write_bytes(struct.pack("<fii", flowio.FLO_MAGIC, -1, 4))
        with pytest.raises(flowio.FormatError):
            flowio.read_flo(path)

    def test_nonfinite_payload_rejected(self, tmp_path):
        for bad in (np.nan, np.inf):
            path = tmp_path / "bad.flo"
            path.write_bytes(struct.pack("<fii", flowio.FLO_MAGIC, 1, 1)
                             + np.array([bad, 0.0], dtype="<f4").tobytes())
            with pytest.raises(flowio.FormatError):
                flowio.read_flo(path)


class TestKittiFlow:
    def test_offset_convention(self, tmp_path):
        path = tmp_path / "k.png"
        flow = FlowField(np.array([[[0.0, 1.0]], [[-1.0, 0.5]]]))
        flowio.write_kitti_flow(path, flow)
        back, mask = flowio.read_kitti_flow(path)
        assert np.array_equal(back.data, flow.data)
        assert mask.all()

    def test_stored_values(self, tmp_path):
        # stored 32768 -> 0.0 and 32832 -> 1.0 by construction
        path = tmp_path / "k.png"
        flow = FlowField(np.array([[[0.0]], [[1.0]]]))
        flowio.write_kitti_flow(path, flow)
        with open(path, "rb") as fh:
            samples, depth = flowio._png_decode(fh.read())
        assert depth == 16
        assert samples[0, 0, 0] == 32768
        assert samples[0, 0, 1] == 32832

    def test_mask_excludes_pixels(self, tmp_path):
        path = tmp_path / "m.png"
        flow = np.zeros((2, 2, 2))
        flow[0, 0, 0] = 3.0  # will be marked invalid
        mask = np.array([[False, True], [True, True]])
        flowio.write_kitti_flow(path, FlowField(flow), mask)
        back, back_mask = flowio.read_kitti_flow(path)
        assert np.array_equal(back_mask, mask)
        ref = FlowField(np.zeros((2, 2, 2)))
        assert masked_aee(back, ref, back_mask) == 0.0

    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        for k in range(5):
            flow = np.round(rng.normal(0, 30, (2, 6, 4)) * 64) / 64
            mask = rng.uniform(size=(6, 4)) > 0.3
            p1 = tmp_path / f"a{k}.png"
            p2 = tmp_path / f"b{k}.png"
            flowio.write_kitti_flow(p1, FlowField(flow), mask)
            back, back_mask = flowio.read_kitti_flow(p1)
            flowio.write_kitti_flow(p2, back, back_mask)
            assert p1.read_bytes() == p2.read_bytes()

    def test_range_overflow_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            flowio.write_kitti_flow(tmp_path / "o.png",
                                    FlowField(np.full((2, 1, 1), 600.0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_flow_rejected(self, tmp_path, bad):
        """A NaN turns the range check's min and max into NaN, which passes
        it; the writer refuses a non-finite flow before that check, as
        `write_flo` does, and writes no file."""
        flow = np.zeros((2, 4, 5))
        flow[0, 1, 2] = bad
        flow[1, 3, 4] = np.inf
        path = tmp_path / "nf.png"
        with pytest.raises(ValueError, match="non-finite"):
            flowio.write_kitti_flow(path, flow)
        assert not path.exists()

    def test_wrong_depth_rejected(self, tmp_path):
        path = tmp_path / "gray.png"
        flowio.write_image_png(path, np.full((1, 3, 3), 0.5), bit_depth=8)
        with pytest.raises(flowio.FormatError):
            flowio.read_kitti_flow(path)


class TestPngCodec:
    @pytest.mark.parametrize("channels,depth", [(1, 8), (1, 16), (3, 8), (3, 16)])
    def test_image_roundtrip(self, tmp_path, channels, depth):
        rng = np.random.default_rng(2)
        top = 2 ** depth - 1
        quantized = rng.integers(0, top + 1, (1 if channels == 1 else 3, 5, 6))
        data = quantized / top
        path = tmp_path / "img.png"
        flowio.write_image_png(path, data, bit_depth=depth)
        back = flowio.read_image(path)
        assert back.data.shape == data.shape
        assert np.array_equal(np.rint(back.data * top), quantized)

    def test_sixteen_bit_max_reads_as_one(self, tmp_path):
        path = tmp_path / "white.png"
        flowio.write_image_png(path, np.ones((1, 2, 2)), bit_depth=16)
        assert np.all(flowio.read_image(path).data == 1.0)

    @pytest.mark.parametrize("ftype", [1, 2, 3, 4])
    def test_decoder_handles_all_filters(self, ftype):
        rng = np.random.default_rng(ftype)
        height, width, bpp = 5, 4, 3
        img = rng.integers(0, 256, (height, width, bpp), dtype=np.uint8)
        raw = bytearray()
        prior = np.zeros(width * bpp, dtype=np.uint8)
        for r in range(height):
            line = img[r].reshape(-1)
            filtered = np.zeros_like(line)
            for i in range(line.size):
                left = int(line[i - bpp]) if i >= bpp else 0
                up = int(prior[i])
                ul = int(prior[i - bpp]) if i >= bpp else 0
                if ftype == 1:
                    pred = left
                elif ftype == 2:
                    pred = up
                elif ftype == 3:
                    pred = (left + up) // 2
                else:
                    pred = int(_paeth(np.uint8(left), np.uint8(up), np.uint8(ul)))
                filtered[i] = (int(line[i]) - pred) % 256
            raw.append(ftype)
            raw += filtered.tobytes()
            prior = line
        ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
        blob = (flowio._PNG_SIG + flowio._png_chunk(b"IHDR", ihdr)
                + flowio._png_chunk(b"IDAT", zlib.compress(bytes(raw)))
                + flowio._png_chunk(b"IEND", b""))
        samples, depth = flowio._png_decode(blob)
        assert depth == 8
        assert np.array_equal(samples, img)

    @pytest.mark.parametrize("depth", [8, 16])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("content", ["zero", "top", "noise"])
    def test_kitti_size_roundtrip_inside_ratio_guard(self, depth, channels, content):
        """The encoder's filter-0, run-length stream at 375x1242 decodes
        bit-exactly and stays inside the decoder's deflate-ratio guard;
        all-zero and all-top images compress furthest."""
        top = 2 ** depth - 1
        shape = (375, 1242) + ((3,) if channels == 3 else ())
        samples = {"zero": np.zeros(shape, np.uint16),
                   "top": np.full(shape, top, np.uint16),
                   "noise": np.random.default_rng(28).integers(
                       0, top + 1, shape).astype(np.uint16)}[content]
        blob = flowio._png_encode(samples, depth)
        _assert_inside_ratio_guard(blob)
        back, back_depth = flowio._png_decode(blob)
        assert back_depth == depth
        assert back.dtype == np.uint16 and np.array_equal(back, samples)

    def test_kitti_size_zero_flow_roundtrip(self, tmp_path):
        path = tmp_path / "zero.png"
        flowio.write_kitti_flow(path, FlowField.zeros(375, 1242))
        _assert_inside_ratio_guard(path.read_bytes())
        back, mask = flowio.read_kitti_flow(path)
        assert mask.all() and not back.data.any()
        assert np.signbit(back.data).sum() == 0

    def test_rows_are_filter_none(self):
        """Every scanline the encoder writes starts with filter byte 0."""
        samples = np.random.default_rng(29).integers(0, 256, (7, 5, 3))
        blob = flowio._png_encode(samples, 8)
        length = struct.unpack(">I", blob[33:37])[0]
        raw = zlib.decompress(blob[41:41 + length])
        assert raw[::5 * 3 + 1] == bytes(7)

    def test_corrupt_stream_rejected(self, tmp_path):
        path = tmp_path / "corrupt.png"
        flowio.write_image_png(path, np.full((1, 4, 4), 0.5))
        raw = bytearray(path.read_bytes())
        raw[40] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(flowio.FormatError):
            flowio.read_image(path)


def _assert_inside_ratio_guard(blob):
    """The IDAT of an encoder-written PNG inflates at most
    `_DEFLATE_MAX_RATIO` times its size, the decoder's bound."""
    width, height, depth, color_type = struct.unpack(">IIBB", blob[16:26])
    length = struct.unpack(">I", blob[33:37])[0]
    assert blob[37:41] == b"IDAT"
    stride = width * (3 if color_type == 2 else 1) * depth // 8
    assert height * (stride + 1) <= flowio._DEFLATE_MAX_RATIO * length


class TestPpm:
    def test_p6_scaling(self, tmp_path):
        path = tmp_path / "img.ppm"
        body = bytes([255, 0, 0, 0, 255, 0])
        path.write_bytes(b"P6\n# comment\n2 1\n255\n" + body)
        img = flowio.read_image(path)
        assert img.data.shape == (3, 1, 2)
        assert np.array_equal(img.data[:, 0, 0], [1.0, 0.0, 0.0])
        assert np.array_equal(img.data[:, 0, 1], [0.0, 1.0, 0.0])

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00")
        with pytest.raises(flowio.FormatError):
            flowio.read_image(path)

    def test_16bit_ppm_rejected(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(flowio.FormatError):
            flowio.read_image(path)

    @pytest.mark.parametrize("blob", [b"P6 0 5 255 ", b"P6 5 0 255 ",
                                      b"P6 1 1 1 \xff\x00\x00",
                                      b"P6 " + b"9" * 5000 + b" 1 255 "])
    def test_hostile_input_rejected(self, tmp_path, blob):
        path = tmp_path / "bad.ppm"
        path.write_bytes(blob)
        with pytest.raises(flowio.FormatError):
            flowio.read_image(path)


class TestFlowColor:
    def test_zero_flow_renders_white(self):
        img = flowio.flow_to_color(FlowField(np.zeros((2, 6, 6))))
        assert np.array_equal(img.data, np.ones((3, 6, 6)))

    def test_rotation_preserves_magnitude_rendering(self):
        rng = np.random.default_rng(3)
        flow = rng.normal(0, 2, (2, 8, 8))
        a = flowio.flow_to_color(flow, max_magnitude=5.0)
        b = flowio.flow_to_color(-flow, max_magnitude=5.0)
        # distance from white is hue-independent on this wheel
        dist_a = np.max(1.0 - a.data, axis=0)
        dist_b = np.max(1.0 - b.data, axis=0)
        assert np.allclose(dist_a, dist_b, atol=1e-12)
        assert not np.allclose(a.data, b.data)  # hue moved to opposite sector

    def test_scaling_doubles_saturation(self):
        flow = np.zeros((2, 1, 1))
        flow[0] = 1.0
        a = flowio.flow_to_color(flow, max_magnitude=4.0)
        b = flowio.flow_to_color(2 * flow, max_magnitude=4.0)
        assert np.max(1.0 - b.data) == pytest.approx(2 * np.max(1.0 - a.data),
                                                     rel=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        flow = rng.normal(0, 1, (2, 5, 5))
        a = flowio.flow_to_color(flow, 2.0)
        b = flowio.flow_to_color(flow, 2.0)
        assert np.array_equal(a.data, b.data)


class TestPerturbationImages:
    def test_constant_field_is_midgray(self):
        p = Perturbation(PerturbMode.JOINT, np.zeros((1, 3, 3)))
        imgs = flowio.perturbation_to_image(p)
        assert len(imgs) == 1
        assert np.all(imgs[0].data == 0.5)

    def test_symmetric_field_maps_extremes(self):
        d = np.zeros((1, 1, 3))
        d[0, 0] = [-2.0, 0.0, 2.0]
        imgs = flowio.perturbation_to_image(Perturbation(PerturbMode.JOINT, d))
        assert np.array_equal(imgs[0].data[0, 0], [0.0, 0.5, 1.0])

    def test_disjoint_emits_two(self):
        p = Perturbation(PerturbMode.DISJOINT, np.zeros((1, 2, 2)),
                         np.ones((1, 2, 2)))
        assert len(flowio.perturbation_to_image(p)) == 2


class TestPerturbationFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        for mode in PerturbMode:
            p = (Perturbation(mode, rng.normal(size=(2, 3, 4)))
                 if mode == PerturbMode.JOINT else
                 Perturbation(mode, rng.normal(size=(2, 3, 4)),
                              rng.normal(size=(2, 3, 4))))
            path = tmp_path / f"{mode.value}.npz"
            flowio.write_perturbation(path, p)
            back = flowio.read_perturbation(path)
            assert back.mode == mode
            assert np.array_equal(back.first, p.first)
            if mode == PerturbMode.DISJOINT:
                assert np.array_equal(back.second, p.second)


# ---------------------------------------------------------------------------
# PNG decoder: bit-exact against the per-byte unfilter, hostile input
# ---------------------------------------------------------------------------

def _paeth(a, b, c):
    """The PNG Paeth predictor of one byte from its left, up and up-left
    neighbours."""
    p = a.astype(np.int32) + b - c
    pa = np.abs(p - a)
    pb = np.abs(p - b)
    pc = np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def _reference_unfilter(flat, bpp):
    """Per-byte scanline unfilter on numpy scalars, the decoder's original
    loop, kept as the oracle for the vectorized one. flat: rows x
    (1 + stride) bytes, each row led by its filter type."""
    height, stride = flat.shape[0], flat.shape[1] - 1
    out = np.zeros((height, stride), dtype=np.uint8)
    prior = np.zeros(stride, dtype=np.uint8)
    for r in range(height):
        ftype = flat[r, 0]
        line = flat[r, 1:].copy()
        if ftype == 0:
            pass
        elif ftype == 2:  # Up
            line = (line.astype(np.int32) + prior) % 256
        elif ftype in (1, 3, 4):  # Sub / Average / Paeth need left-to-right
            rec = np.zeros(stride, dtype=np.uint8)
            for i in range(stride):
                left = rec[i - bpp] if i >= bpp else np.uint8(0)
                up = prior[i]
                ul = prior[i - bpp] if i >= bpp else np.uint8(0)
                if ftype == 1:
                    pred = int(left)
                elif ftype == 3:
                    pred = (int(left) + int(up)) // 2
                else:
                    pred = int(_paeth(np.uint8(left), np.uint8(up), np.uint8(ul)))
                rec[i] = (int(line[i]) + pred) % 256
            line = rec
        else:
            raise ValueError(f"unknown PNG filter type {ftype}")
        out[r] = line
        prior = out[r]
    return out


def _ihdr(width, height, depth=8, color_type=0):
    return struct.pack(">IIBBBBB", width, height, depth, color_type, 0, 0, 0)


def _png(ihdr, idat):
    return (flowio._PNG_SIG + flowio._png_chunk(b"IHDR", ihdr)
            + flowio._png_chunk(b"IDAT", idat) + flowio._png_chunk(b"IEND", b""))


def _filtered_png(rng, width, height, depth, channels, types, top=256):
    """A PNG whose scanlines are random filtered bytes below `top` with the
    given filter types (any bytes are a valid filtered stream), and those
    rows."""
    stride = width * channels * depth // 8
    flat = rng.integers(0, top, (height, stride + 1), dtype=np.uint8)
    flat[:, 0] = types
    blob = _png(_ihdr(width, height, depth, 0 if channels == 1 else 2),
                zlib.compress(flat.tobytes()))
    return blob, flat


class TestPngDecoderMatchesReference:
    @pytest.mark.parametrize("depth,channels", [(8, 1), (8, 3), (16, 1), (16, 3)])
    @pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4, "mix"])
    def test_bit_exact(self, ftype, depth, channels):
        rng = np.random.default_rng([depth, channels, 5 if ftype == "mix" else ftype])
        height = 6
        # widths 1-7 cover strides of one pixel, so shorter than 2 * bpp;
        # bytes below 3 make Paeth's tie-breaking rules decide many bytes
        for width, top in [(w, t) for w in range(1, 8) for t in (256, 3)]:
            if ftype == "mix":
                # a random per-row mix whose first row is not None
                types = np.concatenate([rng.integers(1, 5, 1),
                                        rng.integers(0, 5, height - 1)])
            else:
                types = np.full(height, ftype)
            blob, flat = _filtered_png(rng, width, height, depth, channels,
                                       types, top)
            samples, got_depth = flowio._png_decode(blob)
            ref = _reference_unfilter(flat, channels * depth // 8)
            dtype = ">u2" if depth == 16 else "u1"
            expected = np.frombuffer(ref.tobytes(), dtype=dtype).reshape(
                height, width, channels).astype(np.uint16)
            if channels == 1:
                expected = expected[:, :, 0]
            assert got_depth == depth
            assert samples.dtype == expected.dtype
            assert np.array_equal(samples, expected)


class TestPngHostile:
    def _valid(self):
        return _png(_ihdr(3, 2), zlib.compress(bytes(2 * 4)))

    def test_valid_baseline_decodes(self):
        samples, depth = flowio._png_decode(self._valid())
        assert depth == 8 and samples.shape == (2, 3)

    def test_crc_mismatch_rejected(self):
        blob = bytearray(self._valid())
        idat_crc = blob.index(b"IEND") - 4 - 4  # last CRC byte before IEND
        blob[idat_crc] ^= 0x01
        with pytest.raises(flowio.FormatError, match="CRC"):
            flowio._png_decode(bytes(blob))

    def test_short_ihdr_rejected(self):
        blob = (flowio._PNG_SIG + flowio._png_chunk(b"IHDR", b"\x00" * 5)
                + flowio._png_chunk(b"IDAT", zlib.compress(b"\x00\x00"))
                + flowio._png_chunk(b"IEND", b""))
        with pytest.raises(flowio.FormatError, match="IHDR"):
            flowio._png_decode(blob)

    @pytest.mark.parametrize("width,height", [(0, 1), (1, 0)])
    def test_zero_dimension_rejected(self, width, height):
        pixels = bytes(height * (width + 1))
        with pytest.raises(flowio.FormatError, match="dimensions"):
            flowio._png_decode(_png(_ihdr(width, height), zlib.compress(pixels)))

    def test_inflate_bomb_bounded(self):
        # 200 MB of zeros deflate to about 204 KB; the IHDR declares 1x1 gray
        packer = zlib.compressobj()
        zeros = bytes(1 << 20)
        idat = b"".join([packer.compress(zeros) for _ in range(200)]
                        + [packer.flush()])
        blob = _png(_ihdr(1, 1), idat)
        tracemalloc.start()
        try:
            with pytest.raises(flowio.FormatError):
                flowio._png_decode(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("side", [10 ** 5, 2 ** 31 - 1])
    def test_ihdr_beyond_deflate_ratio_rejected(self, side):
        blob = _png(_ihdr(side, side), zlib.compress(b"\x00\x00"))
        with pytest.raises(flowio.FormatError, match="IHDR"):
            flowio._png_decode(blob)

    @pytest.mark.parametrize("size", [2 * 4 - 1, 2 * 4 + 1])
    def test_wrong_inflated_size_rejected(self, size):
        with pytest.raises(flowio.FormatError):
            flowio._png_decode(_png(_ihdr(3, 2), zlib.compress(bytes(size))))

    def test_truncated_stream_rejected(self):
        stream = zlib.compress(bytes(2 * 4))[:-4]  # drop the Adler-32 trailer
        with pytest.raises(flowio.FormatError):
            flowio._png_decode(_png(_ihdr(3, 2), stream))

    def test_invalid_deflate_rejected(self):
        with pytest.raises(flowio.FormatError, match="corrupt PNG stream"):
            flowio._png_decode(_png(_ihdr(3, 2), b"\x78\x9c\xff\xff\xff\xff"))


_MUTATIONS = st.lists(st.tuples(st.sampled_from(["flip", "truncate", "insert"]),
                                st.integers(0, 2 ** 16), st.integers(0, 255)),
                      min_size=1, max_size=4)


@st.composite
def _small_pngs(draw):
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 4))
    depth = draw(st.sampled_from([8, 16]))
    channels = draw(st.sampled_from([1, 3]))
    types = draw(st.lists(st.integers(0, 4), min_size=height, max_size=height))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return _filtered_png(rng, width, height, depth, channels, types)


def _mutate(data, mutations):
    out = bytearray(data)
    for op, pos, value in mutations:
        if op == "flip" and out:
            out[pos % len(out)] ^= 1 + value % 255
        elif op == "truncate":
            del out[pos % (len(out) + 1):]
        elif op == "insert":
            out.insert(pos % (len(out) + 1), value)
    return bytes(out)


def _decodes_or_format_error(blob):
    try:
        samples, depth = flowio._png_decode(blob)
    except flowio.FormatError:
        return
    assert depth in (8, 16)
    assert samples.dtype == np.uint16 and samples.ndim in (2, 3)


class TestPngFuzz:
    @given(_small_pngs(), _MUTATIONS)
    def test_mutated_file(self, png, mutations):
        blob, _ = png
        _decodes_or_format_error(_mutate(blob, mutations))

    @given(_small_pngs(), st.sampled_from(["IHDR", "IDAT", "pixels"]), _MUTATIONS)
    def test_mutated_chunk_with_valid_crc(self, png, target, mutations):
        blob, flat = png
        ihdr = blob[16:29]
        idat = zlib.compress(flat.tobytes())
        if target == "IHDR":
            ihdr = _mutate(ihdr, mutations)
        elif target == "IDAT":
            idat = _mutate(idat, mutations)
        else:
            idat = zlib.compress(_mutate(flat.tobytes(), mutations))
        _decodes_or_format_error(_png(ihdr, idat))


# every hostile-file example must finish well inside this bound
_BOUNDED = settings(deadline=500)


def _hostile_file(tmp_path_factory, name, data):
    path = tmp_path_factory.mktemp("hostile") / name
    path.write_bytes(data)
    return path


_FLO_VALUES = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def _small_flows(draw):
    height = draw(st.integers(1, 4))
    width = draw(st.integers(1, 4))
    values = draw(st.lists(_FLO_VALUES, min_size=2 * height * width,
                           max_size=2 * height * width))
    return np.array(values, dtype=np.float32).reshape(2, height, width)


class TestFloFuzz:
    @_BOUNDED
    @given(_small_flows())
    def test_roundtrip(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("flo") / "f.flo"
        flowio.write_flo(path, FlowField(data.astype(np.float64)))
        assert np.array_equal(flowio.read_flo(path).data, data)

    @_BOUNDED
    @given(_small_flows(), _MUTATIONS)
    def test_mutated_file(self, tmp_path_factory, data, mutations):
        path = tmp_path_factory.mktemp("flo") / "f.flo"
        flowio.write_flo(path, FlowField(data.astype(np.float64)))
        path.write_bytes(_mutate(path.read_bytes(), mutations))
        _flo_or_format_error(path)

    @_BOUNDED
    @given(st.binary(max_size=64), st.booleans())
    def test_arbitrary_bytes(self, tmp_path_factory, blob, magic):
        head = struct.pack("<f", flowio.FLO_MAGIC) if magic else b""
        _flo_or_format_error(_hostile_file(tmp_path_factory, "f.flo", head + blob))


def _flo_or_format_error(path):
    try:
        flow = flowio.read_flo(path)
    except flowio.FormatError:
        return
    assert flow.data.ndim == 3 and flow.data.shape[0] == 2
    assert 12 + 4 * flow.data.size <= path.stat().st_size


def _ppm(pixels, maxval=255, header=b"P6\n%d %d\n%d\n"):
    _, height, width = pixels.shape
    return header % (width, height, maxval) + np.moveaxis(pixels, 0, 2).tobytes()


@st.composite
def _small_ppms(draw):
    height = draw(st.integers(1, 4))
    width = draw(st.integers(1, 4))
    maxval = draw(st.integers(1, 255))
    samples = draw(st.lists(st.integers(0, maxval), min_size=3 * height * width,
                            max_size=3 * height * width))
    return np.array(samples, dtype=np.uint8).reshape(3, height, width), maxval


def _image_or_format_error(path):
    try:
        image = flowio.read_image(path)
    except flowio.FormatError:
        return
    assert image.data.ndim == 3 and image.data.shape[0] in (1, 3)


class TestPpmFuzz:
    @_BOUNDED
    @given(_small_ppms(), st.sampled_from([b"P6\n%d %d\n%d\n",
                                           b"P6 %d\t%d # c\n%d "]))
    def test_roundtrip(self, tmp_path_factory, ppm, header):
        pixels, maxval = ppm
        path = _hostile_file(tmp_path_factory, "i.ppm",
                             _ppm(pixels, maxval, header))
        assert np.array_equal(flowio.read_image(path).data, pixels / maxval)

    @_BOUNDED
    @given(_small_ppms(), _MUTATIONS)
    def test_mutated_file(self, tmp_path_factory, ppm, mutations):
        blob = _mutate(_ppm(*ppm), mutations)
        _image_or_format_error(_hostile_file(tmp_path_factory, "i.ppm", blob))

    @_BOUNDED
    @given(st.binary(max_size=48))
    def test_arbitrary_header(self, tmp_path_factory, blob):
        _image_or_format_error(_hostile_file(tmp_path_factory, "i.ppm",
                                             b"P6" + blob))


class TestPerturbationFileHostile:
    def test_zip_signature_with_garbage(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"PK\x03\x04" + b"garbage" * 8)
        with pytest.raises(flowio.FormatError):
            flowio.read_perturbation(path)

    def test_missing_mode(self, tmp_path):
        path = tmp_path / "nomode.npz"
        np.savez(path, first=np.zeros((1, 2, 2)))
        with pytest.raises(flowio.FormatError):
            flowio.read_perturbation(path)

    def test_member_larger_than_file_rejected(self, tmp_path):
        # a 300-byte archive whose field header declares 80 GB of float64
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False,
                     "shape": (1, 10 ** 5, 10 ** 5)})
        mode = io.BytesIO()
        np.save(mode, np.array("joint"))
        path = tmp_path / "huge.npz"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("mode.npy", mode.getvalue())
            archive.writestr("first.npy", header.getvalue() + bytes(64))
        with pytest.raises(flowio.FormatError):
            flowio.read_perturbation(path)

    def test_compressed_member_rejected(self, tmp_path):
        path = tmp_path / "deflated.npz"
        np.savez_compressed(path, mode=np.array("joint"), first=np.zeros((1, 2, 2)))
        with pytest.raises(flowio.FormatError):
            flowio.read_perturbation(path)

    @given(st.sampled_from(list(PerturbMode)), _MUTATIONS)
    def test_mutated_archive(self, tmp_path_factory, mode, mutations):
        rng = np.random.default_rng(7)
        fields = [rng.normal(size=(1, 2, 3))]
        if mode == PerturbMode.DISJOINT:
            fields.append(rng.normal(size=(1, 2, 3)))
        path = tmp_path_factory.mktemp("pert") / "p.npz"
        flowio.write_perturbation(path, Perturbation(mode, *fields))
        path.write_bytes(_mutate(path.read_bytes(), mutations))
        try:
            flowio.read_perturbation(path)
        except flowio.FormatError:
            pass

    @given(st.sampled_from(list(PerturbMode)) | st.text(max_size=12),
           # (C, M, N) often enough that some archives are valid
           st.lists(st.integers(1, 3), min_size=3, max_size=3)
           | st.lists(st.integers(0, 3), max_size=4),
           st.lists(st.tuples(
               st.sampled_from(["float64", "float32", "float16", "bool",
                                "int64", "complex128", "str"]),
               st.none() | st.sampled_from([np.nan, np.inf, -np.inf])),
               min_size=1, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_hostile_members(self, tmp_path_factory, mode, shape, fields):
        """A well-formed archive with any mode text and fields of any dtype,
        shape or value reads as a finite float64 Perturbation or raises a
        FormatError that names the file."""
        rng = np.random.default_rng(11)
        arrays = {"mode": np.array(getattr(mode, "value", mode))}
        for name, (dtype, special) in zip(("first", "second"), fields):
            values = rng.normal(size=shape)
            if special is not None and values.size:
                values.flat[0] = special
            with np.errstate(invalid="ignore"):
                arrays[name] = values.astype(dtype)
        path = tmp_path_factory.mktemp("pert") / "p.npz"
        np.savez(path, **arrays)
        try:
            p = flowio.read_perturbation(path)
        except flowio.FormatError as exc:
            assert str(path) in str(exc)
            return
        for d in p.fields():
            assert d.dtype == np.float64 and np.all(np.isfinite(d))
