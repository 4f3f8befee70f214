import tracemalloc

import numpy as np
import pytest

from sosbeam.cube import (_HEADER, BasebandCube, CubeFormatError, RawDataCube, read_cube,
                          write_cube)


def patch_header(path, **fields):
    """Rewrite named header fields of a cube file in place."""
    names = ("magic", "version", "fmt", "n_sens", "n_samples", "fs", "carrier", "t0",
             "decim")
    data = path.read_bytes()
    head = dict(zip(names, _HEADER.unpack(data[:_HEADER.size])))
    head.update(fields)
    path.write_bytes(_HEADER.pack(*(head[n] for n in names)) + data[_HEADER.size:])


class TestRawRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        cube = RawDataCube(samples=rng.standard_normal((5, 100)).astype(np.float32),
                           sample_rate=500e3)
        path = tmp_path / "raw.bin"
        write_cube(path, cube)
        back = read_cube(path)
        assert isinstance(back, RawDataCube)
        assert back.sample_rate == 500e3
        np.testing.assert_array_equal(back.samples, cube.samples.astype(np.float32))

    def test_float32_on_disk_is_stable(self, tmp_path):
        # writing float64 data truncates once; a second trip is lossless
        rng = np.random.default_rng(1)
        cube = RawDataCube(samples=rng.standard_normal((2, 64)), sample_rate=1e3)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_cube(p1, cube)
        once = read_cube(p1)
        write_cube(p2, once)
        np.testing.assert_array_equal(read_cube(p2).samples, once.samples)

    def test_read_returns_writable_float32_samples(self, tmp_path):
        # the file's payload as read, not a float64 widening
        path = tmp_path / "raw.bin"
        write_cube(path, RawDataCube(samples=np.ones((3, 40)), sample_rate=1e3))
        samples = read_cube(path).samples
        assert samples.dtype == np.float32 and samples.shape == (3, 40)
        assert samples.flags.writeable and samples.flags.c_contiguous
        samples[1, 2] = -1.0

    def test_io_holds_no_copy_of_the_record(self, tmp_path):
        # tracemalloc peak per sample of a default-sized record: reading holds the
        # float32 payload and its finiteness mask, writing one sensor row at a time
        cube = RawDataCube(samples=np.full((30, 150000), 0.5, dtype=np.float32),
                           sample_rate=500e3)
        path = tmp_path / "raw.bin"
        n = cube.samples.size
        tracemalloc.start()
        try:
            write_cube(path, cube)
            write_peak = tracemalloc.get_traced_memory()[1] / n
            tracemalloc.reset_peak()
            back = read_cube(path)
            read_peak = tracemalloc.get_traced_memory()[1] / n
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.samples, cube.samples)
        assert write_peak <= 0.5, write_peak
        assert read_peak <= 5.5, read_peak


class TestRawSamplesDtype:
    def test_float32_kept_as_given(self):
        x = np.zeros((2, 8), dtype=np.float32)
        assert RawDataCube(samples=x, sample_rate=1e3).samples is x

    @pytest.mark.parametrize("dtype", [np.float16, np.int16, np.float64, ">f4"])
    def test_other_dtypes_become_float64(self, dtype):
        cube = RawDataCube(samples=np.ones((2, 8), dtype=dtype), sample_rate=1e3)
        assert cube.samples.dtype == np.float64
        np.testing.assert_array_equal(cube.samples, 1.0)


class TestFileBytes:
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_raw_file_is_header_plus_float32_payload(self, tmp_path, layout):
        # a float64 cube and a float32 one (read_cube's), each in either layout
        wide = np.random.default_rng(3).standard_normal((4, 30))
        header = _HEADER.pack(b"SSBC", 1, 0, 4, 30, 500e3, 0.0, 0.0, 1)
        for dtype in (np.float64, np.float32):
            samples = np.asarray(wide, order=layout, dtype=dtype)
            path = tmp_path / "raw.bin"
            write_cube(path, RawDataCube(samples=samples, sample_rate=500e3))
            assert path.read_bytes() == header + wide.astype("<f4").tobytes()


class TestFormatErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(CubeFormatError):
            read_cube(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"SSBC\x01")
        with pytest.raises(CubeFormatError):
            read_cube(path)

    def test_payload_size_mismatch(self, tmp_path):
        cube = RawDataCube(samples=np.zeros((2, 10)), sample_rate=1e3)
        path = tmp_path / "trunc.bin"
        write_cube(path, cube)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CubeFormatError):
            read_cube(path)

    @pytest.mark.parametrize("extra", [b"\x00", b"\x00" * 3, b"\x00" * 5])
    def test_partial_trailing_sample_rejected(self, tmp_path, extra):
        path = tmp_path / "long.bin"
        write_cube(path, RawDataCube(samples=np.zeros((2, 10)), sample_rate=1e3))
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(CubeFormatError, match="payload holds") as info:
            read_cube(path)
        assert str(path) in str(info.value)

    def test_baseband_format_tag_rejected(self, tmp_path):
        # tag 1 held a complex64 baseband cube; no command writes or reads one
        path = tmp_path / "bb.bin"
        write_cube(path, RawDataCube(samples=np.zeros((2, 10)), sample_rate=1e3))
        patch_header(path, fmt=1)
        with pytest.raises(CubeFormatError, match="format tag 1") as info:
            read_cube(path)
        assert str(path) in str(info.value)

    def test_baseband_cube_not_written(self, tmp_path):
        cube = BasebandCube(samples=np.ones((2, 5), dtype=complex), sample_rate=125e3,
                            carrier=30e3)
        with pytest.raises(TypeError):
            write_cube(tmp_path / "bb.bin", cube)
        assert not (tmp_path / "bb.bin").exists()

    @pytest.mark.parametrize("dtype", ["<f4"])  # the one payload type on disk
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, tmp_path, dtype, value):
        path = tmp_path / "cube.bin"
        write_cube(path, RawDataCube(samples=np.zeros((2, 10)), sample_rate=1e3))
        data = bytearray(path.read_bytes())
        item = np.dtype(dtype).itemsize
        data[_HEADER.size + 13 * item:_HEADER.size + 14 * item] = np.array(
            [value], dtype=dtype).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(CubeFormatError, match="non-finite") as info:
            read_cube(path)
        assert str(path) in str(info.value)


class TestHeaderValues:
    @pytest.mark.parametrize("fs", [0.0, float("nan"), float("inf"), -1e3])
    def test_bad_raw_sample_rate(self, tmp_path, fs):
        path = tmp_path / "raw.bin"
        write_cube(path, RawDataCube(samples=np.zeros((2, 10)), sample_rate=1e3))
        patch_header(path, fs=fs)
        with pytest.raises(CubeFormatError, match="sample_rate") as info:
            read_cube(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("fs", [0.0, -1.0, float("nan"), float("inf")])
    def test_constructors_reject_bad_sample_rate(self, fs):
        with pytest.raises(ValueError):
            RawDataCube(samples=np.zeros((1, 4)), sample_rate=fs)
        with pytest.raises(ValueError):
            BasebandCube(samples=np.zeros((1, 4)), sample_rate=fs, carrier=30e3)

    @pytest.mark.parametrize("kwargs", [{"carrier": float("nan")}, {"carrier": float("inf")},
                                        {"carrier": 30e3, "time_origin": float("nan")},
                                        {"carrier": 30e3, "time_origin": -float("inf")}])
    def test_baseband_rejects_non_finite_carrier_and_origin(self, kwargs):
        with pytest.raises(ValueError):
            BasebandCube(samples=np.zeros((1, 4)), sample_rate=1e3, **kwargs)


    def test_baseband_rejects_negative_sample_offset(self):
        with pytest.raises(ValueError, match="sample_offset"):
            BasebandCube(samples=np.zeros((1, 4)), sample_rate=1e3, carrier=30e3,
                         sample_offset=-1)

    @pytest.mark.parametrize("value", [2.5, True])
    def test_baseband_rejects_non_integer_sample_offset(self, value):
        with pytest.raises(ValueError, match="sample_offset must be an integer"):
            BasebandCube(samples=np.zeros((1, 4)), sample_rate=1e3, carrier=30e3,
                         sample_offset=value)

    @pytest.mark.parametrize("value", [0, 2.5, True])
    def test_baseband_rejects_bad_decimation(self, value):
        # 2.5 on a 125 kHz cube would report a raw rate of 312.5 kHz
        with pytest.raises(ValueError, match="decimation must be an integer"):
            BasebandCube(samples=np.zeros((1, 4)), sample_rate=125e3, carrier=30e3,
                         decimation=value)

    def test_baseband_numpy_integer_counts_accepted(self):
        cube = BasebandCube(samples=np.zeros((1, 4)), sample_rate=125e3, carrier=30e3,
                            decimation=np.int64(4), sample_offset=np.int64(3))
        assert cube.raw_sample_rate == 500e3 and cube.sample_offset == 3

    @pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                       complex(-np.inf, 1.0)])
    def test_baseband_rejects_non_finite_samples(self, value):
        # such a cube would image as nan pixels that carry only a singular flag
        samples = np.ones((2, 8), dtype=complex)
        samples[1, 5] = value
        with pytest.raises(ValueError, match="finite"):
            BasebandCube(samples=samples, sample_rate=1e3, carrier=30e3)
