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


class TestFileBytes:
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_raw_file_is_header_plus_float32_payload(self, tmp_path, layout):
        samples = np.asarray(np.random.default_rng(3).standard_normal((4, 30)), order=layout)
        cube = RawDataCube(samples=samples, sample_rate=500e3)
        path = tmp_path / "raw.bin"
        write_cube(path, cube)
        header = _HEADER.pack(b"SSBC", 1, 0, 4, 30, 500e3, 0.0, 0.0, 1)
        assert path.read_bytes() == header + samples.astype("<f4").tobytes()


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

    @pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(0.0, np.inf),
                                       complex(-np.inf, 1.0)])
    def test_baseband_rejects_non_finite_samples(self, value):
        # such a cube would image as nan pixels that carry only a singular flag
        samples = np.ones((2, 8), dtype=complex)
        samples[1, 5] = value
        with pytest.raises(ValueError, match="finite"):
            BasebandCube(samples=samples, sample_rate=1e3, carrier=30e3)
