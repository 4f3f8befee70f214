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


class TestBasebandRoundTrip:
    def test_round_trip_with_metadata(self, tmp_path):
        rng = np.random.default_rng(2)
        samples = (rng.standard_normal((3, 50))
                   + 1j * rng.standard_normal((3, 50))).astype(np.complex64)
        cube = BasebandCube(samples=samples, sample_rate=125e3, carrier=30e3,
                            decimation=4, time_origin=1e-6)
        path = tmp_path / "bb.bin"
        write_cube(path, cube)
        back = read_cube(path)
        assert isinstance(back, BasebandCube)
        assert back.sample_rate == 125e3
        assert back.carrier == 30e3
        assert back.decimation == 4
        assert back.time_origin == 1e-6
        np.testing.assert_array_equal(back.samples, samples)


class TestFileBytes:
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_raw_file_is_header_plus_float32_payload(self, tmp_path, layout):
        samples = np.asarray(np.random.default_rng(3).standard_normal((4, 30)), order=layout)
        cube = RawDataCube(samples=samples, sample_rate=500e3)
        path = tmp_path / "raw.bin"
        write_cube(path, cube)
        header = _HEADER.pack(b"SSBC", 1, 0, 4, 30, 500e3, 0.0, 0.0, 1)
        assert path.read_bytes() == header + samples.astype("<f4").tobytes()

    def test_baseband_file_is_header_plus_complex64_payload(self, tmp_path):
        rng = np.random.default_rng(4)
        samples = rng.standard_normal((3, 20)) + 1j * rng.standard_normal((3, 20))
        cube = BasebandCube(samples=samples, sample_rate=125e3, carrier=30e3,
                            decimation=4, time_origin=-2e-6)
        path = tmp_path / "bb.bin"
        write_cube(path, cube)
        header = _HEADER.pack(b"SSBC", 1, 1, 3, 20, 125e3, 30e3, -2e-6, 4)
        assert path.read_bytes() == header + samples.astype("<c8").tobytes()


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


class TestHeaderValues:
    @pytest.mark.parametrize("fs", [0.0, float("nan"), float("inf"), -1e3])
    def test_bad_raw_sample_rate(self, tmp_path, fs):
        path = tmp_path / "raw.bin"
        write_cube(path, RawDataCube(samples=np.zeros((2, 10)), sample_rate=1e3))
        patch_header(path, fs=fs)
        with pytest.raises(CubeFormatError, match="sample_rate") as info:
            read_cube(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("fields, word", [
        ({"decim": 0}, "decimation"),
        ({"fs": float("nan")}, "sample_rate"),
        ({"carrier": float("nan")}, "carrier"),
        ({"t0": float("inf")}, "time_origin"),
    ])
    def test_bad_baseband_header(self, tmp_path, fields, word):
        path = tmp_path / "bb.bin"
        write_cube(path, BasebandCube(samples=np.ones((2, 5), dtype=complex),
                                      sample_rate=125e3, carrier=30e3, decimation=4))
        patch_header(path, **fields)
        with pytest.raises(CubeFormatError, match=word) as info:
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

