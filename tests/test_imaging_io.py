import numpy as np
import pytest

from sosbeam.core import ScanGrid
from sosbeam.imaging_io import write_image_pgm
from sosbeam.metrics import DbImage

GRID = ScanGrid(-1.0, 1.0, 10.0, 11.0, 3, 2)


def read_pgm(path):
    """(width, height, pixels) of an 8-bit binary PGM."""
    data = path.read_bytes()
    magic, size, depth, pixels = data.split(b"\n", 3)
    assert (magic, depth) == (b"P5", b"255")
    width, height = map(int, size.split())
    return width, height, np.frombuffer(pixels, np.uint8).reshape(height, width)


class TestWriteImagePgm:
    @pytest.mark.parametrize("dynamic_range_db", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_range_rejected(self, tmp_path, dynamic_range_db):
        img = DbImage(pixels=np.zeros((2, 3)), grid=GRID)
        with pytest.raises(ValueError, match="dynamic range"):
            write_image_pgm(tmp_path / "img.pgm", img, dynamic_range_db)
        assert not (tmp_path / "img.pgm").exists()

    def test_zero_db_is_white_and_the_range_floor_black(self, tmp_path):
        # 0 dB is 255; -30 dB and below are 0; -15 dB is half way, 127.5 rounded to even
        img = DbImage(pixels=np.array([[0.0, -30.0, -200.0], [-15.0, -30.0001, -1e-9]]),
                      grid=GRID)
        write_image_pgm(tmp_path / "img.pgm", img, 30.0)
        width, height, pixels = read_pgm(tmp_path / "img.pgm")
        assert (width, height) == (3, 2)
        np.testing.assert_array_equal(pixels, [[255, 0, 0], [128, 0, 255]])
