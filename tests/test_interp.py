import numpy as np
import pytest

from sosbeam.interp import TAPS, delay_kernel, sample_rows, tabulated_kernel


class TestDelayKernel:
    def test_taps_sum_to_one(self):
        frac = np.random.default_rng(3).random(1000)
        np.testing.assert_allclose(delay_kernel(frac).sum(axis=-1), 1.0, atol=1e-14)

    def test_zero_offset_is_a_unit_impulse(self):
        np.testing.assert_array_equal(delay_kernel(0.0), np.eye(TAPS)[TAPS // 2 - 1])


class TestTabulatedKernel:
    def test_within_1e_7_of_delay_kernel(self):
        frac = np.random.default_rng(11).random(100_000)
        assert np.abs(tabulated_kernel(frac) - delay_kernel(frac)).max() < 1e-7

    def test_exact_at_zero_offset(self):
        np.testing.assert_array_equal(tabulated_kernel(0.0), delay_kernel(0.0))

    def test_offset_rounded_up_to_one(self):
        # pos - floor(pos) is 1.0 for a position just below an integer
        np.testing.assert_allclose(tabulated_kernel(1.0), delay_kernel(1.0), atol=1e-15)


class TestSampleRows:
    M = 64

    def rows(self, complex_=True):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((3, self.M))
        return rows + 1j * rng.standard_normal((3, self.M)) if complex_ else rows

    @pytest.mark.parametrize("complex_", [True, False])
    def test_integer_positions_reproduce_samples_bitwise(self, complex_):
        rows = self.rows(complex_)
        pos = np.array([[3.0, 10.0, 59.0], [20.0, 31.0, 45.0]])
        values, valid = sample_rows(rows, pos)
        assert valid.all()
        assert values.dtype == rows.dtype
        np.testing.assert_array_equal(values, rows[np.arange(3), pos.astype(int)])

    def test_matches_exact_kernel_convolution(self):
        rows = self.rows()
        pos = np.array([[12.25, 30.7, 41.999]])
        values, _ = sample_rows(rows, pos)
        for r, p in enumerate(pos[0]):
            base = int(np.floor(p))
            expected = rows[r, base - 3:base + 5] @ delay_kernel(p - base)
            assert values[0, r] == pytest.approx(expected, rel=1e-6)

    def test_valid_mask_at_both_record_edges(self):
        # the 8-tap stencil covers floor(pos) - 3 .. floor(pos) + 4
        rows = self.rows()
        pos = np.array([[2.999, 3.0, 3.5],
                        [self.M - 5.0, self.M - 4.5, self.M - 4.0]])
        values, valid = sample_rows(rows, pos)
        np.testing.assert_array_equal(valid, [[False, True, True], [True, True, False]])
        np.testing.assert_array_equal(values[~valid], 0.0)
        assert np.all(values[valid] != 0.0)

    def test_far_outside_the_record(self):
        values, valid = sample_rows(self.rows(), np.array([-1e6, 0.5, 1e9]))
        assert not valid.any()
        np.testing.assert_array_equal(values, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("complex_", [True, False])
    def test_non_finite_positions_invalid_and_zero(self, complex_):
        pos = np.array([[np.nan, 10.5, np.inf], [-np.inf, np.nan, 20.25]])
        values, valid = sample_rows(self.rows(complex_), pos)
        np.testing.assert_array_equal(valid, [[False, True, False], [False, False, True]])
        np.testing.assert_array_equal(values[~valid], 0.0)
        assert np.isfinite(values).all()

    @pytest.mark.parametrize("m", [1, TAPS - 1])
    def test_rows_shorter_than_the_stencil_all_invalid(self, m):
        # no stencil fits in the row, and none reads into the next row
        rows = np.arange(3 * m, dtype=complex).reshape(3, m) + 1.0
        pos = np.array([[0.0, m / 2, m - 1.0], [3.0, 3.5, 1e9]])
        values, valid = sample_rows(rows, pos)
        assert not valid.any()
        np.testing.assert_array_equal(values, 0.0)
        assert values.dtype == complex

    def test_row_as_long_as_the_stencil_has_one_valid_base(self):
        values, valid = sample_rows(self.rows()[:, :TAPS], np.array([2.9, 3.0, 3.5]))
        np.testing.assert_array_equal(valid, [False, True, True])
        assert values[1] == self.rows()[1, 3]
