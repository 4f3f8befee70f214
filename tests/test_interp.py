import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sosbeam.interp import (_OFFSETS, MAX_DEGREE, TAP_BOUND, TAPS, delay_kernel, farrow_taps,
                            sample_rows)

# carrier steps 2*pi*f_c/f_s: none, the default config's (decimation 4),
# decimation 8's and twice that
THETAS = (0.0, 1.508, 3.016, 6.032)
# and beyond 2*pi, decimation 40's and a larger one: sample_rows fits its taps
# at the step less whole turns
STEPS = THETAS + (15.08, 50.0)


def horner(taps, frac):
    """The polynomial taps at fractional offsets frac, frac.shape + (TAPS,), by
    Horner on (re, im) pairs as sample_rows evaluates them."""
    frac = np.asarray(frac, dtype=float)[..., None]
    pairs = taps.view(float)
    h = pairs[-1]
    for row in pairs[-2::-1]:
        h = h * frac + row
    return h.view(complex)


def farrow(frac):
    """The carrier-free polynomial taps at fractional offsets frac, by Horner
    as sample_rows evaluates them."""
    return horner(farrow_taps(0.0), frac)


def rotated_oracle(rows, pos, theta):
    """The exact 8-tap convolution of rows carrying the carrier step theta
    with the carrier-folded kernel delay_kernel(f)_k * exp(j*theta*(f - m_k))
    at each in-record position; nan elsewhere."""
    out = np.full(pos.shape, np.nan, complex)
    for idx in np.ndindex(pos.shape):
        p = pos[idx]
        base = int(np.floor(p)) if np.isfinite(p) else -TAPS
        if 3 <= base <= rows.shape[1] - 5:
            f = p - base
            kernel = delay_kernel(f) * np.exp(1j * theta * (f - _OFFSETS))
            out[idx] = rows[idx[-1], base - 3:base + 5] @ kernel
    return out


class TestDelayKernel:
    def test_taps_sum_to_one(self):
        frac = np.random.default_rng(3).random(1000)
        np.testing.assert_allclose(delay_kernel(frac).sum(axis=-1), 1.0, atol=1e-14)

    def test_zero_offset_is_a_unit_impulse(self):
        np.testing.assert_array_equal(delay_kernel(0.0), np.eye(TAPS)[TAPS // 2 - 1])


class TestFarrowKernel:
    def test_within_1e_9_of_delay_kernel(self):
        frac = np.random.default_rng(11).random(100_000)
        assert np.abs(farrow(frac) - delay_kernel(frac)).max() < 1e-9

    def test_exact_at_zero_offset(self):
        np.testing.assert_array_equal(farrow(0.0), delay_kernel(0.0))

    def test_offset_of_one(self):
        # the fit is on [0, 1], end points included
        assert np.abs(farrow(1.0) - delay_kernel(1.0)).max() < 1e-9

    @pytest.mark.parametrize("theta", THETAS + (np.pi,))
    def test_carrier_taps_within_1e_9_of_their_target(self, theta):
        # delay_kernel(f)_k * exp(j*theta*(f - m_k)) over 1e5 random fractions and at f = 1
        frac = np.r_[np.random.default_rng(13).random(100_000), 1.0]
        target = delay_kernel(frac) * np.exp(1j * theta * (frac[:, None] - _OFFSETS))
        assert TAP_BOUND == 1e-9
        assert np.abs(horner(farrow_taps(theta), frac) - target).max() < 1e-9
        # and the unit impulse at f = 0, exactly
        np.testing.assert_array_equal(horner(farrow_taps(theta), 0.0), np.eye(TAPS)[3])

    def test_degree_is_the_smallest_from_11_within_the_bound(self):
        assert [len(farrow_taps(t)) - 1 for t in THETAS] == [11, 13, 14, 16]
        # the largest step sample_rows fits taps at
        assert len(farrow_taps(np.pi)) - 1 == len(farrow_taps(-np.pi)) - 1 == 14

    def test_taps_are_fitted_once_per_step_and_read_only(self):
        assert farrow_taps(1.508) is farrow_taps(1.508)
        assert not farrow_taps(1.508).flags.writeable

    def test_step_beyond_the_largest_degree_rejected(self):
        with pytest.raises(ValueError, match=f"degree {MAX_DEGREE}"):
            farrow_taps(50.0)

    def test_sample_rows_reads_unit_impulses_as_the_taps(self):
        # row k holds a unit impulse at k, so it reads tap k of the stencil at 0 .. 7
        pos = 3.0 + np.random.default_rng(12).random((1000, 1))
        values, valid = sample_rows(np.eye(TAPS), np.repeat(pos, TAPS, axis=1))
        assert valid.all()
        np.testing.assert_array_equal(values, farrow(pos[:, 0] - 3.0))


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
        assert values.dtype == complex  # real rows are read as complex
        samples = rows[np.arange(3), pos.astype(int)]
        np.testing.assert_array_equal(values, samples)
        # with a carrier, below and beyond pi, the samples themselves
        for theta in (1.508, 6.032):
            np.testing.assert_array_equal(sample_rows(rows, pos, theta)[0], samples)

    def test_matches_exact_kernel_convolution(self):
        rows = self.rows()
        pos = np.array([[12.25, 30.7, 41.999]])
        values, _ = sample_rows(rows, pos)
        for r, p in enumerate(pos[0]):
            base = int(np.floor(p))
            expected = rows[r, base - 3:base + 5] @ delay_kernel(p - base)
            assert values[0, r] == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("theta", STEPS)
    def test_matches_the_rotated_oracle(self, theta):
        # 8 taps each within the 1e-9 tap bound: 8e-9 of the rows' largest magnitude
        rng = np.random.default_rng(14)
        rows = rng.standard_normal((4, 300)) + 1j * rng.standard_normal((4, 300))
        for pos in (rng.uniform(-2.0, 302.0, (50, 4)),  # the positions' own stencils
                    rng.uniform(100.0, 110.0, (500, 4))):  # the window of starts
            values, valid = sample_rows(rows, pos, theta)
            expected = rotated_oracle(rows, pos, theta)
            np.testing.assert_array_equal(valid, np.isfinite(expected))
            assert np.abs(values[valid] - expected[valid]).max() < 8e-9 * np.abs(rows).max()

    @pytest.mark.parametrize("theta", STEPS)
    def test_part_of_a_record_is_phased_as_the_whole_bitwise(self, theta):
        # the record from sample 17 on, its positions counted from there: the
        # samples carry the carrier, so no record index is needed
        rows = self.rows()
        pos = np.random.default_rng(15).uniform(20.0, 50.0, (30, 3))
        whole, valid = sample_rows(rows, pos, theta)
        part, part_valid = sample_rows(rows[:, 17:], pos - 17.0, theta)
        np.testing.assert_array_equal(part_valid, valid)
        np.testing.assert_array_equal(part, whole)

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

    @pytest.mark.parametrize("complex_", [True, False])
    def test_one_position_is_the_batch_bitwise(self, complex_):
        # one real position is a one-column filter product, which matmul
        # would round unlike the same column of a wider product
        rows = self.rows(complex_)[:1]
        pos = 3.0 + 50.0 * np.random.default_rng(6).random((40, 1))
        for theta in (0.0, 1.508):
            values, _ = sample_rows(rows, pos, theta)
            for p, value in zip(pos, values):
                np.testing.assert_array_equal(sample_rows(rows, p, theta)[0], value)

    @given(complex_=st.booleans(), n_rows=st.integers(1, 4), m=st.integers(40, 200),
           n_pix=st.integers(3, 20), wide=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           theta=st.sampled_from(STEPS), data=st.data())
    def test_property_any_subset_is_the_full_call_bitwise(self, complex_, n_rows, m, n_pix,
                                                           wide, seed, theta, data):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n_rows, m))
        if complex_:
            rows = rows + 1j * rng.standard_normal((n_rows, m))
        if wide:
            # stencil starts 0 and m - 8: a window of m - 7 > n_pix entries a
            # row, so the full call filters each position's own stencil
            pos = rng.uniform(-2.0, m + 2.0, (n_pix, n_rows))
            pos[:2, 0] = 3.0, m - 4.5
        else:
            # at most 3 starts a row for at least 3 positions, so the full
            # call filters the window of starts
            pos = rng.uniform(3.0, m - 7.0) + rng.uniform(0.0, 2.0, (n_pix, n_rows))
        bad = rng.random((n_pix, n_rows)) < 0.2
        bad[:2] = False
        pos[bad] = rng.choice([np.nan, np.inf, -np.inf, -4.0, m + 9.0], np.count_nonzero(bad))
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=n_pix, max_size=n_pix)
                                  .filter(any)))
        values, valid = sample_rows(rows, pos, theta)
        sub_values, sub_valid = sample_rows(rows, pos[keep], theta)
        np.testing.assert_array_equal(sub_valid, valid[keep])
        np.testing.assert_array_equal(sub_values, values[keep])
