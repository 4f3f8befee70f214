import numpy as np
import pytest
from hypothesis import given, strategies as st

from sosbeam.beamform import BeamformerConfig, beamform_points
from sosbeam.core import (ArrayGeometry, LfmPulse, ScanGrid, hann_weights, map_rows,
                          path_lengths, travel_times)
from sosbeam.cube import BasebandCube


@pytest.fixture
def collinear_geom():
    return ArrayGeometry(sensor_x=np.array([0.0]))


class TestRoundTripTime:
    def test_collinear_is_two_r_over_c(self, collinear_geom):
        assert travel_times(0.0, 36.0, 1519.0, collinear_geom)[0] == pytest.approx(72.0 / 1519.0)

    def test_offset_sensor_pythagorean(self):
        geom = ArrayGeometry(sensor_x=np.array([0.5]))
        expected = (36.0 + np.hypot(36.0, 0.5)) / 1519.0
        assert travel_times(0.0, 36.0, 1519.0, geom)[0] == pytest.approx(expected, rel=1e-14)

    def test_doubling_c_halves_time(self, collinear_geom):
        t1 = travel_times(0.0, 36.0, 1519.0, collinear_geom)[0]
        t2 = travel_times(0.0, 36.0, 2.0 * 1519.0, collinear_geom)[0]
        assert t2 == pytest.approx(0.5 * t1, rel=1e-14)

    def test_time_times_c_recovers_distance(self):
        geom = ArrayGeometry.uniform(5, 1.0)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y = float(rng.uniform(-5, 5)), float(rng.uniform(1, 50))
            c = float(rng.uniform(1400, 1600))
            n = int(rng.integers(0, 5))
            r = np.hypot(x - geom.source_x, y) + np.hypot(x - geom.sensor_x[n], y)
            assert travel_times(x, y, c, geom)[n] * c == pytest.approx(r, rel=1e-12)

    def test_is_the_path_lengths_over_c_bitwise(self, collinear_geom):
        assert path_lengths(0.0, 36.0, collinear_geom)[0] == 72.0
        geom = ArrayGeometry.uniform(5, 1.0, source_x=0.3)
        px, py = np.array([[-2.0], [0.5]]), np.array([10.0, 20.0, 30.0])
        paths = path_lengths(px, py, geom)
        assert paths.shape == (2, 3, 5)
        for c in (1400.0, 1519.0, 1600.3):
            np.testing.assert_array_equal(travel_times(px, py, c, geom), paths / c)

    @given(px=st.floats(-1e3, 1e3), py=st.floats(1e-3, 1e4), n=st.integers(1, 40),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_property_path_lengths_within_4_ulp_of_hypot(self, px, py, n, seed):
        rng = np.random.default_rng(seed)
        geom = ArrayGeometry(np.sort(rng.uniform(-50.0, 50.0, n)) + np.arange(n) * 1e-3,
                             source_x=float(rng.uniform(-50.0, 50.0)))
        oracle = np.hypot(px - geom.source_x, py) + np.hypot(px - geom.sensor_x, py)
        got = path_lengths(px, py, geom)
        assert (np.abs(got - oracle) <= 4 * np.spacing(oracle)).all()

    def test_monotone_decreasing_in_c(self, collinear_geom):
        times = [travel_times(1.0, 20.0, c, collinear_geom)[0]
                 for c in np.linspace(1400, 1600, 20)]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_nonpositive_speed_rejected(self, collinear_geom):
        with pytest.raises(ValueError):
            travel_times(0.0, 1.0, 0.0, collinear_geom)
        with pytest.raises(ValueError):
            travel_times(0.0, 1.0, -10.0, collinear_geom)

    def test_bad_sensor_index_rejected(self, collinear_geom):
        # one time per sensor on the trailing axis, and no more
        t = travel_times(0.0, 1.0, 1500.0, collinear_geom)
        assert t.shape == (1,)
        with pytest.raises(IndexError):
            t[1]


class TestHannWeights:
    def test_three_point(self):
        np.testing.assert_allclose(hann_weights(3), [0.0, 1.0, 0.0], atol=1e-15)

    def test_single(self):
        np.testing.assert_allclose(hann_weights(1), [1.0])

    def test_two_degenerates_to_uniform(self):
        np.testing.assert_allclose(hann_weights(2), [0.5, 0.5])

    def test_five_point_closed_form(self):
        np.testing.assert_allclose(hann_weights(5), [0.0, 0.25, 0.5, 0.25, 0.0], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 30, 101])
    def test_unit_sum_and_palindromic(self, n):
        w = hann_weights(n)
        assert w.sum() == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(w, w[::-1], atol=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hann_weights(0)


class TestTypes:
    def test_sensor_positions_must_increase(self):
        with pytest.raises(ValueError):
            ArrayGeometry(sensor_x=np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            ArrayGeometry(sensor_x=np.array([1.0, 0.0]))

    def test_focal_point_needs_positive_range(self):
        geom = ArrayGeometry.uniform(4, 1.0)
        cube = BasebandCube(samples=np.zeros((4, 64), dtype=complex), sample_rate=125e3,
                            carrier=30e3, decimation=4, time_origin=0.0)
        for y in (0.0, -3.0):
            with pytest.raises(ValueError, match="py"):
                beamform_points(cube, 0.0, y, BeamformerConfig(method="das"), geom)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ScanGrid(0, 1, 1, 2, 0, 4)
        with pytest.raises(ValueError):
            ScanGrid(1, 0, 1, 2, 4, 4)
        grid = ScanGrid(-1, 1, 10, 20, 5, 11)
        assert grid.x_values().shape == (5,)
        assert grid.y_values()[0] == 10 and grid.y_values()[-1] == 20

    @pytest.mark.parametrize("count", [2.5, True])
    @pytest.mark.parametrize("axis", ["n_x", "n_y"])
    def test_grid_non_integer_count_rejected(self, axis, count):
        # True would build a one-pixel axis, 2.5 fail later in linspace
        counts = {"n_x": 3, "n_y": 3, axis: count}
        with pytest.raises(ValueError, match="integers >= 1"):
            ScanGrid(x_min=-1.0, x_max=1.0, y_min=30.0, y_max=31.0, **counts)

    def test_grid_numpy_integer_counts_accepted(self):
        grid = ScanGrid(-1.0, 1.0, 30.0, 31.0, np.int64(3), np.int64(2))
        assert grid.x_values().shape == (3,) and grid.y_values().shape == (2,)

    @pytest.mark.parametrize("kwargs", [
        dict(sensor_x=[0.0, float("nan")]), dict(sensor_x=[0.0, float("inf")]),
        dict(array_depth=float("nan")), dict(source_x=float("nan")),
        dict(source_x=float("inf"))])
    def test_array_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ArrayGeometry(**{"sensor_x": [0.0, 1.0], **kwargs})

    @pytest.mark.parametrize("bounds", [
        (float("nan"), 1, 1, 2), (-1, float("inf"), 1, 2), (float("-inf"), 1, 1, 2),
        (-1, 1, float("nan"), 2), (-1, 1, 1, float("inf"))])
    def test_grid_non_finite_rejected(self, bounds):
        with pytest.raises(ValueError):
            ScanGrid(*bounds, 4, 4)

    @pytest.mark.parametrize("args", [
        (float("nan"), 20e3, 5e-5), (float("inf"), 20e3, 5e-5), (30e3, float("nan"), 5e-5),
        (30e3, 20e3, float("nan")), (30e3, 20e3, float("inf"))])
    def test_pulse_non_finite_rejected(self, args):
        with pytest.raises(ValueError):
            LfmPulse(*args)

    def test_pulse_validation(self):
        with pytest.raises(ValueError):
            LfmPulse(center_frequency=10e3, bandwidth=25e3, duration=1e-3)
        with pytest.raises(ValueError):
            LfmPulse(center_frequency=10e3, bandwidth=5e3, duration=0.0)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf"), 0.0, -10.0])
    def test_travel_times_speed_must_be_finite_and_positive(self, c):
        with pytest.raises(ValueError, match="speed"):
            travel_times(0.0, 30.0, c, ArrayGeometry.uniform(4, 1.0))

    def test_travel_times_batched_matches_scalar(self):
        geom = ArrayGeometry.uniform(4, 1.0)
        px = np.array([0.0, 1.0, -2.0])
        py = np.array([10.0, 20.0, 30.0])
        batch = travel_times(px, py, 1500.0, geom)
        assert batch.shape == (3, 4)
        for i in range(3):
            for n in range(4):
                single = travel_times(float(px[i]), float(py[i]), 1500.0, geom)[n]
                assert batch[i, n] == pytest.approx(single, rel=1e-15)


class TestMapRows:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_results_in_row_order(self, threads):
        assert map_rows(lambda i: i * i, 37, threads) == [i * i for i in range(37)]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_rows(self, threads):
        assert map_rows(lambda i: i, 0, threads) == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_row_exception_reaches_the_caller(self, threads):
        def fn(i):
            if i == 5:
                raise ValueError("row 5 failed")
            return i

        with pytest.raises(ValueError, match="row 5 failed"):
            map_rows(fn, 9, threads)
