import numpy as np
import pytest

from sosbeam.core import (ArrayGeometry, FocalPoint, LfmPulse, ScanGrid,
                          hann_weights, round_trip_time, steering_vector,
                          travel_times)


@pytest.fixture
def collinear_geom():
    return ArrayGeometry(sensor_x=np.array([0.0]))


class TestRoundTripTime:
    def test_collinear_is_two_r_over_c(self, collinear_geom):
        p = FocalPoint(0.0, 36.0)
        assert round_trip_time(p, 1519.0, 0, collinear_geom) == pytest.approx(72.0 / 1519.0)

    def test_offset_sensor_pythagorean(self):
        geom = ArrayGeometry(sensor_x=np.array([0.5]))
        p = FocalPoint(0.0, 36.0)
        expected = (36.0 + np.hypot(36.0, 0.5)) / 1519.0
        assert round_trip_time(p, 1519.0, 0, geom) == pytest.approx(expected, rel=1e-14)

    def test_doubling_c_halves_time(self, collinear_geom):
        p = FocalPoint(0.0, 36.0)
        t1 = round_trip_time(p, 1519.0, 0, collinear_geom)
        t2 = round_trip_time(p, 2.0 * 1519.0, 0, collinear_geom)
        assert t2 == pytest.approx(0.5 * t1, rel=1e-14)

    def test_time_times_c_recovers_distance(self):
        geom = ArrayGeometry.uniform(5, 1.0)
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = FocalPoint(float(rng.uniform(-5, 5)), float(rng.uniform(1, 50)))
            c = float(rng.uniform(1400, 1600))
            n = int(rng.integers(0, 5))
            r = (np.hypot(p.x - geom.source_x, p.y)
                 + np.hypot(p.x - geom.sensor_x[n], p.y))
            assert round_trip_time(p, c, n, geom) * c == pytest.approx(r, rel=1e-12)

    def test_monotone_decreasing_in_c(self, collinear_geom):
        p = FocalPoint(1.0, 20.0)
        times = [round_trip_time(p, c, 0, collinear_geom) for c in np.linspace(1400, 1600, 20)]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_nonpositive_speed_rejected(self, collinear_geom):
        with pytest.raises(ValueError):
            round_trip_time(FocalPoint(0, 1), 0.0, 0, collinear_geom)
        with pytest.raises(ValueError):
            round_trip_time(FocalPoint(0, 1), -10.0, 0, collinear_geom)

    def test_bad_sensor_index_rejected(self, collinear_geom):
        with pytest.raises(ValueError):
            round_trip_time(FocalPoint(0, 1), 1500.0, 1, collinear_geom)


class TestSteeringVector:
    def test_equal_delays_give_equal_entries(self):
        # a single-sensor array trivially has equal delays; use symmetric pair
        geom = ArrayGeometry(sensor_x=np.array([-0.25, 0.25]))
        a = steering_vector(FocalPoint(0.0, 30.0), 1500.0, geom, carrier=2 * np.pi * 30e3)
        assert a[0] == pytest.approx(a[1], rel=1e-12)

    def test_single_sensor_unit_modulus(self):
        geom = ArrayGeometry(sensor_x=np.array([0.0]))
        a = steering_vector(FocalPoint(0.3, 12.0), 1500.0, geom, carrier=2 * np.pi * 30e3)
        assert a.shape == (1,)
        assert abs(a[0]) == pytest.approx(1.0, abs=1e-14)

    def test_all_entries_unit_modulus(self):
        geom = ArrayGeometry.uniform(30, 1.0)
        a = steering_vector(FocalPoint(2.0, 40.0), 1519.0, geom, carrier=2 * np.pi * 30e3)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-14)

    def test_broadside_conjugate_symmetric_up_to_common_phase(self):
        geom = ArrayGeometry.uniform(8, 1.0)
        a = steering_vector(FocalPoint(0.0, 25.0), 1500.0, geom, carrier=2 * np.pi * 30e3)
        # delays are symmetric about the array center, so the phase profile is
        # palindromic: a equals its own reversal
        np.testing.assert_allclose(a, a[::-1], rtol=1e-12)


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
        with pytest.raises(ValueError):
            FocalPoint(0.0, 0.0)
        with pytest.raises(ValueError):
            FocalPoint(0.0, -3.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ScanGrid(0, 1, 1, 2, 0, 4)
        with pytest.raises(ValueError):
            ScanGrid(1, 0, 1, 2, 4, 4)
        grid = ScanGrid(-1, 1, 10, 20, 5, 11)
        assert grid.x_values().shape == (5,)
        assert grid.y_values()[0] == 10 and grid.y_values()[-1] == 20

    @pytest.mark.parametrize("kwargs", [
        dict(sensor_x=[0.0, float("nan")]), dict(sensor_x=[0.0, float("inf")]),
        dict(array_depth=float("nan")), dict(source_x=float("nan")),
        dict(source_depth=float("inf"))])
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
                single = round_trip_time(FocalPoint(px[i], py[i]), 1500.0, n, geom)
                assert batch[i, n] == pytest.approx(single, rel=1e-15)
