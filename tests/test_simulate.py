import re
import sys
import warnings

import numpy as np
import pytest

from sosbeam.core import ArrayGeometry, LfmPulse
from sosbeam.interp import TAPS
from sosbeam.simulate import (BOTTOM, DIRECT, SURFACE, Environment, SimConfig,
                              SimulationWarning, Target, depth_averaged_sos,
                              enumerate_paths, lfm_pulse_samples, synthesize_rx)

FLAT_ENV = Environment(bottom_depth=100.0, sos_profile=((0.0, 1500.0),))


class TestDepthAveragedSos:
    def test_constant_profile(self):
        for z1, z2 in [(0, 100), (3, 7), (50, 50)]:
            assert depth_averaged_sos(FLAT_ENV, z1, z2) == 1500.0

    def test_degenerate_interval_hits_profile(self):
        env = Environment(bottom_depth=100, sos_profile=((0, 1500), (100, 1520)))
        assert depth_averaged_sos(env, 25.0, 25.0) == pytest.approx(1505.0)

    def test_symmetric_in_arguments(self):
        env = Environment(bottom_depth=100, sos_profile=((0, 1490), (40, 1510), (100, 1505)))
        assert depth_averaged_sos(env, 10, 90) == depth_averaged_sos(env, 90, 10)

    def test_two_layer_against_trapezoid_oracle(self):
        env = Environment(bottom_depth=100,
                          sos_profile=((0, 1500), (50, 1500), (100, 1520)))
        z = np.linspace(0.0, 100.0, 10_001)
        c = np.interp(z, [0, 50, 100], [1500, 1500, 1520])
        oracle = np.trapezoid(c, z) / 100.0
        assert depth_averaged_sos(env, 0, 100) == pytest.approx(oracle, rel=1e-9)

    def test_random_intervals_against_oracle(self):
        env = Environment(bottom_depth=80,
                          sos_profile=((0, 1522), (20, 1518), (55, 1520), (80, 1515)))
        depths = [0, 20, 55, 80]
        speeds = [1522, 1518, 1520, 1515]
        rng = np.random.default_rng(3)
        for _ in range(20):
            z1, z2 = sorted(rng.uniform(0, 80, size=2))
            if z2 - z1 < 1e-6:
                continue
            z = np.linspace(z1, z2, 10_001)
            oracle = np.trapezoid(np.interp(z, depths, speeds), z) / (z2 - z1)
            assert depth_averaged_sos(env, z1, z2) == pytest.approx(oracle, rel=1e-8)

    def test_outside_column_rejected(self):
        with pytest.raises(ValueError):
            depth_averaged_sos(FLAT_ENV, -1.0, 50.0)
        with pytest.raises(ValueError):
            depth_averaged_sos(FLAT_ENV, 0.0, 101.0)


class TestEnumeratePaths:
    def test_hand_geometry(self):
        # collocated tx/rx at depth 70, target straight below at 90, bottom 100
        target = Target(x=0.0, y=0.0, depth=90.0)
        arrivals = enumerate_paths((0, 0, 70.0), target, (0, 0, 70.0), FLAT_ENV)
        assert len(arrivals) == 9
        by_kind = {(a.tx_kind, a.rx_kind): a for a in arrivals}
        c = 1500.0
        # direct one-way length 20 m
        assert by_kind[(DIRECT, DIRECT)].delay == pytest.approx(40.0 / c)
        # bottom image at depth 110 -> one-way length 40 m
        assert by_kind[(DIRECT, BOTTOM)].delay == pytest.approx((20.0 + 40.0) / c)
        # surface image at depth -90 -> one-way length 160 m
        assert by_kind[(DIRECT, SURFACE)].delay == pytest.approx((20.0 + 160.0) / c)

    def test_amplitudes_spreading_and_coefficients(self):
        target = Target(x=0.0, y=0.0, depth=90.0, reflectivity=2.0)
        arrivals = enumerate_paths((0, 0, 70.0), target, (0, 0, 70.0), FLAT_ENV)
        by_kind = {(a.tx_kind, a.rx_kind): a for a in arrivals}
        assert by_kind[(DIRECT, DIRECT)].amplitude == pytest.approx(2.0 / (20 * 20))
        assert by_kind[(DIRECT, BOTTOM)].amplitude == pytest.approx(
            2.0 * 0.5 / (20 * 40))
        assert by_kind[(SURFACE, DIRECT)].amplitude == pytest.approx(
            2.0 * (-1.0) / (160 * 20))

    def test_reciprocity_of_delay_set(self):
        env = Environment(bottom_depth=100,
                          sos_profile=((0, 1522), (50, 1520), (100, 1515)))
        target = Target(x=1.5, y=28.0, depth=90.0)
        fwd = enumerate_paths((0.0, 0.0, 70.0), target, (0.4, 0.0, 71.0), env)
        rev = enumerate_paths((0.4, 0.0, 71.0), target, (0.0, 0.0, 70.0), env)
        np.testing.assert_allclose(sorted(a.delay for a in fwd),
                                   sorted(a.delay for a in rev), rtol=1e-14)

    def test_bounce_slower_than_direct(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            target = Target(x=float(rng.uniform(-5, 5)), y=float(rng.uniform(5, 50)),
                            depth=float(rng.uniform(5, 95)))
            rx = (float(rng.uniform(-1, 1)), 0.0, float(rng.uniform(5, 95)))
            arrivals = enumerate_paths((0, 0, 70.0), target, rx, FLAT_ENV)
            by_kind = {(a.tx_kind, a.rx_kind): a for a in arrivals}
            direct = by_kind[(DIRECT, DIRECT)].delay
            assert by_kind[(DIRECT, BOTTOM)].delay > direct
            assert by_kind[(BOTTOM, DIRECT)].delay > direct
            assert by_kind[(SURFACE, SURFACE)].delay > direct

    def test_degenerate_zero_length_rejected(self):
        target = Target(x=0.0, y=0.0, depth=70.0)
        with pytest.raises(ValueError):
            enumerate_paths((0, 0, 70.0), target, (0, 0, 70.0), FLAT_ENV)

    def test_point_outside_column_rejected(self):
        target = Target(x=0.0, y=10.0, depth=90.0)
        with pytest.raises(ValueError):
            enumerate_paths((0, 0, 120.0), target, (0, 0, 70.0), FLAT_ENV)


class TestLfmPulse:
    PULSE = LfmPulse(center_frequency=30e3, bandwidth=20e3, duration=50e-6)

    def test_sample_count(self):
        assert lfm_pulse_samples(self.PULSE, 500e3).size == round(50e-6 * 500e3)

    def test_unit_peak(self):
        w = lfm_pulse_samples(self.PULSE, 500e3)
        assert np.abs(w).max() == pytest.approx(1.0)

    def test_phase_matches_numerically_integrated_frequency(self):
        # oracle: phase = 2*pi * cumulative trapezoid of the linear frequency
        # sweep, exact for a linear integrand
        fs = 500e3
        n = lfm_pulse_samples(self.PULSE, fs).size
        t = np.arange(n) / fs
        f_inst = 20e3 + (20e3 / 50e-6) * t  # f_c - bw/2 + rate * t
        phase = np.zeros(n)
        phase[1:] = 2 * np.pi * np.cumsum(0.5 * (f_inst[1:] + f_inst[:-1]) / fs)
        np.testing.assert_allclose(lfm_pulse_samples(self.PULSE, fs), np.cos(phase),
                                   atol=1e-9)

    def test_mid_pulse_instantaneous_frequency_is_center(self):
        # the analytic-signal oracle needs many carrier cycles, so use a long
        # pulse; the Table-I pulse's phase law is pinned exactly above
        pulse = LfmPulse(center_frequency=30e3, bandwidth=20e3, duration=5e-3)
        fs = 1e6
        w = lfm_pulse_samples(pulse, fs)
        # FFT analytic signal: keep DC (and Nyquist), double the positive
        # frequencies, drop the negative ones
        one_sided = np.zeros(w.size)
        one_sided[0] = 1.0
        one_sided[1:(w.size + 1) // 2] = 2.0
        if w.size % 2 == 0:
            one_sided[w.size // 2] = 1.0
        phase = np.unwrap(np.angle(np.fft.ifft(np.fft.fft(w) * one_sided)))
        mid = w.size // 2
        half = w.size // 50
        sl = slice(mid - half, mid + half)
        t = np.arange(w.size)[sl] / fs
        slope = np.polyfit(t, phase[sl], 1)[0]
        assert slope / (2 * np.pi) == pytest.approx(30e3, rel=1e-3)

    def test_undersampling_rejected(self):
        with pytest.raises(ValueError):
            lfm_pulse_samples(self.PULSE, 79e3)


class TestSynthesizeRx:
    GEOM = ArrayGeometry.uniform(4, 0.6, array_depth=70.0)
    PULSE = LfmPulse(center_frequency=30e3, bandwidth=20e3, duration=50e-6)

    def test_noise_only_variance(self):
        cfg = SimConfig(sample_rate=500e3, record_duration=0.3, rng_seed=42,
                        noise_power_db=80.0, signal_power_db=190.0,
                        ref_level_db=80.0)  # noise amplitude 1.0
        cube = synthesize_rx([], self.GEOM, self.PULSE, FLAT_ENV, cfg)
        assert cube.samples.shape == (4, 150000)
        for row in cube.samples:
            assert row.var() == pytest.approx(1.0, rel=0.05)

    def test_single_target_direct_path_delay_via_correlation(self):
        env = Environment(bottom_depth=100.0, sos_profile=((0.0, 1500.0),),
                          surface_reflectivity=0.0, bottom_reflectivity=0.0)
        cfg = SimConfig(sample_rate=500e3, record_duration=0.1, rng_seed=1,
                        noise_power_db=-400.0, signal_power_db=0.0, ref_level_db=0.0)
        target = Target(x=0.0, y=30.0, depth=90.0)
        cube = synthesize_rx([target], self.GEOM, self.PULSE, env, cfg)
        ref = lfm_pulse_samples(self.PULSE, cfg.sample_rate)
        for n in range(4):
            r = np.hypot(np.hypot(target.x - self.GEOM.sensor_x[n], target.y),
                         90.0 - 70.0)
            r_tx = np.hypot(np.hypot(target.x - self.GEOM.source_x, target.y),
                            90.0 - 70.0)
            delay = (r + r_tx) / 1500.0
            xc = np.correlate(cube.samples[n], ref, mode="valid")
            lag = int(np.argmax(np.abs(xc)))
            assert abs(lag - delay * cfg.sample_rate) <= 1.0

    def test_linear_in_reflectivity(self):
        env = Environment(bottom_depth=100.0, sos_profile=((0.0, 1500.0),))
        cfg = SimConfig(sample_rate=500e3, record_duration=0.08, rng_seed=1,
                        noise_power_db=-400.0, signal_power_db=0.0, ref_level_db=0.0)
        t1 = Target(x=0.0, y=25.0, depth=90.0, reflectivity=1.0)
        t2 = Target(x=0.0, y=25.0, depth=90.0, reflectivity=2.0)
        c1 = synthesize_rx([t1], self.GEOM, self.PULSE, env, cfg)
        c2 = synthesize_rx([t2], self.GEOM, self.PULSE, env, cfg)
        noise = synthesize_rx([], self.GEOM, self.PULSE, env, cfg)
        np.testing.assert_allclose(c2.samples - noise.samples,
                                   2.0 * (c1.samples - noise.samples),
                                   rtol=0, atol=1e-10)

    def test_identical_seed_bit_identical(self):
        cfg = SimConfig(sample_rate=500e3, record_duration=0.05, rng_seed=9,
                        ref_level_db=70.0)
        target = Target(x=0.0, y=20.0, depth=90.0)
        a = synthesize_rx([target], self.GEOM, self.PULSE, FLAT_ENV, cfg)
        b = synthesize_rx([target], self.GEOM, self.PULSE, FLAT_ENV, cfg)
        assert np.array_equal(a.samples, b.samples)

    def test_cube_dimensions(self):
        cfg = SimConfig(sample_rate=500e3, record_duration=0.0503, rng_seed=0,
                        ref_level_db=80.0)
        cube = synthesize_rx([], self.GEOM, self.PULSE, FLAT_ENV, cfg)
        assert cube.samples.shape == (4, round(0.0503 * 500e3))

    @pytest.mark.parametrize("threads", [2, 4])
    def test_threads_bit_identical_and_drops_counted_once(self, threads):
        # round trips with a surface bounce (0.12-0.22 s) and the second
        # target's double bottom bounce fall past the 0.07 s record; the
        # other arrivals land inside it
        cfg = SimConfig(sample_rate=500e3, record_duration=0.07, rng_seed=3,
                        ref_level_db=70.0)
        targets = [Target(x=0.0, y=30.0, depth=90.0), Target(x=0.2, y=20.0, depth=80.0)]
        wave_size = lfm_pulse_samples(self.PULSE, cfg.sample_rate).size
        expected, total = 0, 0
        tx = (self.GEOM.source_x, 0.0, self.GEOM.source_depth)
        for x_n in self.GEOM.sensor_x:
            for target in targets:
                for a in enumerate_paths(tx, target, (x_n, 0.0, 70.0), FLAT_ENV):
                    start = int(np.floor(a.delay * cfg.sample_rate)) - (TAPS // 2 - 1)
                    stop = start + wave_size + TAPS - 1
                    expected += start < 0 or stop > cfg.n_samples
                    total += 1
        assert 0 < expected < total

        def run(n_threads):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cube = synthesize_rx(targets, self.GEOM, self.PULSE, FLAT_ENV, cfg,
                                     threads=n_threads)
            sim = [w for w in caught if issubclass(w.category, SimulationWarning)]
            assert len(sim) == 1
            return cube, int(re.match(r"(\d+) arrivals", str(sim[0].message)).group(1))

        serial, dropped_serial = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: more chances to lose an update
        try:
            parallel, dropped_parallel = run(threads)
        finally:
            sys.setswitchinterval(interval)
        assert dropped_serial == dropped_parallel == expected
        assert np.array_equal(serial.samples, parallel.samples)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_transmit_legs_computed_once_per_target(self, monkeypatch, threads):
        # one transmit leg per target, then one receive leg per target and sensor
        import sosbeam.simulate as simulate
        calls = []
        leg_paths = simulate._leg_paths

        def counted(a, b, env):
            calls.append((a, b))
            return leg_paths(a, b, env)

        monkeypatch.setattr(simulate, "_leg_paths", counted)
        cfg = SimConfig(sample_rate=500e3, record_duration=0.3, rng_seed=3)
        targets = [Target(x=0.0, y=30.0, depth=90.0), Target(x=0.2, y=20.0, depth=80.0),
                   Target(x=-0.3, y=25.0, depth=85.0)]
        synthesize_rx(targets, self.GEOM, self.PULSE, FLAT_ENV, cfg, threads=threads)
        assert len(calls) == len(targets) * (1 + self.GEOM.n_sensors)
        tx = (self.GEOM.source_x, 0.0, self.GEOM.source_depth)
        assert sum(a == tx for a, _ in calls) == len(targets)

    def test_late_arrival_dropped_with_warning(self):
        cfg = SimConfig(sample_rate=500e3, record_duration=0.01, rng_seed=0,
                        ref_level_db=80.0)  # 7.5 m record; paths at 30+ m
        target = Target(x=0.0, y=30.0, depth=90.0)
        with pytest.warns(SimulationWarning):
            cube = synthesize_rx([target], self.GEOM, self.PULSE, FLAT_ENV, cfg)
        assert cube.samples.shape == (4, 5000)


class TestSimConfigValidation:
    @pytest.mark.parametrize("rate, duration", [
        (float("nan"), 0.3), (float("inf"), 0.3), (0.0, 0.3),
        (500e3, float("nan")), (500e3, float("inf")), (500e3, -0.3)])
    def test_non_finite_or_non_positive_rejected(self, rate, duration):
        with pytest.raises(ValueError):
            SimConfig(rate, duration)


class TestEnvironmentValidation:
    def test_profile_depths_must_increase(self):
        with pytest.raises(ValueError):
            Environment(bottom_depth=100, sos_profile=((0, 1500), (0, 1510)))

    def test_positive_speeds(self):
        with pytest.raises(ValueError):
            Environment(bottom_depth=100, sos_profile=((0, -5.0),))

    @pytest.mark.parametrize("kwargs", [
        dict(bottom_depth=float("nan")), dict(bottom_depth=float("inf")),
        dict(sos_profile=((0.0, float("nan")),)), dict(sos_profile=((0.0, float("inf")),)),
        dict(sos_profile=((float("nan"), 1500.0),)),
        dict(sos_profile=((0.0, 1500.0), (float("inf"), 1510.0))),
        dict(surface_reflectivity=float("nan")), dict(bottom_reflectivity=float("-inf"))])
    def test_non_finite_rejected(self, kwargs):
        base = dict(bottom_depth=100.0, sos_profile=((0.0, 1500.0),))
        with pytest.raises(ValueError):
            Environment(**{**base, **kwargs})

    @pytest.mark.parametrize("kwargs", [
        dict(x=float("nan")), dict(y=float("nan")), dict(y=float("inf")),
        dict(depth=float("-inf")), dict(reflectivity=float("nan"))])
    def test_target_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Target(**{**dict(x=0.0, y=30.0, depth=90.0), **kwargs})

    def test_target_slant_placement(self):
        t = Target.at_slant_range(0.0, 36.0, 90.0, 70.0)
        assert np.hypot(t.y, 90.0 - 70.0) == pytest.approx(36.0)
        with pytest.raises(ValueError):
            Target.at_slant_range(0.0, 10.0, 90.0, 70.0)
