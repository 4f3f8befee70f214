import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sosbeam
from sosbeam.chain import (LOWPASS_TAPS, TVG_VARIANTS, _Convolver, _fft_length,
                           _lowpass_taps, baseband_replica, demodulate, matched_filter,
                           quantize, receive_chain, tvg)
from sosbeam.core import LfmPulse
from sosbeam.cube import BasebandCube, RawDataCube
from sosbeam.simulate import lfm_pulse_samples

FS = 500e3
PULSE = LfmPulse(center_frequency=30e3, bandwidth=20e3, duration=50e-6)


def raw(samples):
    return RawDataCube(samples=np.atleast_2d(samples), sample_rate=FS)


def direct_demodulation(x, carrier, decim):
    """The demodulator by its definition: mix every raw sample with
    2 exp(-j w0 t), convolve with the low-pass taps, drop the 32-sample group
    delay and keep every decim-th sample. The mixing phase is reduced modulo
    one carrier cycle before scaling, exact for integer-Hz carriers, so the
    reference holds rounding error only."""
    x = np.atleast_2d(x)
    n = x.shape[1]
    phase = 2 * np.pi / FS * np.fmod(carrier * np.arange(n), FS)
    mixed = x * (2.0 * np.exp(-1j * phase))
    taps = _lowpass_taps(FS, carrier, decim)
    shift = LOWPASS_TAPS // 2
    return np.array([np.convolve(row, taps)[shift:shift + n][::decim] for row in mixed])


def assert_close_relative(got, want, rtol):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestQuantize:
    def test_zero_maps_to_zero(self):
        out = quantize(raw([0.0, 1.0, -0.3]), 8)
        assert out.samples[0, 0] == 0.0

    def test_all_zero_cube_unchanged(self):
        out = quantize(raw(np.zeros(16)), 12)
        np.testing.assert_array_equal(out.samples, np.zeros((1, 16)))

    def test_two_bit_ramp_has_four_levels(self):
        out = quantize(raw(np.linspace(-1, 1, 2001)), 2)
        assert np.unique(out.samples).size == 4

    def test_half_lsb_bound_off_the_positive_rail(self):
        # the top code saturates, so test the bound on inputs that do not
        # round up past it (the max-magnitude sample here is the negative rail)
        x = np.linspace(-1.0, 0.99, 4001)
        out = quantize(raw(x), 8)
        assert np.abs(out.samples[0] - x).max() <= 1.0 / 2 ** 8 + 1e-15

    def test_positive_rail_saturates_within_one_lsb(self):
        x = np.array([-1.0, 1.0])
        out = quantize(raw(x), 8)
        assert out.samples[0, 1] == pytest.approx(1.0 - 2.0 / 2 ** 8)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(512)
        once = quantize(raw(x), 10)
        twice = quantize(once, 10)
        np.testing.assert_array_equal(once.samples, twice.samples)

    def test_bits_range_checked(self):
        with pytest.raises(ValueError):
            quantize(raw([1.0]), 1)
        with pytest.raises(ValueError):
            quantize(raw([1.0]), 25)

    def test_input_unchanged(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 500))
        cube = raw(x.copy())
        out = quantize(cube, 8)
        np.testing.assert_array_equal(cube.samples, x)
        assert not np.shares_memory(out.samples, cube.samples)

    def test_16_bit_error_tiny(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2000)
        out = quantize(raw(x), 16)
        fs = np.abs(x).max()
        assert np.abs(out.samples[0] - x).max() <= 2 * fs / 2 ** 16


class TestTvg:
    def test_unit_range_zero_gain(self):
        c = 1500.0
        t1 = 2.0 / c  # r = c*t/2 = 1 m
        n = int(FS * 0.01)
        x = np.zeros(n)
        i = int(round(t1 * FS))
        x[i] = 1.0
        out = tvg(raw(x), c)
        assert out.samples[0, i] == pytest.approx(1.0, rel=1e-3)

    def test_ten_meter_range_is_20db(self):
        c = 1500.0
        i = int(round(20.0 / c * FS))  # t = 2r/c with r = 10
        n = i + 10
        x = np.zeros(n)
        x[i] = 1.0
        out = tvg(raw(x), c)
        assert out.samples[0, i] == pytest.approx(10.0, rel=1e-3)

    def test_equalizes_spreading_weighted_echo_pair(self):
        # two echoes carrying the 1/r loss the gain model compensates
        c = 1500.0
        n = int(FS * 0.08)
        x = np.zeros(n)
        i1, i2 = int(round(2 * 10 / c * FS)), int(round(2 * 20 / c * FS))
        r1, r2 = 0.5 * c * i1 / FS, 0.5 * c * i2 / FS
        x[i1] = 1.0 / r1
        x[i2] = 1.0 / r2
        out = tvg(raw(x), c, "two_way", t_min=50e-6)
        ratio_db = 20 * np.log10(out.samples[0, i2] / out.samples[0, i1])
        assert abs(ratio_db) < 0.1

    def test_pi_range_variant(self):
        c = 1500.0
        n = 2000
        x = np.ones(n)
        out = tvg(raw(x), c, "pi_range", t_min=1e-4)
        t = np.arange(n) / FS
        t = np.maximum(t, 1e-4)
        np.testing.assert_allclose(out.samples[0], np.pi * t * c, rtol=1e-12)

    def test_clamp_below_t_min(self):
        c = 1500.0
        x = np.ones(100)
        out = tvg(raw(x), c, "two_way", t_min=1e-4)
        expected = 0.5 * c * 1e-4
        np.testing.assert_allclose(out.samples[0, :50], expected, rtol=1e-12)

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            tvg(raw([1.0]), 1500.0, "three_way")

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf"), 0.0, -1500.0])
    def test_non_finite_or_non_positive_speed_rejected(self, c):
        with pytest.raises(ValueError, match="speed"):
            tvg(raw(np.ones(10)), c)


class TestDemodulate:
    def test_carrier_tone_magnitude_near_unity(self):
        n = 50000
        t = np.arange(n) / FS
        tone = np.cos(2 * np.pi * 30e3 * t)
        bb = demodulate(raw(tone), 30e3, 4)
        mag = np.abs(bb.samples[0, 100:-100])
        assert np.abs(mag - 1.0).max() < 0.01

    def test_zero_input_zero_output(self):
        bb = demodulate(raw(np.zeros(1000)), 30e3, 4)
        np.testing.assert_array_equal(bb.samples, np.zeros_like(bb.samples))

    def test_offset_tone_lands_at_offset(self):
        n = 60000
        t = np.arange(n) / FS
        tone = np.cos(2 * np.pi * 35e3 * t)  # carrier + bw/4
        bb = demodulate(raw(tone), 30e3, 4)
        block = bb.samples[0, 200:200 + 8192]
        spec = np.fft.fft(block)
        freqs = np.fft.fftfreq(block.size, 1.0 / bb.sample_rate)
        peak = freqs[np.argmax(np.abs(spec))]
        assert peak == pytest.approx(5000.0, abs=bb.sample_rate / block.size)

    def test_narrowband_energy_preserved(self):
        # in-band tone: baseband power matches the tone's envelope power
        n = 80000
        t = np.arange(n) / FS
        tone = 0.7 * np.cos(2 * np.pi * 33e3 * t)
        bb = demodulate(raw(tone), 30e3, 4)
        steady = bb.samples[0, 200:-200]
        assert np.mean(np.abs(steady) ** 2) == pytest.approx(0.49, rel=0.01)

    def test_metadata(self):
        bb = demodulate(raw(np.zeros(1000)), 30e3, 4)
        assert bb.sample_rate == FS / 4
        assert bb.decimation == 4
        assert bb.carrier == 30e3
        assert bb.time_origin == pytest.approx(0.5 / FS)

    def test_short_record_rejected(self):
        with pytest.raises(ValueError):
            demodulate(raw(np.zeros(32)), 30e3, 4)

    @pytest.mark.parametrize("n", [64, 65, 1001, 20011])
    @pytest.mark.parametrize("decim", [1, 2, 3, 4, 7])
    def test_equals_direct_definition(self, decim, n):
        x = np.random.default_rng(n + decim).standard_normal((2, n))
        bb = demodulate(raw(x), 30e3, decim)
        assert bb.n_samples == -(-n // decim)
        assert_close_relative(bb.samples, direct_demodulation(x, 30e3, decim), 1e-12)

    @given(n=st.integers(LOWPASS_TAPS, 3000), decim=st.integers(1, 9),
           carrier=st.integers(1, int(FS / 2) - 1), seed=st.integers(0, 2 ** 32 - 1))
    def test_property_equals_direct_definition(self, n, decim, carrier, seed):
        x = np.random.default_rng(seed).standard_normal((2, n))
        bb = demodulate(raw(x), float(carrier), decim)
        assert_close_relative(bb.samples, direct_demodulation(x, carrier, decim), 1e-12)


class TestMatchedFilter:
    def test_replica_autocorrelation_peak(self):
        rep = baseband_replica(PULSE, FS, 30e3, 4)
        data = BasebandCube(samples=rep.samples.copy(), sample_rate=rep.sample_rate,
                            carrier=30e3, decimation=4, time_origin=rep.time_origin)
        mf = matched_filter(data, PULSE)
        k = int(np.argmax(np.abs(mf.samples[0])))
        assert k == 0
        energy = float(np.sum(np.abs(rep.samples) ** 2))
        assert np.abs(mf.samples[0, 0]) == pytest.approx(energy, rel=1e-9)

    def test_delayed_echo_peaks_at_delay(self):
        tau = 0.02
        n = int(0.05 * FS)
        x = np.zeros(n)
        i0 = int(round(tau * FS))
        wave = lfm_pulse_samples(PULSE, FS)
        x[i0:i0 + wave.size] = wave
        mf = matched_filter(demodulate(raw(x), 30e3, 4), PULSE)
        k = int(np.argmax(np.abs(mf.samples[0])))
        expected = round((tau - mf.time_origin) * mf.sample_rate)
        assert abs(k - expected) <= 1

    def test_shift_property_on_baseband(self):
        rep = baseband_replica(PULSE, FS, 30e3, 4)
        r = rep.samples[0]
        shifted = np.zeros(400, dtype=complex)
        shifted[37:37 + r.size] = r
        data = BasebandCube(samples=shifted[None, :], sample_rate=rep.sample_rate,
                            carrier=30e3, decimation=4, time_origin=rep.time_origin)
        mf = matched_filter(data, PULSE)
        assert int(np.argmax(np.abs(mf.samples[0]))) == 37

    def test_mainlobe_width_matches_fft_oracle(self):
        # oracle: the compressed pulse is the replica's autocorrelation,
        # computable via FFT; widths must agree and sit near fs/bandwidth
        rep = baseband_replica(PULSE, FS, 30e3, 4)
        r = rep.samples[0]
        nfft = 1 << 12
        auto = np.fft.ifft(np.abs(np.fft.fft(r, nfft)) ** 2)
        auto = np.abs(np.fft.fftshift(auto))
        half = auto.max() / np.sqrt(2.0)
        oracle_width = int(np.count_nonzero(auto >= half))

        tau = 0.01
        n = int(0.03 * FS)
        x = np.zeros(n)
        wave = lfm_pulse_samples(PULSE, FS)
        i0 = int(round(tau * FS))
        x[i0:i0 + wave.size] = wave
        mf = matched_filter(demodulate(raw(x), 30e3, 4), PULSE)
        prof = np.abs(mf.samples[0])
        width = int(np.count_nonzero(prof >= prof.max() / np.sqrt(2.0)))
        assert abs(width - oracle_width) <= 1
        # loose sanity against the nominal compression width fs_bb/bandwidth
        nominal = (FS / 4) / PULSE.bandwidth
        assert 0.3 * nominal <= width <= 1.5 * nominal

    def test_peak_location_invariant_under_tvg(self):
        tau = 0.015
        n = int(0.04 * FS)
        x = np.zeros(n)
        wave = lfm_pulse_samples(PULSE, FS)
        i0 = int(round(tau * FS))
        x[i0:i0 + wave.size] = wave
        plain = matched_filter(demodulate(raw(x), 30e3, 4), PULSE)
        gained = matched_filter(
            demodulate(tvg(raw(x), 1500.0, t_min=PULSE.duration), 30e3, 4), PULSE)
        assert (int(np.argmax(np.abs(plain.samples[0])))
                == int(np.argmax(np.abs(gained.samples[0]))))

    def test_replica_longer_than_data_rejected(self):
        data = BasebandCube(samples=np.zeros((1, 4), dtype=complex),
                            sample_rate=FS / 4, carrier=30e3, decimation=4)
        with pytest.raises(ValueError):
            matched_filter(data, PULSE)


class TestChainDeterminism:
    def test_full_chain_bit_identical(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 30000))
        cube = RawDataCube(samples=x, sample_rate=FS)

        def run():
            c = quantize(cube, 16)
            c = tvg(c, 1519.0, "two_way", t_min=PULSE.duration)
            return matched_filter(demodulate(c, 30e3, 4), PULSE).samples

        np.testing.assert_array_equal(run(), run())


def composed_chain(cube, bits, variant, decim):
    """The four public stages one after another, as receive_chain documents."""
    c = tvg(quantize(cube, bits), 1519.0, variant, t_min=PULSE.duration)
    return matched_filter(demodulate(c, PULSE.center_frequency, decim), PULSE)


def assert_same_baseband(got, want):
    np.testing.assert_array_equal(got.samples, want.samples)
    assert (got.sample_rate, got.carrier, got.decimation, got.time_origin) == (
        want.sample_rate, want.carrier, want.decimation, want.time_origin)


class TestReceiveChain:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("decim", [1, 4])
    @pytest.mark.parametrize("variant", TVG_VARIANTS)
    def test_equals_the_composed_stages(self, variant, decim, threads):
        x = np.random.default_rng(decim).standard_normal((5, 4000))
        cube = raw(x.copy())
        got = receive_chain(cube, PULSE, 16, 1519.0, variant, decim, threads=threads)
        assert_same_baseband(got, composed_chain(cube, 16, variant, decim))
        np.testing.assert_array_equal(cube.samples, x)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_all_zero_cube(self, threads):
        cube = raw(np.zeros((3, 2000)))
        got = receive_chain(cube, PULSE, 12, 1519.0, "two_way", 4, threads=threads)
        assert_same_baseband(got, composed_chain(cube, 12, "two_way", 4))
        assert not got.samples.any()

    @pytest.mark.parametrize("kwargs, word", [
        ({"bits": 1}, "bits"), ({"tvg_speed": float("nan")}, "speed"),
        ({"tvg_variant": "cubic"}, "variant"), ({"decim": 0}, "decimation")])
    def test_bad_settings_rejected_as_by_the_stages(self, kwargs, word):
        settings = {"bits": 16, "tvg_speed": 1519.0, "tvg_variant": "two_way", "decim": 4,
                    **kwargs}
        with pytest.raises(ValueError, match=word):
            receive_chain(raw(np.ones((2, 2000))), PULSE, **settings)

    @given(rows=st.integers(1, 5), n=st.integers(64, 3000), decim=st.integers(1, 6),
           bits=st.integers(2, 24), variant=st.sampled_from(TVG_VARIANTS),
           threads=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_property_equals_the_composed_stages(self, rows, n, decim, bits, variant,
                                                 threads, seed):
        # a record too short for the replica is rejected by both, with the same message
        cube = raw(np.random.default_rng(seed).standard_normal((rows, n)))
        try:
            want = composed_chain(cube, bits, variant, decim)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                receive_chain(cube, PULSE, bits, 1519.0, variant, decim, threads=threads)
            return
        got = receive_chain(cube, PULSE, bits, 1519.0, variant, decim, threads=threads)
        assert_same_baseband(got, want)


def _five_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class TestFftConvolution:
    @pytest.mark.parametrize("complex_rows", [False, True])
    @pytest.mark.parametrize("k", [1, 7, 50, 123])
    def test_rows_equal_np_convolve(self, complex_rows, k):
        # kernels shorter than, as long as and longer than the 50-sample rows
        rng = np.random.default_rng(k)
        x = rng.standard_normal((3, 50))
        if complex_rows:
            x = x + 1j * rng.standard_normal((3, 50))
        kernel = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        for kern in (kernel.real, kernel):
            got = _Convolver(kern, x.shape[1])(x)
            assert got.shape == (3, 50 + k - 1)
            for row, out in zip(x, got):
                want = np.convolve(row, kern)
                assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()

    def test_fft_length_is_the_smallest_5_smooth_length(self):
        for n in range(1, 5001):
            m = n
            while not _five_smooth(m):
                m += 1
            assert _fft_length(n) == m, n


class TestNumpyOnly:
    def test_import_loads_no_scipy(self):
        src = str(Path(sosbeam.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys, sosbeam; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True)
        assert out.stdout.strip() == "[]"
