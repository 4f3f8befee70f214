import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sosbeam
from sosbeam.chain import (LOWPASS_TAPS, TVG_VARIANTS, ChainConfig, _fft_length,
                           _lowpass_taps, _MatchedFilter, _record_window, demodulate,
                           matched_filter, quantize, receive_chain, replica_length, tvg)
from sosbeam.core import LfmPulse
from sosbeam.cube import BasebandCube, RawDataCube
from sosbeam.interp import TAPS
from sosbeam.simulate import lfm_pulse_samples

FS = 500e3
PULSE = LfmPulse(center_frequency=30e3, bandwidth=20e3, duration=50e-6)


def raw(samples):
    return RawDataCube(samples=np.atleast_2d(samples), sample_rate=FS)


def direct_demodulation(x, carrier, decim):
    """The demodulator by its definition: convolve every row with the
    band-pass taps g = 2 h exp(j w0 k), the low-pass taps h moved up to the
    carrier, drop the 32-sample group delay and keep every decim-th sample,
    with no mixing. The carrier phase is reduced modulo one carrier cycle
    before scaling, exact for integer-Hz carriers, so the reference holds
    rounding error only."""
    x = np.atleast_2d(x)
    n = x.shape[1]
    k = np.arange(LOWPASS_TAPS)
    g = 2.0 * _lowpass_taps(FS, carrier, decim) * np.exp(
        1j * 2 * np.pi / FS * np.fmod(carrier * k, FS))
    shift = LOWPASS_TAPS // 2
    return np.array([np.convolve(row, g)[shift:shift + n][::decim] for row in x])


def demodulated_replica(decim):
    """The matched filter's replica by its definition: the pulse followed by
    2 * LOWPASS_TAPS zeros, through demodulate like the data."""
    padded = np.r_[lfm_pulse_samples(PULSE, FS), np.zeros(2 * LOWPASS_TAPS)]
    return demodulate(raw(padded), 30e3, decim)


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

    @pytest.mark.parametrize("bits", [2.5, True])
    def test_non_integer_bits_rejected(self, bits):
        with pytest.raises(ValueError, match="bits must be an integer"):
            quantize(raw(np.linspace(-1, 1, 9)), bits)

    def test_numpy_integer_bits_accepted(self):
        x = raw(np.linspace(-1, 1, 9))
        np.testing.assert_array_equal(quantize(x, np.int64(4)).samples, quantize(x, 4).samples)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, value):
        x = np.random.default_rng(0).standard_normal((3, 400))
        x[1, 100] = value
        with pytest.raises(ValueError, match="finite"):
            quantize(raw(x), 16)
        with pytest.raises(ValueError, match="finite"):
            receive_chain(raw(x), PULSE, ChainConfig())

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

    @pytest.mark.parametrize("decim", [2.5, True])
    def test_non_integer_decimation_rejected(self, decim):
        with pytest.raises(ValueError, match="decimation must be an integer"):
            demodulate(raw(np.ones(1000)), 30e3, decim)
        with pytest.raises(ValueError, match="decimation must be an integer"):
            receive_chain(raw(np.ones((2, 2000))), PULSE, ChainConfig(decimation=decim))

    def test_numpy_integer_decimation_accepted(self):
        x = raw(np.random.default_rng(0).standard_normal(1000))
        assert_same_baseband(demodulate(x, 30e3, np.int64(4)), demodulate(x, 30e3, 4))

    def test_offset_tone_lands_at_offset(self):
        # the band is not mixed down: a tone keeps its frequency
        n = 60000
        t = np.arange(n) / FS
        tone = np.cos(2 * np.pi * 35e3 * t)  # carrier + bw/4
        bb = demodulate(raw(tone), 30e3, 4)
        block = bb.samples[0, 200:200 + 8192]
        spec = np.fft.fft(block)
        freqs = np.fft.fftfreq(block.size, 1.0 / bb.sample_rate)
        peak = freqs[np.argmax(np.abs(spec))]
        assert peak == pytest.approx(35000.0, abs=bb.sample_rate / block.size)

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
        rep = demodulated_replica(4)
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
        rep = demodulated_replica(4)
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
        rep = demodulated_replica(4)
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


def chain_settings(bits, variant, decim):
    """composed_chain's settings as the ChainConfig receive_chain takes."""
    return ChainConfig(quantization_bits=bits, tvg_variant=variant, tvg_speed=1519.0,
                       decimation=decim)


def chain_oracle(x, bits, variant, decim):
    """receive_chain by its definition in plain numpy: quantize with the step
    of the whole cube, apply the gain at r = c max(t, t_min) / 2 (times 2 pi
    for pi_range), demodulate directly and correlate by np.convolve with the
    conjugated, reversed replica, the zero-padded pulse demodulated the same
    way. None if the replica is longer than the baseband record."""
    step = 2.0 * np.abs(x).max() / 2 ** bits
    q = np.clip(np.round(x / step), -2 ** (bits - 1), 2 ** (bits - 1) - 1) * step
    r = 1519.0 * np.maximum(np.arange(x.shape[1]) / FS, PULSE.duration) / 2
    bb = direct_demodulation(q * (r if variant == "two_way" else 2 * np.pi * r),
                             PULSE.center_frequency, decim)
    wave = lfm_pulse_samples(PULSE, FS)
    padded = np.r_[wave, np.zeros(2 * LOWPASS_TAPS)]
    replica = direct_demodulation(padded, PULSE.center_frequency, decim)[0]
    n, lag = bb.shape[1], replica.size - 1
    if replica.size > n:
        return None
    return np.array([np.convolve(row, np.conj(replica[::-1]))[lag:lag + n] for row in bb])


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
        got = receive_chain(cube, PULSE, chain_settings(16, variant, decim), threads)
        assert_same_baseband(got, composed_chain(cube, 16, variant, decim))
        np.testing.assert_array_equal(cube.samples, x)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_all_zero_cube(self, threads):
        cube = raw(np.zeros((3, 2000)))
        got = receive_chain(cube, PULSE, chain_settings(12, "two_way", 4), threads)
        assert_same_baseband(got, composed_chain(cube, 12, "two_way", 4))
        assert not got.samples.any()

    @pytest.mark.parametrize("kwargs, word", [
        ({"quantization_bits": 1}, "bits"), ({"tvg_speed": float("nan")}, "speed"),
        ({"tvg_variant": "cubic"}, "variant"), ({"decimation": 0}, "decimation")])
    def test_bad_settings_rejected_as_by_the_stages(self, kwargs, word):
        with pytest.raises(ValueError, match=word):
            receive_chain(raw(np.ones((2, 2000))), PULSE, ChainConfig(**kwargs))

    @given(rows=st.integers(1, 5), n=st.integers(64, 3000), decim=st.integers(1, 6),
           bits=st.integers(2, 24), variant=st.sampled_from(TVG_VARIANTS),
           threads=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_property_equals_the_composed_stages(self, rows, n, decim, bits, variant,
                                                 threads, seed):
        # a record too short for the replica is rejected by both, with the same message
        cube = raw(np.random.default_rng(seed).standard_normal((rows, n)))
        settings = chain_settings(bits, variant, decim)
        try:
            want = composed_chain(cube, bits, variant, decim)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                receive_chain(cube, PULSE, settings, threads)
            return
        got = receive_chain(cube, PULSE, settings, threads)
        assert_same_baseband(got, want)

    @given(rows=st.integers(1, 5), n=st.integers(64, 3000), decim=st.integers(1, 6),
           bits=st.integers(2, 24), variant=st.sampled_from(TVG_VARIANTS),
           threads=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_property_equals_the_numpy_oracle(self, rows, n, decim, bits, variant,
                                             threads, seed):
        x = np.random.default_rng(seed).standard_normal((rows, n))
        settings = chain_settings(bits, variant, decim)
        want = chain_oracle(x, bits, variant, decim)
        if want is None:
            with pytest.raises(ValueError, match="replica"):
                receive_chain(raw(x), PULSE, settings, threads)
            return
        got = receive_chain(raw(x), PULSE, settings, threads).samples
        assert_close_relative(got, want, 1e-10)


def _five_smooth(m: int) -> bool:
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


class TestFftConvolution:
    @pytest.mark.parametrize("length", ["replica", "longer", 400])
    @pytest.mark.parametrize("decim", [1, 4, 13])
    def test_rows_equal_np_convolve(self, decim, length):
        # the matched filter by its definition: the correlation with the
        # replica r, lag by lag, on rows as long as r, 5 samples longer and 400 long
        r = demodulated_replica(decim).samples[0]
        n = {"replica": r.size, "longer": r.size + 5}.get(length, length)
        rng = np.random.default_rng(decim)
        x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        mf = _MatchedFilter(PULSE, FS, 30e3, decim, n)
        lag = r.size - 1
        for row in x:
            got = mf(row)
            want = np.convolve(row, np.conj(r[::-1]))[lag:lag + n]
            assert got.shape == (n,)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_fft_length_is_the_smallest_5_smooth_length(self):
        for n in range(1, 5001):
            m = n
            while not _five_smooth(m):
                m += 1
            assert _fft_length(n) == m, n


class TestNumpyOnly:
    def test_import_loads_no_scipy(self):
        # nor numpy.polynomial (the Gauss-Hermite rule), until a Bayes image needs it
        src = str(Path(sosbeam.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "\n".join([
            "import sys, sosbeam",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            "import numpy as np",
            "from sosbeam.beamform import BeamformerConfig, beamform_points",
            "from sosbeam.core import ArrayGeometry",
            "cube = sosbeam.cube.BasebandCube(np.ones((30, 64), complex), 125e3, 30e3)",
            "beamform_points(cube, 0.0, 0.1, BeamformerConfig('mvdr'),",
            "                ArrayGeometry.uniform(30, 1.0))",
            "print('numpy.polynomial' in sys.modules)"])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, timeout=60, check=True)
        assert out.stdout.split() == ["[]", "False"]


class TestFloat32Cube:
    """A float32 cube, as read_cube returns it, is computed on in float64: every
    stage gives the bits of its float64 widening."""

    @staticmethod
    def cubes(seed):
        x = np.random.default_rng(seed).standard_normal((3, 6000)).astype(np.float32)
        narrow, wide = raw(x), raw(x.astype(float))
        assert narrow.samples.dtype == np.float32 and wide.samples.dtype == np.float64
        return narrow, wide

    @pytest.mark.parametrize("bits", [8, 16, 24])
    def test_quantize(self, bits):
        narrow, wide = self.cubes(bits)
        got = quantize(narrow, bits).samples
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, quantize(wide, bits).samples)

    @pytest.mark.parametrize("variant", TVG_VARIANTS)
    def test_tvg(self, variant):
        narrow, wide = self.cubes(1)
        got = tvg(narrow, 1519.0, variant, t_min=PULSE.duration).samples
        assert got.dtype == np.float64
        np.testing.assert_array_equal(
            got, tvg(wide, 1519.0, variant, t_min=PULSE.duration).samples)

    @pytest.mark.parametrize("decim", [4, 10])
    def test_demodulate_and_matched_filter(self, decim):
        narrow, wide = self.cubes(decim)
        got = demodulate(narrow, PULSE.center_frequency, decim)
        want = demodulate(wide, PULSE.center_frequency, decim)
        assert_same_baseband(got, want)
        assert_same_baseband(matched_filter(got, PULSE), matched_filter(want, PULSE))

    @pytest.mark.parametrize("span", [None, (0.004, 0.006)])
    @pytest.mark.parametrize("decim", [4, 10])
    def test_receive_chain(self, decim, span):
        narrow, wide = self.cubes(decim)
        settings = chain_settings(16, "two_way", decim)
        got = receive_chain(narrow, PULSE, settings, threads=2, span=span)
        want = receive_chain(wide, PULSE, settings, span=span)
        assert_same_baseband(got, want)
        assert got.sample_offset == want.sample_offset
        assert (got.sample_offset > 0) == (span is not None)


class TestReceiveChainSpan:
    @staticmethod
    def read_indices(cube, span):
        """Whole-record baseband indices [lo, hi) that the interpolation stencil
        reads at a time in span, clipped to the cube's record."""
        pos = [(t - cube.time_origin) * cube.sample_rate for t in span]
        lo = max(math.floor(pos[0]) - (TAPS // 2 - 1), 0)
        hi = min(math.floor(pos[1]) + TAPS // 2 + 1, cube.n_samples)
        return lo, hi

    @given(n=st.integers(200, 3000), decim=st.integers(1, 6), bits=st.integers(2, 24),
           variant=st.sampled_from(TVG_VARIANTS), first=st.floats(-0.1, 1.2),
           width=st.floats(0.0, 0.6), seed=st.integers(0, 2 ** 32 - 1))
    def test_property_equals_the_whole_record_in_the_span(self, n, decim, bits, variant,
                                                          first, width, seed):
        cube = raw(np.random.default_rng(seed).standard_normal((2, n)))
        span = (first * n / FS, (first + width) * n / FS)
        settings = chain_settings(bits, variant, decim)
        whole = receive_chain(cube, PULSE, settings)
        part = receive_chain(cube, PULSE, settings, span=span)
        assert (part.sample_rate, part.carrier, part.decimation, part.time_origin) == (
            whole.sample_rate, whole.carrier, whole.decimation, whole.time_origin)
        k = part.sample_offset
        assert k + part.n_samples <= whole.n_samples
        lo, hi = self.read_indices(whole, span)
        if lo < hi:
            assert k <= lo and hi <= k + part.n_samples
            err = np.abs(part.samples[:, lo - k:hi - k] - whole.samples[:, lo:hi])
            assert np.all(err.max(axis=1) <= 1e-12 * np.abs(whole.samples).max(axis=1))

    @pytest.mark.parametrize("decim", [1, 3, 4])
    def test_runs_a_short_window_on_the_record_sample_grid(self, decim):
        cube = raw(np.random.default_rng(decim).standard_normal((3, 60000)))
        settings = chain_settings(16, "two_way", decim)
        part = receive_chain(cube, PULSE, settings, span=(0.05, 0.052))
        whole = receive_chain(cube, PULSE, settings)
        assert part.n_samples < whole.n_samples // 20
        assert 0 < part.sample_offset <= 0.05 * FS / decim
        lo, hi = self.read_indices(whole, (0.05, 0.052))
        k = part.sample_offset
        np.testing.assert_allclose(part.samples[:, lo - k:hi - k], whole.samples[:, lo:hi],
                                   rtol=0, atol=1e-12 * np.abs(whole.samples).max())

    def test_span_past_the_record_keeps_its_last_replica(self):
        cube = raw(np.random.default_rng(2).standard_normal((2, 5000)))
        whole = receive_chain(cube, PULSE, chain_settings(16, "two_way", 4))
        part = receive_chain(cube, PULSE, chain_settings(16, "two_way", 4), span=(1.0, 2.0))
        assert part.sample_offset + part.n_samples == whole.n_samples
        assert part.n_samples * 4 >= replica_length(PULSE, FS)

    @pytest.mark.parametrize("span", [(float("nan"), 0.01), (0.0, float("inf")),
                                      (0.02, 0.01)])
    def test_bad_span_rejected(self, span):
        with pytest.raises(ValueError, match="span"):
            receive_chain(raw(np.ones((2, 2000))), PULSE, ChainConfig(), span=span)

    @pytest.mark.parametrize("decim", [2.5, True])
    def test_non_integer_decimation_rejected(self, decim):
        with pytest.raises(ValueError, match="decimation must be an integer"):
            _record_window((0.001, 0.002), 2000, FS, decim, replica_length(PULSE, FS))

    def test_numpy_integer_decimation_accepted(self):
        cube = raw(np.random.default_rng(1).standard_normal((2, 4000)))
        part = receive_chain(cube, PULSE, ChainConfig(decimation=np.int64(4)), span=(0.001, 0.003))
        assert_same_baseband(part, receive_chain(cube, PULSE, ChainConfig(), span=(0.001, 0.003)))
