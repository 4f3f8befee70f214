"""Receive signal chain: quantization, time-varying gain, band-pass
filtering to the analytic receive band with decimation, and matched-filter
range compression.

Every stage is a pure per-sensor transformation, so the chain runs as one
pass per sensor row: `receive_chain(cube, pulse, ChainConfig, threads)`
takes each row through quantize → TVG → demodulate → matched filter before
the next, the rows spread over `core.map_rows`. The per-call set-up
(quantizer full scale, gain ramp, filter spectra, replica) is built once per
call, and each stage's math lives in one row-level helper (`_Quantizer`,
`_tvg_gain`, `_Demodulator`, `_MatchedFilter`) that the single-stage
functions share, so the fused chain equals their composition bit-for-bit at
any thread count. `tvg_range` is the one TVG range law; the Bayesian
beamformer's likelihood strength reads the chain's gain through it too.
Every stage computes in float64, so a float32 raw cube (read_cube's) gives
the bits of its float64 widening.

The demodulator keeps the receive band and drops the rest: the real record
goes through one real FFT, is multiplied by the spectrum of a band-pass
filter at the carrier, and the decimation is done by folding that spectrum
before a short inverse FFT, so only the kept samples are ever formed. The
band is not mixed down: only that filter and the beamformer's interpolation
taps (interp.farrow_taps) know the carrier. The matched filter correlates
each sensor row with the pulse replica, the pulse put through demodulate
like the data, by FFT (`_MatchedFilter`: one numpy forward/inverse pair at
a 5-smooth length).

Given a span (t_first, t_last) of round-trip times, `receive_chain` runs
only over the raw samples that can reach the baseband samples read in that
span, which `beamform.record_span` gives for an image. The span is widened
by TAPS + 1 baseband samples (the interpolation stencil) and LOWPASS_TAPS
raw samples on both sides, and by the matched-filter replica at the end
(the filter looks forward); the first raw sample is rounded down to a
multiple of the decimation, so the kept samples fall on the whole-record
chain's sampling grid, and the window is clipped to the record. What does
not depend on the window still comes from the whole record: the quantizer
full scale (the whole cube) and the TVG gain (absolute sample times). The
result keeps the whole-record chain's time origin and counts its first
sample from the record's first (BasebandCube.sample_offset), so it equals
that chain over the span to rounding, sample for sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LfmPulse, TWO_PI, is_integer, map_rows
from .cube import BasebandCube, RawDataCube
from .interp import TAPS
from .simulate import lfm_pulse_samples

LOWPASS_TAPS = 64

TVG_TWO_WAY = "two_way"
TVG_PI_RANGE = "pi_range"
TVG_VARIANTS = (TVG_TWO_WAY, TVG_PI_RANGE)


@dataclass
class ChainConfig:
    """Signal-chain settings applied between the raw cube and beamforming."""

    quantization_bits: int = 16
    tvg_variant: str = TVG_TWO_WAY
    tvg_speed: float = 1519.0
    decimation: int = 4


class _Quantizer:
    """quantize's mid-tread quantizer, its full scale taken from all of x."""

    def __init__(self, x: np.ndarray, bits: int):
        if not (is_integer(bits) and 2 <= bits <= 24):
            raise ValueError(f"bits must be an integer in [2, 24], got {bits!r}")
        full_scale = float(max(x.max(), -x.min()))
        if not np.isfinite(full_scale):
            raise ValueError("samples must be finite")
        self.step = 2.0 * full_scale / (2 ** bits)
        self.top = 2 ** (bits - 1) - 1

    def __call__(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Quantize x into out (any shape); an all-zero input is copied."""
        if self.step == 0.0:
            np.copyto(out, x)
            return out
        # in float64 for a float32 x too, which NumPy 2 would otherwise divide in float32
        np.divide(x, self.step, out=out, dtype=float)
        np.round(out, out=out)
        np.clip(out, -(self.top + 1), self.top, out=out)
        out *= self.step
        return out


def quantize(cube: RawDataCube, bits: int) -> RawDataCube:
    """Uniform mid-tread quantization to 2**bits levels, full scale = max |sample|.

    Codes follow the two's-complement ADC convention (-2**(bits-1) ..
    2**(bits-1) - 1), so zero maps to zero and the quantization error is at
    most half an LSB except at the saturating positive rail, where it reaches
    one LSB. Output is rescaled back to the input's units in a new array; the
    input cube is not written. An all-zero cube is returned unchanged; a
    non-finite sample raises ValueError.
    """
    x = cube.samples
    out = _Quantizer(x, bits)(x, np.empty(x.shape))
    return RawDataCube(samples=out, sample_rate=cube.sample_rate)


def tvg_range(r, variant: str):
    """The range in the TVG law G = 20*log10(range) at two-way range r = c*t/2:
    r itself for two_way, 2*pi*r for pi_range."""
    if variant not in TVG_VARIANTS:
        raise ValueError(f"unknown TVG variant {variant!r}")
    return r if variant == TVG_TWO_WAY else TWO_PI * r


def _tvg_gain(n: int, fs: float, c: float, variant: str, t_min: float,
              start: int = 0) -> np.ndarray:
    """tvg's linear gain for samples start .. start + n - 1 at rate fs."""
    if not 0 < c < np.inf:
        raise ValueError("propagation speed must be finite and > 0")
    t = np.arange(start, start + n) / fs
    t_floor = max(t_min, 1.0 / fs)
    t = np.maximum(t, t_floor)
    return tvg_range(0.5 * c * t, variant)


def tvg(cube: RawDataCube, c: float, variant: str = TVG_TWO_WAY,
        t_min: float = 0.0) -> RawDataCube:
    """Time-varying gain compensating spherical spreading loss.

    Sample at time t is multiplied by 10**(G(t)/20) with G(t) = 20*log10(r):
    two_way uses r = c*t/2, pi_range uses r = pi*t*c. Times below t_min
    (typically one pulse duration) reuse the gain at t_min, avoiding the
    log singularity at t = 0.
    """
    gain = _tvg_gain(cube.n_samples, cube.sample_rate, c, variant, t_min)
    return RawDataCube(samples=cube.samples * gain, sample_rate=cube.sample_rate)


def _fft_length(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= n, a length numpy's FFT handles fast."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two q with p35 * q >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _lowpass_taps(fs: float, carrier: float, decim: int) -> np.ndarray:
    """Hamming-windowed sinc low-pass for the demodulator.

    Cutoff is the anti-alias bound fs/(2*decim), tightened to the carrier
    when that is lower so the band's negative-frequency image, 2*carrier
    below it, always lands in the stop band.
    """
    cutoff = min(fs / (2.0 * decim), carrier)
    n = np.arange(LOWPASS_TAPS)
    center = (LOWPASS_TAPS - 1) / 2.0
    h = np.sinc(2.0 * cutoff / fs * (n - center)) * np.hamming(LOWPASS_TAPS)
    return h / h.sum()


class _Demodulator:
    """demodulate for real n-sample rows; calling it demodulates one row.

    The result is y[m] = (x * g)[shift + m*decim] / decim with g[k] =
    2 h[k] e^{jw0 k} the low-pass h moved up to the carrier: the analytic
    receive band, with the carrier phase of raw sample shift + m*decim. The
    filter's 31.5-sample group delay is compensated by shift = 32 samples,
    applied as a circular shift of g; the residual half raw sample is
    reported through the time origin. Nothing depends on where the row
    starts, so a row cut out of the record at a multiple of decim
    demodulates to the whole record's numbers away from its ends.

    x * g is a circular convolution of length N = decim * M (M 5-smooth and
    long enough that nothing wraps). Its every decim-th sample is the length-M
    inverse FFT of the sum of the decim length-M chunks of X G, divided by
    decim, so the full-rate output is never formed; the 1/decim is folded
    into g. The carrier phases of g are reduced modulo fs before scaling,
    which is exact for integer-Hz carriers. The spectrum of g is set up once.
    """

    def __init__(self, n: int, fs: float, carrier: float, decim: int):
        if not (is_integer(decim) and decim >= 1):
            raise ValueError(f"decimation must be an integer >= 1, got {decim!r}")
        if not 0 < carrier < fs / 2:
            raise ValueError("carrier must lie in (0, sample_rate/2)")
        if n < LOWPASS_TAPS:
            raise ValueError(f"record shorter than the {LOWPASS_TAPS}-tap low-pass filter")
        shift = LOWPASS_TAPS // 2
        self.decim = decim = int(decim)  # a numpy integer has no bit_length for _fft_length
        self.m_len = _fft_length(-(-(n + LOWPASS_TAPS) // decim))
        n_fft = decim * self.m_len
        k = np.arange(LOWPASS_TAPS)
        g = np.zeros(n_fft, dtype=complex)
        g[k - shift] = (2.0 / decim * _lowpass_taps(fs, carrier, decim)
                        * np.exp(1j * TWO_PI / fs * np.fmod(carrier * k, fs)))
        self.g_spectrum = np.fft.fft(g)
        self.n_keep = -(-n // decim)
        self.time_origin = (shift - (LOWPASS_TAPS - 1) / 2.0) / fs

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # the full spectrum of the real row, in float64 for a float32 row too:
        # rfft, then its Hermitian mirror
        n_fft = self.g_spectrum.size
        half = n_fft // 2 + 1
        spectrum = np.empty(n_fft, dtype=complex)
        np.fft.rfft(np.asarray(x, dtype=float), n_fft, out=spectrum[:half])
        np.conjugate(spectrum[n_fft - half:0:-1], out=spectrum[half:])
        spectrum *= self.g_spectrum
        folded = spectrum.reshape(self.decim, self.m_len).sum(axis=0)
        return np.fft.ifft(folded, out=folded)[:self.n_keep]


def demodulate(cube: RawDataCube, carrier: float, decim: int) -> BasebandCube:
    """Band-pass filtering to the analytic receive band, with decimation.

    The result is the record convolved with 2*h*exp(j*2*pi*carrier*t), h a
    linear-phase low-pass FIR (group delay compensated), keeping every
    decim-th sample (see _Demodulator). It is not mixed down: sample m
    carries the carrier phase of raw sample LOWPASS_TAPS // 2 + m*decim, a
    constant 31.5 raw samples after its time that the matched filter's
    replica shares. A unit carrier tone maps to magnitude 1 in steady state.
    """
    demod = _Demodulator(cube.n_samples, cube.sample_rate, carrier, decim)
    out = np.empty((cube.n_sensors, demod.n_keep), dtype=complex)
    for x, y in zip(cube.samples, out):
        y[:] = demod(x)
    return BasebandCube(samples=out, sample_rate=cube.sample_rate / decim, carrier=carrier,
                        decimation=decim, time_origin=demod.time_origin)


def replica_length(pulse: LfmPulse, fs: float) -> int:
    """Raw samples of the matched-filter replica before demodulation: the
    pulse and 2 * LOWPASS_TAPS zeros. A record must be at least this long."""
    return lfm_pulse_samples(pulse, fs).size + 2 * LOWPASS_TAPS


class _MatchedFilter:
    """matched_filter for n-sample baseband rows; calling it compresses one row.

    The replica r is the pulse, zero-padded to replica_length, put through
    demodulate like the data; its sample 0 is the pulse leading edge, and
    `time_shift` is its time origin. Output sample m is lag m of the
    correlation with r, np.convolve(x, conj(r[::-1]))[lag + m] to rounding,
    done with one zero-padded FFT pair at a 5-smooth length; the kernel's
    spectrum is computed once.
    """

    def __init__(self, pulse: LfmPulse, fs: float, carrier: float, decim: int, n: int):
        wave = lfm_pulse_samples(pulse, fs)
        padded = np.zeros((1, replica_length(pulse, fs)))
        padded[0, :wave.size] = wave
        replica = demodulate(RawDataCube(samples=padded, sample_rate=fs), carrier, decim)
        r = replica.samples[0]
        if r.size > n:
            raise ValueError("matched-filter replica is longer than the data record")
        self.n_fft = _fft_length(n + r.size - 1)
        self.kernel_spectrum = np.fft.fft(np.conj(r[::-1]), self.n_fft)
        self.lag = r.size - 1
        self.n = n
        self.time_shift = replica.time_origin

    def __call__(self, x: np.ndarray) -> np.ndarray:
        spectrum = np.fft.fft(x, self.n_fft)
        spectrum *= self.kernel_spectrum
        return np.fft.ifft(spectrum, out=spectrum)[self.lag:self.lag + self.n]


def matched_filter(cube: BasebandCube, pulse: LfmPulse) -> BasebandCube:
    """Range compression by correlation with the baseband pulse replica.

    The replica is the zero-padded pulse put through demodulate at the
    cube's carrier and decimation (see _MatchedFilter), so their common
    carrier phase offset cancels and output sample m carries the
    carrier phase of its own time. The output time axis is aligned so an
    echo whose leading edge arrives at delay tau peaks at sample
    round((tau - time_origin) * sample_rate).
    """
    mf = _MatchedFilter(pulse, cube.raw_sample_rate, cube.carrier, cube.decimation,
                        cube.n_samples)
    out = np.empty_like(cube.samples)
    for x, y in zip(cube.samples, out):
        y[:] = mf(x)
    return BasebandCube(samples=out, sample_rate=cube.sample_rate,
                        carrier=cube.carrier, decimation=cube.decimation,
                        time_origin=cube.time_origin - mf.time_shift,
                        sample_offset=cube.sample_offset)


def _record_window(span, n: int, fs: float, decim: int, replica: int) -> tuple:
    """The raw samples [start, stop) of an n-sample record that receive_chain
    runs over for span = (t_first, t_last): the span, widened as the module
    docstring says, start a multiple of decim, clipped to the record. A span
    near or past the record's end keeps the last `replica` samples, the
    shortest window the matched filter takes."""
    t_first, t_last = map(float, span)
    if not (math.isfinite(t_first) and math.isfinite(t_last) and t_first <= t_last):
        raise ValueError(f"span must be finite with t_first <= t_last, got {span!r}")
    if not (is_integer(decim) and decim >= 1):
        raise ValueError(f"decimation must be an integer >= 1, got {decim!r}")
    decim = int(decim)  # so start and stop are Python ints, as _fft_length needs
    margin = decim * (TAPS + 1) + LOWPASS_TAPS
    stop = min(n, math.ceil(t_last * fs) + margin + replica)
    start = min(math.floor(t_first * fs) - margin, stop - replica)
    return max(start - start % decim, 0), stop


def receive_chain(cube: RawDataCube, pulse: LfmPulse, settings: ChainConfig,
                  threads: int = 1, span=None) -> BasebandCube:
    """quantize → tvg → demodulate → matched_filter, one sensor row at a time.

    The bits, TVG law and decimation come from settings; the TVG floor is one
    pulse duration and the carrier is the pulse's centre frequency. Each row
    is one work unit of core.map_rows, so the thread count changes the
    scheduling only and the result equals the four-stage composition
    bit-for-bit at any thread count. The input cube is not written.

    span=None runs the whole record. A span (t_first, t_last) in seconds runs
    only the raw samples that the baseband read at those times depends on:
    the span widened by TAPS + 1 baseband and LOWPASS_TAPS raw samples on
    both sides and by the replica at the end, starting at a multiple of the
    decimation, clipped to the record. The quantizer full scale and the TVG
    gain still come from the whole record, so every baseband sample the
    interpolation stencil reads at a time in the span equals the
    whole-record one to rounding; sample_offset places the first.
    """
    x = cube.samples
    fs = cube.sample_rate
    carrier = pulse.center_frequency
    decim = settings.decimation
    quantizer = _Quantizer(x, settings.quantization_bits)
    start, stop = 0, cube.n_samples
    if span is not None:
        start, stop = _record_window(span, stop, fs, decim, replica_length(pulse, fs))
    n = stop - start
    gain = _tvg_gain(n, fs, settings.tvg_speed, settings.tvg_variant, pulse.duration, start)
    demod = _Demodulator(n, fs, carrier, decim)
    mf = _MatchedFilter(pulse, fs, carrier, decim, demod.n_keep)
    out = np.empty((cube.n_sensors, demod.n_keep), dtype=complex)

    def run_row(i: int) -> None:
        row = quantizer(x[i, start:stop], np.empty(n))
        row *= gain
        out[i] = mf(demod(row))

    map_rows(run_row, cube.n_sensors, threads)
    return BasebandCube(samples=out, sample_rate=fs / decim, carrier=carrier,
                        decimation=decim, time_origin=demod.time_origin - mf.time_shift,
                        sample_offset=start // decim)
