"""Receive signal chain: quantization, time-varying gain, quadrature
demodulation with decimation, and matched-filter range compression.

Every stage is a pure per-sensor transformation, so the chain runs as one
pass per sensor row: `receive_chain` takes each row through quantize → TVG
→ demodulate → matched filter before the next, optionally spreading the
rows over a thread pool. The per-call set-up (quantizer full scale, gain
ramp, filter spectra, replica) is built once per call, and each stage's
math lives in one row-level helper (`_Quantizer`, `_tvg_gain`,
`_Demodulator`, `_MatchedFilter`) that the single-stage functions share, so
the fused chain equals their composition bit-for-bit at any thread count.

The demodulator uses the identity that mixing to baseband and then low-pass
filtering equals band-pass filtering at the carrier and then mixing: the
real record goes through one real FFT, is multiplied by the band-pass
spectrum, and the decimation is done by folding that spectrum before a
short inverse FFT, so only the kept samples are ever formed. The matched
filter is a full linear convolution along each sensor row, done by FFT
(`_Convolver`: one numpy forward/inverse pair at a 5-smooth length).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import LfmPulse, TWO_PI
from .cube import BasebandCube, RawDataCube
from .simulate import lfm_pulse_samples

LOWPASS_TAPS = 64

TVG_TWO_WAY = "two_way"
TVG_PI_RANGE = "pi_range"
TVG_VARIANTS = (TVG_TWO_WAY, TVG_PI_RANGE)


class _Quantizer:
    """quantize's mid-tread quantizer, its full scale taken from all of x."""

    def __init__(self, x: np.ndarray, bits: int):
        if not 2 <= bits <= 24:
            raise ValueError("bits must be in [2, 24]")
        full_scale = float(max(x.max(), -x.min()))
        self.step = 2.0 * full_scale / (2 ** bits)
        self.top = 2 ** (bits - 1) - 1

    def __call__(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Quantize x into out (any shape); an all-zero input is copied."""
        if self.step == 0.0:
            np.copyto(out, x)
            return out
        np.divide(x, self.step, out=out)
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
    input cube is not written. An all-zero cube is returned unchanged.
    """
    x = cube.samples
    out = _Quantizer(x, bits)(x, np.empty_like(x))
    return RawDataCube(samples=out, sample_rate=cube.sample_rate)


def _tvg_gain(n: int, fs: float, c: float, variant: str, t_min: float) -> np.ndarray:
    """tvg's linear gain r(t) for samples 0 .. n-1 at rate fs."""
    if not 0 < c < np.inf:
        raise ValueError("propagation speed must be finite and > 0")
    if variant not in TVG_VARIANTS:
        raise ValueError(f"unknown TVG variant {variant!r}")
    t = np.arange(n) / fs
    t_floor = max(t_min, 1.0 / fs)
    t = np.maximum(t, t_floor)
    return 0.5 * c * t if variant == TVG_TWO_WAY else np.pi * t * c


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


class _Convolver:
    """Full linear convolution of n-sample rows with a 1-D kernel.

    Row by row this is np.convolve(row, kernel) to rounding, n + k - 1
    complex columns, done with one zero-padded FFT pair; the kernel's
    spectrum is computed once.
    """

    def __init__(self, kernel: np.ndarray, n: int):
        self.n_out = n + kernel.size - 1
        self.n_fft = _fft_length(self.n_out)
        self.kernel_spectrum = np.fft.fft(kernel, self.n_fft)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        spectrum = np.fft.fft(x, self.n_fft, axis=-1)
        spectrum *= self.kernel_spectrum
        return np.fft.ifft(spectrum, axis=-1, out=spectrum)[..., :self.n_out]


def _lowpass_taps(fs: float, carrier: float, decim: int) -> np.ndarray:
    """Hamming-windowed sinc low-pass for the demodulator.

    Cutoff is the anti-alias bound fs/(2*decim), tightened to the carrier
    when that is lower so the 2*carrier mixing image always lands in the
    stop band.
    """
    cutoff = min(fs / (2.0 * decim), carrier)
    n = np.arange(LOWPASS_TAPS)
    center = (LOWPASS_TAPS - 1) / 2.0
    h = np.sinc(2.0 * cutoff / fs * (n - center)) * np.hamming(LOWPASS_TAPS)
    return h / h.sum()


class _Demodulator:
    """demodulate for real n-sample rows; calling it demodulates one row.

    The result is y[n] = e^{-jw0 n} (x * g)[n] at n = shift + m*decim, with
    g[k] = 2 h[k] e^{jw0 k} the low-pass h moved up to the carrier: the same
    numbers as mixing with 2 e^{-jw0 n}, filtering with h and keeping every
    decim-th sample. The filter's 31.5-sample group delay is compensated by a
    32-sample shift, applied as a circular rotation of g; the residual half
    raw sample is reported through the time origin.

    x * g is a circular convolution of length N = decim * M (M 5-smooth and
    long enough that nothing wraps). Its every decim-th sample is the length-M
    inverse FFT of the sum of the decim length-M chunks of X G, divided by
    decim, so the full-rate output is never formed. Mixing phases are reduced
    modulo fs before scaling, which is exact for integer-Hz carriers. The
    spectrum of g and the output rotation e^{-jw0 n}/decim are set up once.
    """

    def __init__(self, n: int, fs: float, carrier: float, decim: int):
        if decim < 1:
            raise ValueError("decimation must be >= 1")
        if not 0 < carrier < fs / 2:
            raise ValueError("carrier must lie in (0, sample_rate/2)")
        if n < LOWPASS_TAPS:
            raise ValueError(f"record shorter than the {LOWPASS_TAPS}-tap low-pass filter")
        shift = LOWPASS_TAPS // 2
        self.decim = decim
        self.m_len = _fft_length(-(-(n + LOWPASS_TAPS) // decim))
        n_fft = decim * self.m_len

        def phase(k):
            return TWO_PI / fs * np.fmod(carrier * k, fs)

        k = np.arange(LOWPASS_TAPS)
        g = np.zeros(n_fft, dtype=complex)
        g[k - shift] = 2.0 * _lowpass_taps(fs, carrier, decim) * np.exp(1j * phase(k))
        self.g_spectrum = np.fft.fft(g)
        self.n_keep = -(-n // decim)
        self.rotation = np.exp(-1j * phase(shift + decim * np.arange(self.n_keep))) / decim
        self.time_origin = (shift - (LOWPASS_TAPS - 1) / 2.0) / fs

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # the full spectrum of the real row: rfft, then its Hermitian mirror
        n_fft = self.g_spectrum.size
        half = n_fft // 2 + 1
        spectrum = np.empty(n_fft, dtype=complex)
        np.fft.rfft(x, n_fft, out=spectrum[:half])
        np.conjugate(spectrum[n_fft - half:0:-1], out=spectrum[half:])
        spectrum *= self.g_spectrum
        folded = spectrum.reshape(self.decim, self.m_len).sum(axis=0)
        out = np.fft.ifft(folded, out=folded)[:self.n_keep]
        out *= self.rotation
        return out


def demodulate(cube: RawDataCube, carrier: float, decim: int) -> BasebandCube:
    """Quadrature demodulation to complex baseband with decimation.

    The result is mixing with 2*exp(-j*2*pi*carrier*t), low-pass filtering
    (linear-phase FIR, group delay compensated) and keeping every decim-th
    sample, computed in band-pass form (see _Demodulator). A unit carrier
    tone maps to baseband magnitude 1 in steady state.
    """
    demod = _Demodulator(cube.n_samples, cube.sample_rate, carrier, decim)
    out = np.empty((cube.n_sensors, demod.n_keep), dtype=complex)
    for x, y in zip(cube.samples, out):
        y[:] = demod(x)
    return BasebandCube(samples=out, sample_rate=cube.sample_rate / decim, carrier=carrier,
                        decimation=decim, time_origin=demod.time_origin)


def baseband_replica(pulse: LfmPulse, fs: float, carrier: float,
                     decim: int) -> BasebandCube:
    """The transmit pulse pushed through the same demodulation as the data.

    The pulse is zero-padded so the filter transient is fully captured; the
    replica's sample 0 corresponds to the pulse leading edge at t = 0.
    """
    wave = lfm_pulse_samples(pulse, fs)
    padded = np.zeros(wave.size + 2 * LOWPASS_TAPS)
    padded[:wave.size] = wave
    demod = _Demodulator(padded.size, fs, carrier, decim)
    return BasebandCube(samples=demod(padded)[None, :], sample_rate=fs / decim,
                        carrier=carrier, decimation=decim, time_origin=demod.time_origin)


class _MatchedFilter:
    """matched_filter for n-sample baseband rows; calling it compresses one row.

    The replica is demodulated and decimated exactly like the data and its
    convolution kernel's spectrum is computed once. Output sample m is lag m
    of the correlation with the replica, so `time_shift` is subtracted from
    the input's time origin.
    """

    def __init__(self, pulse: LfmPulse, fs: float, carrier: float, decim: int, n: int):
        replica = baseband_replica(pulse, fs, carrier, decim)
        r = replica.samples[0]
        if r.size > n:
            raise ValueError("matched-filter replica is longer than the data record")
        self.convolve = _Convolver(np.conj(r[::-1]), n)
        self.lag = r.size - 1
        self.n = n
        self.time_shift = replica.time_origin

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.convolve(x)[self.lag:self.lag + self.n]


def matched_filter(cube: BasebandCube, pulse: LfmPulse) -> BasebandCube:
    """Range compression by correlation with the baseband pulse replica.

    The replica is demodulated and decimated exactly like the data. The
    output time axis is aligned so an echo whose leading edge arrives at
    delay tau peaks at sample round((tau - time_origin) * sample_rate).
    """
    mf = _MatchedFilter(pulse, cube.raw_sample_rate, cube.carrier, cube.decimation,
                        cube.n_samples)
    out = np.empty_like(cube.samples)
    for x, y in zip(cube.samples, out):
        y[:] = mf(x)
    return BasebandCube(samples=out, sample_rate=cube.sample_rate,
                        carrier=cube.carrier, decimation=cube.decimation,
                        time_origin=cube.time_origin - mf.time_shift)


def receive_chain(cube: RawDataCube, pulse: LfmPulse, bits: int, tvg_speed: float,
                  tvg_variant: str, decim: int, threads: int = 1) -> BasebandCube:
    """quantize → tvg → demodulate → matched_filter, one sensor row at a time.

    The TVG floor is one pulse duration and the carrier is the pulse's
    centre frequency. Each row is one work unit; with threads > 1 the rows
    are spread over a thread pool, which changes the scheduling only, so the
    result equals the four-stage composition bit-for-bit at any thread
    count. The input cube is not written.
    """
    x = cube.samples
    fs = cube.sample_rate
    carrier = pulse.center_frequency
    quantizer = _Quantizer(x, bits)
    gain = _tvg_gain(cube.n_samples, fs, tvg_speed, tvg_variant, pulse.duration)
    demod = _Demodulator(cube.n_samples, fs, carrier, decim)
    mf = _MatchedFilter(pulse, fs, carrier, decim, demod.n_keep)
    out = np.empty((cube.n_sensors, demod.n_keep), dtype=complex)

    def run_row(i: int) -> None:
        row = quantizer(x[i], np.empty(cube.n_samples))
        row *= gain
        out[i] = mf(demod(row))

    if threads <= 1:
        for i in range(cube.n_sensors):
            run_row(i)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_row, range(cube.n_sensors)))
    return BasebandCube(samples=out, sample_rate=fs / decim, carrier=carrier,
                        decimation=decim, time_origin=demod.time_origin - mf.time_shift)
