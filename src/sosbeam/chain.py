"""Receive signal chain: quantization, time-varying gain, quadrature
demodulation with decimation, and matched-filter range compression.

Every stage is a pure per-sensor transformation; the whole chain is
deterministic for a given cube and settings. The demodulator uses the
identity that mixing to baseband and then low-pass filtering equals
band-pass filtering at the carrier and then mixing: the real record goes
through one real FFT, is multiplied by the band-pass spectrum, and the
decimation is done by folding that spectrum before a short inverse FFT, so
only the kept samples are ever formed. The matched filter is a full linear
convolution along each sensor row, done by FFT (`_convolve_rows`: one numpy
forward/inverse pair at a 5-smooth length).
"""

from __future__ import annotations

import numpy as np

from .core import LfmPulse, TWO_PI
from .cube import BasebandCube, RawDataCube
from .simulate import lfm_pulse_samples

LOWPASS_TAPS = 64

TVG_TWO_WAY = "two_way"
TVG_PI_RANGE = "pi_range"
TVG_VARIANTS = (TVG_TWO_WAY, TVG_PI_RANGE)


def quantize(cube: RawDataCube, bits: int) -> RawDataCube:
    """Uniform mid-tread quantization to 2**bits levels, full scale = max |sample|.

    Codes follow the two's-complement ADC convention (-2**(bits-1) ..
    2**(bits-1) - 1), so zero maps to zero and the quantization error is at
    most half an LSB except at the saturating positive rail, where it reaches
    one LSB. Output is rescaled back to the input's units in a new array; the
    input cube is not written. An all-zero cube is returned unchanged.
    """
    if not 2 <= bits <= 24:
        raise ValueError("bits must be in [2, 24]")
    x = cube.samples
    full_scale = float(max(x.max(), -x.min()))
    if full_scale == 0.0:
        return RawDataCube(samples=x.copy(), sample_rate=cube.sample_rate)
    step = 2.0 * full_scale / (2 ** bits)
    top = 2 ** (bits - 1) - 1
    out = np.divide(x, step)
    np.round(out, out=out)
    np.clip(out, -(top + 1), top, out=out)
    out *= step
    return RawDataCube(samples=out, sample_rate=cube.sample_rate)


def tvg(cube: RawDataCube, c: float, variant: str = TVG_TWO_WAY,
        t_min: float = 0.0) -> RawDataCube:
    """Time-varying gain compensating spherical spreading loss.

    Sample at time t is multiplied by 10**(G(t)/20) with G(t) = 20*log10(r):
    two_way uses r = c*t/2, pi_range uses r = pi*t*c. Times below t_min
    (typically one pulse duration) reuse the gain at t_min, avoiding the
    log singularity at t = 0.
    """
    if not 0 < c < np.inf:
        raise ValueError("propagation speed must be finite and > 0")
    if variant not in TVG_VARIANTS:
        raise ValueError(f"unknown TVG variant {variant!r}")
    t = np.arange(cube.n_samples) / cube.sample_rate
    t_floor = max(t_min, 1.0 / cube.sample_rate)
    t = np.maximum(t, t_floor)
    r = 0.5 * c * t if variant == TVG_TWO_WAY else np.pi * t * c
    return RawDataCube(samples=cube.samples * r, sample_rate=cube.sample_rate)


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


def _convolve_rows(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Full linear convolution of every row of x with a 1-D kernel.

    Row by row this is np.convolve(row, kernel) to rounding, n + k - 1
    complex columns, done with one zero-padded FFT pair.
    """
    n_out = x.shape[-1] + kernel.size - 1
    n_fft = _fft_length(n_out)
    spectrum = np.fft.fft(x, n_fft, axis=-1)
    spectrum *= np.fft.fft(kernel, n_fft)
    return np.fft.ifft(spectrum, axis=-1, out=spectrum)[..., :n_out]


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


def demodulate(cube: RawDataCube, carrier: float, decim: int) -> BasebandCube:
    """Quadrature demodulation to complex baseband with decimation.

    The result is mixing with 2*exp(-j*2*pi*carrier*t), low-pass filtering
    (linear-phase FIR, group delay compensated) and keeping every decim-th
    sample, computed in band-pass form (see _demodulate_samples). A unit
    carrier tone maps to baseband magnitude 1 in steady state.
    """
    if decim < 1:
        raise ValueError("decimation must be >= 1")
    fs = cube.sample_rate
    if not 0 < carrier < fs / 2:
        raise ValueError("carrier must lie in (0, sample_rate/2)")
    if cube.n_samples < LOWPASS_TAPS:
        raise ValueError(f"record shorter than the {LOWPASS_TAPS}-tap low-pass filter")
    samples, t0 = _demodulate_samples(cube.samples, fs, carrier, decim)
    return BasebandCube(samples=samples, sample_rate=fs / decim, carrier=carrier,
                        decimation=decim, time_origin=t0)


def _demodulate_samples(x: np.ndarray, fs: float, carrier: float, decim: int):
    """Demodulate real rows of x; returns (baseband rows, time origin in seconds).

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
    modulo fs before scaling, which is exact for integer-Hz carriers.
    """
    x = np.atleast_2d(x)
    rows, n = x.shape
    shift = LOWPASS_TAPS // 2
    m_len = _fft_length(-(-(n + LOWPASS_TAPS) // decim))
    n_fft = decim * m_len

    def phase(k):
        return TWO_PI / fs * np.fmod(carrier * k, fs)

    k = np.arange(LOWPASS_TAPS)
    g = np.zeros(n_fft, dtype=complex)
    g[k - shift] = 2.0 * _lowpass_taps(fs, carrier, decim) * np.exp(1j * phase(k))

    # the full spectrum of the real rows: rfft, then its Hermitian mirror
    half = n_fft // 2 + 1
    spectrum = np.empty((rows, n_fft), dtype=complex)
    np.fft.rfft(x, n_fft, axis=-1, out=spectrum[:, :half])
    np.conjugate(spectrum[:, n_fft - half:0:-1], out=spectrum[:, half:])
    spectrum *= np.fft.fft(g)

    folded = spectrum.reshape(rows, decim, m_len).sum(axis=1)
    n_keep = -(-n // decim)
    out = np.fft.ifft(folded, axis=-1, out=folded)[:, :n_keep]
    out *= np.exp(-1j * phase(shift + decim * np.arange(n_keep))) / decim
    t0 = (shift - (LOWPASS_TAPS - 1) / 2.0) / fs
    return out, t0


def baseband_replica(pulse: LfmPulse, fs: float, carrier: float,
                     decim: int) -> BasebandCube:
    """The transmit pulse pushed through the same demodulation as the data.

    The pulse is zero-padded so the filter transient is fully captured; the
    replica's sample 0 corresponds to the pulse leading edge at t = 0.
    """
    wave = lfm_pulse_samples(pulse, fs)
    padded = np.zeros(wave.size + 2 * LOWPASS_TAPS)
    padded[:wave.size] = wave
    samples, t0 = _demodulate_samples(padded, fs, carrier, decim)
    return BasebandCube(samples=samples, sample_rate=fs / decim, carrier=carrier,
                        decimation=decim, time_origin=t0)


def matched_filter(cube: BasebandCube, pulse: LfmPulse) -> BasebandCube:
    """Range compression by correlation with the baseband pulse replica.

    The replica is demodulated and decimated exactly like the data. The
    output time axis is aligned so an echo whose leading edge arrives at
    delay tau peaks at sample round((tau - time_origin) * sample_rate).
    """
    replica = baseband_replica(pulse, cube.raw_sample_rate, cube.carrier,
                               cube.decimation)
    r = replica.samples[0]
    if r.size > cube.n_samples:
        raise ValueError("matched-filter replica is longer than the data record")
    kernel = np.conj(r[::-1])
    full = _convolve_rows(cube.samples, kernel)
    out = full[:, r.size - 1:r.size - 1 + cube.n_samples]
    return BasebandCube(samples=out, sample_rate=cube.sample_rate,
                        carrier=cube.carrier, decimation=cube.decimation,
                        time_origin=cube.time_origin - replica.time_origin)
