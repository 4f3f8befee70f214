"""Windowed-sinc fractional-delay interpolation.

Shared by the simulator (sub-sample echo placement, delay_kernel) and the
beamformers (phase-aligned delayed snapshots, sample_rows). 8 taps,
Hann-windowed, exact at integer offsets so integer delays reproduce samples
bit-for-bit.

sample_rows is a Farrow interpolator (Farrow, ISCAS 1988; Laakso et al.,
IEEE SP Magazine 13(1), 1996) with the carrier folded into its taps: it
filters rows that carry the carrier (the receive chain's baseband cube) with
the complex polynomial taps of farrow_taps, fitted to
delay_kernel(f)_k * exp(j*theta*(f - m_k)), and reads every position by
Horner in f, with no exp per position. Its memory is O(positions): it
filters the window of stencil starts its positions span on every row or,
when that holds more entries than the call has positions, only their own
stencils. Only a call with a position out of the record builds the masks
for such positions.

A position's bits do not depend on the other positions of its call if the
BLAS rounds each element of the complex filter product the same at any width.
Measured on an Intel Xeon with AVX-512 and numpy 2.4.6's OpenBLAS 0.3.31, its
zgemm does at widths that are a multiple of 4 and not at others (widths 2, 3,
5, 7 and 33 differ from the same columns of a wider product), so the product
is padded to a multiple of _PAD. The bitwise tests and the CI smoke checks on
the oldest and newest numpy check it.
"""

from __future__ import annotations

import functools

import numpy as np

TAPS = 8
_HALF = TAPS // 2
_OFFSETS = np.arange(-_HALF + 1, _HALF + 1)  # -3 .. +4


_SIGN = (-1.0) ** _OFFSETS
_COS_M = np.cos(np.pi * _OFFSETS / _HALF)
_SIN_M = np.sin(np.pi * _OFFSETS / _HALF)


def delay_kernel(frac) -> np.ndarray:
    """Interpolation taps for fractional offsets frac in [0, 1).

    Returns shape frac.shape + (TAPS,); convolving a sequence with the taps
    evaluates it at (integer index + frac). Taps are normalized to unit sum
    so constant signals pass through unchanged.

    Uses sin(pi*(m - f)) = -(-1)^m sin(pi*f) and the cosine addition rule so
    only two trig evaluations per offset are needed instead of two per tap.
    """
    frac = np.asarray(frac, dtype=float)[..., None]
    u = _OFFSETS - frac
    # Hann window over the 8-tap span
    w = 0.5 + 0.5 * (_COS_M * np.cos(np.pi * frac / _HALF)
                     + _SIN_M * np.sin(np.pi * frac / _HALF))
    w[np.abs(u) >= _HALF] = 0.0
    sin_pf = np.sin(np.pi * frac)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = -_SIGN * sin_pf / (np.pi * u)
    h = np.where(u == 0.0, 1.0, s) * w
    return h / h.sum(axis=-1, keepdims=True)


TAP_BOUND = 1e-9
MAX_DEGREE = 16  # degree 14 fits every step sample_rows reduces to, |theta| <= pi
_FIT = 0.5 - 0.5 * np.cos(np.pi * (np.arange(44) + 0.5) / 44)  # Chebyshev points of [0, 1]
_CHECK = 0.5 - 0.5 * np.cos(np.pi * np.arange(129) / 128)  # Chebyshev extrema, 0 and 1 too
_PAD = 8  # twice the 4 measured (module docstring): margin for BLAS kernels unrolling wider


@functools.lru_cache(maxsize=None)
def farrow_taps(theta: float) -> np.ndarray:
    """Read-only (degree + 1, TAPS) complex coefficients, row d that of f**d,
    of the carrier-folded taps delay_kernel(f)_k * exp(j*theta*(f - m_k)),
    least squares at _FIT. The degree is the smallest from 11 within
    TAP_BOUND of them at _CHECK; row 0 is the unit impulse, exactly. A carrier
    step that no degree up to MAX_DEGREE fits is a ValueError."""
    f = np.r_[_FIT, _CHECK]
    target = delay_kernel(f) * np.exp(1j * theta * (f[:, None] - _OFFSETS))
    impulse = delay_kernel(0.0).astype(complex)
    for degree in range(11, MAX_DEGREE + 1):
        taps = np.vstack([impulse, np.linalg.lstsq(_FIT[:, None] ** np.arange(1, degree + 1),
                                                   target[:_FIT.size] - impulse, rcond=None)[0]])
        powers = _CHECK[:, None] ** np.arange(degree + 1)  # real, as a complex product is slow
        if np.abs(powers @ taps.real + 1j * (powers @ taps.imag)
                  - target[_FIT.size:]).max() <= TAP_BOUND:
            taps.setflags(write=False)
            return taps
    raise ValueError(f"a carrier step of {theta:.6g} rad per sample needs Farrow taps "
                     f"above degree {MAX_DEGREE}")


def _filter(stencils: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The Farrow bank of complex stencils (TAPS, n), n a multiple of _PAD: (degree
    + 1, n, 2), row d as (re, im) pairs; row 0 is the stencils' centre samples."""
    bank = np.empty((len(taps), stencils.shape[1]), complex)
    bank[0] = stencils[_HALF - 1]
    np.matmul(taps[1:], stencils, out=bank[1:])
    return bank.view(float).reshape(len(taps), -1, 2)


def sample_rows(rows: np.ndarray, pos: np.ndarray, theta: float = 0.0):
    """Band-limited sampling of each row of `rows` at fractional positions.

    rows is (n_rows, m), read as complex, a band at the carrier step theta =
    2*pi*f_c/f_s: the samples x[n] * exp(j*theta*n) of a baseband x. The value
    at position p is x interpolated at p times exp(j*theta*p). pos is
    (..., n_rows), one position per row. Returns (values, valid): complex
    values of pos.shape, zero where the stencil would leave [0, m) (always
    when m < TAPS), and that boolean mask. In-record positions read the same
    bits whether the call has others or not, and part of a record, its
    positions counted from its first sample, reads the same bits as the whole.

    A step theta = 2*pi*k + theta', |theta'| <= pi, puts the same samples
    exp(j*theta*n) as theta' at integer n, so the taps are fitted at theta'
    and, only when k != 0, each value is turned by the remaining
    exp(j*2*pi*k*frac) of its position.
    """
    n_rows, m = rows.shape
    pos = np.asarray(pos, dtype=float)
    turns = round(theta / (2 * np.pi))
    theta = theta - 2 * np.pi * turns  # theta itself when turns == 0
    with np.errstate(invalid="ignore"):
        # a non-finite position casts to INT64_MIN, which the bound tests reject
        frac = pos - (base := np.floor(pos))
        base = base.astype(np.int64)
    lo, hi = (base.min(), base.max()) if pos.size else (0, -1)
    # every stencil in the row, as in an image's blocks (never when m < TAPS): no masks
    in_record = _HALF - 1 <= lo and hi <= m - 1 - _HALF
    valid = np.ones(pos.shape, bool)
    if not in_record:
        valid = (base >= _HALF - 1) & (base <= m - 1 - _HALF)
        if not valid.any():
            return np.zeros(pos.shape, complex), valid
        # the first valid base stands in, at fraction 0, for invalid positions
        lo = base.min(where=valid, initial=m)
        base = np.where(valid, base, lo)
        hi = base.max()
        frac[~valid] = 0.0
    taps = farrow_taps(float(theta))
    start, first = base - (_HALF - 1), lo - (_HALF - 1)  # stencil starts, the first
    row = np.arange(n_rows)
    span = int(hi - lo) + 1
    if n_rows * span <= pos.size:
        # every row's stencils from first to the last start, once each, from
        # the window of samples they read
        window = rows[:, first:first + span + TAPS - 1]
        n = n_rows * span
        stencils = np.zeros((TAPS, -(-n // _PAD) * _PAD), complex)
        for t in range(TAPS):
            stencils[t, :n].reshape(n_rows, span)[...] = window[:, t:t + span]
        entry = row * span + (start - first)
    else:
        # more window than positions: each position's own stencil, the last
        # repeated to the padded width
        at = np.pad((row * m + start).reshape(-1), (0, -pos.size % _PAD), mode="edge")
        at = at + np.arange(TAPS)[:, None]
        stencils = rows.reshape(-1).take(at)
        entry = np.arange(pos.size).reshape(pos.shape)
    bank = _filter(stencils, taps)
    # Horner in frac on (re, im) pairs, one take per coefficient row; frac
    # repeated to the values' (..., 2) shape, since a broadcast multiply is slower
    f = np.repeat(frac[..., None], 2, axis=-1)
    values = bank[-1].take(entry, axis=0)
    term = np.empty_like(values)
    for d in range(len(taps) - 2, -1, -1):
        values *= f
        values += bank[d].take(entry, axis=0, out=term, mode="clip")
    if turns:
        # by real products: numpy 2.4.6's complex multiply rounds by array length
        turn = np.exp(2j * np.pi * turns * frac)
        re, im = values[..., 0], values[..., 1]
        values = np.stack([re * turn.real - im * turn.imag, re * turn.imag + im * turn.real], -1)
    values = values.view(complex)[..., 0]
    if not in_record:
        values[~valid] = 0.0
    return values, valid
