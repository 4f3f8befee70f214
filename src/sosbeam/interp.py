"""Windowed-sinc fractional-delay interpolation.

Shared by the simulator (sub-sample echo placement, delay_kernel) and the
beamformers (delayed snapshot extraction, sample_rows). 8 taps,
Hann-windowed, exact at integer offsets so integer delays reproduce samples
bit-for-bit.

sample_rows is a Farrow interpolator (Farrow, ISCAS 1988; Laakso et al.,
IEEE SP Magazine 13(1), 1996): each tap is a degree-DEGREE polynomial in the
fractional offset f, delay_kernel(f) ~ sum_d FARROW[d] * f**d, fitted by least
squares at 44 Chebyshev points of [0, 1]. With DEGREE = 11 the taps are
within 5.5e-10 of delay_kernel over 1e5 random fractions (max abs), and
FARROW[0] is the unit impulse. A call filters the sample windows it reads
once with the DEGREE + 1 polynomial taps, then evaluates every position's
polynomial by Horner. Its memory is O(positions): it filters the window of
stencil starts its positions span on every row, or, when that window holds
more entries than the call has positions, only the positions' own stencils.

A position's bits do not depend on the other positions of its call, if the
BLAS rounds each element of the filter product (one stencil's dot product
with one row of taps) the same at any product width. That is an assumption
about the BLAS, not a property of the code. numpy's bundled OpenBLAS meets it
for two columns or more; its one-column path (gemv) does not, so a lone
stencil is filtered with a zero partner. The bitwise tests of test_interp and
test_beamform, and the CI smoke checks on the oldest and newest numpy, check
it. A fixed-order elementwise accumulation over the taps would not depend on
the BLAS, but costs about a tenth of fixed_speed's pixel rate.
"""

from __future__ import annotations

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


DEGREE = 11


def _fit_farrow() -> np.ndarray:
    """(DEGREE + 1, TAPS) coefficients; row 0 is delay_kernel(0), exactly."""
    f = 0.5 - 0.5 * np.cos(np.pi * (np.arange(44) + 0.5) / 44)  # Chebyshev points of [0, 1]
    impulse = delay_kernel(0.0)
    rest = np.linalg.lstsq(f[:, None] ** np.arange(1, DEGREE + 1),
                           delay_kernel(f) - impulse, rcond=None)[0]
    return np.vstack([impulse, rest])


FARROW = _fit_farrow()


def _filter(stencils: np.ndarray) -> np.ndarray:
    """The Farrow bank of real stencils (TAPS, n): (DEGREE + 1, n), row d the
    coefficient of f**d. Row 0 is the stencils' centre samples themselves."""
    n = stencils.shape[1]
    bank = np.empty((DEGREE + 1, max(n, 2)))
    bank[0, :n] = stencils[_HALF - 1]
    # matmul rounds a one-column product (gemv) unlike the same column of a
    # wider one (gemm), so a lone stencil gets a zero partner
    if n == 1:
        stencils = np.pad(stencils, ((0, 0), (0, 1)))
    np.matmul(FARROW[1:], stencils, out=bank[1:])
    return bank[:, :n]


def sample_rows(rows: np.ndarray, pos: np.ndarray):
    """Band-limited sampling of each row of `rows` at fractional positions.

    Args:
        rows: (n_rows, m) array, real or complex.
        pos: (..., n_rows) fractional sample positions, one per row.

    Returns:
        (values, valid): values has pos.shape, zero where the interpolation
        stencil would leave [0, m); valid is the matching boolean mask. Rows
        shorter than the stencil (m < TAPS) give every position invalid.
    """
    n_rows, m = rows.shape
    pos = np.asarray(pos, dtype=float)
    dtype = np.result_type(rows, np.float64)
    with np.errstate(invalid="ignore"):
        # a non-finite position casts to INT64_MIN, which the bound test rejects
        base = np.floor(pos).astype(np.int64)
    # no position is valid in a row shorter than the stencil (m < TAPS)
    valid = (base >= _HALF - 1) & (base <= m - 1 - _HALF)
    if not valid.any():
        return np.zeros(pos.shape, dtype), valid
    # stencil starts, the first valid one standing in for invalid positions
    start = base - (_HALF - 1)
    first = start.min(where=valid, initial=m)
    start = np.where(valid, start, first)
    frac = np.where(valid, pos - base, 0.0)
    # complex rows as interleaved (re, im) pairs: `width` reals per sample
    x = np.ascontiguousarray(rows, dtype).view(float).reshape(n_rows, -1)
    width = x.shape[1] // m
    row = np.arange(n_rows)
    span = int(start.max()) - first + 1
    if n_rows * span <= pos.size:
        # every row's stencils from first to the last start, once each
        stencils = np.stack([x[:, (first + t) * width:(first + t + span) * width]
                             for t in range(TAPS)]).reshape(TAPS, -1)
        entry = row * span + (start - first)
    else:
        # more window than positions: each position's own stencil
        at = (row * m + start).reshape(-1)
        stencils = x.reshape(-1, width).take(at + np.arange(TAPS)[:, None],
                                             axis=0).reshape(TAPS, -1)
        entry = np.arange(pos.size).reshape(pos.shape)
    bank = _filter(stencils).reshape(DEGREE + 1, -1, width)
    # Horner in frac, one take per coefficient row; frac repeated to the
    # values' (..., width) shape, since a broadcast multiply is slower
    f = np.repeat(frac[..., None], width, axis=-1)
    values = bank[DEGREE].take(entry, axis=0)
    term = np.empty_like(values)
    for d in range(DEGREE - 1, -1, -1):
        values *= f
        values += bank[d].take(entry, axis=0, out=term, mode="clip")
    values = values.view(dtype)[..., 0]
    values[~valid] = 0.0
    return values, valid
