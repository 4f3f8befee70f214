"""Windowed-sinc fractional-delay interpolation.

Shared by the simulator (sub-sample echo placement) and the beamformers
(delayed snapshot extraction). 8 taps, Hann-windowed, exact at integer
offsets so integer delays reproduce samples bit-for-bit.
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


PHASES = 4096
_TABLE = delay_kernel(np.arange(PHASES + 1) / PHASES)
_SLOPE = np.diff(_TABLE, axis=0)


def tabulated_kernel(frac) -> np.ndarray:
    """sample_rows' taps: delay_kernel(frac) interpolated linearly between
    PHASES + 1 tabulated offsets, within 1e-7. The simulator uses delay_kernel."""
    t = np.asarray(frac, dtype=float) * PHASES
    # frac may round up to 1.0; mode="clip" keeps a non-finite frac in the table
    with np.errstate(invalid="ignore"):
        phase = np.minimum(t.astype(np.intp), PHASES - 1)
    return (_TABLE.take(phase, axis=0, mode="clip")
            + (t - phase)[..., None] * _SLOPE.take(phase, axis=0, mode="clip"))


def sample_rows(rows: np.ndarray, pos: np.ndarray):
    """Band-limited sampling of each row of `rows` at fractional positions.

    Args:
        rows: (n_rows, m) array, real or complex (copied unless C-contiguous).
        pos: (..., n_rows) fractional sample positions, one per row.

    Returns:
        (values, valid): values has pos.shape, zero where the interpolation
        stencil would leave [0, m); valid is the matching boolean mask.
    """
    n_rows, m = rows.shape
    with np.errstate(invalid="ignore"):
        # a non-finite position casts to INT64_MIN, which the bound test rejects
        base = np.floor(pos).astype(np.int64)
    frac = pos - base
    h = tabulated_kernel(frac)
    valid = (base >= _HALF - 1) & (base <= m - 1 - _HALF)
    start = np.clip(base - (_HALF - 1), 0, max(m - TAPS, 0)) + np.arange(n_rows) * m
    gathered = rows.reshape(-1).take(start[..., None] + np.arange(TAPS))
    values = np.einsum("...t,...t->...", h, gathered)
    return np.where(valid, values, 0.0), valid


def place_fractional(out: np.ndarray, waveform: np.ndarray, position: float,
                     amplitude: float) -> bool:
    """Add amplitude * waveform delayed by `position` samples into `out`.

    The waveform's first sample lands at fractional index `position`. Returns
    False (and writes nothing) when any part of the shifted waveform would
    fall outside `out`.
    """
    base = int(np.floor(position))
    frac = position - base
    shifted = np.convolve(waveform, delay_kernel(frac))
    start = base - (_HALF - 1)
    stop = start + shifted.size
    if start < 0 or stop > out.size:
        return False
    out[start:stop] += amplitude * shifted
    return True
