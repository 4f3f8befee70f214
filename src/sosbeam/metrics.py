"""Image evaluation: dB envelope, FWHM, peak multipath artifact level, RMSE.

All metrics run on peak-normalized dB magnitude images; boxes are given in
grid meters and resolved to pixel index ranges. FWHM is the half-amplitude
(-6.02 dB) azimuth width of the grid row through the image's peak in a box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ScanGrid

RMSE_FLOOR_DB = -120.0


@dataclass(frozen=True)
class DbImage:
    """Peak-normalized dB magnitude image: max pixel is 0 dB, all others <= 0."""

    pixels: np.ndarray
    grid: ScanGrid

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=float)
        if p.shape != (self.grid.n_y, self.grid.n_x):
            raise ValueError("pixel array does not match the grid")
        # false for a nan or +inf pixel; -inf, a zero pixel's level, passes
        if p.max() != 0.0:
            raise ValueError(f"peak must be exactly 0 dB with no pixel above it, "
                             f"got max {p.max()}")
        object.__setattr__(self, "pixels", p)


@dataclass(frozen=True)
class Box:
    """Axis-aligned region in grid meters."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("box min must be below max on each axis")

    def overlaps(self, other: Box) -> bool:
        return (self.x_min < other.x_max and other.x_min < self.x_max
                and self.y_min < other.y_max and other.y_min < self.y_max)

    def indices(self, grid: ScanGrid):
        xs, ys = grid.x_values(), grid.y_values()
        ix = np.nonzero((xs >= self.x_min) & (xs <= self.x_max))[0]
        iy = np.nonzero((ys >= self.y_min) & (ys <= self.y_max))[0]
        if ix.size == 0 or iy.size == 0:
            raise ValueError(f"box {self} selects no pixels on the grid")
        return iy, ix


def envelope_db(image: np.ndarray, grid: ScanGrid) -> DbImage:
    """20*log10 magnitude of a complex image, normalized so the peak is 0 dB."""
    mag = np.abs(np.asarray(image))
    peak = mag.max()
    if peak == 0:
        raise ValueError("cannot normalize an all-zero image")
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(mag / peak)
    return DbImage(pixels=db, grid=grid)


def fwhm(profile_db: np.ndarray, spacing: float) -> float:
    """Full width at half maximum of a dB profile, in meters.

    The half level is half the amplitude of the unique global peak, -6.02 dB
    below it; crossings are located by linear interpolation of the
    linear-amplitude profile.
    """
    profile_db = np.asarray(profile_db, dtype=float)
    if profile_db.ndim != 1 or profile_db.size < 3:
        raise ValueError("profile must be a 1-D array of at least 3 samples")
    amp = 10.0 ** (profile_db / 20.0)
    k_peak = int(np.argmax(amp))
    peak = amp[k_peak]
    if np.count_nonzero(amp == peak) > 1:
        raise ValueError("profile has no unique global peak")
    level = 0.5 * peak

    def crossing(direction: int) -> float:
        k = k_peak
        while 0 <= k + direction < amp.size:
            nxt = k + direction
            if amp[nxt] <= level:
                frac = (amp[k] - level) / (amp[k] - amp[nxt])
                return k + direction * frac
            k = nxt
        side = "left" if direction < 0 else "right"
        raise ValueError(f"profile never crosses the half level on the {side} side")

    return (crossing(+1) - crossing(-1)) * spacing


def fwhm_of_image(img: DbImage, box: Box) -> float:
    """FWHM of the full-width azimuth row through the image's peak in box."""
    rows, cols = box.indices(img.grid)
    sub = img.pixels[np.ix_(rows, cols)]
    r, _ = np.unravel_index(np.argmax(sub), sub.shape)
    return fwhm(img.pixels[rows[r]], img.grid.x_spacing)


def pmal(img: DbImage, target_box: Box, artifact_box: Box) -> float:
    """Peak multipath artifact level: artifact-box max minus target-box max, in dB."""
    t_rows, t_cols = target_box.indices(img.grid)
    a_rows, a_cols = artifact_box.indices(img.grid)
    if target_box.overlaps(artifact_box):
        raise ValueError("target and artifact boxes overlap")
    target_peak = img.pixels[np.ix_(t_rows, t_cols)].max()
    artifact_peak = img.pixels[np.ix_(a_rows, a_cols)].max()
    if min(target_peak, artifact_peak) == -np.inf:  # a box of zero pixels only
        raise ValueError(f"{'target' if target_peak == -np.inf else 'artifact'} box is all -inf dB")
    return float(artifact_peak - target_peak)


def rmse_db(a: DbImage, b: DbImage) -> float:
    """Peak-normalized RMS difference between two images, in dB, floored at -120.

    Pixels are compared as linear magnitudes (each image normalized to its
    own peak), so any common scale factor drops out.
    """
    if a.grid != b.grid:
        raise ValueError("images live on different grids")
    la = 10.0 ** (a.pixels / 20.0)
    lb = 10.0 ** (b.pixels / 20.0)
    rms = float(np.sqrt(np.mean((la - lb) ** 2)))
    if rms <= 10.0 ** (RMSE_FLOOR_DB / 20.0):
        return RMSE_FLOOR_DB
    return 20.0 * np.log10(rms)
