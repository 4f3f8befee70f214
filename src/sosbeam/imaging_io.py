"""Image file output: dB CSV (with grid metadata header) and 8-bit PGM."""

from __future__ import annotations

import numpy as np

from .core import ScanGrid
from .metrics import DbImage


class ImageFormatError(ValueError):
    """Raised when a file is not an image CSV written by write_image_csv."""


def write_image_csv(path, img: DbImage) -> None:
    """dB magnitudes as CSV: range rows by azimuth columns.

    The first line is a comment header carrying the grid definition so the
    image can be reloaded without the original config.
    """
    g = img.grid
    header = (f"x_min={g.x_min} x_max={g.x_max} y_min={g.y_min} y_max={g.y_max} "
              f"n_x={g.n_x} n_y={g.n_y}")
    np.savetxt(path, img.pixels, delimiter=",", header=header)


def read_image_csv(path) -> DbImage:
    """Reload a dB image written by write_image_csv.

    Any other file raises ImageFormatError naming it and the missing or bad
    field.
    """
    with open(path, errors="replace") as fh:  # undecodable bytes fail the checks below
        first = fh.readline()
    if not first.startswith("#"):
        raise ImageFormatError(f"{path}: missing grid metadata header")
    fields = dict(part.partition("=")[::2] for part in first[1:].split())
    grid = {}
    for key in ("x_min", "x_max", "y_min", "y_max", "n_x", "n_y"):
        kind = int if key.startswith("n_") else float
        try:
            grid[key] = kind(fields[key])
        except (KeyError, ValueError):
            raise ImageFormatError(f"{path}: grid header {key} is missing or not "
                                   f"a valid {kind.__name__}") from None
    try:
        pixels = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return DbImage(pixels=pixels, grid=ScanGrid(**grid))
    except ValueError as exc:
        raise ImageFormatError(f"{path}: {exc}") from None


def write_image_pgm(path, img: DbImage, dynamic_range_db: float) -> None:
    """8-bit binary PGM after clipping to the display dynamic range.

    0 dB maps to white (255), -dynamic_range_db and below to black. Rows are
    written top-to-bottom in increasing range.
    """
    if not 0 < dynamic_range_db < np.inf:
        raise ValueError("dynamic range must be finite and > 0")
    clipped = np.clip(img.pixels, -dynamic_range_db, 0.0)
    levels = np.round(255.0 * (clipped + dynamic_range_db) / dynamic_range_db)
    data = levels.astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
