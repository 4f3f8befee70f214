"""Geometry, pulse, and grid primitives shared by the simulator and beamformers.

The imaging model is strictly 2-D: focal points live in the (azimuth x,
range y) plane and sensors sit on the x axis. Depth exists only in the
multipath simulator's world; it never enters the round-trip model here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def is_integer(x) -> bool:
    """True for a Python or numpy integer; bools and floats are not counts."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class ArrayGeometry:
    """Linear receive array plus the projector (source) position.

    Attributes:
        sensor_x: per-sensor azimuth positions in meters, strictly increasing
        array_depth: receiver and projector depth in meters (simulator only)
        source_x: projector azimuth position in meters
    """

    sensor_x: np.ndarray
    array_depth: float = 0.0
    source_x: float = 0.0

    def __post_init__(self):
        sx = np.atleast_1d(np.asarray(self.sensor_x, dtype=float))
        if sx.ndim != 1 or sx.size < 1:
            raise ValueError("sensor_x must be a non-empty 1-D sequence")
        if not np.isfinite(sx).all():
            raise ValueError("sensor_x must be finite")
        if sx.size > 1 and not np.all(np.diff(sx) > 0):
            raise ValueError("sensor_x must be strictly increasing")
        object.__setattr__(self, "sensor_x", sx)
        if not all(map(math.isfinite, (self.array_depth, self.source_x))):
            raise ValueError("array_depth and source_x must be finite")

    @classmethod
    def uniform(cls, n_sensors: int, length: float, array_depth: float = 0.0,
                source_x: float = 0.0) -> "ArrayGeometry":
        """Uniform array of n_sensors spanning [-length/2, length/2]."""
        if n_sensors < 1:
            raise ValueError("n_sensors must be >= 1")
        if n_sensors == 1:
            x = np.zeros(1)
        else:
            x = np.linspace(-0.5 * length, 0.5 * length, n_sensors)
        return cls(sensor_x=x, array_depth=array_depth, source_x=source_x)

    @property
    def n_sensors(self) -> int:
        return self.sensor_x.size

    @property
    def center_x(self) -> float:
        return float(self.sensor_x.mean())


@dataclass(frozen=True)
class ScanGrid:
    """Rectangular pixel grid over azimuth [x_min, x_max] and range [y_min, y_max]."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    n_x: int
    n_y: int

    def __post_init__(self):
        for count in (self.n_x, self.n_y):
            if not (is_integer(count) and count >= 1):
                raise ValueError(f"pixel counts must be integers >= 1, got {count!r}")
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max))):
            raise ValueError("grid bounds must be finite")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid max must exceed min on each axis")
        if not self.y_min > 0:
            raise ValueError("grid ranges must be positive")

    def x_values(self) -> np.ndarray:
        if self.n_x == 1:
            return np.array([0.5 * (self.x_min + self.x_max)])
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def y_values(self) -> np.ndarray:
        if self.n_y == 1:
            return np.array([0.5 * (self.y_min + self.y_max)])
        return np.linspace(self.y_min, self.y_max, self.n_y)

    @property
    def x_spacing(self) -> float:
        return (self.x_max - self.x_min) / max(self.n_x - 1, 1)


@dataclass(frozen=True)
class LfmPulse:
    """Linear FM pulse sweeping center_frequency +/- bandwidth/2 over duration."""

    center_frequency: float  # Hz
    bandwidth: float         # Hz
    duration: float          # s

    def __post_init__(self):
        if not 0 < self.center_frequency < np.inf:
            raise ValueError("center_frequency must be finite and > 0")
        if not 0 < self.bandwidth < 2 * self.center_frequency:
            raise ValueError("bandwidth must be in (0, 2*center_frequency)")
        if not 0 < self.duration < np.inf:
            raise ValueError("duration must be finite and > 0")


def map_rows(fn, n: int, threads: int = 1) -> list:
    """[fn(0), ..., fn(n - 1)]: serially when threads <= 1, else on a pool of threads.

    Rows are independent work units, so the thread count changes the
    scheduling only; an exception raised in a row reaches the caller.
    """
    if threads <= 1:
        return [fn(i) for i in range(n)]
    from concurrent.futures import ThreadPoolExecutor  # here, so a one-thread run never loads it
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n)))


def path_lengths(px, py, geom: ArrayGeometry) -> np.ndarray:
    """Source-to-focal-point-to-sensor path lengths r_tx + r_rx in meters,
    shaped broadcast(px, py).shape + (n_sensors,).

    travel_times divides them by one speed; a caller at several speeds takes them once.
    Each leg is sqrt(dx**2 + py**2), within 1 ulp of hypot, inf past about 1.3e154 m.
    """
    px = np.asarray(px, dtype=float)[..., None]
    with np.errstate(over="ignore"):
        py2 = np.square(np.asarray(py, dtype=float))[..., None]
        paths = np.sqrt(np.square(px - geom.sensor_x) + py2)
        paths += np.sqrt(np.square(px - geom.source_x) + py2)
    return paths


def travel_times(px, py, c: float, geom: ArrayGeometry) -> np.ndarray:
    """Round-trip times from the source, via focal points, to every sensor.

    px, py are broadcastable arrays of focal coordinates; the result has
    shape broadcast(px, py).shape + (n_sensors,), in seconds.
    """
    if not 0 < c < np.inf:
        raise ValueError("propagation speed must be finite and > 0")
    return path_lengths(px, py, geom) / c


def hann_weights(n: int) -> np.ndarray:
    """Symmetric Hann taper with zero endpoints, normalized to unit sum.

    n=1 returns [1]; n=2 degenerates to zero endpoints, so uniform weights
    are returned instead.
    """
    if n < 1:
        raise ValueError("weight count must be >= 1")
    if n <= 2:
        return np.full(n, 1.0 / n)
    k = np.arange(n)
    w = 0.5 - 0.5 * np.cos(TWO_PI * k / (n - 1))
    return w / w.sum()
