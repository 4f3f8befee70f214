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


@dataclass(frozen=True)
class ArrayGeometry:
    """Linear receive array plus the projector (source) position.

    Attributes:
        sensor_x: per-sensor azimuth positions in meters, strictly increasing
        array_depth: receiver depth in meters (simulator only)
        source_x: projector azimuth position in meters
        source_depth: projector depth in meters; defaults to array_depth
    """

    sensor_x: np.ndarray
    array_depth: float = 0.0
    source_x: float = 0.0
    source_depth: float | None = None

    def __post_init__(self):
        sx = np.atleast_1d(np.asarray(self.sensor_x, dtype=float))
        if sx.ndim != 1 or sx.size < 1:
            raise ValueError("sensor_x must be a non-empty 1-D sequence")
        if not np.isfinite(sx).all():
            raise ValueError("sensor_x must be finite")
        if sx.size > 1 and not np.all(np.diff(sx) > 0):
            raise ValueError("sensor_x must be strictly increasing")
        object.__setattr__(self, "sensor_x", sx)
        if self.source_depth is None:
            object.__setattr__(self, "source_depth", float(self.array_depth))
        if not all(map(math.isfinite, (self.array_depth, self.source_x, self.source_depth))):
            raise ValueError("array_depth, source_x and source_depth must be finite")

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
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError("pixel counts must be >= 1")
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

    @property
    def y_spacing(self) -> float:
        return (self.y_max - self.y_min) / max(self.n_y - 1, 1)


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


def travel_times(px, py, c: float, geom: ArrayGeometry) -> np.ndarray:
    """Round-trip times from the source, via focal points, to every sensor.

    px, py are broadcastable arrays of focal coordinates; the result has
    shape broadcast(px, py).shape + (n_sensors,), in seconds.
    """
    if not 0 < c < np.inf:
        raise ValueError("propagation speed must be finite and > 0")
    px = np.asarray(px, dtype=float)[..., None]
    py = np.asarray(py, dtype=float)[..., None]
    r_tx = np.hypot(px - geom.source_x, py)
    r_rx = np.hypot(px - geom.sensor_x, py)
    return (r_tx + r_rx) / c


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
