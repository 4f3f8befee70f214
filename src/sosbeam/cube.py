"""Sensor data cubes and the raw cube file format.

The binary cube file holds one raw cube, little-endian: a fixed header
followed by float32 samples, sensor-major. The header's carrier, time-origin
and decimation fields are 0, 0 and 1. BasebandCube is in-memory only: the
receive chain makes it from a raw cube and the beamformers read it.

A raw cube holds float64 samples, or float32 ones as given: read_cube
returns the file's float32 payload without widening it, so a record is held
once at the file's precision. The receive chain computes in float64 either
way, so a float32 cube gives the same bits as its float64 widening.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .core import is_integer

MAGIC = b"SSBC"
_FORMAT_RAW = 0
_HEADER = struct.Struct("<4sHHIQdddI")  # magic, version, format, n_sens, n_samples, fs, carrier, t0, decim


class CubeFormatError(Exception):
    """Raised when a cube file does not match the expected header layout."""


@dataclass
class RawDataCube:
    """Real time series from the array: samples has shape (n_sensors, n_samples).

    float32 samples are kept as given (read_cube's payload, say); any other
    dtype becomes float64. The chain computes in float64 either way.
    """

    samples: np.ndarray
    sample_rate: float  # Hz

    def __post_init__(self):
        samples = np.asarray(self.samples)
        self.samples = samples if samples.dtype == np.float32 else np.asarray(samples, dtype=float)
        if self.samples.ndim != 2:
            raise ValueError("raw cube samples must be 2-D (sensors x samples)")
        if not 0 < self.sample_rate < np.inf:
            raise ValueError("sample_rate must be finite and > 0")

    @property
    def n_sensors(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


@dataclass
class BasebandCube:
    """The analytic receive band after demodulation (and optionally matched
    filtering), at the decimated rate and not mixed down (chain.demodulate).

    sample_rate is the post-decimation rate; sample m of any sensor
    corresponds to time time_origin + (sample_offset + m) / sample_rate. A
    cube that holds only part of a record (receive_chain with a span) keeps
    the whole record's time_origin and counts its first sample from the
    record's first: its samples are the whole record's at the same index to
    rounding, and interpolation positions the whole record's minus an
    integer, exactly.
    """

    samples: np.ndarray
    sample_rate: float   # Hz, post-decimation
    carrier: float       # Hz
    decimation: int = 1
    time_origin: float = 0.0  # s
    sample_offset: int = 0

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=complex)
        if self.samples.ndim != 2:
            raise ValueError("baseband cube samples must be 2-D (sensors x samples)")
        if self.samples.shape[1] < 1:
            raise ValueError("baseband cube must hold at least one sample")
        if not np.isfinite(self.samples).all():
            raise ValueError("baseband cube samples must be finite")
        if not 0 < self.sample_rate < np.inf:
            raise ValueError("sample_rate must be finite and > 0")
        if not (is_integer(self.decimation) and self.decimation >= 1):
            raise ValueError(f"decimation must be an integer >= 1, got {self.decimation!r}")
        if not (math.isfinite(self.carrier) and math.isfinite(self.time_origin)):
            raise ValueError("carrier and time_origin must be finite")
        if not (is_integer(self.sample_offset) and self.sample_offset >= 0):
            raise ValueError(f"sample_offset must be an integer >= 0, got {self.sample_offset!r}")

    @property
    def n_sensors(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def raw_sample_rate(self) -> float:
        return self.sample_rate * self.decimation


def write_cube(path, cube: RawDataCube) -> None:
    """Write a RawDataCube to the binary cube format."""
    if not isinstance(cube, RawDataCube):
        raise TypeError(f"only raw cubes are written, got {type(cube).__name__}")
    header = _HEADER.pack(MAGIC, 1, _FORMAT_RAW, cube.n_sensors, cube.n_samples,
                          cube.sample_rate, 0.0, 0.0, 1)
    with open(path, "wb") as fh:
        fh.write(header)
        # one sensor row at a time, through the buffer protocol: no copy of the record
        for row in cube.samples:
            fh.write(np.ascontiguousarray(row, dtype="<f4"))


def read_cube(path) -> RawDataCube:
    """Read a raw cube file; any other format tag is a CubeFormatError."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise CubeFormatError(f"{path}: truncated header")
        magic, version, fmt, n_sens, n_samples, fs, *_ = _HEADER.unpack(head)
        if magic != MAGIC:
            raise CubeFormatError(f"{path}: bad magic {magic!r}")
        if version != 1:
            raise CubeFormatError(f"{path}: unsupported version {version}")
        if fmt != _FORMAT_RAW:
            raise CubeFormatError(f"{path}: format tag {fmt} is not a raw cube")
        data = np.fromfile(fh, dtype="<f4")
        size = data.nbytes + len(fh.read())  # fromfile leaves a partial last sample
    if size != 4 * n_sens * n_samples:
        raise CubeFormatError(f"{path}: payload holds {size} bytes, header promises "
                              f"{n_sens * n_samples} float32 samples")
    if not np.isfinite(data).all():
        raise CubeFormatError(f"{path}: payload holds non-finite samples")
    try:
        return RawDataCube(samples=data.reshape(n_sens, n_samples), sample_rate=fs)
    except ValueError as exc:
        raise CubeFormatError(f"{path}: bad header: {exc}") from exc
