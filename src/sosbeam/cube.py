"""Sensor data cubes and their on-disk formats.

The binary cube file is little-endian: a fixed header followed by the
sample payload, sensor-major. Raw cubes store float32 samples; baseband
cubes store complex64 (interleaved re/im) plus carrier, decimation, and
time-origin metadata.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"SSBC"
_FORMAT_RAW = 0
_FORMAT_BASEBAND = 1
_HEADER = struct.Struct("<4sHHIQdddI")  # magic, version, format, n_sens, n_samples, fs, carrier, t0, decim


class CubeFormatError(Exception):
    """Raised when a cube file does not match the expected header layout."""


@dataclass
class RawDataCube:
    """Real time series from the array: samples has shape (n_sensors, n_samples)."""

    samples: np.ndarray
    sample_rate: float  # Hz

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
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

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate


@dataclass
class BasebandCube:
    """Complex baseband samples after demodulation (and optionally matched filtering).

    sample_rate is the post-decimation rate; sample m of any sensor
    corresponds to time time_origin + m / sample_rate.
    """

    samples: np.ndarray
    sample_rate: float   # Hz, post-decimation
    carrier: float       # Hz
    decimation: int = 1
    time_origin: float = 0.0  # s

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=complex)
        if self.samples.ndim != 2:
            raise ValueError("baseband cube samples must be 2-D (sensors x samples)")
        if self.samples.shape[1] < 1:
            raise ValueError("baseband cube must hold at least one sample")
        if not 0 < self.sample_rate < np.inf:
            raise ValueError("sample_rate must be finite and > 0")
        if self.decimation < 1:
            raise ValueError("decimation must be >= 1")
        if not (math.isfinite(self.carrier) and math.isfinite(self.time_origin)):
            raise ValueError("carrier and time_origin must be finite")

    @property
    def n_sensors(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def raw_sample_rate(self) -> float:
        return self.sample_rate * self.decimation


def write_cube(path, cube) -> None:
    """Write a RawDataCube or BasebandCube to the binary cube format."""
    if isinstance(cube, RawDataCube):
        fmt = _FORMAT_RAW
        carrier, t0, decim = 0.0, 0.0, 1
        payload = cube.samples.astype("<f4", order="C")
    elif isinstance(cube, BasebandCube):
        fmt = _FORMAT_BASEBAND
        carrier, t0, decim = cube.carrier, cube.time_origin, cube.decimation
        payload = cube.samples.astype("<c8", order="C")
    else:
        raise TypeError(f"unsupported cube type {type(cube).__name__}")
    header = _HEADER.pack(MAGIC, 1, fmt, cube.n_sensors, cube.n_samples,
                          cube.sample_rate, carrier, t0, decim)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)  # through the buffer protocol: no bytes copy of the payload


def read_cube(path):
    """Read a cube file; returns RawDataCube or BasebandCube per its format tag."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise CubeFormatError(f"{path}: truncated header")
        magic, version, fmt, n_sens, n_samples, fs, carrier, t0, decim = _HEADER.unpack(head)
        if magic != MAGIC:
            raise CubeFormatError(f"{path}: bad magic {magic!r}")
        if version != 1:
            raise CubeFormatError(f"{path}: unsupported version {version}")
        if fmt == _FORMAT_RAW:
            data = np.frombuffer(fh.read(), dtype="<f4")
        elif fmt == _FORMAT_BASEBAND:
            data = np.frombuffer(fh.read(), dtype="<c8")
        else:
            raise CubeFormatError(f"{path}: unknown format tag {fmt}")
    if data.size != n_sens * n_samples:
        raise CubeFormatError(
            f"{path}: payload holds {data.size} samples, header promises {n_sens * n_samples}")
    samples = data.reshape(n_sens, n_samples)
    try:
        if fmt == _FORMAT_RAW:
            return RawDataCube(samples=samples.astype(float), sample_rate=fs)
        return BasebandCube(samples=samples.astype(complex), sample_rate=fs,
                            carrier=carrier, decimation=decim, time_origin=t0)
    except ValueError as exc:
        raise CubeFormatError(f"{path}: bad header: {exc}") from exc

