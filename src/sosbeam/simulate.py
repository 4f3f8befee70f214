"""Multipath receive-data simulator.

Point targets in a flat-bathymetry shallow-water column, propagated with an
image-source eigenray model: per one-way leg, a direct path plus single
surface- and bottom-bounce paths, mirrored across the boundaries. Round-trip
arrivals are the product of transmit-leg and receive-leg paths. The sound
speed profile enters through the depth-averaged speed along each leg.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import ArrayGeometry, LfmPulse, TWO_PI
from .cube import RawDataCube
from .interp import place_fractional

DIRECT = "direct"
SURFACE = "surface_bounce"
BOTTOM = "bottom_bounce"
PATH_KINDS = (DIRECT, SURFACE, BOTTOM)


class SimulationWarning(UserWarning):
    """Non-fatal simulator conditions (e.g. arrivals past the record end)."""


@dataclass(frozen=True)
class Target:
    """Point scatterer.

    x is azimuth (along the array), y the horizontal standoff from the array
    line, depth positive-down. The apparent slant range in the image is
    sqrt(y**2 + (depth - array_depth)**2) at azimuth x.
    """

    x: float
    y: float
    depth: float
    reflectivity: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.depth, self.reflectivity))):
            raise ValueError("target x, y, depth and reflectivity must be finite")

    @classmethod
    def at_slant_range(cls, x: float, slant_range: float, depth: float,
                       array_depth: float, reflectivity: float = 1.0) -> "Target":
        """Place a target so its direct path from the array has the given length."""
        dz = depth - array_depth
        if slant_range <= abs(dz):
            raise ValueError("slant_range must exceed the vertical offset to the array")
        y = float(np.sqrt(slant_range ** 2 - dz ** 2))
        return cls(x=x, y=y, depth=depth, reflectivity=reflectivity)


@dataclass(frozen=True)
class Environment:
    """Water column: free surface at depth 0, flat bottom, sound speed profile.

    sos_profile is a list of (depth_m, speed_m_s) breakpoints with strictly
    increasing depths; speeds are linearly interpolated and held constant
    beyond the first/last breakpoint.
    """

    bottom_depth: float
    sos_profile: tuple
    surface_reflectivity: float = -1.0
    bottom_reflectivity: float = 0.5

    def __post_init__(self):
        if not 0 < self.bottom_depth < np.inf:
            raise ValueError("bottom_depth must be finite and > 0")
        if not (math.isfinite(self.surface_reflectivity)
                and math.isfinite(self.bottom_reflectivity)):
            raise ValueError("surface and bottom reflectivities must be finite")
        prof = tuple((float(z), float(c)) for z, c in self.sos_profile)
        if not prof:
            raise ValueError("sos_profile must hold at least one breakpoint")
        depths = [z for z, _ in prof]
        if not all(map(math.isfinite, depths)):
            raise ValueError("sos_profile depths must be finite")
        if any(b <= a for a, b in zip(depths, depths[1:])):
            raise ValueError("sos_profile depths must be strictly increasing")
        if any(not 0 < c < np.inf for _, c in prof):
            raise ValueError("sos_profile speeds must be finite and > 0")
        object.__setattr__(self, "sos_profile", prof)

    def sound_speed_at(self, z: float) -> float:
        depths = np.array([p[0] for p in self.sos_profile])
        speeds = np.array([p[1] for p in self.sos_profile])
        return float(np.interp(z, depths, speeds))


@dataclass(frozen=True)
class PathArrival:
    """One round-trip arrival: a transmit-leg path paired with a receive-leg path.

    amplitude is the linear gain including target reflectivity, boundary
    reflection coefficients, and 1/r spreading per leg.
    """

    tx_kind: str
    rx_kind: str
    delay: float        # s
    amplitude: float    # linear

    @property
    def kind(self) -> str:
        return f"{self.tx_kind}/{self.rx_kind}"


@dataclass(frozen=True)
class SimConfig:
    """Receive-data synthesis settings.

    noise_power_db / signal_power_db are source levels in dB re 1 uPa at 1 m;
    only their difference is physical. ref_level_db picks the dB value that
    maps to unit sample amplitude, fixing the absolute numeric scale of the
    cube (the receiver calibration is otherwise arbitrary).
    """

    sample_rate: float          # Hz
    record_duration: float      # s
    noise_power_db: float = 80.0
    signal_power_db: float = 190.0
    ref_level_db: float = -47.0
    rng_seed: int = 0

    def __post_init__(self):
        if not (0 < self.sample_rate < np.inf and 0 < self.record_duration < np.inf):
            raise ValueError("sample_rate and record_duration must be finite and > 0")

    @property
    def n_samples(self) -> int:
        return int(round(self.record_duration * self.sample_rate))

    @property
    def noise_amplitude(self) -> float:
        return 10.0 ** ((self.noise_power_db - self.ref_level_db) / 20.0)

    @property
    def signal_amplitude(self) -> float:
        return 10.0 ** ((self.signal_power_db - self.ref_level_db) / 20.0)


def depth_averaged_sos(env: Environment, z1: float, z2: float) -> float:
    """Mean sound speed of the piecewise-linear profile over [z1, z2].

    Symmetric in its arguments; a degenerate interval returns the profile
    value at that depth.
    """
    for z in (z1, z2):
        if not 0 <= z <= env.bottom_depth:
            raise ValueError(f"depth {z} outside water column [0, {env.bottom_depth}]")
    lo, hi = min(z1, z2), max(z1, z2)
    if hi == lo:
        return env.sound_speed_at(lo)
    depths = np.array([p[0] for p in env.sos_profile])
    speeds = np.array([p[1] for p in env.sos_profile])
    # integrate the linear interpolant exactly: trapezoid over the breakpoints
    # that fall inside [lo, hi] plus the clipped endpoints
    interior = depths[(depths > lo) & (depths < hi)]
    zs = np.concatenate(([lo], interior, [hi]))
    cs = np.interp(zs, depths, speeds)
    integral = np.trapezoid(cs, zs)
    return float(integral / (hi - lo))


def _leg_paths(a, b, env: Environment):
    """One-way image-source paths from point a to point b, each (kind, length, speed, coeff).

    Points are (x, y, depth) triples. The path-averaged speed weights each
    straight segment of the unfolded ray by its length; depth varies linearly
    with arc length along a segment, so the segment average is the
    depth-averaged profile speed between its endpoint depths.
    """
    ax, ay, az = a
    bx, by, bz = b
    horiz = float(np.hypot(bx - ax, by - ay))
    out = []

    length = float(np.hypot(horiz, bz - az))
    if length <= 0:
        raise ValueError("degenerate zero-length propagation path")
    out.append((DIRECT, length, depth_averaged_sos(env, az, bz), 1.0))

    # surface bounce: mirror b across z=0; ray runs a -> surface -> b
    length = float(np.hypot(horiz, -bz - az))
    f = az / (az + bz) if az + bz > 0 else 0.5
    speed = (f * depth_averaged_sos(env, az, 0.0)
             + (1.0 - f) * depth_averaged_sos(env, 0.0, bz))
    out.append((SURFACE, length, speed, env.surface_reflectivity))

    # bottom bounce: mirror b across z=bottom
    zb = env.bottom_depth
    length = float(np.hypot(horiz, (2.0 * zb - bz) - az))
    da, db = zb - az, zb - bz
    f = da / (da + db) if da + db > 0 else 0.5
    speed = (f * depth_averaged_sos(env, az, zb)
             + (1.0 - f) * depth_averaged_sos(env, zb, bz))
    out.append((BOTTOM, length, speed, env.bottom_reflectivity))
    return out


def enumerate_paths(tx, target: Target, rx, env: Environment):
    """Round-trip arrivals from tx to the target and back to rx.

    tx and rx are (x, y, depth) points inside the water column. Each leg
    contributes direct, surface-bounce, and bottom-bounce paths; the nine
    round trips combine delays additively and amplitudes multiplicatively,
    with 1/length spreading per leg and the target reflectivity applied once.
    """
    tpos = (target.x, target.y, target.depth)
    for name, point in (("tx", tx), ("rx", rx), ("target", tpos)):
        if not 0 <= point[2] <= env.bottom_depth:
            raise ValueError(f"{name} depth {point[2]} outside water column")
    return _round_trips(target, _leg_paths(tx, tpos, env), _leg_paths(tpos, rx, env))


def _round_trips(target: Target, tx_legs, rx_legs):
    """enumerate_paths' arrivals from the transmit-leg and receive-leg paths."""
    arrivals = []
    for tx_kind, l1, c1, g1 in tx_legs:
        for rx_kind, l2, c2, g2 in rx_legs:
            delay = l1 / c1 + l2 / c2
            amplitude = target.reflectivity * g1 * g2 / (l1 * l2)
            arrivals.append(PathArrival(tx_kind=tx_kind, rx_kind=rx_kind,
                                        delay=delay, amplitude=amplitude))
    return arrivals


def lfm_pulse_samples(pulse: LfmPulse, fs: float) -> np.ndarray:
    """Real LFM chirp samples at rate fs with unit peak amplitude.

    Instantaneous frequency sweeps center - bw/2 to center + bw/2 over the
    pulse duration.
    """
    f_top = pulse.center_frequency + 0.5 * pulse.bandwidth
    if fs <= 2.0 * f_top:
        raise ValueError(f"sample rate {fs} undersamples pulse (needs > {2 * f_top})")
    n = int(round(pulse.duration * fs))
    t = np.arange(n) / fs
    f0 = pulse.center_frequency - 0.5 * pulse.bandwidth
    rate = pulse.bandwidth / pulse.duration
    phase = TWO_PI * (f0 * t + 0.5 * rate * t ** 2)
    return np.cos(phase)


def synthesize_rx(targets, geom: ArrayGeometry, pulse: LfmPulse,
                  env: Environment, cfg: SimConfig, threads: int = 1) -> RawDataCube:
    """Synthesize the raw receive cube for a list of targets.

    Per sensor: the sum over targets and round-trip paths of amplitude-scaled,
    sub-sample-delayed pulse replicas, plus white Gaussian noise. Noise is
    drawn from an independent counter-based stream per sensor (Philox keyed by
    (seed, sensor)). Each sensor row is an independent work unit; with
    threads > 1 the rows are spread over a thread pool, which changes the
    scheduling only, so serial and parallel synthesis agree bit-for-bit.
    """
    fs = cfg.sample_rate
    n_samples = cfg.n_samples
    pulse_wave = lfm_pulse_samples(pulse, fs) * cfg.signal_amplitude
    tx = (geom.source_x, 0.0, geom.source_depth)
    samples = np.zeros((geom.n_sensors, n_samples))
    # the transmit legs do not depend on the sensor: one set per target
    tx_legs = [_leg_paths(tx, (t.x, t.y, t.depth), env) for t in targets]

    def run_sensor(sensor: int) -> int:
        """Fill one row; returns the number of arrivals dropped from it."""
        rx = (float(geom.sensor_x[sensor]), 0.0, geom.array_depth)
        row = samples[sensor]
        dropped = 0
        for target, legs in zip(targets, tx_legs):
            rx_legs = _leg_paths((target.x, target.y, target.depth), rx, env)
            for arrival in _round_trips(target, legs, rx_legs):
                ok = place_fractional(row, pulse_wave, arrival.delay * fs,
                                      arrival.amplitude)
                if not ok:
                    dropped += 1
        rng = np.random.Generator(np.random.Philox(key=[cfg.rng_seed, sensor]))
        noise = rng.standard_normal(n_samples)
        noise *= cfg.noise_amplitude
        row += noise
        return dropped

    sensors = range(geom.n_sensors)
    if threads <= 1:
        dropped = sum(map(run_sensor, sensors))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            dropped = sum(pool.map(run_sensor, sensors))
    if dropped:
        warnings.warn(f"{dropped} arrivals fell outside the {cfg.record_duration} s record "
                      "and were dropped", SimulationWarning)
    return RawDataCube(samples=samples, sample_rate=fs)
