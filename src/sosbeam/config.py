"""Run configuration: a single JSON document validated against every module
invariant before any computation starts.

Validation errors carry the dotted path of the offending field so a bad
config is rejected with a pointer, not a stack trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .beamform import BeamformerConfig, METHOD_DAS, METHODS
from .chain import TVG_VARIANTS
from .core import ArrayGeometry, LfmPulse, ScanGrid
from .metrics import Box, FWHM_AMPLITUDE, FWHM_INTENSITY
from .quadrature import SosPrior
from .simulate import Environment, SimConfig, Target


class ConfigError(Exception):
    """Invalid configuration; message starts with the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class ChainConfig:
    """Signal-chain settings applied between the raw cube and beamforming."""

    quantization_bits: int = 16
    tvg_variant: str = "two_way"
    tvg_speed: float = 1519.0
    decimation: int = 4


@dataclass
class RunConfig:
    """Everything a full simulate-beamform-metrics run needs."""

    geometry: ArrayGeometry
    environment: Environment
    targets: list
    pulse: LfmPulse
    simulation: SimConfig
    chain: ChainConfig
    beamformers: dict       # method name -> BeamformerConfig
    grid: ScanGrid
    target_box: Box
    artifact_box: Box
    fwhm_convention: str = FWHM_AMPLITUDE
    dynamic_range_db: float = 60.0

    def beamformer(self, method: str, n_quad: int | None = None) -> BeamformerConfig:
        if method not in self.beamformers:
            raise ConfigError(f"beamformers.{method}", "method not configured")
        cfg = self.beamformers[method]
        if n_quad is not None and n_quad != cfg.n_quad:
            cfg = replace(cfg, n_quad=n_quad)
        return cfg


def default_config_dict() -> dict:
    """Evaluation-setup defaults: 30-sensor 1 m array, 30 kHz/20 kHz/50 us LFM,
    500 kHz sampling for 0.3 s, decimation 4, a 5-target cross near 32 m with
    a single resolution target at 36 m, and the 28-42 m x +/-6 m grid."""
    return {
        "array": {"n_sensors": 30, "length_m": 1.0, "depth_m": 70.0, "source_x_m": 0.0},
        "environment": {
            "bottom_depth_m": 100.0,
            "surface_reflectivity": -1.0,
            "bottom_reflectivity": 0.10,
            "sos_profile": [[0.0, 1522.0], [50.0, 1520.0], [70.0, 1519.4],
                            [90.0, 1518.8], [100.0, 1518.5]],
        },
        "scene": {
            "targets": [
                {"x_m": 0.0, "range_m": 32.0, "depth_m": 90.0, "reflectivity": 1.0},
                {"x_m": 0.0, "range_m": 31.0, "depth_m": 90.0, "reflectivity": 1.0},
                {"x_m": 0.0, "range_m": 33.0, "depth_m": 90.0, "reflectivity": 1.0},
                {"x_m": -1.0, "range_m": 32.0, "depth_m": 90.0, "reflectivity": 1.0},
                {"x_m": 1.0, "range_m": 32.0, "depth_m": 90.0, "reflectivity": 1.0},
            ],
        },
        "pulse": {"center_frequency_hz": 30000.0, "bandwidth_hz": 20000.0,
                  "duration_s": 50e-6},
        "simulation": {"sample_rate_hz": 500000.0, "record_duration_s": 0.3,
                       "noise_power_db": 80.0, "signal_power_db": 190.0,
                       "ref_level_db": -47.0, "rng_seed": 20240901},
        "chain": {"quantization_bits": 16, "tvg_variant": "two_way",
                  "tvg_speed_m_s": 1519.0, "decimation": 4},
        "beamformers": {
            "das": {"c_fixed_m_s": 1519.0},
            "mvdr": {"c_fixed_m_s": 1519.0, "subarray_length": 16},
            "bayes": {"c_fixed_m_s": 1519.0, "subarray_length": 16,
                      "mu_c_m_s": 1519.0, "sigma_c_m_s": 0.3, "n_quad": 8,
                      "snr0_db": 15.0, "dr_db": 96.0},
        },
        "grid": {"x_min_m": -6.0, "x_max_m": 6.0, "y_min_m": 28.0, "y_max_m": 42.0,
                 "n_x": 256, "n_y": 512},
        "metrics": {
            "target_box": {"x_min": -3.0, "x_max": 3.0, "y_min": 29.0, "y_max": 35.0},
            "artifact_box": {"x_min": -3.0, "x_max": 3.0, "y_min": 37.0, "y_max": 42.0},
            "fwhm_convention": "amplitude",
        },
        "output": {"dynamic_range_db": 60.0},
    }


def _get(section: dict, key: str, path: str, kind, default=None):
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"{path}.{key}", "missing required field")
    value = section[key]
    try:
        if isinstance(value, bool):  # JSON true/false is not a number or a name
            raise TypeError
        if kind is int:
            if isinstance(value, float) and not value.is_integer():
                raise ValueError
            return int(value)
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}.{key}", f"expected {kind.__name__}, got {value!r}") from None


def _section(doc: dict, key: str) -> dict:
    if key not in doc or not isinstance(doc[key], dict):
        raise ConfigError(key, "missing section")
    return doc[key]


def _build(path: str, factory, **kwargs):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document and build the typed run configuration."""
    arr = _section(doc, "array")
    geometry = _build("array", ArrayGeometry.uniform,
                      n_sensors=_get(arr, "n_sensors", "array", int),
                      length=_get(arr, "length_m", "array", float),
                      array_depth=_get(arr, "depth_m", "array", float),
                      source_x=_get(arr, "source_x_m", "array", float, 0.0))

    env_sec = _section(doc, "environment")
    profile = env_sec.get("sos_profile")
    if (not isinstance(profile, list) or not profile
            or any(not isinstance(p, list) or len(p) != 2 for p in profile)):
        raise ConfigError("environment.sos_profile",
                          "expected a non-empty list of [depth_m, speed_m_s] pairs")
    environment = _build("environment", Environment,
                         bottom_depth=_get(env_sec, "bottom_depth_m", "environment", float),
                         sos_profile=tuple((float(z), float(c)) for z, c in profile),
                         surface_reflectivity=_get(env_sec, "surface_reflectivity",
                                                   "environment", float, -1.0),
                         bottom_reflectivity=_get(env_sec, "bottom_reflectivity",
                                                  "environment", float, 0.5))
    for name, depth in (("array", geometry.array_depth), ("source", geometry.source_depth)):
        if not 0 <= depth <= environment.bottom_depth:
            raise ConfigError(f"array.depth_m", f"{name} depth {depth} outside water column")

    scene = _section(doc, "scene")
    raw_targets = scene.get("targets")
    if not isinstance(raw_targets, list):
        raise ConfigError("scene.targets", "expected a list of targets")
    targets = []
    for i, t in enumerate(raw_targets):
        tpath = f"scene.targets[{i}]"
        if not isinstance(t, dict):
            raise ConfigError(tpath, "expected an object")
        depth = _get(t, "depth_m", tpath, float)
        if not 0 <= depth <= environment.bottom_depth:
            raise ConfigError(f"{tpath}.depth_m", "target depth outside water column")
        x = _get(t, "x_m", tpath, float)
        refl = _get(t, "reflectivity", tpath, float, 1.0)
        if "range_m" in t:
            target = _build(tpath, Target.at_slant_range, x=x,
                            slant_range=_get(t, "range_m", tpath, float),
                            depth=depth, array_depth=geometry.array_depth,
                            reflectivity=refl)
        elif "y_m" in t:
            target = Target(x=x, y=_get(t, "y_m", tpath, float), depth=depth,
                            reflectivity=refl)
        else:
            raise ConfigError(tpath, "need either range_m (slant) or y_m (horizontal)")
        targets.append(target)

    pulse_sec = _section(doc, "pulse")
    pulse = _build("pulse", LfmPulse,
                   center_frequency=_get(pulse_sec, "center_frequency_hz", "pulse", float),
                   bandwidth=_get(pulse_sec, "bandwidth_hz", "pulse", float),
                   duration=_get(pulse_sec, "duration_s", "pulse", float))

    sim_sec = _section(doc, "simulation")
    seed = _get(sim_sec, "rng_seed", "simulation", int, SimConfig.rng_seed)
    if seed < 0:
        raise ConfigError("simulation.rng_seed", "seed must be non-negative")
    simulation = _build("simulation", SimConfig,
                        sample_rate=_get(sim_sec, "sample_rate_hz", "simulation", float),
                        record_duration=_get(sim_sec, "record_duration_s", "simulation", float),
                        noise_power_db=_get(sim_sec, "noise_power_db", "simulation", float,
                                            SimConfig.noise_power_db),
                        signal_power_db=_get(sim_sec, "signal_power_db", "simulation", float,
                                             SimConfig.signal_power_db),
                        ref_level_db=_get(sim_sec, "ref_level_db", "simulation", float,
                                          SimConfig.ref_level_db),
                        rng_seed=seed)
    f_top = pulse.center_frequency + 0.5 * pulse.bandwidth
    if simulation.sample_rate <= 2.0 * f_top:
        raise ConfigError("simulation.sample_rate_hz",
                          f"must exceed twice the pulse top frequency ({2 * f_top:g} Hz)")

    chain_sec = _section(doc, "chain")
    chain = ChainConfig(
        quantization_bits=_get(chain_sec, "quantization_bits", "chain", int, 16),
        tvg_variant=_get(chain_sec, "tvg_variant", "chain", str, "two_way"),
        tvg_speed=_get(chain_sec, "tvg_speed_m_s", "chain", float, 1519.0),
        decimation=_get(chain_sec, "decimation", "chain", int, 4))
    if not 2 <= chain.quantization_bits <= 24:
        raise ConfigError("chain.quantization_bits", "must be in [2, 24]")
    if chain.tvg_variant not in TVG_VARIANTS:
        raise ConfigError("chain.tvg_variant", f"must be one of {TVG_VARIANTS}")
    if chain.tvg_speed <= 0:
        raise ConfigError("chain.tvg_speed_m_s", "must be > 0")
    if chain.decimation < 1:
        raise ConfigError("chain.decimation", "must be >= 1")

    bf_sec = _section(doc, "beamformers")
    beamformers = {}
    for method, bf in bf_sec.items():
        bpath = f"beamformers.{method}"
        if method not in METHODS:
            raise ConfigError(bpath, f"unknown method; expected one of {METHODS}")
        if not isinstance(bf, dict):
            raise ConfigError(bpath, "expected an object")
        prior = _build(bpath, SosPrior,
                       mu_c=_get(bf, "mu_c_m_s", bpath, float, 1519.0),
                       sigma_c=_get(bf, "sigma_c_m_s", bpath, float, 0.3))
        if "cov_normalization" in bf:
            # removed option: ignoring it would silently change the results
            raise ConfigError(f"{bpath}.cov_normalization", "no longer supported; the "
                              "covariance is always divided by the snapshot count")
        loading = bf.get("loading_factor")
        cfg = _build(bpath, BeamformerConfig,
                     method=method,
                     c_fixed=_get(bf, "c_fixed_m_s", bpath, float, 1519.0),
                     subarray_length=_get(bf, "subarray_length", bpath, int,
                                          max(geometry.n_sensors // 2 + 1, 1)),
                     prior=prior,
                     n_quad=_get(bf, "n_quad", bpath, int, 8),
                     snr0_db=_get(bf, "snr0_db", bpath, float, 15.0),
                     dr_db=_get(bf, "dr_db", bpath, float, 96.0),
                     loading_factor=(None if loading is None else
                                     _get(bf, "loading_factor", bpath, float)),
                     tvg_variant=chain.tvg_variant)
        if method != METHOD_DAS:
            try:
                cfg.n_subarrays(geometry.n_sensors)
            except ValueError as exc:
                raise ConfigError(f"{bpath}.subarray_length", str(exc)) from None
        beamformers[method] = cfg

    grid_sec = _section(doc, "grid")
    grid = _build("grid", ScanGrid,
                  x_min=_get(grid_sec, "x_min_m", "grid", float),
                  x_max=_get(grid_sec, "x_max_m", "grid", float),
                  y_min=_get(grid_sec, "y_min_m", "grid", float),
                  y_max=_get(grid_sec, "y_max_m", "grid", float),
                  n_x=_get(grid_sec, "n_x", "grid", int),
                  n_y=_get(grid_sec, "n_y", "grid", int))

    met_sec = _section(doc, "metrics")

    def box(key: str) -> Box:
        sub = met_sec.get(key)
        if not isinstance(sub, dict):
            raise ConfigError(f"metrics.{key}", "missing box")
        return Box(x_min=_get(sub, "x_min", f"metrics.{key}", float),
                   x_max=_get(sub, "x_max", f"metrics.{key}", float),
                   y_min=_get(sub, "y_min", f"metrics.{key}", float),
                   y_max=_get(sub, "y_max", f"metrics.{key}", float))

    fwhm_conv = _get(met_sec, "fwhm_convention", "metrics", str, FWHM_AMPLITUDE)
    if fwhm_conv not in (FWHM_AMPLITUDE, FWHM_INTENSITY):
        raise ConfigError("metrics.fwhm_convention",
                          f"must be {FWHM_AMPLITUDE!r} or {FWHM_INTENSITY!r}")

    out_sec = doc.get("output", {})
    dyn = _get(out_sec, "dynamic_range_db", "output", float, 60.0)
    if dyn <= 0:
        raise ConfigError("output.dynamic_range_db", "must be > 0")

    return RunConfig(geometry=geometry, environment=environment, targets=targets,
                     pulse=pulse, simulation=simulation, chain=chain,
                     beamformers=beamformers, grid=grid,
                     target_box=box("target_box"), artifact_box=box("artifact_box"),
                     fwhm_convention=fwhm_conv, dynamic_range_db=dyn)


def load_config(path) -> RunConfig:
    """Read and validate a JSON run configuration file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "top-level JSON value must be an object")
    return parse_config(doc)
