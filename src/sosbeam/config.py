"""Run configuration: a single JSON document validated against every module
invariant before any computation starts.

Each section is read through a table of JSON key -> (constructor parameter,
kind); an omitted key takes the constructor's own default. A beamformer section
takes only the keys its method reads (METHOD_KEYS). Unknown keys, bools, strings
for numbers and non-finite numbers are rejected. Errors carry the dotted path of
the offending field, so a bad config is rejected with a pointer, not a stack trace.
Targets are placed by slant range only (`range_m`); the projector depth and
the FWHM level have no key (the array depth, half amplitude). `c_fixed_m_s`
(das, mvdr) and `mu_c_m_s` (bayes) both set BeamformerConfig.c.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, replace

from .beamform import BeamformerConfig, METHOD_BAYES, METHOD_DAS, METHOD_MVDR
from .chain import ChainConfig, TVG_VARIANTS, replica_length
from .core import ArrayGeometry, LfmPulse, ScanGrid
from .interp import TAPS
from .metrics import Box
from .simulate import Environment, SimConfig, Target


class ConfigError(Exception):
    """Invalid configuration; message starts with the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


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
    dynamic_range_db: float = 60.0

    def beamformer(self, method: str, n_quad: int | None = None) -> BeamformerConfig:
        if method not in self.beamformers:
            raise ConfigError(f"beamformers.{method}", "method not configured")
        cfg = self.beamformers[method]
        if n_quad is not None and n_quad != cfg.n_quad:
            cfg = _build(f"beamformers.{method}.n_quad", replace, cfg, n_quad=n_quad)
        if method == METHOD_BAYES:  # here, as parse_config loads no quadrature rule
            _build(f"beamformers.{method}.sigma_c_m_s", cfg.speeds)
        return cfg


def default_config_dict() -> dict:
    """Evaluation-setup defaults: 30-sensor 1 m array, 30 kHz/20 kHz/50 us LFM,
    500 kHz sampling for 0.3 s, decimation 4, a 5-target cross (31-33 m range
    on axis, x = +/-1 m at 32 m, 90 m deep) and the 28-42 m x +/-6 m grid."""
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
            "bayes": {"subarray_length": 16, "mu_c_m_s": 1519.0, "sigma_c_m_s": 0.3,
                      "n_quad": 8, "snr0_db": 15.0, "dr_db": 96.0},
        },
        "grid": {"x_min_m": -6.0, "x_max_m": 6.0, "y_min_m": 28.0, "y_max_m": 42.0,
                 "n_x": 256, "n_y": 512},
        "metrics": {
            "target_box": {"x_min": -3.0, "x_max": 3.0, "y_min": 29.0, "y_max": 35.0},
            "artifact_box": {"x_min": -3.0, "x_max": 3.0, "y_min": 37.0, "y_max": 42.0},
        },
        "output": {"dynamic_range_db": 60.0},
    }


def _value(value, path: str, kind):
    """One JSON value as int, float or str (no bools or nan/inf, a string only
    as str), as a checked list or dict, or through a function (value, path) -> value."""
    if kind in (list, dict):
        if not isinstance(value, kind):
            raise ConfigError(path, f"expected a JSON {'array' if kind is list else 'object'}")
        return value
    if kind not in (int, float, str):
        return kind(value, path)
    try:
        if isinstance(value, bool) or isinstance(value, str) != (kind is str):
            raise TypeError
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        out = kind(value)
    except (TypeError, ValueError, OverflowError):  # float(10**400) overflows
        raise ConfigError(path, f"expected {kind.__name__}, got {value!r}") from None
    if kind is float and not math.isfinite(out):
        raise ConfigError(path, f"must be finite, got {value!r}")
    return out


def _read(section: dict, path: str, spec, known=None) -> dict:
    """Arguments for spec = (factory, table) from section. An absent key is left
    to the factory's default, or is missing if it has none. Keys outside known
    (default: the table) are rejected."""
    factory, table = spec
    for key in section:
        if key not in (known or table):
            raise ConfigError(f"{path}.{key}", "unknown field")
    kwargs = {}
    for key, (name, kind) in table.items():
        if key in section:
            kwargs[name] = _value(section[key], f"{path}.{key}", kind)
        elif inspect.signature(factory).parameters[name].default is inspect.Parameter.empty:
            raise ConfigError(f"{path}.{key}", "missing required field")
    return kwargs


def _build(path: str, factory, *args, **kwargs):
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _make(section: dict, path: str, spec):
    return _build(path, spec[0], **_read(section, path, spec))


def _section(doc: dict, key: str, default=None) -> dict:
    sec = doc.get(key, default)
    if not isinstance(sec, dict):
        raise ConfigError(key, "missing section" if sec is None else "expected an object")
    return sec


def _profile(value, path: str) -> tuple:
    if (not isinstance(value, list) or not value
            or any(not isinstance(p, list) or len(p) != 2 for p in value)):
        raise ConfigError(path, "expected a non-empty list of [depth_m, speed_m_s] pairs")
    return tuple((_value(z, f"{path}[{i}]", float), _value(c, f"{path}[{i}]", float))
                 for i, (z, c) in enumerate(value))


def _positive(value, path: str) -> float:
    out = _value(value, path, float)
    if out <= 0:
        raise ConfigError(path, "must be > 0")
    return out


def _seed(value, path: str) -> int:
    out = _value(value, path, int)
    if not 0 <= out < 2 ** 64:
        raise ConfigError(path, "seed must be in [0, 2**64)")
    return out


def _box(value, path: str) -> Box:
    return _make(_value(value, path, dict), path, BOX)


# (constructor, {JSON key: (constructor parameter, kind)}), one per constructor
ARRAY = (ArrayGeometry.uniform, {
    "n_sensors": ("n_sensors", int), "length_m": ("length", float),
    "depth_m": ("array_depth", float), "source_x_m": ("source_x", float)})
ENVIRONMENT = (Environment, {
    "bottom_depth_m": ("bottom_depth", float), "sos_profile": ("sos_profile", _profile),
    "surface_reflectivity": ("surface_reflectivity", float),
    "bottom_reflectivity": ("bottom_reflectivity", float)})
TARGET = (Target.at_slant_range, {
    "x_m": ("x", float), "range_m": ("slant_range", float), "depth_m": ("depth", float),
    "reflectivity": ("reflectivity", float)})
PULSE = (LfmPulse, {"center_frequency_hz": ("center_frequency", float),
                    "bandwidth_hz": ("bandwidth", float), "duration_s": ("duration", float)})
SIMULATION = (SimConfig, {
    "sample_rate_hz": ("sample_rate", float), "record_duration_s": ("record_duration", float),
    "noise_power_db": ("noise_power_db", float), "signal_power_db": ("signal_power_db", float),
    "ref_level_db": ("ref_level_db", float), "rng_seed": ("rng_seed", _seed)})
CHAIN = (ChainConfig, {
    "quantization_bits": ("quantization_bits", int), "tvg_variant": ("tvg_variant", str),
    "tvg_speed_m_s": ("tvg_speed", _positive), "decimation": ("decimation", int)})
BEAMFORMER = (BeamformerConfig, {
    "c_fixed_m_s": ("c", _positive), "mu_c_m_s": ("c", _positive),
    "sigma_c_m_s": ("sigma_c", float), "subarray_length": ("subarray_length", int),
    "n_quad": ("n_quad", int), "snr0_db": ("snr0_db", float), "dr_db": ("dr_db", float),
    "loading_factor": ("loading_factor", float)})
# the BEAMFORMER keys each method reads; any other key is rejected
METHOD_KEYS = {
    METHOD_DAS: {"c_fixed_m_s"},
    METHOD_MVDR: {"c_fixed_m_s", "subarray_length", "loading_factor"},
    METHOD_BAYES: {"subarray_length", "loading_factor", "n_quad", "snr0_db", "dr_db",
                   "mu_c_m_s", "sigma_c_m_s"},
}
GRID = (ScanGrid, {"x_min_m": ("x_min", float), "x_max_m": ("x_max", float),
                   "y_min_m": ("y_min", float), "y_max_m": ("y_max", float),
                   "n_x": ("n_x", int), "n_y": ("n_y", int)})
BOX = (Box, {key: (key, float) for key in ("x_min", "x_max", "y_min", "y_max")})
SCENE = (RunConfig, {"targets": ("targets", list)})
METRICS = (RunConfig, {"target_box": ("target_box", _box),
                       "artifact_box": ("artifact_box", _box)})
OUTPUT = (RunConfig, {"dynamic_range_db": ("dynamic_range_db", _positive)})
SECTIONS = ("array", "environment", "scene", "pulse", "simulation", "chain",
            "beamformers", "grid", "metrics", "output")


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document and build the typed run configuration."""
    for key in doc:
        if key not in SECTIONS:
            raise ConfigError(key, "unknown section")
    geometry = _make(_section(doc, "array"), "array", ARRAY)
    environment = _make(_section(doc, "environment"), "environment", ENVIRONMENT)
    if not 0 <= geometry.array_depth <= environment.bottom_depth:  # the source is there too
        raise ConfigError("array.depth_m", "array depth outside water column")

    targets = []
    for i, t in enumerate(_read(_section(doc, "scene"), "scene", SCENE)["targets"]):
        tpath = f"scene.targets[{i}]"
        args = _read(_value(t, tpath, dict), tpath, TARGET)
        if not 0 <= args["depth"] <= environment.bottom_depth:
            raise ConfigError(f"{tpath}.depth_m", "target depth outside water column")
        targets.append(_build(tpath, Target.at_slant_range, **args,
                              array_depth=geometry.array_depth))

    pulse = _make(_section(doc, "pulse"), "pulse", PULSE)
    simulation = _make(_section(doc, "simulation"), "simulation", SIMULATION)
    f_top = pulse.center_frequency + 0.5 * pulse.bandwidth
    if simulation.sample_rate <= 2.0 * f_top:
        raise ConfigError("simulation.sample_rate_hz",
                          f"must exceed twice the pulse top frequency ({2 * f_top:g} Hz)")
    if round(pulse.duration * simulation.sample_rate) < 1:
        raise ConfigError("pulse.duration_s", "shorter than one sample at "
                          f"{simulation.sample_rate:g} Hz")
    replica = replica_length(pulse, simulation.sample_rate)
    if simulation.n_samples < replica:
        raise ConfigError("simulation.record_duration_s",
                          f"{simulation.n_samples} samples, shorter than the {replica}-sample "
                          "matched-filter replica")

    chain = _make(_section(doc, "chain"), "chain", CHAIN)
    if not 2 <= chain.quantization_bits <= 24:
        raise ConfigError("chain.quantization_bits", "must be in [2, 24]")
    if chain.tvg_variant not in TVG_VARIANTS:
        raise ConfigError("chain.tvg_variant", f"must be one of {TVG_VARIANTS}")
    if chain.decimation < 1:
        raise ConfigError("chain.decimation", "must be >= 1")
    if -(-simulation.n_samples // chain.decimation) < TAPS:
        raise ConfigError("chain.decimation", f"leaves fewer than the {TAPS} baseband "
                          "samples the interpolation stencil reads")

    beamformers = {}
    for method, bf in _section(doc, "beamformers").items():
        bpath = f"beamformers.{method}"
        if method not in METHOD_KEYS:
            raise ConfigError(bpath, f"unknown method; expected one of {tuple(METHOD_KEYS)}")
        args = _read(_value(bf, bpath, dict), bpath, BEAMFORMER, METHOD_KEYS[method])
        args.setdefault("subarray_length", geometry.n_sensors // 2 + 1)  # derived fallback
        cfg = _build(bpath, BeamformerConfig, method=method, tvg_variant=chain.tvg_variant,
                     **args)
        try:
            cfg.n_subarrays(geometry.n_sensors)
        except ValueError as exc:
            raise ConfigError(f"{bpath}.subarray_length", str(exc)) from None
        beamformers[method] = cfg

    grid = _make(_section(doc, "grid"), "grid", GRID)
    run = RunConfig(geometry=geometry, environment=environment, targets=targets,
                    pulse=pulse, simulation=simulation, chain=chain,
                    beamformers=beamformers, grid=grid,
                    **_read(_section(doc, "metrics"), "metrics", METRICS),
                    **_read(_section(doc, "output", {}), "output", OUTPUT))
    for key in ("target_box", "artifact_box"):
        _build(f"metrics.{key}", getattr(run, key).indices, grid)
    if run.target_box.overlaps(run.artifact_box):
        raise ConfigError("metrics.artifact_box", "overlaps metrics.target_box")
    return run


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key given twice is a ValueError, not overwritten."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} given twice in one object")
        doc[key] = value
    return doc


def load_config(path) -> RunConfig:
    """Read and validate a JSON run configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # undecodable, malformed, too deep or a key twice
        raise ConfigError(str(path), f"invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(str(path), "top-level JSON value must be an object")
    return parse_config(doc)
