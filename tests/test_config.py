import inspect
import json
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sosbeam import config
from sosbeam.beamform import beamform_points
from sosbeam.chain import receive_chain
from sosbeam.config import (ConfigError, default_config_dict, load_config,
                            parse_config)
from sosbeam.simulate import synthesize_rx


@pytest.fixture
def doc():
    return default_config_dict()


class TestDefaults:
    def test_default_document_parses(self, doc):
        cfg = parse_config(doc)
        assert cfg.geometry.n_sensors == 30
        assert cfg.pulse.center_frequency == 30e3
        assert cfg.simulation.n_samples == 150000
        assert cfg.grid.n_x == 256 and cfg.grid.n_y == 512
        assert set(cfg.beamformers) == {"das", "mvdr", "bayes"}
        bayes = cfg.beamformers["bayes"]
        assert bayes.c == 1519.0 and bayes.sigma_c == 0.3
        assert bayes.n_quad == 8 and bayes.snr0_db == 15.0 and bayes.dr_db == 96.0
        # N_sub = n_sensors / 2 per the evaluation setup
        assert bayes.n_subarrays(30) == 15
        assert bayes.loading(15) == pytest.approx(1e-3 / 15)

    def test_round_trip_through_file(self, doc, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert cfg.geometry.n_sensors == 30


class TestRejection:
    def error_path(self, doc):
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        return info.value.path

    def test_missing_section(self, doc):
        del doc["pulse"]
        assert self.error_path(doc) == "pulse"

    def test_bad_pulse_bandwidth(self, doc):
        doc["pulse"]["bandwidth_hz"] = 100e3  # >= 2 * center
        assert self.error_path(doc) == "pulse"

    def test_bad_type_reports_field(self, doc):
        doc["array"]["n_sensors"] = "thirty"
        assert self.error_path(doc) == "array.n_sensors"

    def test_profile_shape_checked(self, doc):
        doc["environment"]["sos_profile"] = [[0.0, 1500.0], [10.0]]
        assert self.error_path(doc) == "environment.sos_profile"

    def test_profile_depths_increasing(self, doc):
        doc["environment"]["sos_profile"] = [[0.0, 1500.0], [0.0, 1510.0]]
        assert self.error_path(doc) == "environment"

    def test_target_depth_in_column(self, doc):
        doc["scene"]["targets"][0]["depth_m"] = 150.0
        assert self.error_path(doc) == "scene.targets[0].depth_m"

    def test_target_needs_a_range_key(self, doc):
        del doc["scene"]["targets"][0]["range_m"]
        assert self.error_path(doc) == "scene.targets[0].range_m"

    @pytest.mark.parametrize("duration", [1e-9, 1e-6])  # 0.0005 and 0.5 samples
    def test_pulse_shorter_than_one_sample(self, doc, duration):
        doc["pulse"]["duration_s"] = duration
        assert self.error_path(doc) == "pulse.duration_s"

    @pytest.mark.parametrize("duration", [2e-5, 3.04e-4])  # 10 and 152 samples
    def test_record_shorter_than_the_replica(self, doc, duration):
        # the 50 us pulse at 500 kHz is 25 samples, its replica 25 + 2 * 64
        doc["simulation"]["record_duration_s"] = duration
        assert self.error_path(doc) == "simulation.record_duration_s"

    def test_record_as_long_as_the_replica_parses(self, doc):
        doc["simulation"]["record_duration_s"] = 3.06e-4  # 153 samples
        assert parse_config(doc).simulation.n_samples == 153

    @pytest.mark.parametrize("decimation", [100000, 21429])  # 2 and 7 baseband samples
    def test_decimation_leaving_less_than_the_stencil(self, doc, decimation):
        doc["chain"]["decimation"] = decimation
        assert self.error_path(doc) == "chain.decimation"

    def test_carrier_step_beyond_2_pi_images(self, doc):
        # 2*pi*30 kHz / 12.5 kHz = 15.1 rad per sample
        doc["chain"]["decimation"] = 40
        assert parse_config(doc).beamformer("das").method == "das"

    def test_decimation_leaving_the_stencil_parses(self, doc):
        doc["chain"]["decimation"] = 21428  # 8 baseband samples
        assert parse_config(doc).chain.decimation == 21428

    def test_nyquist_enforced(self, doc):
        doc["simulation"]["sample_rate_hz"] = 60e3
        assert self.error_path(doc) == "simulation.sample_rate_hz"

    def test_negative_seed_rejected(self, doc):
        doc["simulation"]["rng_seed"] = -1
        assert self.error_path(doc) == "simulation.rng_seed"

    def test_quantization_bits_range(self, doc):
        doc["chain"]["quantization_bits"] = 1
        assert self.error_path(doc) == "chain.quantization_bits"

    def test_unknown_tvg_variant(self, doc):
        doc["chain"]["tvg_variant"] = "sideways"
        assert self.error_path(doc) == "chain.tvg_variant"

    def test_unknown_method(self, doc):
        doc["beamformers"]["music"] = {}
        assert self.error_path(doc) == "beamformers.music"

    def test_subarray_longer_than_array(self, doc):
        doc["beamformers"]["mvdr"]["subarray_length"] = 31
        assert self.error_path(doc) == "beamformers.mvdr.subarray_length"

    def test_negative_sigma_rejected(self, doc):
        doc["beamformers"]["bayes"]["sigma_c_m_s"] = -0.5
        assert self.error_path(doc) == "beamformers.bayes"

    def test_grid_pixel_counts(self, doc):
        doc["grid"]["n_x"] = 0
        assert self.error_path(doc) == "grid"

    def test_metrics_box_required(self, doc):
        del doc["metrics"]["target_box"]
        assert self.error_path(doc) == "metrics.target_box"

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("content", [b'\xff\xfe{"a": 1}', b"[" * 100000],
                             ids=["not_utf8", "too_deep"])
    def test_undecodable_or_too_deep_file(self, tmp_path, content):
        path = tmp_path / "broken.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="invalid JSON") as info:
            load_config(path)
        assert info.value.path == str(path)

    def test_n_quad_override(self, doc):
        doc["beamformers"]["bayes"].update(loading_factor=0.002, subarray_length=12)
        doc["chain"]["tvg_variant"] = "pi_range"
        cfg = parse_config(doc)
        base = cfg.beamformer("bayes")
        override = cfg.beamformer("bayes", n_quad=32)
        assert override.n_quad == 32
        assert base.n_quad == 8
        for f in fields(base):
            if f.name != "n_quad":
                assert getattr(override, f.name) == getattr(base, f.name), f.name

    def test_das_subarray_length_rejected(self, doc):
        doc["beamformers"]["das"]["subarray_length"] = 31
        assert self.error_path(doc) == "beamformers.das.subarray_length"

    def test_negative_loading_factor_rejected(self, doc):
        doc["beamformers"]["mvdr"]["loading_factor"] = -1.0
        with pytest.raises(ConfigError, match="loading_factor"):
            parse_config(doc)

    def test_nan_loading_factor_rejected(self, doc):
        doc["beamformers"]["mvdr"]["loading_factor"] = float("nan")
        with pytest.raises(ConfigError, match="loading_factor"):
            parse_config(doc)

    def test_non_numeric_loading_factor_reports_field(self, doc):
        doc["beamformers"]["mvdr"]["loading_factor"] = "abc"
        assert self.error_path(doc) == "beamformers.mvdr.loading_factor"

    def test_removed_cov_normalization_rejected(self, doc):
        doc["beamformers"]["bayes"]["cov_normalization"] = "n_sub"
        assert self.error_path(doc) == "beamformers.bayes.cov_normalization"

    def test_bool_is_not_a_number(self, doc):
        doc["array"]["n_sensors"] = True
        assert self.error_path(doc) == "array.n_sensors"


class TestFallbacks:
    def test_simulation_fallbacks_are_simconfig_defaults(self, doc):
        from sosbeam.simulate import SimConfig
        for key in ("noise_power_db", "signal_power_db", "ref_level_db", "rng_seed"):
            del doc["simulation"][key]
        sim = parse_config(doc).simulation
        defaults = SimConfig(sample_rate=sim.sample_rate,
                             record_duration=sim.record_duration)
        assert sim == defaults
        assert sim.ref_level_db == -47.0

    def test_subarray_length_falls_back_to_half_the_array(self, doc):
        doc["array"]["n_sensors"] = 20
        del doc["beamformers"]["mvdr"]["subarray_length"]
        assert parse_config(doc).beamformers["mvdr"].subarray_length == 11


def table_doc():
    """The default document with two targets, so a path must name the right
    one; both stay valid for any array depth in the water column."""
    doc = default_config_dict()
    doc["scene"]["targets"] = [
        {"x_m": 0.0, "range_m": 95.0, "depth_m": 90.0, "reflectivity": 1.0},
        {"x_m": 1.0, "range_m": 96.0, "depth_m": 90.0, "reflectivity": 1.0}]
    doc["beamformers"]["bayes"]["loading_factor"] = 0.002
    return doc


def node(doc, path):
    """The object at a field path such as scene.targets[0]."""
    for part in re.findall(r"[^.\[\]]+", path):
        doc = doc[int(part)] if part.isdigit() else doc[part]
    return doc


def only(spec, keys):
    """spec with its key table cut down to keys."""
    factory, table = spec
    return factory, {key: entry for key, entry in table.items() if key in keys}


# (field path, key table, the object the table builds)
TABLES = [
    ("array", config.ARRAY, lambda c: c.geometry),
    ("environment", config.ENVIRONMENT, lambda c: c.environment),
    ("scene", config.SCENE, lambda c: c),
    ("scene.targets[0]", config.TARGET, lambda c: c.targets[0]),
    ("scene.targets[1]", config.TARGET, lambda c: c.targets[1]),
    ("pulse", config.PULSE, lambda c: c.pulse),
    ("simulation", config.SIMULATION, lambda c: c.simulation),
    ("chain", config.CHAIN, lambda c: c.chain),
    ("beamformers.bayes", only(config.BEAMFORMER, config.METHOD_KEYS["bayes"]),
     lambda c: c.beamformers["bayes"]),
    # the one BEAMFORMER key that Bayes does not read
    ("beamformers.mvdr", only(config.BEAMFORMER, {"c_fixed_m_s"}),
     lambda c: c.beamformers["mvdr"]),
    ("grid", config.GRID, lambda c: c.grid),
    ("metrics.target_box", config.BOX, lambda c: c.target_box),
    ("metrics", config.METRICS, lambda c: c),
    ("output", config.OUTPUT, lambda c: c),
]
KEYS = [(path, key, name, kind, factory, built)
        for path, (factory, table), built in TABLES
        for key, (name, kind) in table.items()]
DEFAULTED = [(path, key, name, factory, built)
             for path, key, name, _, factory, built in KEYS
             if inspect.signature(factory).parameters[name].default
             is not inspect.Parameter.empty and key != "subarray_length"]
OPTIONAL = [pytest.param(*entry, id=f"{entry[0]}.{entry[1]}") for entry in DEFAULTED]
NUMERIC = [pytest.param(path, key, bad, id=f"{path}.{key}={bad}")
           for path, key, _, kind, _, _ in KEYS
           if kind in (int, config._seed, float, config._positive)
           for bad in ((True,) if kind in (int, config._seed)
                       else (float("nan"), float("inf"), True))]


# a value of each JSON kind, the kind each key table kind reads, and every key
# with a value of another kind
SAMPLES = {"boolean": True, "string": "1.5", "number": 1.5, "array": [1.5],
           "object": {"x_min": 1.5}}
READS = {int: "number", config._seed: "number", float: "number", config._positive: "number",
         str: "string", list: "array", config._profile: "array", config._box: "object"}
WRONG_KIND = [(path, key, value) for path, key, _, kind, _, _ in KEYS
              for json_kind, value in SAMPLES.items() if json_kind != READS[kind]]


class TestKeyTables:
    @pytest.mark.parametrize("path, key, name, factory, built", OPTIONAL)
    def test_omitted_key_takes_constructor_default(self, path, key, name, factory, built):
        doc = table_doc()
        del node(doc, path)[key]
        default = inspect.signature(factory).parameters[name].default
        assert getattr(built(parse_config(doc)), name) == default

    @given(omit=st.sets(st.sampled_from(DEFAULTED)))
    def test_property_omitted_keys_take_constructor_defaults(self, omit):
        doc = table_doc()
        for path, key, *_ in omit:
            del node(doc, path)[key]
        cfg = parse_config(doc)
        for _, _, name, factory, built in omit:
            default = inspect.signature(factory).parameters[name].default
            assert getattr(built(cfg), name) == default

    @given(entry=st.sampled_from(WRONG_KIND))
    def test_property_wrong_json_kind_reports_its_key(self, entry):
        path, key, value = entry
        doc = table_doc()
        node(doc, path)[key] = value
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.path == f"{path}.{key}"

    @pytest.mark.parametrize("path, key, bad", NUMERIC)
    def test_bad_number_reports_its_key(self, path, key, bad):
        doc = table_doc()
        node(doc, path)[key] = bad
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.path == f"{path}.{key}"

    @pytest.mark.parametrize("path", sorted({path for path, _, _ in TABLES}
                                            | {"beamformers.das"}))
    def test_unknown_key_rejected(self, path):
        doc = table_doc()
        node(doc, path)["bogus"] = 1.0
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.path == f"{path}.bogus"

    def test_unknown_section_rejected(self, doc):
        doc["beamformer"] = {}
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert info.value.path == "beamformer"

    def test_required_keys_reported_missing(self):
        for path, (factory, table), _ in TABLES:
            params = inspect.signature(factory).parameters
            for key, (name, _) in table.items():
                if params[name].default is inspect.Parameter.empty:
                    doc = table_doc()
                    del node(doc, path)[key]
                    with pytest.raises(ConfigError, match="missing required field") as info:
                        parse_config(doc)
                    assert info.value.path == f"{path}.{key}"


class TestRangeChecks:
    def error_path(self, doc):
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        return info.value.path

    @pytest.mark.parametrize("speed", [0.0, -5.0])
    def test_non_positive_fixed_speed(self, doc, speed):
        doc["beamformers"]["das"]["c_fixed_m_s"] = speed
        with pytest.raises(ConfigError, match="c_fixed") as info:
            parse_config(doc)
        assert info.value.path == "beamformers.das.c_fixed_m_s"

    def test_n_quad_above_max_nodes(self, doc):
        doc["beamformers"]["bayes"]["n_quad"] = 500
        with pytest.raises(ConfigError, match="n_quad") as info:
            parse_config(doc)
        assert info.value.path == "beamformers.bayes"

    def test_inverted_box(self, doc):
        doc["metrics"]["target_box"].update(x_min=3.0, x_max=-3.0)
        assert self.error_path(doc) == "metrics.target_box"

    def test_box_off_the_grid(self, doc):
        doc["metrics"]["target_box"].update(x_min=100.0, x_max=101.0)
        assert self.error_path(doc) == "metrics.target_box"

    def test_overlapping_boxes(self, doc):
        doc["metrics"]["artifact_box"]["y_min"] = 34.0
        assert self.error_path(doc) == "metrics.artifact_box"

    def test_seed_below_2_to_the_64(self, doc):
        doc["simulation"]["rng_seed"] = 2 ** 64 - 1
        assert parse_config(doc).simulation.rng_seed == 2 ** 64 - 1
        doc["simulation"]["rng_seed"] = 2 ** 70
        assert self.error_path(doc) == "simulation.rng_seed"

    @pytest.mark.parametrize("section, value", [("output", 5), ("metrics", [])])
    def test_section_must_be_an_object(self, doc, section, value):
        doc[section] = value
        assert self.error_path(doc) == section

    def test_non_numeric_profile_entry(self, doc):
        doc["environment"]["sos_profile"] = [["a", 1500.0]]
        assert self.error_path(doc) == "environment.sos_profile[0]"

    def test_nan_profile_speed(self, doc):
        doc["environment"]["sos_profile"][1][1] = float("nan")
        assert self.error_path(doc) == "environment.sos_profile[1]"

    def test_integer_too_large_for_a_float(self, doc):
        doc["pulse"]["duration_s"] = 10 ** 400
        assert self.error_path(doc) == "pulse.duration_s"

    @pytest.mark.parametrize("n_quad", [0, -3, 500])
    def test_bad_n_quad_override(self, doc, n_quad):
        cfg = parse_config(doc)
        with pytest.raises(ConfigError) as info:
            cfg.beamformer("bayes", n_quad=n_quad)
        assert info.value.path == "beamformers.bayes.n_quad"

    def test_nan_round_trips_through_a_file(self, doc, tmp_path):
        doc["beamformers"]["bayes"]["mu_c_m_s"] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # written as NaN, which json.load accepts
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert info.value.path == "beamformers.bayes.mu_c_m_s"


# a changed value for each beamformer key, valid for every method that reads it
CHANGED = {"c_fixed_m_s": 1500.0, "subarray_length": 12, "loading_factor": 0.01,
           "n_quad": 16, "snr0_db": 5.0, "dr_db": 80.0, "mu_c_m_s": 1510.0,
           "sigma_c_m_s": 2.0}
ACCEPTED = [(method, key) for method, keys in config.METHOD_KEYS.items()
            for key in sorted(keys)]
FOREIGN = [(method, key) for method, keys in config.METHOD_KEYS.items()
           for key in sorted(set(CHANGED) - keys)]


def short_doc():
    """The default scene with one target and a record that ends past it."""
    doc = default_config_dict()
    doc["simulation"]["record_duration_s"] = 0.1
    doc["scene"]["targets"] = doc["scene"]["targets"][:1]
    return doc


class TestMethodKeys:
    @pytest.fixture(scope="class")
    def scene(self):
        cfg = parse_config(short_doc())
        raw = synthesize_rx(cfg.targets, cfg.geometry, cfg.pulse, cfg.environment,
                            cfg.simulation)
        px, py = np.meshgrid(np.linspace(-0.4, 0.4, 3), np.linspace(31.8, 32.2, 3))
        return receive_chain(raw, cfg.pulse, cfg.chain), cfg.geometry, px, py

    def test_keys_are_the_beamformer_tables(self):
        assert set(CHANGED) == set(config.BEAMFORMER[1])
        assert set().union(*config.METHOD_KEYS.values()) == set(CHANGED)
        assert len(ACCEPTED) == 11 and len(FOREIGN) == 13

    @pytest.mark.parametrize("method, key", ACCEPTED)
    def test_every_accepted_key_changes_the_pixels(self, scene, method, key):
        baseband, geom, px, py = scene
        doc = short_doc()
        base = beamform_points(baseband, px, py, parse_config(doc).beamformers[method], geom)
        assert doc["beamformers"][method].get(key) != CHANGED[key]
        doc["beamformers"][method][key] = CHANGED[key]
        changed = beamform_points(baseband, px, py, parse_config(doc).beamformers[method],
                                  geom)
        assert not np.array_equal(changed.values, base.values)

    @given(pair=st.sampled_from(FOREIGN),
           value=st.one_of(st.integers(-5, 64), st.floats(), st.booleans(), st.none(),
                           st.text(max_size=3)))
    def test_property_other_methods_keys_rejected(self, pair, value):
        method, key = pair
        doc = default_config_dict()
        doc["beamformers"][method][key] = value
        with pytest.raises(ConfigError, match="unknown field") as info:
            parse_config(doc)
        assert info.value.path == f"beamformers.{method}.{key}"


# a value other than the default for every key of table_doc, each drawn from a
# range that keeps the document valid whatever the other keys hold
F = st.floats
VALID = {
    ("array", "n_sensors"): st.integers(16, 64), ("array", "length_m"): F(0.2, 3.0),
    ("array", "depth_m"): F(0.0, 95.0), ("array", "source_x_m"): F(-2.0, 2.0),
    ("environment", "bottom_depth_m"): F(100.0, 300.0),
    ("environment", "surface_reflectivity"): F(-1.0, 1.0),
    ("environment", "bottom_reflectivity"): F(0.0, 1.0),
    ("environment", "sos_profile"): st.lists(F(0.0, 300.0), min_size=1, max_size=5,
                                             unique=True).map(
        lambda zs: [[z, 1400.0 + z] for z in sorted(zs)]),
    **{(f"scene.targets[{i}]", key): value for i in (0, 1) for key, value in (
        ("x_m", F(-5.0, 5.0)), ("range_m", F(101.0, 150.0)), ("depth_m", F(0.0, 100.0)),
        ("reflectivity", F(-1.0, 2.0)))},
    ("pulse", "center_frequency_hz"): F(20e3, 40e3), ("pulse", "bandwidth_hz"): F(2e3, 20e3),
    ("pulse", "duration_s"): F(2e-5, 1e-4),
    ("simulation", "sample_rate_hz"): F(3e5, 6e5),
    ("simulation", "record_duration_s"): F(0.05, 0.3),
    **{("simulation", key): F(-200.0, 300.0)
       for key in ("noise_power_db", "signal_power_db", "ref_level_db")},
    ("simulation", "rng_seed"): st.integers(0, 2 ** 64 - 1),
    ("chain", "quantization_bits"): st.integers(2, 24),
    ("chain", "tvg_variant"): st.sampled_from(config.TVG_VARIANTS),
    ("chain", "tvg_speed_m_s"): F(1400.0, 1600.0), ("chain", "decimation"): st.integers(1, 8),
    ("beamformers.bayes", "subarray_length"): st.integers(1, 16),
    ("beamformers.bayes", "loading_factor"): F(0.0, 0.1),
    ("beamformers.bayes", "n_quad"): st.integers(1, 128),
    ("beamformers.bayes", "snr0_db"): F(-20.0, 40.0), ("beamformers.bayes", "dr_db"): F(1.0, 150.0),
    ("beamformers.bayes", "mu_c_m_s"): F(1400.0, 1600.0),
    ("beamformers.bayes", "sigma_c_m_s"): F(0.0, 5.0),
    ("beamformers.mvdr", "c_fixed_m_s"): F(1400.0, 1600.0),
    ("beamformers.mvdr", "subarray_length"): st.integers(1, 16),
    ("beamformers.das", "c_fixed_m_s"): F(1400.0, 1600.0),
    ("grid", "x_min_m"): F(-10.0, -3.0), ("grid", "x_max_m"): F(3.0, 10.0),
    ("grid", "y_min_m"): F(20.0, 29.0), ("grid", "y_max_m"): F(42.0, 60.0),
    ("grid", "n_x"): st.integers(16, 512), ("grid", "n_y"): st.integers(32, 1024),
    ("output", "dynamic_range_db"): F(1.0, 120.0),
}
# values out of each key's range, with every other key at table_doc's value
# (a wrong JSON kind and nan/inf are tested for every key above)
OUT_OF_RANGE = {
    ("array", "n_sensors"): st.integers(-5, 0), ("array", "length_m"): F(-3.0, 0.0),
    ("array", "depth_m"): st.one_of(F(-50.0, -0.1), F(100.1, 500.0)),
    ("environment", "bottom_depth_m"): F(-100.0, 0.0),
    ("environment", "sos_profile"): st.sampled_from([[], [[10.0, 1500.0], [5.0, 1500.0]],
                                                     [[0.0, -1.0]], [[0.0]]]),
    ("scene.targets[0]", "range_m"): F(-10.0, 20.0),
    ("scene.targets[0]", "depth_m"): st.one_of(F(-50.0, -0.1), F(100.1, 500.0)),
    ("pulse", "center_frequency_hz"): F(-1e4, 0.0), ("pulse", "bandwidth_hz"): F(-1e4, 0.0),
    ("pulse", "duration_s"): F(-1e-4, 0.0), ("simulation", "sample_rate_hz"): F(-1e5, 8e4),
    ("simulation", "record_duration_s"): F(-1.0, 0.0),
    ("simulation", "rng_seed"): st.one_of(st.integers(-100, -1), st.integers(2 ** 64, 2 ** 70)),
    ("chain", "quantization_bits"): st.one_of(st.integers(-3, 1), st.integers(25, 64)),
    ("chain", "tvg_variant"): st.text(max_size=4), ("chain", "tvg_speed_m_s"): F(-10.0, 0.0),
    ("chain", "decimation"): st.one_of(st.integers(-3, 0), st.integers(21429, 10 ** 6)),
    ("beamformers.bayes", "subarray_length"): st.one_of(st.integers(-3, 0),
                                                        st.integers(31, 100)),
    ("beamformers.bayes", "loading_factor"): F(-1.0, -1e-9),
    ("beamformers.bayes", "n_quad"): st.one_of(st.integers(-3, 0), st.integers(129, 500)),
    ("beamformers.bayes", "dr_db"): F(-10.0, 0.0), ("beamformers.bayes", "mu_c_m_s"): F(-10.0, 0.0),
    ("beamformers.bayes", "sigma_c_m_s"): F(-5.0, -1e-9),
    ("grid", "n_x"): st.integers(-3, 0), ("grid", "y_min_m"): F(60.0, 100.0),
    ("output", "dynamic_range_db"): F(-10.0, 0.0),
}


def names_field(error_path: str, field: str) -> bool:
    """Whether an error's path is the field's own or one of its sections'."""
    return field == error_path or field.startswith((error_path + ".", error_path + "["))


class TestConfigProperties:
    def test_every_key_has_a_valid_strategy(self):
        keys = {(path, key) for path, key, *_ in KEYS} | {("beamformers.das", "c_fixed_m_s"),
                                                          ("beamformers.mvdr", "subarray_length")}
        # scene.targets is a list of target objects, metrics.* the boxes
        assert keys - set(VALID) == {("scene", "targets"), ("metrics", "target_box"),
                                     ("metrics", "artifact_box")} | {
            ("metrics.target_box", k) for k in ("x_min", "x_max", "y_min", "y_max")}

    @given(values=st.fixed_dictionaries({}, optional=VALID))
    def test_property_valid_non_default_values_parse(self, values):
        doc = table_doc()
        doc["beamformers"]["mvdr"]["subarray_length"] = 16
        for (path, key), value in values.items():
            node(doc, path)[key] = value
        cfg = parse_config(doc)
        built = {(path, key): (name, get) for path, key, name, _, _, get in KEYS}
        for (path, key), value in values.items():
            name, get = built.get((path, key), (None, None))
            if get is not None and hasattr(get(cfg), name) and not isinstance(value, list):
                assert getattr(get(cfg), name) == value, (path, key)

    @pytest.mark.parametrize("path, key", sorted(OUT_OF_RANGE))
    @settings(max_examples=10)
    @given(data=st.data())
    def test_property_bad_field_names_its_path(self, path, key, data):
        bad = data.draw(OUT_OF_RANGE[path, key])
        doc = table_doc()
        node(doc, path)[key] = bad
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert names_field(info.value.path, f"{path}.{key}"), (info.value.path, bad)
