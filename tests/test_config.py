import inspect
import json
import re
from dataclasses import fields

import pytest

from sosbeam import config
from sosbeam.config import (ConfigError, default_config_dict, load_config,
                            parse_config)


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
        assert bayes.prior.mu_c == 1519.0 and bayes.prior.sigma_c == 0.3
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
        assert self.error_path(doc) == "scene.targets[0]"

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

    def test_n_quad_override(self, doc):
        doc["beamformers"]["bayes"].update(loading_factor=0.002, subarray_length=12,
                                           c_fixed_m_s=1500.0)
        doc["chain"]["tvg_variant"] = "pi_range"
        cfg = parse_config(doc)
        base = cfg.beamformer("bayes")
        override = cfg.beamformer("bayes", n_quad=32)
        assert override.n_quad == 32
        assert base.n_quad == 8
        for f in fields(base):
            if f.name != "n_quad":
                assert getattr(override, f.name) == getattr(base, f.name), f.name

    def test_das_subarray_length_not_checked(self, doc):
        doc["beamformers"]["das"]["subarray_length"] = 31
        assert parse_config(doc).beamformers["das"].subarray_length == 31

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
    """The default document with one target of each form; both stay valid for
    any array depth in the water column."""
    doc = default_config_dict()
    doc["scene"]["targets"] = [
        {"x_m": 0.0, "range_m": 95.0, "depth_m": 90.0, "reflectivity": 1.0},
        {"x_m": 0.0, "y_m": 30.0, "depth_m": 90.0, "reflectivity": 1.0}]
    doc["beamformers"]["bayes"]["loading_factor"] = 0.002
    return doc


def node(doc, path):
    """The object at a field path such as scene.targets[0]."""
    for part in re.findall(r"[^.\[\]]+", path):
        doc = doc[int(part)] if part.isdigit() else doc[part]
    return doc


# (field path, key table, the object the table builds)
TABLES = [
    ("array", config.ARRAY, lambda c: c.geometry),
    ("environment", config.ENVIRONMENT, lambda c: c.environment),
    ("scene", config.SCENE, lambda c: c),
    ("scene.targets[0]", config.SLANT_TARGET, lambda c: c.targets[0]),
    ("scene.targets[1]", config.TARGET, lambda c: c.targets[1]),
    ("pulse", config.PULSE, lambda c: c.pulse),
    ("simulation", config.SIMULATION, lambda c: c.simulation),
    ("chain", config.CHAIN, lambda c: c.chain),
    ("beamformers.bayes", config.PRIOR, lambda c: c.beamformers["bayes"].prior),
    ("beamformers.bayes", config.BEAMFORMER, lambda c: c.beamformers["bayes"]),
    ("grid", config.GRID, lambda c: c.grid),
    ("metrics.target_box", config.BOX, lambda c: c.target_box),
    ("metrics", config.METRICS, lambda c: c),
    ("output", config.OUTPUT, lambda c: c),
]
KEYS = [(path, key, name, kind, factory, built)
        for path, (factory, table), built in TABLES
        for key, (name, kind) in table.items()]
OPTIONAL = [pytest.param(path, key, name, factory, built, id=f"{path}.{key}")
            for path, key, name, _, factory, built in KEYS
            if inspect.signature(factory).parameters[name].default
            is not inspect.Parameter.empty and key != "subarray_length"]
NUMERIC = [pytest.param(path, key, bad, id=f"{path}.{key}={bad}")
           for path, key, _, kind, _, _ in KEYS if kind in (int, float)
           for bad in ((float("nan"), float("inf"), True) if kind is float else (True,))]


class TestKeyTables:
    @pytest.mark.parametrize("path, key, name, factory, built", OPTIONAL)
    def test_omitted_key_takes_constructor_default(self, path, key, name, factory, built):
        doc = table_doc()
        del node(doc, path)[key]
        default = inspect.signature(factory).parameters[name].default
        assert getattr(built(parse_config(doc)), name) == default

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
                # range_m / y_m pick the target form: test_target_needs_a_range_key
                if (params[name].default is inspect.Parameter.empty
                        and key not in ("range_m", "y_m")):
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
        assert info.value.path == "beamformers.das"

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
