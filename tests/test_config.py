import json
from dataclasses import fields

import pytest

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
