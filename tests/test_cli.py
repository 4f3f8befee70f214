import json
from pathlib import Path

import pytest

from sosbeam import cli
from sosbeam.cli import main
from sosbeam.config import default_config_dict
from sosbeam.cube import _HEADER, read_cube


@pytest.fixture
def small_config(tmp_path):
    """Default setup shrunk for fast CLI runs: short record, tiny grid."""
    doc = default_config_dict()
    doc["simulation"]["record_duration_s"] = 0.1
    doc["scene"]["targets"] = [
        {"x_m": 0.0, "range_m": 31.0, "depth_m": 90.0, "reflectivity": 1.0}]
    doc["grid"] = {"x_min_m": -1.0, "x_max_m": 1.0, "y_min_m": 29.5,
                   "y_max_m": 33.0, "n_x": 9, "n_y": 15}
    doc["metrics"]["target_box"] = {"x_min": -1.0, "x_max": 1.0,
                                    "y_min": 30.0, "y_max": 32.0}
    doc["metrics"]["artifact_box"] = {"x_min": -1.0, "x_max": 1.0,
                                      "y_min": 32.5, "y_max": 33.0}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_init_config_round_trips(tmp_path):
    out = tmp_path / "default.json"
    assert main(["init-config", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["array"]["n_sensors"] == 30


class TestSimulate:
    def test_writes_cube_and_arrival_table(self, small_config, tmp_path, capsys):
        out = tmp_path / "cube.bin"
        assert main(["simulate", "--config", str(small_config),
                     "--out", str(out)]) == 0
        cube = read_cube(out)
        assert cube.samples.shape == (30, 50000)
        table = capsys.readouterr().out
        assert "direct" in table and "bottom_bounce" in table

    def test_full_default_dimensions(self, tmp_path, capsys):
        # Table-style defaults: 30 sensors x 0.3 s at 500 kHz
        doc = default_config_dict()
        doc["scene"]["targets"] = []
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "cube.bin"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        cube = read_cube(out)
        assert cube.samples.shape == (30, 150000)

    def test_missing_config_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--config", str(tmp_path / "nope.json"),
                  "--out", str(tmp_path / "cube.bin")])
        assert info.value.code == 2

    def test_invalid_config_exit_1_with_field_path(self, tmp_path, capsys):
        doc = default_config_dict()
        doc["pulse"]["duration_s"] = -1.0
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "c.bin")])
        assert info.value.code == 1
        assert "pulse" in capsys.readouterr().err

    def test_seed_determinism_bytes(self, small_config, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        main(["simulate", "--config", str(small_config), "--out", str(a)])
        main(["simulate", "--config", str(small_config), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestBeamform:
    @pytest.fixture
    def cube_path(self, small_config, tmp_path):
        out = tmp_path / "cube.bin"
        main(["simulate", "--config", str(small_config), "--out", str(out)])
        return out

    def test_das_outputs(self, small_config, cube_path, tmp_path):
        prefix = tmp_path / "das"
        assert main(["beamform", "--config", str(small_config), "--data",
                     str(cube_path), "--method", "das", "--out", str(prefix)]) == 0
        assert (tmp_path / "das.csv").is_file()
        assert (tmp_path / "das.pgm").is_file()
        flags = json.loads((tmp_path / "das_flags.json").read_text())
        assert flags["method"] == "das"
        pgm = (tmp_path / "das.pgm").read_bytes()
        assert pgm.startswith(b"P5\n9 15\n255\n")
        assert len(pgm) == len(b"P5\n9 15\n255\n") + 9 * 15

    def test_deterministic_image_bytes(self, small_config, cube_path, tmp_path):
        p1, p2 = tmp_path / "r1", tmp_path / "r2"
        for p in (p1, p2):
            main(["beamform", "--config", str(small_config), "--data",
                  str(cube_path), "--method", "bayes", "--n-quad", "2",
                  "--out", str(p)])
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    def test_threads_do_not_change_output(self, small_config, cube_path, tmp_path):
        main(["beamform", "--config", str(small_config), "--data", str(cube_path),
              "--method", "mvdr", "--out", str(tmp_path / "serial")])
        main(["beamform", "--config", str(small_config), "--data", str(cube_path),
              "--method", "mvdr", "--threads", "4", "--out", str(tmp_path / "par")])
        assert ((tmp_path / "serial.csv").read_bytes()
                == (tmp_path / "par.csv").read_bytes())

    def test_thread_count_env_override(self, small_config, cube_path, tmp_path,
                                       monkeypatch):
        monkeypatch.setenv("SOSBEAM_THREADS", "3")
        main(["beamform", "--config", str(small_config), "--data", str(cube_path),
              "--method", "das", "--out", str(tmp_path / "env")])
        monkeypatch.delenv("SOSBEAM_THREADS")
        main(["beamform", "--config", str(small_config), "--data", str(cube_path),
              "--method", "das", "--out", str(tmp_path / "plain")])
        assert ((tmp_path / "env.csv").read_bytes()
                == (tmp_path / "plain.csv").read_bytes())

    def test_pgm_peak_is_white(self, small_config, cube_path, tmp_path):
        prefix = tmp_path / "peak"
        main(["beamform", "--config", str(small_config), "--data", str(cube_path),
              "--method", "das", "--out", str(prefix)])
        pgm = (tmp_path / "peak.pgm").read_bytes()
        header_end = pgm.index(b"255\n") + 4
        assert max(pgm[header_end:]) == 255

    def test_unknown_method_exit_2(self, small_config, cube_path, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["beamform", "--config", str(small_config), "--data",
                  str(cube_path), "--method", "music", "--out", str(tmp_path / "x")])
        assert info.value.code == 2

    def test_header_mismatch_exit_3(self, small_config, cube_path, tmp_path):
        doc = json.loads(Path(small_config).read_text())
        doc["simulation"]["sample_rate_hz"] = 250e3  # valid, but not the cube's
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as info:
            main(["beamform", "--config", str(other), "--data", str(cube_path),
                  "--method", "das", "--out", str(tmp_path / "x")])
        assert info.value.code == 3

    @pytest.mark.parametrize("fs", [0.0, float("nan")])
    def test_bad_cube_header_exit_3(self, small_config, cube_path, tmp_path, capsys, fs):
        data = bytearray(cube_path.read_bytes())
        head = list(_HEADER.unpack_from(data))
        head[5] = fs  # the header's sample rate
        _HEADER.pack_into(data, 0, *head)
        cube_path.write_bytes(bytes(data))
        with pytest.raises(SystemExit) as info:
            main(["beamform", "--config", str(small_config), "--data", str(cube_path),
                  "--method", "das", "--out", str(tmp_path / "x")])
        assert info.value.code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cube_path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n_quad", ["0", "-3", "500"])
    def test_bad_n_quad_exit_1_with_field_path(self, small_config, cube_path, tmp_path,
                                               capsys, n_quad):
        assert main(["beamform", "--config", str(small_config), "--data", str(cube_path),
                     "--method", "bayes", "--n-quad", n_quad,
                     "--out", str(tmp_path / "x")]) == 1
        assert "beamformers.bayes.n_quad" in capsys.readouterr().err

    def test_missing_data_exit_2(self, small_config, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["beamform", "--config", str(small_config), "--data",
                  str(tmp_path / "none.bin"), "--method", "das",
                  "--out", str(tmp_path / "x")])
        assert info.value.code == 2


class TestMetricsCommand:
    @pytest.fixture
    def images(self, small_config, tmp_path):
        cube = tmp_path / "cube.bin"
        main(["simulate", "--config", str(small_config), "--out", str(cube)])
        paths = []
        for method in ("das", "mvdr"):
            prefix = tmp_path / method
            main(["beamform", "--config", str(small_config), "--data", str(cube),
                  "--method", method, "--out", str(prefix)])
            paths.append(str(prefix) + ".csv")
        return paths

    def test_report_schema(self, small_config, images, tmp_path):
        out = tmp_path / "report.json"
        assert main(["metrics", "--config", str(small_config), *images,
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"fwhm_m", "pmal_db", "rmse_db", "method", "boxes"}
        assert doc["method"] == ["das", "mvdr"]
        assert set(doc["pmal_db"]) == {"das", "mvdr"}
        assert "das/mvdr" in doc["rmse_db"]
        assert set(doc["boxes"]) == {"target_box", "artifact_box"}

    def test_single_image_no_rmse(self, small_config, images, tmp_path):
        out = tmp_path / "single.json"
        assert main(["metrics", "--config", str(small_config), images[0],
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rmse_db"] == {}
        assert "das" in doc["pmal_db"]

    def test_grid_mismatch_exit_3(self, small_config, images, tmp_path):
        other_doc = json.loads(Path(small_config).read_text())
        other_doc["grid"]["n_x"] = 7
        other_cfg = tmp_path / "other.json"
        other_cfg.write_text(json.dumps(other_doc))
        cube = tmp_path / "cube2.bin"
        main(["simulate", "--config", str(other_cfg), "--out", str(cube)])
        prefix = tmp_path / "other_das"
        main(["beamform", "--config", str(other_cfg), "--data", str(cube),
              "--method", "das", "--out", str(prefix)])
        assert main(["metrics", "--config", str(small_config), images[0],
                     str(prefix) + ".csv", "--out", str(tmp_path / "r.json")]) == 3

    @pytest.mark.parametrize("text, field", [
        ("1,2\n3,4\n", "missing grid metadata header"),
        ("# x_min=0\n1,2\n", "x_max"),
        ("# x_min=0 x_max=1 y_min=1 y_max=2 n_x=two n_y=1\n1,2\n", "n_x"),
        ("# x_min=0 x_max=1 y_min=1 y_max=2 n_x=2 n_y=1\nabc,1\n", "abc"),
    ])
    def test_bad_image_csv_exit_2(self, small_config, tmp_path, capsys, text, field):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert main(["metrics", "--config", str(small_config), str(bad),
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(bad) in err and field in err
        assert not (tmp_path / "r.json").exists()


class TestAll:
    def test_pipeline_produces_all_artifacts(self, small_config, tmp_path):
        out_dir = tmp_path / "run"
        assert main(["all", "--config", str(small_config),
                     "--out-dir", str(out_dir)]) == 0
        for name in ("raw_cube.bin", "das.csv", "das.pgm", "mvdr.csv",
                     "bayes_q8.csv", "bayes_q32.csv", "metrics.json"):
            assert (out_dir / name).is_file(), name
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert "bayes_q32/bayes_q8" in doc["rmse_db"]

    def test_bayes_32_configured_is_beamformed_once(self, small_config, tmp_path,
                                                     monkeypatch):
        doc = json.loads(Path(small_config).read_text())
        doc["beamformers"] = {"bayes": {**doc["beamformers"]["bayes"], "n_quad": 32}}
        cfg = tmp_path / "bayes32.json"
        cfg.write_text(json.dumps(doc))
        calls = []
        real = cli.beamform_image

        def counting(baseband, grid, bf_cfg, geom, threads=1):
            calls.append(bf_cfg.n_quad)
            return real(baseband, grid, bf_cfg, geom, threads=threads)

        monkeypatch.setattr(cli, "beamform_image", counting)
        out_dir = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        assert calls == [32]
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert doc["method"] == ["bayes_q32"]
        assert list(doc["pmal_db"]) == ["bayes_q32"]

    def test_threads_write_identical_files(self, small_config, tmp_path):
        # synthesis, the receive chain and the image rows all run on the pool
        for threads in ("1", "2"):
            assert main(["all", "--config", str(small_config), "--out-dir",
                         str(tmp_path / threads), "--threads", threads]) == 0
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
        assert {"raw_cube.bin", "das.csv", "mvdr.pgm", "bayes_q32_flags.json",
                "metrics.json"} <= set(names)
        for name in names:
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes()), name

    @pytest.mark.parametrize("field, value", [
        ("beamformers.bayes.mu_c_m_s", float("nan")),
        ("beamformers.bayes.sigma_c_m_s", float("inf")),
        ("beamformers.das.c_fixed_m_s", float("nan")),
        ("chain.tvg_speed_m_s", float("inf")),
        ("simulation.noise_power_db", float("nan")),
        ("environment.bottom_reflectivity", float("nan")),
        ("simulation.record_duration_s", float("inf")),
        ("simulation.sample_rate_hz", float("nan")),
        ("beamformers.das.c_fixed_m_s", -5.0),
        ("beamformers.bayes.n_quad", 500),
        ("simulation.rng_seed", 2 ** 70),
        ("chain.decimaton", 4),
    ])
    def test_bad_config_exit_1_before_any_work(self, tmp_path, capsys, field, value):
        doc = default_config_dict()
        *parents, key = field.split(".")
        section = doc
        for part in parents:
            section = section[part]
        section[key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "run"
        with pytest.raises(SystemExit) as info:
            main(["all", "--config", str(cfg), "--out-dir", str(out_dir)])
        assert info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ")
        assert key.split("_m_s")[0] in err
        assert not out_dir.exists()
