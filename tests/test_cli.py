import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sosbeam import beamform, cli
from sosbeam.cli import main
from sosbeam.config import default_config_dict, load_config
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


BAD_THREADS = ["0", "-1", "abc", "1.5"]


def assert_names_threads_flag(err):
    """argparse's usage error for --threads, not a traceback."""
    assert "argument --threads: must be an integer >= 1" in err
    assert "Traceback" not in err


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
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "cube.bin")]) == 2

    def test_out_is_a_directory_exit_2(self, small_config, tmp_path, capsys):
        assert main(["simulate", "--config", str(small_config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_invalid_config_exit_1_with_field_path(self, tmp_path, capsys):
        doc = default_config_dict()
        doc["pulse"]["duration_s"] = -1.0
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "c.bin")]) == 1
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

    @pytest.mark.parametrize("threads", BAD_THREADS)
    def test_bad_threads_exit_2_naming_the_flag(self, small_config, cube_path, tmp_path,
                                                capsys, threads):
        with pytest.raises(SystemExit) as info:
            main(["beamform", "--config", str(small_config), "--data", str(cube_path),
                  "--method", "das", "--threads", threads, "--out", str(tmp_path / "x")])
        assert info.value.code == 2
        assert_names_threads_flag(capsys.readouterr().err)
        assert not list(tmp_path.glob("x*"))

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
        assert main(["beamform", "--config", str(other), "--data", str(cube_path),
                     "--method", "das", "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize("fs", [0.0, float("nan")])
    def test_bad_cube_header_exit_3(self, small_config, cube_path, tmp_path, capsys, fs):
        data = bytearray(cube_path.read_bytes())
        head = list(_HEADER.unpack_from(data))
        head[5] = fs  # the header's sample rate
        _HEADER.pack_into(data, 0, *head)
        cube_path.write_bytes(bytes(data))
        assert main(["beamform", "--config", str(small_config), "--data", str(cube_path),
                     "--method", "das", "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cube_path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_cube_sample_exit_3(self, small_config, cube_path, tmp_path, capsys,
                                           value):
        n_samples = _HEADER.unpack_from(cube_path.read_bytes())[4]
        with open(cube_path, "r+b") as fh:
            fh.seek(_HEADER.size + 4 * (3 * n_samples + 1000))  # sample [3, 1000]
            fh.write(np.float32(value).tobytes())
        assert main(["beamform", "--config", str(small_config), "--data", str(cube_path),
                     "--method", "das", "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cube_path) in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("n_quad", ["0", "-3", "500"])
    def test_bad_n_quad_exit_1_with_field_path(self, small_config, cube_path, tmp_path,
                                               capsys, n_quad):
        assert main(["beamform", "--config", str(small_config), "--data", str(cube_path),
                     "--method", "bayes", "--n-quad", n_quad,
                     "--out", str(tmp_path / "x")]) == 1
        assert "beamformers.bayes.n_quad" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma_c, n_quad", [(1000.0, None), (100.0, "128")])
    def test_node_at_or_below_zero_exit_1_before_any_work(self, small_config, cube_path,
                                                          tmp_path, capsys, sigma_c, n_quad):
        # 100 m/s is a valid prior at the configured 8 nodes, not at 128
        doc = json.loads(Path(small_config).read_text())
        doc["beamformers"]["bayes"]["sigma_c_m_s"] = sigma_c
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps(doc))
        argv = ["beamform", "--config", str(cfg), "--data", str(cube_path),
                "--method", "bayes", "--out", str(tmp_path / "x")]
        assert main(argv + (["--n-quad", n_quad] if n_quad else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: beamformers.bayes.sigma_c_m_s: ")
        assert "node speeds must be > 0" in err
        assert not list(tmp_path.glob("x*"))
        if n_quad:
            assert main(argv) == 0

    @pytest.mark.parametrize("method", ["das", "mvdr"])
    def test_n_quad_without_bayes_exit_2(self, small_config, cube_path, tmp_path, capsys,
                                         method):
        assert main(["beamform", "--config", str(small_config), "--data", str(cube_path),
                     "--method", method, "--n-quad", "8", "--out", str(tmp_path / "x")]) == 2
        assert "--n-quad applies to --method bayes only" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_missing_data_exit_2(self, small_config, tmp_path):
        assert main(["beamform", "--config", str(small_config), "--data",
                     str(tmp_path / "none.bin"), "--method", "das",
                     "--out", str(tmp_path / "x")]) == 2

    def test_cube_checked_before_the_method_settings(self, small_config, tmp_path, capsys):
        # a missing cube (2) wins over a bad --n-quad (1), as the cube is read first
        assert main(["beamform", "--config", str(small_config), "--data",
                     str(tmp_path / "none.bin"), "--method", "bayes", "--n-quad", "0",
                     "--out", str(tmp_path / "x")]) == 2
        assert "data file not found" in capsys.readouterr().err


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

    @pytest.mark.parametrize("box", ["target_box", "artifact_box"])
    def test_box_off_the_images_grid_exit_3(self, small_config, images, tmp_path, capsys,
                                            box):
        # the config's grid reaches 110 m (at the images' 0.25 m row spacing)
        # and the box lies past 100 m, off the images' 29.5-33 m grid
        doc = json.loads(Path(small_config).read_text())
        doc["grid"].update(y_max_m=110.0, n_y=323)
        doc["metrics"][box].update(y_min=100.0, y_max=110.0)
        far = tmp_path / "far.json"
        far.write_text(json.dumps(doc))
        report = tmp_path / "r.json"
        assert main(["metrics", "--config", str(far), *images, "--out", str(report)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: metrics.{box}: ") and "selects no pixels" in err
        assert not report.exists()

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

    @pytest.mark.parametrize("bad", ["nan", "5.0"])
    def test_pixel_not_peak_normalized_exit_2(self, small_config, images, tmp_path, capsys,
                                              bad):
        lines = Path(images[0]).read_text().splitlines()
        row = lines[3].split(",")
        row[2] = bad
        lines[3] = ",".join(row)
        edited = tmp_path / "edited.csv"
        edited.write_text("\n".join(lines) + "\n")
        report = tmp_path / "r.json"
        assert main(["metrics", "--config", str(small_config), str(edited),
                     "--out", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(edited) in err and "peak" in err
        assert not report.exists()

    def test_repeated_file_stem_exit_2_naming_both(self, small_config, images, tmp_path,
                                                   capsys):
        other = tmp_path / "run" / "das.csv"
        other.parent.mkdir()
        other.write_bytes(Path(images[0]).read_bytes())
        report = tmp_path / "r.json"
        assert main(["metrics", "--config", str(small_config), images[0], str(other),
                     "--out", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and images[0] in err and str(other) in err
        assert not report.exists()

    def test_undecodable_image_exit_2(self, small_config, tmp_path, capsys):
        bad = tmp_path / "binary.csv"
        bad.write_bytes(b"\xff\xfe\x00 not text\n")
        assert main(["metrics", "--config", str(small_config), str(bad),
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert "Traceback" not in err


class TestAll:
    def test_pipeline_produces_all_artifacts(self, small_config, tmp_path):
        out_dir = tmp_path / "run"
        assert main(["all", "--config", str(small_config),
                     "--out-dir", str(out_dir)]) == 0
        # one image per configured method, named by its method
        images = {f"{m}{ext}" for m in ("das", "mvdr", "bayes")
                  for ext in (".csv", ".pgm", "_flags.json")}
        names = {p.name for p in out_dir.iterdir()}
        assert names == {"raw_cube.bin", "metrics.json"} | images
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert doc["method"] == ["bayes", "das", "mvdr"]
        assert set(doc["rmse_db"]) == {"bayes/das", "bayes/mvdr", "das/mvdr"}

    def test_one_quadrature_rule_build_per_node_count(self, small_config, tmp_path,
                                                      monkeypatch):
        # the node check, record_span and the Bayes imager share the rule
        builds, build = Counter(), np.polynomial.hermite.hermgauss

        def counted(n):
            builds[n] += 1
            return build(n)

        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", counted)
        beamform._hermgauss.cache_clear()
        assert main(["all", "--config", str(small_config),
                     "--out-dir", str(tmp_path / "run")]) == 0
        assert builds == {8: 1}

    def test_each_configured_method_imaged_once_at_its_node_count(self, small_config,
                                                                   tmp_path, monkeypatch):
        doc = json.loads(Path(small_config).read_text())
        doc["beamformers"]["bayes"]["n_quad"] = 32
        cfg = tmp_path / "bayes32.json"
        cfg.write_text(json.dumps(doc))
        calls = []
        real = cli.beamform_image

        def counting(baseband, grid, bf_cfg, geom, threads=1):
            calls.append(bf_cfg)
            return real(baseband, grid, bf_cfg, geom, threads=threads)

        monkeypatch.setattr(cli, "beamform_image", counting)
        out_dir = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        run = load_config(cfg)
        assert calls == [run.beamformer(m) for m in ("das", "mvdr", "bayes")]
        assert calls[-1].n_quad == 32
        doc = json.loads((out_dir / "metrics.json").read_text())
        assert doc["method"] == ["bayes", "das", "mvdr"]
        assert list(doc["pmal_db"]) == ["bayes", "das", "mvdr"]
        assert not list(out_dir.glob("bayes_*.csv"))

    def test_prior_below_zero_at_32_nodes_exit_1(self, small_config, tmp_path, capsys):
        # sigma_c 200 m/s puts a GH-32 node below 0 m/s, but no GH-8 node
        doc = json.loads(Path(small_config).read_text())
        doc["beamformers"]["bayes"].update(n_quad=32, sigma_c_m_s=200.0)
        cfg = tmp_path / "wide.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: beamformers.bayes.sigma_c_m_s: ")
        assert not out_dir.exists()

    def test_threads_write_identical_files(self, small_config, tmp_path):
        # synthesis, the receive chain and the image rows all run on the pool
        for threads in ("1", "2"):
            assert main(["all", "--config", str(small_config), "--out-dir",
                         str(tmp_path / threads), "--threads", threads]) == 0
        names = sorted(p.name for p in (tmp_path / "1").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
        assert {"raw_cube.bin", "das.csv", "mvdr.pgm", "bayes_flags.json",
                "metrics.json"} <= set(names)
        for name in names:
            assert ((tmp_path / "1" / name).read_bytes()
                    == (tmp_path / "2" / name).read_bytes()), name

    def test_config_parsed_once_and_no_output_read_back(self, small_config, tmp_path,
                                                         monkeypatch):
        calls = Counter()

        def counted(name):
            real = getattr(cli, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        for name in ("load_config", "read_image_csv"):
            monkeypatch.setattr(cli, name, counted(name))
        assert main(["all", "--config", str(small_config),
                     "--out-dir", str(tmp_path / "run")]) == 0
        assert calls == {"load_config": 1}

    def test_metrics_match_the_metrics_command(self, small_config, tmp_path):
        out_dir = tmp_path / "run"
        assert main(["all", "--config", str(small_config), "--out-dir", str(out_dir)]) == 0
        images = [str(out_dir / f"{name}.csv") for name in ("das", "mvdr", "bayes")]
        report = tmp_path / "m.json"
        assert main(["metrics", "--config", str(small_config), *images,
                     "--out", str(report)]) == 0
        assert report.read_bytes() == (out_dir / "metrics.json").read_bytes()

    @pytest.mark.parametrize("threads", BAD_THREADS)
    def test_bad_threads_exit_2_before_any_work(self, small_config, tmp_path, capsys,
                                                threads):
        out_dir = tmp_path / "run"
        with pytest.raises(SystemExit) as info:
            main(["all", "--config", str(small_config), "--out-dir", str(out_dir),
                  "--threads", threads])
        assert info.value.code == 2
        assert_names_threads_flag(capsys.readouterr().err)
        assert not out_dir.exists()

    def test_out_dir_is_a_file_exit_2_writing_nothing(self, small_config, tmp_path, capsys):
        out_dir = tmp_path / "run"
        out_dir.write_text("not a directory")
        before = sorted(tmp_path.iterdir())
        assert main(["all", "--config", str(small_config), "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out_dir) in err
        assert sorted(tmp_path.iterdir()) == before
        assert out_dir.read_text() == "not a directory"

    def test_threads_default_to_one(self):
        args = cli.build_parser().parse_args(["all", "--config", "c.json", "--out-dir", "d"])
        assert args.threads == 1

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
        ("pulse.duration_s", 1e-9),
        ("beamformers.das.n_quad", 8),
        # the FWHM convention is no longer settable: an older init-config's key
        ("metrics.fwhm_convention", "amplitude"),
        # a node of the configured 8 at or below 0 m/s
        ("beamformers.bayes.sigma_c_m_s", 1000.0),
        ("simulation.record_duration_s", 2e-5),
        ("chain.decimation", 100000),
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
        assert main(["all", "--config", str(cfg), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ")
        assert key.split("_m_s")[0] in err
        assert not out_dir.exists()

    def test_key_given_twice_exit_1_before_any_work(self, small_config, tmp_path, capsys):
        text = small_config.read_text()
        cfg = tmp_path / "twice.json"
        cfg.write_text(text.replace('"n_quad": 8', '"n_quad": 8, "n_quad": 32'))
        out_dir = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ")
        assert "'n_quad' given twice" in err
        assert not out_dir.exists()

    def test_no_beamformer_exit_1_before_any_work(self, small_config, tmp_path, capsys):
        doc = json.loads(small_config.read_text())
        doc["beamformers"] = {}
        cfg = tmp_path / "none.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: beamformers: ")
        assert "Traceback" not in err
        assert not out_dir.exists()
        # simulate needs no beamformer
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "cube.bin")]) == 0

    def test_grid_past_the_record_exit_3_without_images(self, small_config, tmp_path,
                                                        capsys):
        # the 0.1 s record reaches about 75 m; the grid starts at 250 m
        doc = json.loads(small_config.read_text())
        doc["grid"].update(y_min_m=250.0, y_max_m=260.0)
        doc["metrics"]["target_box"].update(y_min=251.0, y_max=255.0)
        doc["metrics"]["artifact_box"].update(y_min=256.0, y_max=260.0)
        cfg = tmp_path / "far.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out-dir", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err == "error: das: every pixel of the grid lies outside the record\n"
        assert (out_dir / "raw_cube.bin").is_file()
        assert not list(out_dir.glob("*.csv"))
        assert not list(out_dir.glob("*.pgm"))


class TestAllSpan:
    """`all` runs the receive chain over its grid's span of the record only."""

    def run_all(self, cfg, out_dir, monkeypatch, whole_record):
        """Run `all`; returns the basebands and images it made, in call order."""
        basebands, images = [], []
        real_chain, real_image = cli.receive_chain, cli.beamform_image

        def chain(*args, span=None, **kwargs):
            basebands.append(real_chain(*args, span=None if whole_record else span, **kwargs))
            return basebands[-1]

        def image(*args, **kwargs):
            images.append(real_image(*args, **kwargs))
            return images[-1]

        monkeypatch.setattr(cli, "receive_chain", chain)
        monkeypatch.setattr(cli, "beamform_image", image)
        assert main(["all", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        monkeypatch.undo()
        return basebands, images

    INSIDE = ((29.5, 33.0), (30.0, 32.0), (32.5, 33.0), "inside")

    # the 0.1 s record ends near 76 m of range
    @pytest.mark.parametrize("grid, target, artifact, where", [
        INSIDE,
        ((0.05, 3.0), (0.5, 1.5), (2.0, 3.0), "start"),
        ((70.0, 80.0), (71.0, 74.0), (75.0, 80.0), "end")])
    def test_same_flags_and_images_as_the_whole_record(self, small_config, tmp_path,
                                                       monkeypatch, grid, target,
                                                       artifact, where):
        self.check_same_as_the_whole_record(small_config, tmp_path, monkeypatch, grid,
                                            target, artifact, where)

    def test_same_flags_and_images_as_the_whole_record_at_decimation_10(
            self, small_config, tmp_path, monkeypatch):
        # a carrier step of about 3.77 rad per sample: beyond pi, sample_rows
        # fits its taps a turn lower and turns each value back
        self.check_same_as_the_whole_record(small_config, tmp_path, monkeypatch, *self.INSIDE,
                                            decimation=10)

    def check_same_as_the_whole_record(self, small_config, tmp_path, monkeypatch, grid,
                                       target, artifact, where, decimation=4):
        doc = json.loads(small_config.read_text())
        doc["chain"]["decimation"] = decimation
        doc["grid"].update(y_min_m=grid[0], y_max_m=grid[1])
        doc["metrics"]["target_box"].update(y_min=target[0], y_max=target[1])
        doc["metrics"]["artifact_box"].update(y_min=artifact[0], y_max=artifact[1])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        (span_bb,), span_images = self.run_all(cfg, tmp_path / "span", monkeypatch, False)
        (whole_bb,), whole_images = self.run_all(cfg, tmp_path / "whole", monkeypatch, True)
        assert span_bb.n_samples < whole_bb.n_samples
        assert (span_bb.sample_offset == 0) == (where == "start")
        end = span_bb.sample_offset + span_bb.n_samples
        assert (end == whole_bb.n_samples) == (where == "end")
        assert [image.method for image in span_images] == ["das", "mvdr", "bayes"]
        for image, whole in zip(span_images, whole_images):
            np.testing.assert_array_equal(image.flags, whole.flags)
            peak = np.abs(whole.values).max()
            assert np.abs(image.values - whole.values).max() <= 1e-12 * peak, image.method
            assert (image.flag_summary()["out_of_record"] > 0) == (where == "end")
        flags = sorted((tmp_path / "whole").glob("*_flags.json"))
        assert len(flags) == 3
        for path in flags:
            assert path.read_bytes() == (tmp_path / "span" / path.name).read_bytes()

    def test_beamform_runs_its_own_method_span(self, small_config, tmp_path, monkeypatch):
        spans = []
        real = cli.receive_chain

        def chain(*args, span=None, **kwargs):
            spans.append(span)
            return real(*args, span=span, **kwargs)

        monkeypatch.setattr(cli, "receive_chain", chain)
        assert main(["all", "--config", str(small_config), "--out-dir",
                     str(tmp_path / "run")]) == 0
        for method in ("das", "bayes"):
            assert main(["beamform", "--config", str(small_config), "--data",
                         str(tmp_path / "run" / "raw_cube.bin"), "--method", method,
                         "--out", str(tmp_path / method)]) == 0
        all_span, das_span, bayes_span = spans
        # Bayes' nodes spread around the fixed speed, so all's union is Bayes's span
        assert bayes_span[0] < das_span[0] and das_span[1] < bayes_span[1]
        assert all_span == bayes_span
        for name in ("das.pgm", "das_flags.json"):
            assert ((tmp_path / name).read_bytes()
                    == (tmp_path / "run" / name).read_bytes())


class TestRawRecordLifetime:
    """`all` and `beamform` hold the raw record only through the chain: no
    reference to it is left once imaging starts."""

    @pytest.fixture
    def watch(self, monkeypatch):
        """Wrap the chain and the imager; returns, per image, whether the cube
        that the chain was given was still alive when imaging started."""
        refs, alive = [], []
        real_chain, real_image = cli.receive_chain, cli.beamform_image

        def chain(cube, *args, **kwargs):
            refs.append(weakref.ref(cube))
            return real_chain(cube, *args, **kwargs)

        def image(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return real_image(*args, **kwargs)

        monkeypatch.setattr(cli, "receive_chain", chain)
        monkeypatch.setattr(cli, "beamform_image", image)
        return alive

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_all(self, small_config, tmp_path, watch, threads):
        assert main(["all", "--config", str(small_config), "--out-dir", str(tmp_path / "run"),
                     "--threads", threads]) == 0
        assert watch == [[False]] * 3

    def test_beamform(self, small_config, tmp_path, watch):
        cube = tmp_path / "cube.bin"
        assert main(["simulate", "--config", str(small_config), "--out", str(cube)]) == 0
        assert main(["beamform", "--config", str(small_config), "--data", str(cube),
                     "--method", "mvdr", "--out", str(tmp_path / "mvdr")]) == 0
        assert watch == [[False]]


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, as JSON itself does."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


class TestUndefinedPmal:
    """A box whose pixels all lie past the record's end (the 0.1 s record
    reaches about 76 m) peaks at -inf dB: PMAL is undefined, and the report
    holds null with a warning, as for an undefined FWHM."""

    @pytest.mark.parametrize("artifact", [(85.0, 90.0), (61.0, 67.0)],
                             ids=["both_boxes_past_the_record", "target_box_past_the_record"])
    def test_all_and_metrics_write_null(self, small_config, tmp_path, capsys, artifact):
        doc = json.loads(small_config.read_text())
        doc["beamformers"] = {"das": doc["beamformers"]["das"]}
        doc["grid"].update(y_min_m=60.0, y_max_m=90.0, n_y=16)
        doc["metrics"]["target_box"].update(y_min=79.0, y_max=84.0)
        doc["metrics"]["artifact_box"].update(y_min=artifact[0], y_max=artifact[1])
        cfg = tmp_path / "far.json"
        cfg.write_text(json.dumps(doc))
        out_dir = tmp_path / "run"
        assert main(["all", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
        report = strict_json((out_dir / "metrics.json").read_text())
        assert report["pmal_db"] == {"das": None}
        err = capsys.readouterr().err
        assert "warning: PMAL undefined for das: target box is all -inf dB\n" in err
        assert main(["metrics", "--config", str(cfg), str(out_dir / "das.csv"),
                     "--out", str(tmp_path / "m.json")]) == 0
        assert strict_json((tmp_path / "m.json").read_text()) == report
        assert "warning: PMAL undefined for das" in capsys.readouterr().err


def test_import_loads_no_thread_pool_or_logging():
    # map_rows imports the thread pool in its threads > 1 branch only
    code = ("import sys, sosbeam, sosbeam.config, sosbeam.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


class TestBlasPin:
    @pytest.mark.skipif(not hasattr(cli._bundled_openblas(), "scipy_openblas_get_num_threads64_"),
                        reason="numpy bundles no OpenBLAS with the thread-count symbols")
    def test_main_pins_the_bundled_openblas_to_one_thread(self, tmp_path):
        # in a fresh process: importing sosbeam leaves the count, main sets it to 1
        code = "\n".join([
            "import ctypes, sys, numpy",
            "lib = ctypes.CDLL(sys.argv[1])",
            "count = lib.scipy_openblas_get_num_threads64_",
            "before = count()",
            "from sosbeam import cli",
            "imported = count()",
            "cli.main(['init-config', '--out', sys.argv[2]])",
            "print(before, imported, count())"])
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        lib = cli._bundled_openblas()._name
        done = subprocess.run([sys.executable, "-c", code, lib, str(tmp_path / "c.json")],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        before, imported, after = map(int, done.stdout.split()[-3:])
        assert imported == before and after == 1

    def test_missing_library_is_a_quiet_no_op(self, tmp_path, capsys):
        assert cli._bundled_openblas(tmp_path) is None
        cli._pin_blas_threads(tmp_path)
        (tmp_path / "libscipy_openblas64_-stub.so").write_bytes(b"not a shared library")
        assert cli._bundled_openblas(tmp_path) is None
        cli._pin_blas_threads(tmp_path)
        assert capsys.readouterr() == ("", "")

    def test_library_without_the_symbol_is_a_quiet_no_op(self, tmp_path, capsys):
        import _ctypes  # a shared object that loads but exports no OpenBLAS symbol
        stub = tmp_path / "libscipy_openblas64_-stub.so"
        stub.symlink_to(_ctypes.__file__)
        assert cli._bundled_openblas(tmp_path) is not None
        cli._pin_blas_threads(tmp_path)
        assert capsys.readouterr() == ("", "")


def test_process_exit_codes(small_config, tmp_path):
    """The exit codes a shell sees, through the module entry point."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "sosbeam.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert "Traceback" not in done.stderr
        return done.returncode

    cube = tmp_path / "cube.bin"
    assert run("simulate", "--config", str(small_config), "--out", str(cube)) == 0
    doc = json.loads(small_config.read_text())
    doc["simulation"]["sample_rate_hz"] = 250e3
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    doc["pulse"]["duration_s"] = -1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b'\xff\xfe{"a": 1}')
    assert run("simulate", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "x.bin")) == 2
    assert run("simulate", "--config", str(bad), "--out", str(tmp_path / "x.bin")) == 1
    assert run("simulate", "--config", str(undecodable), "--out", str(tmp_path / "x.bin")) == 1
    assert run("beamform", "--config", str(other), "--data", str(cube),
               "--method", "das", "--out", str(tmp_path / "x")) == 3
    assert run("all", "--config", str(small_config), "--out-dir", str(tmp_path / "run"),
               "--threads", "0") == 2
    assert not list(tmp_path.glob("x*"))
