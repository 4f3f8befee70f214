"""Acceptance suite: end-to-end criteria on the shipped default setup.

Each test prints one PASS/FAIL line (run with -s to see them on success).
Scenes follow the default configuration: the 5-target cross near 32 m with
bottom-bounce artifacts near 39-40 m, and a single resolution target at 36 m.
Grids are sized to the quantity being measured; all physics and processing
settings come from the default config.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from sosbeam.beamform import beamform_image, beamform_points, focal_range
from sosbeam.chain import demodulate, matched_filter, quantize, tvg
from sosbeam.config import default_config_dict, parse_config
from sosbeam.core import ScanGrid
from sosbeam.covariance import diagonal_load
from sosbeam.cube import read_cube
from sosbeam.metrics import Box, envelope_db, fwhm_of_image, pmal, rmse_db
from sosbeam.simulate import Target, depth_averaged_sos, synthesize_rx

from covariance_oracle import capon_solve, forward_backward


hermgauss = np.polynomial.hermite.hermgauss


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def cfg():
    return parse_config(default_config_dict())


def run_chain(cfg, cube):
    cube = quantize(cube, cfg.chain.quantization_bits)
    cube = tvg(cube, cfg.chain.tvg_speed, cfg.chain.tvg_variant,
               t_min=cfg.pulse.duration)
    return matched_filter(demodulate(cube, cfg.pulse.center_frequency,
                                     cfg.chain.decimation), cfg.pulse)


@pytest.fixture(scope="module")
def cross_baseband(cfg):
    cube = synthesize_rx(cfg.targets, cfg.geometry, cfg.pulse, cfg.environment,
                         cfg.simulation)
    return run_chain(cfg, cube)


@pytest.fixture(scope="module")
def single_baseband(cfg):
    target = Target.at_slant_range(0.0, 36.0, 90.0, cfg.geometry.array_depth)
    cube = synthesize_rx([target], cfg.geometry, cfg.pulse, cfg.environment,
                         cfg.simulation)
    return run_chain(cfg, cube)


@pytest.fixture(scope="module")
def cross_images(cfg, cross_baseband):
    grid = ScanGrid(-3.0, 3.0, 28.0, 42.0, 81, 181)
    out = {}
    for name, method, n_quad in [("das", "das", None), ("mvdr", "mvdr", None),
                                 ("bayes8", "bayes", 8), ("bayes32", "bayes", 32)]:
        bf = cfg.beamformer(method, n_quad=n_quad)
        img = beamform_image(cross_baseband, grid, bf, cfg.geometry)
        out[name] = envelope_db(img.values, grid)
    return out


@pytest.fixture(scope="module")
def cross_images_fine_range(cfg, cross_baseband):
    # PMAL compares needle-sharp peaks, so the grid must resolve the
    # matched-filter range envelope (~2.4 cm); 12 mm spacing does
    grid = ScanGrid(-3.0, 3.0, 29.0, 42.0, 81, 1084)
    out = {}
    for name, method, n_quad in [("das", "das", None), ("mvdr", "mvdr", None),
                                 ("bayes8", "bayes", 8)]:
        bf = cfg.beamformer(method, n_quad=n_quad)
        img = beamform_image(cross_baseband, grid, bf, cfg.geometry)
        out[name] = envelope_db(img.values, grid)
        if method == "mvdr":
            # the control: MVDR times the weak-posterior range taper e^{-a^2/2} of
            # the Bayes prior, a = 2*pi*f_c*d*sigma_c/c^2 for the round trip d
            bayes = cfg.beamformer("bayes")
            d = 2.0 * focal_range(grid.x_values(), grid.y_values()[:, None], cfg.geometry)
            a = 2 * np.pi * cfg.pulse.center_frequency * d * bayes.sigma_c / bayes.c ** 2
            out["mvdr_taper"] = envelope_db(img.values * np.exp(-a ** 2 / 2), grid)
    return out


class TestCriterion1Resolution:
    def test_fwhm_ordering(self, cfg, single_baseband):
        grid = ScanGrid(-3.0, 3.0, 35.6, 36.4, 601, 17)
        whole = Box(grid.x_min, grid.x_max, grid.y_min, grid.y_max)
        widths = {}
        for method, n_quad in [("das", None), ("mvdr", None), ("bayes", 8)]:
            bf = cfg.beamformer(method, n_quad=n_quad)
            img = beamform_image(single_baseband, grid, bf, cfg.geometry)
            widths[method] = fwhm_of_image(envelope_db(img.values, grid), whole)
        ok = (widths["das"] > 3.0 * widths["mvdr"]
              and widths["bayes"] <= 1.1 * widths["mvdr"])
        report(1, "resolution ordering", ok,
               f"FWHM das={widths['das']:.3f} m, mvdr={widths['mvdr']:.3f} m, "
               f"bayes(8)={widths['bayes']:.3f} m")


class TestCriterion2Multipath:
    def test_pmal_gap(self, cfg, cross_images_fine_range):
        levels = {name: pmal(img, cfg.target_box, cfg.artifact_box)
                  for name, img in cross_images_fine_range.items()}
        ok = (levels["bayes8"] <= levels["mvdr"] - 10.0
              and levels["bayes8"] <= levels["das"] - 10.0)
        report(2, "multipath suppression", ok,
               f"PMAL das={levels['das']:.2f} dB, mvdr={levels['mvdr']:.2f} dB, "
               f"bayes(8)={levels['bayes8']:.2f} dB, "
               f"mvdr x taper e^(-a^2/2)={levels['mvdr_taper']:.2f} dB")


class TestCriterion3QuadratureBudget:
    def test_rmse_between_node_budgets(self, cross_images):
        err = rmse_db(cross_images["bayes8"], cross_images["bayes32"])
        ok = err <= -30.0
        report(3, "quadrature-budget insensitivity", ok,
               f"rmse(bayes 8 vs 32) = {err:.2f} dB")


class TestCriterion4Reductions:
    GRID = ScanGrid(-1.5, 1.5, 30.5, 33.5, 13, 13)

    def test_collapsed_prior_and_single_node(self, cfg, cross_baseband):
        bayes = cfg.beamformer("bayes")
        mvdr_cfg = replace(bayes, method="mvdr")  # MVDR at the prior's centre c
        mvdr_img = beamform_image(cross_baseband, self.GRID, mvdr_cfg, cfg.geometry)

        collapsed = replace(bayes, sigma_c=0.0)
        single_node = replace(bayes, n_quad=1)

        errors = {}
        for name, variant in [("sigma=0", collapsed), ("n_quad=1", single_node)]:
            img = beamform_image(cross_baseband, self.GRID, variant, cfg.geometry)
            rel = (np.abs(img.values - mvdr_img.values)
                   / np.maximum(np.abs(mvdr_img.values), 1e-300))
            errors[name] = float(rel.max())
        ok = all(err <= 1e-10 for err in errors.values())
        report(4, "reduction identities", ok,
               f"max per-pixel relative error: sigma=0 -> {errors['sigma=0']:.2e}, "
               f"n_quad=1 -> {errors['n_quad=1']:.2e}")


class TestCriterion5Quadrature:
    def test_moments_and_two_node_rule(self):
        worst = 0.0
        for n in (1, 2, 8, 32):
            nodes, weights = hermgauss(n)
            for k in range(0, 2 * n - 1):
                got = float((weights * nodes ** k).sum())
                if k % 2 == 1:
                    scale = float((weights * np.abs(nodes) ** k).sum())
                    err = abs(got) / max(scale, 1.0)
                else:
                    df = 1.0
                    for m in range(k - 1, 0, -2):
                        df *= m
                    want = df * np.sqrt(np.pi) / 2.0 ** (k // 2)
                    err = abs(got - want) / want
                worst = max(worst, err)
        nodes2, _ = hermgauss(2)
        node_err = float(np.abs(np.sort(nodes2)
                                - np.array([-1, 1]) / np.sqrt(2)).max())
        ok = worst <= 1e-10 and node_err <= 1e-12
        report(5, "quadrature correctness", ok,
               f"worst moment error {worst:.2e}, n=2 node error {node_err:.2e}")


class TestCriterion6Conditioning:
    def test_thousand_random_matrices(self):
        # one (1000, 15, 15) stack through the complex forms the image path's
        # unitary kernels are tested against: FB average, loading, Capon solve
        rng = np.random.default_rng(20240901)
        eps = 1e-3 / 15.0
        exchange = np.eye(15)[::-1]
        a = rng.standard_normal((1000, 15, 15)) + 1j * rng.standard_normal((1000, 15, 15))
        s = (a @ np.swapaxes(a, -1, -2).conj()) / 15.0  # positive semidefinite, unit-ish scale
        fb = forward_backward(s)
        scale = np.abs(fb).max(axis=(-2, -1))
        persym = np.abs(exchange @ np.swapaxes(fb, -1, -2) @ exchange
                        - fb).max(axis=(-2, -1)) / scale
        worst_persym = float(persym.max())
        dl = diagonal_load(fb.copy(), eps)
        floor = eps * np.einsum("...ii->...", fb).real
        min_eig = np.linalg.eigvalsh(dl).min(axis=-1)
        worst_eig = float(((floor - min_eig) / floor).max())
        sol, denom, good = capon_solve(dl)
        w = sol / denom[..., None]
        worst_constraint = float(np.abs(w.sum(axis=-1) - 1.0).max())
        ok = (good.all() and worst_persym <= 1e-12 and worst_eig <= 1e-12
              and worst_constraint <= 1e-10)
        report(6, "covariance conditioning", ok,
               f"persymmetry {worst_persym:.2e}, eigenvalue floor deficit "
               f"{worst_eig:.2e}, constraint error {worst_constraint:.2e}")


class TestCriterion7LikelihoodPeak:
    def test_argmax_near_true_average_speed(self, cfg):
        doc = default_config_dict()
        doc["simulation"]["noise_power_db"] = -400.0  # noiseless
        quiet = parse_config(doc)
        target = Target.at_slant_range(0.0, 36.0, 90.0, quiet.geometry.array_depth)
        cube = synthesize_rx([target], quiet.geometry, quiet.pulse,
                             quiet.environment, quiet.simulation)
        baseband = run_chain(quiet, cube)

        c_true = depth_averaged_sos(quiet.environment, quiet.geometry.array_depth,
                                    target.depth)
        base = quiet.beamformer("bayes")
        widened = replace(base, sigma_c=1.0)
        mu, sigma = widened.c, widened.sigma_c
        cs = np.arange(mu - 4 * sigma, mu + 4 * sigma + 1e-9, 0.1)
        # the log likelihood at c: single-node Bayes on a prior collapsed at c
        # puts its one node exactly there
        values = [beamform_points(baseband, 0.0, 36.0,
                                  replace(widened, c=float(c), sigma_c=0.0, n_quad=1),
                                  quiet.geometry).log_lik[0]
                  for c in cs]
        c_hat = float(cs[int(np.argmax(values))])
        ok = abs(c_hat - c_true) <= 0.5
        report(7, "likelihood peak location", ok,
               f"argmax {c_hat:.2f} m/s vs true average {c_true:.2f} m/s")


class TestCriterion8SignalChain:
    def test_stated_oracles(self, cfg):
        from sosbeam.cube import RawDataCube
        from sosbeam.simulate import lfm_pulse_samples
        fs = cfg.simulation.sample_rate
        pulse = cfg.pulse

        # matched-filter lag
        tau = 0.02
        x = np.zeros(int(0.05 * fs))
        wave = lfm_pulse_samples(pulse, fs)
        i0 = int(round(tau * fs))
        x[i0:i0 + wave.size] = wave
        mf = matched_filter(demodulate(RawDataCube(x[None, :], fs),
                                       pulse.center_frequency,
                                       cfg.chain.decimation), pulse)
        k = int(np.argmax(np.abs(mf.samples[0])))
        lag_err = abs(k - (tau - mf.time_origin) * mf.sample_rate)

        # demodulated carrier tone magnitude
        t = np.arange(int(0.1 * fs)) / fs
        tone = np.cos(2 * np.pi * pulse.center_frequency * t)
        bb = demodulate(RawDataCube(tone[None, :], fs), pulse.center_frequency,
                        cfg.chain.decimation)
        mag_err = float(np.abs(np.abs(bb.samples[0, 100:-100]) - 1.0).max())

        # TVG equalization of a 1/r echo pair
        c = cfg.chain.tvg_speed
        y = np.zeros(int(0.08 * fs))
        i1, i2 = int(round(2 * 10 / c * fs)), int(round(2 * 20 / c * fs))
        r1, r2 = 0.5 * c * i1 / fs, 0.5 * c * i2 / fs
        y[i1], y[i2] = 1.0 / r1, 1.0 / r2
        g = tvg(RawDataCube(y[None, :], fs), c, cfg.chain.tvg_variant,
                t_min=pulse.duration)
        tvg_err = abs(20 * np.log10(g.samples[0, i2] / g.samples[0, i1]))

        ok = lag_err <= 1.0 and mag_err <= 0.01 and tvg_err <= 0.1
        report(8, "signal-chain oracles", ok,
               f"matched-filter lag error {lag_err:.2f} samples, tone magnitude "
               f"error {mag_err:.4f}, TVG imbalance {tvg_err:.3f} dB")


class TestCriterion9Determinism:
    def test_bit_identical_runs_and_threading(self, tmp_path, cfg):
        from sosbeam.cli import main
        doc = default_config_dict()
        doc["simulation"]["record_duration_s"] = 0.12
        doc["scene"]["targets"] = doc["scene"]["targets"][:2]
        doc["grid"] = {"x_min_m": -1.0, "x_max_m": 1.0, "y_min_m": 30.0,
                       "y_max_m": 34.0, "n_x": 11, "n_y": 17}
        doc["metrics"]["target_box"] = {"x_min": -1.0, "x_max": 1.0,
                                        "y_min": 30.5, "y_max": 33.0}
        doc["metrics"]["artifact_box"] = {"x_min": -1.0, "x_max": 1.0,
                                          "y_min": 33.5, "y_max": 34.0}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))

        digests = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            assert main(["all", "--config", str(config_path),
                         "--out-dir", str(out)]) == 0
            digests.append({
                "cube": (out / "raw_cube.bin").read_bytes(),
                "das": (out / "das.csv").read_bytes(),
                "bayes": (out / "bayes.csv").read_bytes(),
                "report": (out / "metrics.json").read_bytes(),
            })
        repeat_ok = digests[0] == digests[1]

        run_cfg = parse_config(doc)
        cube = read_cube(tmp_path / "r1" / "raw_cube.bin")
        baseband = run_chain(run_cfg, cube)
        bf = run_cfg.beamformer("bayes")
        serial = beamform_image(baseband, run_cfg.grid, bf, run_cfg.geometry,
                                threads=1)
        threaded = beamform_image(baseband, run_cfg.grid, bf, run_cfg.geometry,
                                  threads=4)
        thread_ok = (np.array_equal(serial.values, threaded.values)
                     and np.array_equal(serial.flags, threaded.flags))

        ok = repeat_ok and thread_ok
        report(9, "determinism", ok,
               f"repeat runs identical: {repeat_ok}, threaded == serial: {thread_ok}")
