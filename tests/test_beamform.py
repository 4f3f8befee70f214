from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sosbeam import beamform
from sosbeam.beamform import (FLAG_OUT_OF_RECORD, MAX_NODES, METHODS, BeamformerConfig,
                              _gamma_batch, focal_range, _Imager, beamform_image,
                              beamform_points, posterior_weights, record_span)
from sosbeam.chain import demodulate, matched_filter, quantize, tvg
from sosbeam.core import TWO_PI, ArrayGeometry, LfmPulse, ScanGrid, map_rows, travel_times
from sosbeam.cube import BasebandCube
from sosbeam.interp import sample_rows
from sosbeam.simulate import Environment, SimConfig, Target, synthesize_rx

from covariance_oracle import capon_solve, forward_backward

hermgauss = np.polynomial.hermite.hermgauss
GEOM = ArrayGeometry.uniform(12, 1.0, array_depth=70.0)
PULSE = LfmPulse(center_frequency=30e3, bandwidth=20e3, duration=50e-6)
ENV = Environment(bottom_depth=100.0,
                  sos_profile=((0.0, 1522.0), (50.0, 1520.0), (70.0, 1519.4),
                               (90.0, 1518.8), (100.0, 1518.5)),
                  bottom_reflectivity=0.10)
TARGET_RANGE = 33.0


def _make_cfg(**kw):
    base = dict(method="bayes", c=1519.0, subarray_length=7, sigma_c=0.3, n_quad=8)
    base.update(kw)
    return BeamformerConfig(**base)


def _mvdr(cube, x, y, cfg, c):
    """MVDR output at speed c: a config on the batched call."""
    return beamform_points(cube, x, y, replace(cfg, method="mvdr", c=c), GEOM).values


def _log_likelihood(cube, x, y, cfg, c):
    """n_sub * gamma * P_s at speed c: single-node Bayes on a collapsed prior at c."""
    cfg = replace(cfg, method="bayes", c=c, sigma_c=0.0, n_quad=1)
    return float(beamform_points(cube, x, y, cfg, GEOM).log_lik[..., 0])


def _weights(result, cfg):
    """A Bayes result's posterior weights, formed from its log likelihoods as the image is."""
    return posterior_weights(np.log(cfg.rule()[1]), result.log_lik)[0]


def _delayed(cube, t):
    """The cube's phase-aligned samples at round-trip times t (..., sensor):
    sample_rows at the times' sample positions, with the carrier step
    2*pi*f_c/f_s."""
    pos = (t - cube.time_origin) * cube.sample_rate - cube.sample_offset
    return sample_rows(cube.samples, pos, TWO_PI * cube.carrier / cube.sample_rate)


def _capon_weights(cov):
    """Distortionless weights S^-1 1 / (1^T S^-1 1) for a positive definite stack."""
    sol, denom, good = capon_solve(cov)
    assert np.all(good)
    return sol / denom[..., None]


def _capon_power(cov):
    """Capon power 1 / (1^T S^-1 1) for a positive definite stack."""
    _, denom, good = capon_solve(cov)
    assert np.all(good)
    return 1.0 / denom


@pytest.fixture(scope="module")
def baseband():
    target = Target.at_slant_range(0.0, TARGET_RANGE, 90.0, 70.0)
    sim = SimConfig(sample_rate=500e3, record_duration=0.15, rng_seed=5,
                    ref_level_db=-47.0)
    cube = synthesize_rx([target], GEOM, PULSE, ENV, sim)
    cube = quantize(cube, 16)
    cube = tvg(cube, 1519.0, "two_way", t_min=PULSE.duration)
    return matched_filter(demodulate(cube, 30e3, 4), PULSE)


class TestConfigChecks:
    @pytest.mark.parametrize("c", [0.0, -5.0, float("nan")])
    def test_fixed_speed_must_be_positive(self, c):
        with pytest.raises(ValueError, match="c must be finite and > 0"):
            _make_cfg(c=c)

    @pytest.mark.parametrize("kwargs", [
        dict(c=float("inf")), dict(dr_db=float("nan")), dict(dr_db=float("inf")),
        dict(snr0_db=float("nan")), dict(snr0_db=float("inf")), dict(snr0_db=float("-inf"))])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError):
            _make_cfg(**kwargs)

    @pytest.mark.parametrize("key", ["subarray_length", "n_quad"])
    @pytest.mark.parametrize("bad", [2.5, True])
    def test_non_integer_count_rejected(self, key, bad):
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            _make_cfg(**{key: bad})

    def test_numpy_integer_counts_accepted(self):
        cfg = _make_cfg(method="mvdr", subarray_length=np.int64(4), n_quad=np.int64(4))
        assert cfg.n_subarrays(30) == 27
        assert _make_cfg(n_quad=np.int64(4)).rule()[0].size == 4

    def test_n_quad_capped_at_max_nodes(self):
        assert _make_cfg(n_quad=MAX_NODES).n_quad == MAX_NODES
        with pytest.raises(ValueError, match="n_quad"):
            _make_cfg(n_quad=MAX_NODES + 1)

    def test_default_prior_is_the_sos_prior_default(self):
        # the default prior N(1519, 0.3^2) is centred on the default assumed speed
        assert (BeamformerConfig().c, BeamformerConfig().sigma_c) == (1519.0, 0.3)

    def test_speeds_are_c_fixed_or_the_nodes(self):
        for method in ("das", "mvdr"):
            np.testing.assert_array_equal(_make_cfg(method=method, c=1490.0).speeds(),
                                          [1490.0])
        cfg = _make_cfg(n_quad=5, c=1500.0, sigma_c=4.0)
        np.testing.assert_array_equal(cfg.speeds(),
                                      np.sqrt(2.0) * hermgauss(5)[0] * 4.0 + 1500.0)

    @pytest.mark.parametrize("sigma_c, n_quad", [(1000.0, 8), (200.0, 32), (100.0, MAX_NODES)])
    def test_prior_with_a_node_at_or_below_zero_rejected(self, baseband, sigma_c, n_quad):
        # 1519 m/s less sqrt(2) sigma_c times the rule's largest node is < 0
        cfg = _make_cfg(sigma_c=sigma_c, n_quad=n_quad)
        with pytest.raises(ValueError, match=f"the {n_quad}-node rule puts a node at -"):
            cfg.speeds()
        with pytest.raises(ValueError, match="node speeds must be > 0"):
            beamform_points(baseband, 0.0, TARGET_RANGE, cfg, GEOM)


class TestMvdrWeights:
    def test_identity_gives_uniform(self):
        w = _capon_weights(np.eye(4, dtype=complex))
        np.testing.assert_allclose(w, np.full(4, 0.25))

    def test_diagonal_two_by_two(self):
        m = np.diag([1.0, 4.0]).astype(complex)
        np.testing.assert_allclose(_capon_weights(m), [0.8, 0.2])

    def test_distortionless_constraint_random(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            m = a @ a.conj().T + 0.1 * np.eye(6)
            w = _capon_weights(m)
            assert np.sum(w) == pytest.approx(1.0 + 0j, abs=1e-10)

    def test_non_pd_surfaced(self):
        m = np.diag([1.0, -1.0]).astype(complex)
        _, _, good = capon_solve(m)
        assert not good


class TestCaponPower:
    def test_identity_15(self):
        m = np.eye(15, dtype=complex)
        assert _capon_power(m) == pytest.approx(1.0 / 15.0, rel=1e-14)

    def test_scaled_identity(self):
        m = 2.5 * np.eye(8, dtype=complex)
        assert _capon_power(m) == pytest.approx(2.5 / 8.0, rel=1e-14)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
            s = a @ a.conj().T + 0.5 * np.eye(9)
            ones = np.ones(9)
            oracle = 1.0 / (ones @ np.linalg.inv(s) @ ones).real
            assert _capon_power(s) == pytest.approx(oracle, rel=1e-12)

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
        stack = a @ np.swapaxes(a, -1, -2).conj() + 0.5 * np.eye(6)
        np.testing.assert_allclose(_capon_power(stack), [_capon_power(m) for m in stack],
                                   rtol=1e-12)


class TestGamma:
    def test_unit_range_substitution(self):
        # r_p = 1 -> G_TVG = 0 dB; DR == SNR0 makes NL = 1 linear
        geom = ArrayGeometry.uniform(12, 1.0)
        cfg = _make_cfg(snr0_db=15.0, dr_db=15.0)
        n_sub = cfg.n_subarrays(12)
        snr = 10.0 ** 1.5
        expected = n_sub * (n_sub * snr) / (1.0 + n_sub * snr)
        assert _gamma_batch(0.0, 1.0, cfg, geom) == pytest.approx(expected, rel=1e-12)

    def test_saturation_limit(self):
        # huge SNR0: the SNR factor saturates at 1, gamma -> n_sub / NL^2
        geom = ArrayGeometry.uniform(12, 1.0)
        cfg = _make_cfg(snr0_db=200.0, dr_db=260.0)
        n_sub = cfg.n_subarrays(12)
        nl = 10.0 ** ((260.0 - 200.0) / 10.0)
        assert _gamma_batch(0.0, 1.0, cfg, geom) == pytest.approx(n_sub / nl ** 2, rel=1e-9)

    def test_golden_reference_setup_value(self):
        # DR 96 dB, SNR0 15 dB, broadside focal point at 36 m, N_sub = 15;
        # frozen from a direct evaluation of the NL/SNR/gamma formulas (the
        # broadside one-way-equivalent range to the array center is exactly 36)
        geom = ArrayGeometry.uniform(30, 1.0)
        cfg = BeamformerConfig(method="bayes", c=1519.0, subarray_length=16, sigma_c=0.3,
                               snr0_db=15.0, dr_db=96.0)
        got = float(_gamma_batch(0.0, 36.0, cfg, geom))
        g_tvg = 20.0 * np.log10(36.0)
        nl = 10.0 ** ((96.0 - 15.0 + g_tvg) / 10.0)
        snr = 10.0 ** ((15.0 - g_tvg) / 10.0)
        oracle = (15.0 / nl ** 2) * (15.0 * snr) / (1.0 + 15.0 * snr)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(1.5097861197528931e-22, rel=1e-12)

    def test_strictly_positive(self):
        geom = ArrayGeometry.uniform(12, 1.0)
        cfg = _make_cfg()
        assert (_gamma_batch(2.0, np.array([0.5, 5.0, 500.0]), cfg, geom) > 0).all()


class TestLogLikelihood:
    def test_is_product_of_factors(self, baseband):
        cfg = _make_cfg()
        got = _log_likelihood(baseband, 0.0, TARGET_RANGE, cfg, 1519.0)
        imager = _Imager(baseband, GEOM, cfg)
        _, power, _ = imager.mvdr_node(travel_times(0.0, TARGET_RANGE, 1519.0, GEOM))
        expected = imager.n_sub * float(_gamma_batch(0.0, TARGET_RANGE, cfg, GEOM)) * float(power)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_linear_in_data_power(self, baseband):
        # doubling the data power doubles P_s and with it the log likelihood
        cfg = _make_cfg()
        scaled = BasebandCube(samples=np.sqrt(2.0) * baseband.samples,
                              sample_rate=baseband.sample_rate,
                              carrier=baseband.carrier,
                              decimation=baseband.decimation,
                              time_origin=baseband.time_origin)
        base = _log_likelihood(baseband, 0.0, TARGET_RANGE, cfg, 1519.0)
        assert _log_likelihood(scaled, 0.0, TARGET_RANGE, cfg, 1519.0) == pytest.approx(
            2.0 * base, rel=1e-9)

    def test_scales_linearly_with_gamma(self, baseband):
        # dropping DR by 10 dB multiplies gamma (hence the log likelihood) by 100
        a = _log_likelihood(baseband, 0.0, TARGET_RANGE, _make_cfg(dr_db=96.0), 1519.0)
        b = _log_likelihood(baseband, 0.0, TARGET_RANGE, _make_cfg(dr_db=86.0), 1519.0)
        assert b == pytest.approx(100.0 * a, rel=1e-9)

    def test_peak_near_true_average_speed(self, baseband):
        # dense sweep against the depth-averaged propagation speed
        from sosbeam.simulate import depth_averaged_sos
        cfg = _make_cfg()
        c_true = depth_averaged_sos(ENV, 70.0, 90.0)
        cs = np.arange(1516.0, 1522.0, 0.1)
        vals = [_log_likelihood(baseband, 0.0, TARGET_RANGE, cfg, float(c)) for c in cs]
        assert abs(cs[int(np.argmax(vals))] - c_true) <= 0.5


class TestPosteriorWeights:
    LOG_U = np.log(hermgauss(8)[1])  # the log weights

    def test_flat_likelihood_recovers_prior(self):
        w, fb = posterior_weights(self.LOG_U, np.zeros(8))
        u = np.exp(self.LOG_U)
        np.testing.assert_allclose(w, u / u.sum(), rtol=1e-12)
        assert not fb.any()

    def test_dominant_node_takes_weight(self):
        log_lik = np.zeros(8)
        log_lik[3] = np.log(1e6)
        w, _ = posterior_weights(self.LOG_U, log_lik)
        assert w[3] > 0.999

    def test_simplex(self):
        rng = np.random.default_rng(3)
        ll = rng.uniform(0, 500, size=(40, 8))
        w, _ = posterior_weights(self.LOG_U, ll)
        assert (w >= 0).all()
        np.testing.assert_allclose(w.sum(axis=1), 1.0, rtol=1e-12)

    def test_overflow_safe(self):
        w, fb = posterior_weights(self.LOG_U, np.array([1e6, 0, 0, 0, 0, 0, 0, 2e6]))
        assert not fb.any()
        assert w[7] == pytest.approx(1.0)

    def test_non_finite_falls_back_to_prior(self):
        ll = np.zeros(8)
        ll[2] = np.nan
        w, fb = posterior_weights(self.LOG_U, ll)
        assert fb.all()
        u = np.exp(self.LOG_U)
        np.testing.assert_allclose(w, u / u.sum(), rtol=1e-12)

    @given(n_quad=st.integers(1, MAX_NODES), rows=st.integers(1, 6),
           exponent=st.integers(-300, 300), seed=st.integers(0, 2 ** 32 - 1))
    def test_property_simplex_at_any_finite_scale(self, n_quad, rows, exponent, seed):
        # log likelihoods up to about 1e300 in magnitude, of either sign
        _, weights = hermgauss(n_quad)
        log_u = np.log(weights)
        ll = np.random.default_rng(seed).standard_normal((rows, n_quad)) * 10.0 ** exponent
        w, fb = posterior_weights(log_u, ll)
        assert not fb.any()
        assert (w >= 0).all()
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    @given(n_quad=st.integers(1, MAX_NODES), rows=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1),
           bad_value=st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_property_non_finite_row_is_exactly_the_prior(self, n_quad, rows, seed,
                                                          bad_value):
        rng = np.random.default_rng(seed)
        _, weights = hermgauss(n_quad)
        log_u = np.log(weights)
        ll = rng.standard_normal((rows, n_quad)) * 10.0 ** rng.integers(-3, 4)
        bad = rng.random(rows) < 0.5
        ll[bad, rng.integers(n_quad, size=rows)[bad]] = bad_value
        w, fb = posterior_weights(log_u, ll)
        np.testing.assert_array_equal(fb, bad)
        u = np.exp(log_u - log_u.max())
        np.testing.assert_array_equal(w[bad], np.broadcast_to(u / u.sum(), w[bad].shape))


class TestSosPosterior:
    def test_collapsed_prior_recovers_prior_weights(self, baseband):
        cfg = _make_cfg(sigma_c=0.0)
        post = beamform_points(baseband, 0.0, TARGET_RANGE, cfg, GEOM)
        _, u = hermgauss(8)
        np.testing.assert_allclose(_weights(post, cfg), u / u.sum(), rtol=1e-10)

    def test_weights_form_simplex(self, baseband):
        cfg = _make_cfg()
        post = beamform_points(baseband, 0.5, np.array([TARGET_RANGE, 30.0, 40.0]), cfg, GEOM)
        w = _weights(post, cfg)
        assert w.shape == (3, 8)
        assert (w >= 0).all()
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=1e-10)

    def test_nodes_follow_prior_map(self, baseband):
        cfg = _make_cfg()
        post = beamform_points(baseband, 0.0, TARGET_RANGE, cfg, GEOM)
        nodes, _ = hermgauss(8)
        assert post.log_lik.shape == cfg.speeds().shape
        np.testing.assert_allclose(cfg.speeds(), np.sqrt(2.0) * nodes * cfg.sigma_c + cfg.c)


class TestPixels:
    def test_das_single_sensor_returns_delayed_sample(self):
        geom1 = ArrayGeometry(sensor_x=np.array([0.0]))
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        bb = BasebandCube(samples=samples[None, :], sample_rate=125e3,
                          carrier=30e3, decimation=4, time_origin=0.0)
        expected = _delayed(bb, travel_times(0.0, 2.0, 1500.0, geom1))[0][0]
        cfg = BeamformerConfig(method="das", c=1500.0)
        got = beamform_points(bb, 0.0, 2.0, cfg, geom1).values
        assert complex(got) == pytest.approx(expected, rel=1e-12)

    def test_das_constant_snapshot_returns_value(self):
        geom = ArrayGeometry.uniform(4, 0.5)
        bb = BasebandCube(samples=np.full((4, 4096), 3.0 + 0j), sample_rate=125e3,
                          carrier=0.0, decimation=4, time_origin=0.0)
        # zero carrier: no phase rotation, snapshot is exactly the constant
        cfg = BeamformerConfig(method="das", c=1500.0)
        got = beamform_points(bb, 0.0, 1.5, cfg, geom).values
        assert complex(got) == pytest.approx(3.0 + 0j, rel=1e-12)

    def test_das_peak_tracks_matched_filter_energy(self, baseband):
        # focus at the true average propagation speed and search the immediate
        # neighborhood for the response peak; it must sit within 1 dB of the
        # per-sensor matched-filter peak of the direct echo (unit-sum weights
        # preserve scale). Window the reference around the direct arrival so
        # TVG-boosted later bounces do not masquerade as the target.
        from sosbeam.simulate import depth_averaged_sos
        c_true = depth_averaged_sos(ENV, 70.0, 90.0)
        ys = np.arange(TARGET_RANGE - 0.05, TARGET_RANGE + 0.05, 0.005)
        cfg = _make_cfg(method="das", c=c_true)
        best = np.abs(beamform_points(baseband, 0.0, ys, cfg, GEOM).values).max()
        k = int(round((2 * TARGET_RANGE / c_true - baseband.time_origin)
                      * baseband.sample_rate))
        sensor_peak = np.abs(baseband.samples[:, k - 20:k + 20]).max()
        assert abs(20 * np.log10(best / sensor_peak)) <= 1.0

    def test_bayes_single_node_equals_mvdr_at_prior_mean(self, baseband):
        cfg = _make_cfg(n_quad=1)
        bayes = beamform_points(baseband, 0.3, TARGET_RANGE, cfg, GEOM)
        mvdr = _mvdr(baseband, 0.3, TARGET_RANGE, cfg, cfg.c)
        assert complex(bayes.values) == pytest.approx(complex(mvdr), rel=1e-12)

    def test_bayes_collapsed_prior_equals_mvdr(self, baseband):
        cfg = _make_cfg(sigma_c=0.0)
        bayes = beamform_points(baseband, -0.4, TARGET_RANGE, cfg, GEOM)
        mvdr = _mvdr(baseband, -0.4, TARGET_RANGE, cfg, 1519.0)
        assert abs(bayes.values - mvdr) <= 1e-10 * abs(mvdr)

    def test_bayes_is_posterior_average_of_node_pixels(self, baseband):
        # reconstruction from the public pieces; also implies invariance to
        # any reordering of the quadrature nodes
        cfg = _make_cfg()
        result = beamform_points(baseband, 0.1, TARGET_RANGE, cfg, GEOM)
        manual = sum(w * _mvdr(baseband, 0.1, TARGET_RANGE, cfg, float(c))
                     for w, c in zip(_weights(result, cfg), cfg.speeds()))
        assert complex(result.values) == pytest.approx(complex(manual), rel=1e-10)

    def test_gamma_scaling_preserves_posterior_argmax(self, baseband):
        cfg_a, cfg_b = _make_cfg(dr_db=96.0), _make_cfg(dr_db=99.0)
        post_a = beamform_points(baseband, 0.0, TARGET_RANGE, cfg_a, GEOM)
        post_b = beamform_points(baseband, 0.0, TARGET_RANGE, cfg_b, GEOM)
        assert int(np.argmax(_weights(post_a, cfg_a))) == int(np.argmax(_weights(post_b, cfg_b)))


class TestWeakPosterior:
    def test_bayes_over_mvdr_is_the_closed_form_taper(self):
        # a noiseless single target, no boundary echoes and no quantization
        sim = SimConfig(sample_rate=500e3, record_duration=0.05, noise_power_db=-400.0)
        quiet = replace(ENV, surface_reflectivity=0.0, bottom_reflectivity=0.0)
        target = Target.at_slant_range(0.0, TARGET_RANGE, 90.0, 70.0)
        raw = synthesize_rx([target], GEOM, PULSE, quiet, sim)
        cube = matched_filter(demodulate(raw, PULSE.center_frequency, 4), PULSE)
        cfg = _make_cfg()
        mu, sigma = cfg.c, cfg.sigma_c
        px, py = np.meshgrid(np.linspace(-0.1, 0.1, 11),
                             np.linspace(TARGET_RANGE - 0.1, TARGET_RANGE + 0.1, 201))
        iy, ix = np.unravel_index(np.argmax(np.abs(_mvdr(cube, px, py, cfg, mu))), px.shape)
        x, y = px[iy, ix], py[iy, ix]
        _, u = hermgauss(cfg.n_quad)
        # the Capon power, and so the log likelihood, falls as the square of the scale
        for scale in 10.0 ** -np.arange(0, 31, 2):
            weak = replace(cube, samples=cube.samples * scale)
            bayes = beamform_points(weak, x, y, cfg, GEOM)
            if np.abs(_weights(bayes, cfg) - u / u.sum()).max() <= 1e-9:
                break
        else:
            pytest.fail("no scale brought the posterior within 1e-9 of the prior")
        ratio_db = 20 * np.log10(abs(bayes.values) / abs(_mvdr(weak, x, y, cfg, mu)))
        # the carrier phase 2*pi*f_c*d/c turns by a per prior standard deviation
        a = 2 * np.pi * PULSE.center_frequency * 2 * focal_range(x, y, GEOM) * sigma / mu ** 2
        assert ratio_db == pytest.approx(20 * np.log10(np.exp(-a ** 2 / 2)), abs=0.5)


class TestOffAxisTarget:
    @pytest.mark.parametrize("method", ["mvdr", "bayes"])
    def test_lone_target_at_x_1_peaks_at_its_position(self, method):
        # the default cross's x = 1 peak sits about 0.1 m off; alone, the target does not
        sim = SimConfig(sample_rate=500e3, record_duration=0.05, noise_power_db=-400.0)
        quiet = replace(ENV, surface_reflectivity=0.0, bottom_reflectivity=0.0)
        target = Target.at_slant_range(1.0, 32.0, 90.0, 70.0)
        raw = synthesize_rx([target], GEOM, PULSE, quiet, sim)
        cube = matched_filter(demodulate(raw, PULSE.center_frequency, 4), PULSE)
        px, py = np.meshgrid(np.linspace(0.85, 1.15, 121), np.linspace(31.95, 32.05, 41))
        image = beamform_points(cube, px, py, _make_cfg(method=method), GEOM).values
        iy, ix = np.unravel_index(np.argmax(np.abs(image)), px.shape)
        assert np.hypot(px[iy, ix] - 1.0, py[iy, ix] - 32.0) <= 0.005


class TestMvdrNode:
    def test_is_the_covariance_kernels_composed(self, baseband):
        # the image path's MVDR output and Capon power, rebuilt in the complex
        # domain with the oracle's forward-backward average and Capon solve,
        # for odd and even subarray lengths (the unitary transform
        # has a middle element only for odd ones)
        from sosbeam.covariance import diagonal_load, sample_covariance, subarray_snapshots
        snap, _ = _delayed(baseband, travel_times(0.2, TARGET_RANGE, 1519.0, GEOM))
        for length in (7, 1, 6, 12):
            cfg = _make_cfg(method="mvdr", subarray_length=length)
            imager = _Imager(baseband, GEOM, cfg)
            value, power, flags = imager.mvdr_node(travel_times(0.2, TARGET_RANGE, 1519.0,
                                                                GEOM))
            snaps = subarray_snapshots(snap, cfg.subarray_length)
            cov = diagonal_load(forward_backward(sample_covariance(snaps)), imager.eps)
            assert flags == 0
            assert power == pytest.approx(_capon_power(cov), rel=1e-12)
            expected = np.vdot(_capon_weights(cov), snaps.mean(axis=0))
            assert value == pytest.approx(expected, rel=1e-12)

    def test_rejected_pixel_alone_in_its_batch(self):
        # unloaded (eps = 0), a snapshot that holds one sensor gives a covariance
        # with zero rows, which the factorization rejects; only that pixel is
        # flagged, and its batch neighbours keep their one-pixel bits. (L = 16
        # on 16 sensors leaves every pixel one window, rank 2, so no neighbour
        # would be accepted; L = 8 gives nine.)
        from sosbeam.beamform import FLAG_SINGULAR
        rng = np.random.default_rng(3)
        m = 4096
        samples = rng.standard_normal((16, m)) + 1j * rng.standard_normal((16, m))
        samples[1:, m // 2:] = 0.0
        cube = BasebandCube(samples=samples, sample_rate=125e3, carrier=30e3)
        imager = _Imager(cube, ArrayGeometry.uniform(16, 1.0),
                         BeamformerConfig(method="mvdr", subarray_length=8, loading_factor=0.0))
        pos = rng.uniform(100, m // 2 - 100, (6, 16))
        pos[4] = rng.uniform(m // 2 + 100, m - 100, 16)
        values, power, flags = imager.mvdr_node(pos / cube.sample_rate)
        np.testing.assert_array_equal(flags, [0, 0, 0, 0, FLAG_SINGULAR, 0])
        assert values[4] == 0 and power[4] == 0
        assert (power[[0, 1, 2, 3, 5]] > 0).all()
        for i in (0, 1, 2, 3, 5):
            value, p_s, flag = imager.mvdr_node(pos[i] / cube.sample_rate)
            assert (value, p_s, flag) == (values[i], power[i], 0)

    def test_zero_snapshot_flagged_singular(self):
        from sosbeam.beamform import FLAG_SINGULAR
        bb = BasebandCube(samples=np.zeros((12, 4096), dtype=complex), sample_rate=125e3,
                          carrier=30e3, decimation=4, time_origin=0.0)
        imager = _Imager(bb, GEOM, _make_cfg(method="mvdr"))
        value, power, flags = imager.mvdr_node(travel_times(np.array([0.0, 0.5]), 2.0,
                                                            1500.0, GEOM))
        np.testing.assert_array_equal(flags, FLAG_SINGULAR)
        np.testing.assert_array_equal(value, 0.0)
        # no data, no estimate: the same Capon power 0 as a rejected factorization
        np.testing.assert_array_equal(power, 0.0)

    def test_no_data_leaves_the_bayes_posterior_at_the_prior(self):
        # every node of a zero cube has Capon power 0, so no node gains likelihood
        # (dB settings that make gamma of order 1 at 2 m, so a likelihood would show)
        from sosbeam.beamform import FLAG_SINGULAR, _gamma_batch
        bb = BasebandCube(samples=np.zeros((12, 4096), dtype=complex), sample_rate=125e3,
                          carrier=30e3, decimation=4, time_origin=0.0)
        cfg = _make_cfg(dr_db=10.0, snr0_db=20.0)
        assert _gamma_batch(0.5, 2.0, cfg, GEOM) > 0.1
        res = beamform_points(bb, np.array([0.0, 0.5]), 2.0, cfg, GEOM)
        np.testing.assert_array_equal(res.flags, FLAG_SINGULAR)
        np.testing.assert_array_equal(res.values, 0.0)
        assert res.log_lik.shape == (2, cfg.n_quad)
        np.testing.assert_array_equal(res.log_lik, 0.0)

    @pytest.mark.parametrize("row", ["q", "mean_map"])
    def test_non_finite_border_rows_flagged_singular(self, baseband, row):
        # a steering row (q) or window-mean rows (mean_map) that are not finite
        # leave C factorable but the border rows non-finite: value 0, Capon
        # power 0 and the singular flag, as for no data
        from sosbeam.beamform import FLAG_SINGULAR
        imager = _Imager(baseband, GEOM, _make_cfg(method="mvdr"))
        t = travel_times(np.array([0.0, 0.2]), TARGET_RANGE, 1519.0, GEOM)
        _, power, flags = imager.mvdr_node(t)
        assert (power > 0).all() and (flags == 0).all()
        setattr(imager, row, np.full_like(getattr(imager, row), np.nan))
        value, power, flags = imager.mvdr_node(t)
        np.testing.assert_array_equal(flags, FLAG_SINGULAR)
        np.testing.assert_array_equal(value, 0.0)
        np.testing.assert_array_equal(power, 0.0)


class TestBeamformImage:
    GRID = ScanGrid(-0.5, 0.5, TARGET_RANGE - 0.5, TARGET_RANGE + 0.5, 5, 4)

    def test_das_ignores_subarray_length(self):
        # the default subarray_length (16) exceeds this 8-sensor array, which
        # only the adaptive methods care about
        geom8 = ArrayGeometry.uniform(8, 1.0)
        rng = np.random.default_rng(21)
        bb = BasebandCube(samples=rng.standard_normal((8, 4096))
                          + 1j * rng.standard_normal((8, 4096)),
                          sample_rate=125e3, carrier=30e3, decimation=4, time_origin=0.0)
        grid = ScanGrid(-1.0, 1.0, 4.0, 6.0, 3, 4)
        cfg = BeamformerConfig(method="das")
        img = beamform_image(bb, grid, cfg, geom8)
        for iy, y in enumerate(grid.y_values()):
            for ix, x in enumerate(grid.x_values()):
                expected = complex(beamform_points(bb, x, y, cfg, geom8).values)
                assert img.values[iy, ix] == pytest.approx(expected, rel=1e-12)

    def test_single_pixel_grid_matches_pixel_call(self, baseband):
        grid = ScanGrid(-0.1, 0.1, TARGET_RANGE - 0.1, TARGET_RANGE + 0.1, 1, 1)
        x, y = 0.5 * (grid.x_min + grid.x_max), 0.5 * (grid.y_min + grid.y_max)
        for method in ("das", "mvdr", "bayes"):
            cfg = _make_cfg(method=method)
            img = beamform_image(baseband, grid, cfg, GEOM)
            expected = complex(beamform_points(baseband, x, y, cfg, GEOM).values)
            assert img.values[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_repeat_runs_bit_identical(self, baseband):
        cfg = _make_cfg()
        a = beamform_image(baseband, self.GRID, cfg, GEOM)
        b = beamform_image(baseband, self.GRID, cfg, GEOM)
        np.testing.assert_array_equal(a.values, b.values)

    def test_threaded_matches_serial_bitwise(self, baseband):
        cfg = _make_cfg()
        serial = beamform_image(baseband, self.GRID, cfg, GEOM, threads=1)
        threaded = beamform_image(baseband, self.GRID, cfg, GEOM, threads=4)
        np.testing.assert_array_equal(serial.values, threaded.values)
        np.testing.assert_array_equal(serial.flags, threaded.flags)

    def test_out_of_record_pixels_flagged_not_fatal(self, baseband):
        grid = ScanGrid(-0.5, 0.5, 500.0, 501.0, 3, 3)  # far beyond the record
        img = beamform_image(baseband, grid, _make_cfg(method="das"), GEOM)
        assert (img.flags & FLAG_OUT_OF_RECORD).all()
        np.testing.assert_array_equal(img.values, np.zeros((3, 3), dtype=complex))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("block, n_x, tasks", [
        (10, 5, 4),    # 2 rows a block, the last block 1 row
        (15, 5, 3),    # 3 rows a block, the last block 1 row
        (3, 5, 7),     # a grid wider than a block: one row a task
        (512, 5, 1),   # the whole grid in one block
    ])
    def test_tasks_are_blocks_of_whole_rows(self, baseband, monkeypatch, method, block, n_x,
                                            tasks):
        monkeypatch.setattr(beamform, "BLOCK_PIXELS", block)
        counts = []

        def counting_map_rows(fn, n, threads):
            counts.append(n)
            return map_rows(fn, n, threads)

        monkeypatch.setattr(beamform, "map_rows", counting_map_rows)
        grid = ScanGrid(-0.5, 0.5, TARGET_RANGE - 0.5, TARGET_RANGE + 0.5, n_x, 7)
        cfg = _make_cfg(method=method)
        img = beamform_image(baseband, grid, cfg, GEOM, threads=2)
        assert counts == [tasks]
        # any batching of the pixels gives the same bits
        whole = beamform_points(baseband, grid.x_values(), grid.y_values()[:, None], cfg, GEOM)
        np.testing.assert_array_equal(img.values, whole.values)
        np.testing.assert_array_equal(img.flags, whole.flags)

    @given(method=st.sampled_from(METHODS), n_x=st.integers(1, 6), n_y=st.integers(1, 5),
           block=st.integers(1, 12), x_min=st.floats(-2.0, 1.0), width=st.floats(0.01, 2.0),
           y_min=st.floats(TARGET_RANGE - 2.0, TARGET_RANGE + 1.0),
           depth=st.floats(0.01, 2.0))
    def test_property_threads_1_and_2_bit_identical(self, baseband, method, n_x, n_y, block,
                                                    x_min, width, y_min, depth):
        # small blocks: several tasks, a partial last block, or n_x > BLOCK_PIXELS
        grid = ScanGrid(x_min, x_min + width, y_min, y_min + depth, n_x, n_y)
        cfg = _make_cfg(method=method, n_quad=8)
        with mock.patch.object(beamform, "BLOCK_PIXELS", block):
            one = beamform_image(baseband, grid, cfg, GEOM, threads=1)
            two = beamform_image(baseband, grid, cfg, GEOM, threads=2)
        np.testing.assert_array_equal(one.values, two.values)
        np.testing.assert_array_equal(one.flags, two.flags)

    def test_kernel_flags_non_finite_pixel_out_of_record(self, baseband):
        # beamform_points rejects such pixels; the engine under it must not
        # turn them into valid nan samples either
        imager = _Imager(baseband, GEOM, _make_cfg(method="das"))
        px = np.array([np.nan, np.inf, -np.inf, 0.0, 0.0, 0.0, 0.0])
        py = np.array([TARGET_RANGE] * 4 + [np.nan, np.inf, -np.inf])
        snap, flags = imager.delayed_snapshots(travel_times(px, py, 1519.0, GEOM))
        bad = [0, 1, 2, 4, 5, 6]
        np.testing.assert_array_equal(flags[bad], FLAG_OUT_OF_RECORD)
        assert flags[3] == 0
        np.testing.assert_array_equal(snap[bad], 0.0)
        assert np.isfinite(snap).all()

    def test_das_noise_only_floor(self):
        sim = SimConfig(sample_rate=500e3, record_duration=0.12, rng_seed=3,
                        ref_level_db=-47.0)
        cube = synthesize_rx([], GEOM, PULSE, ENV, sim)
        bb = matched_filter(demodulate(
            tvg(quantize(cube, 16), 1519.0, t_min=PULSE.duration), 30e3, 4), PULSE)
        img = beamform_image(bb, self.GRID, _make_cfg(method="das"), GEOM)
        # per-pixel DAS output of pure noise stays within a few standard
        # deviations of the per-sensor noise level at that range
        row = int(round((TARGET_RANGE - bb.time_origin) * 2 / 1519.0 * bb.sample_rate))
        noise_scale = np.sqrt(np.mean(np.abs(bb.samples[:, row - 50:row + 50]) ** 2))
        assert np.abs(img.values).max() < 3.0 * noise_scale

    def test_overflowing_likelihood_falls_back_to_the_prior(self):
        # Capon power near 1e300 and gamma near 1e61 overflow n_sub * gamma * P_s
        # to inf; tier-1 turns a RuntimeWarning into an error, so the posterior
        # must flag the fallback and use the prior without one
        from sosbeam.beamform import FLAG_POSTERIOR_FALLBACK
        from sosbeam.core import path_lengths
        rng = np.random.default_rng(0)
        noise = rng.standard_normal((12, 4096)) + 1j * rng.standard_normal((12, 4096))
        bb = BasebandCube(samples=noise / np.sqrt(2.0) * 1e150, sample_rate=125e3,
                          carrier=30e3, decimation=4, time_origin=0.0)
        cfg = _make_cfg(dr_db=1e-6, snr0_db=300.0)
        px, py = np.array([0.0, 0.5]), 10.0
        res = beamform_points(bb, px, py, cfg, GEOM)
        np.testing.assert_array_equal(res.flags, FLAG_POSTERIOR_FALLBACK)
        imager = _Imager(bb, GEOM, cfg)
        speeds, u = cfg.rule()
        nodes = np.stack([imager.mvdr_node(path_lengths(px, py, GEOM) / c)[0]
                          for c in speeds], axis=-1)
        # the prior's weights as the fallback forms them, the softmax of log u
        prior = posterior_weights(np.log(u), np.zeros_like(u))[0]
        np.testing.assert_allclose(res.values, np.einsum("...n,n->...", nodes, prior),
                                   rtol=1.3e-16, atol=0)
        img = beamform_image(bb, ScanGrid(-0.5, 0.5, 9.9, 10.1, 3, 2), cfg, GEOM)
        np.testing.assert_array_equal(img.flags, FLAG_POSTERIOR_FALLBACK)
        assert img.flag_summary()["posterior_fallback"] == 6


class TestBeamformPoints:
    @pytest.mark.parametrize("coord, bad", [
        ("px", float("nan")), ("px", float("inf")), ("px", float("-inf")),
        ("py", float("nan")), ("py", float("inf")), ("py", float("-inf")),
        ("py", 0.0), ("py", -TARGET_RANGE)])
    def test_non_finite_pixel_or_non_positive_range_rejected(self, baseband, coord, bad):
        pixel = {"px": np.array([0.0, 0.5]), "py": np.full(2, TARGET_RANGE)}
        pixel[coord][1] = bad
        for method in METHODS:
            with pytest.raises(ValueError, match=coord):
                beamform_points(baseband, pixel["px"], pixel["py"],
                                _make_cfg(method=method), GEOM)

    def test_shapes_broadcast_and_posterior_only_for_bayes(self, baseband):
        px, py = np.linspace(-0.5, 0.5, 3), np.array([[TARGET_RANGE], [TARGET_RANGE + 0.2]])
        for method in ("das", "mvdr"):
            result = beamform_points(baseband, px, py, _make_cfg(method=method), GEOM)
            assert result.values.shape == result.flags.shape == (2, 3)
            assert result.log_lik is None
        result = beamform_points(baseband, px, py, _make_cfg(n_quad=5), GEOM)
        assert result.values.shape == result.flags.shape == (2, 3)
        assert result.log_lik.shape == (2, 3, 5)

    @given(method=st.sampled_from(METHODS), n_quad=st.integers(1, 12),
           m=st.integers(1, 3), n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_property_batch_equals_one_pixel_at_a_time(self, baseband, method, n_quad,
                                                       m, n, seed):
        rng = np.random.default_rng(seed)
        px = rng.uniform(-1.0, 1.0, (1, n))
        py = rng.uniform(TARGET_RANGE - 1.0, TARGET_RANGE + 1.0, (m, 1))
        cfg = _make_cfg(method=method, n_quad=n_quad)
        batch = beamform_points(baseband, px, py, cfg, GEOM)
        for i in range(m):
            for j in range(n):
                one = beamform_points(baseband, px[0, j], py[i, 0], cfg, GEOM)
                np.testing.assert_allclose(batch.values[i, j], one.values, rtol=1e-12)
                assert batch.flags[i, j] == one.flags
                if method == "bayes":
                    np.testing.assert_allclose(batch.log_lik[i, j], one.log_lik, rtol=1e-12)

    @given(method=st.sampled_from(METHODS), n_quad=st.integers(1, 12), n_x=st.integers(1, 6),
           n_y=st.integers(1, 4), block=st.integers(1, 12), x_min=st.floats(-2.0, 1.0),
           width=st.floats(0.01, 2.0), y_min=st.floats(TARGET_RANGE - 2.0, TARGET_RANGE + 1.0),
           depth=st.floats(0.01, 2.0), iy=st.integers(0, 3))
    def test_property_image_row_is_the_pixel_call_bitwise(self, baseband, method, n_quad,
                                                          n_x, n_y, block, x_min, width,
                                                          y_min, depth, iy):
        grid = ScanGrid(x_min, x_min + width, y_min, y_min + depth, n_x, n_y)
        cfg = _make_cfg(method=method, n_quad=n_quad)
        with mock.patch.object(beamform, "BLOCK_PIXELS", block):
            img = beamform_image(baseband, grid, cfg, GEOM)
        iy = min(iy, n_y - 1)
        xs = grid.x_values()
        row = beamform_points(baseband, xs, np.full(n_x, grid.y_values()[iy]), cfg, GEOM)
        np.testing.assert_array_equal(row.values, img.values[iy])
        np.testing.assert_array_equal(row.flags, img.flags[iy])

    @pytest.mark.parametrize("method", METHODS)
    def test_bits_do_not_depend_on_batch_size(self, method):
        # 600 pixels at 30 sensors are 281 KiB of complex snapshots, past
        # numpy's 256 KiB temporary-elision threshold; batches of 7 (the last
        # of 5) are far below it. One-pixel batches would take matmul's
        # one-row path, which rounds unlike its many-row one
        geom = ArrayGeometry.uniform(30, 1.0)
        rng = np.random.default_rng(8)
        cube = BasebandCube(samples=rng.standard_normal((30, 4096))
                            + 1j * rng.standard_normal((30, 4096)),
                            sample_rate=125e3, carrier=30e3, decimation=4, time_origin=0.0)
        # the record reaches about 25 m, so some pixels are out of it
        px, py = rng.uniform(-3.0, 3.0, 600), rng.uniform(4.0, 28.0, 600)
        cfg = _make_cfg(method=method, subarray_length=16, sigma_c=2.0, n_quad=4)
        whole = beamform_points(cube, px, py, cfg, geom)
        assert 0 < np.count_nonzero(whole.flags & FLAG_OUT_OF_RECORD) < 600
        fields = ("values", "flags") + (("log_lik",) if method == "bayes" else ())
        for size in (7, 1):
            parts = [beamform_points(cube, px[i:i + size], py[i:i + size], cfg, geom)
                     for i in range(0, 600, size)]
            for name in fields:
                np.testing.assert_array_equal(
                    getattr(whole, name), np.concatenate([getattr(p, name) for p in parts]),
                    err_msg=f"{name}, batches of {size}")

    @pytest.mark.parametrize("px, py", [(0.0, 1e300), (1e300, 30.0), (-1e300, 1e-300),
                                        (0.0, 1e160), (1e160, 30.0)])
    def test_far_pixel_is_an_out_of_record_zero_without_a_warning(self, baseband, px, py):
        # past about 1.3e154 m a squared leg overflows to an inf path; tier-1 turns
        # any RuntimeWarning, from the paths or Bayes's gamma, into an error
        for cfg in (_make_cfg(method="das"), _make_cfg(method="mvdr"), _make_cfg(n_quad=8)):
            result = beamform_points(baseband, px, py, cfg, GEOM)
            assert result.flags & FLAG_OUT_OF_RECORD, cfg.method
            assert result.values == 0.0, cfg.method

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("n_geom, sub_len", [(1, 1), (12, 6)])
    @pytest.mark.parametrize("entry", ["points", "image"])
    def test_cube_and_geometry_sensor_counts_must_agree(self, method, n_geom, sub_len, entry):
        rng = np.random.default_rng(4)
        cube = BasebandCube(samples=rng.standard_normal((30, 2048))
                            + 1j * rng.standard_normal((30, 2048)),
                            sample_rate=125e3, carrier=30e3, decimation=4, time_origin=0.0)
        geom = ArrayGeometry.uniform(n_geom, 1.0)
        cfg = _make_cfg(method=method, subarray_length=sub_len)
        message = f"cube holds 30 sensors, geometry has {n_geom}"
        with pytest.raises(ValueError, match=message):
            if entry == "points":
                beamform_points(cube, np.zeros(2), np.full(2, 5.0), cfg, geom)
            else:
                beamform_image(cube, ScanGrid(-1.0, 1.0, 4.0, 6.0, 3, 2), cfg, geom)

    @given(mu_c=st.floats(1517.0, 1521.0), n_quad=st.integers(1, 16),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_property_collapsed_prior_is_mvdr_at_mean(self, baseband, mu_c, n_quad, seed):
        rng = np.random.default_rng(seed)
        px = rng.uniform(-1.0, 1.0, 4)
        py = rng.uniform(TARGET_RANGE - 1.0, TARGET_RANGE + 1.0, 4)
        cfg = _make_cfg(c=mu_c, sigma_c=0.0, n_quad=n_quad)
        bayes = beamform_points(baseband, px, py, cfg, GEOM)
        np.testing.assert_allclose(bayes.values, _mvdr(baseband, px, py, cfg, mu_c),
                                   rtol=1e-12)

    @given(sigma_c=st.floats(0.0, 5.0), n_quad=st.integers(1, 32),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_property_posterior_is_a_distribution_on_the_prior_nodes(self, baseband, sigma_c,
                                                                     n_quad, seed):
        rng = np.random.default_rng(seed)
        px = rng.uniform(-2.0, 2.0, 5)
        py = rng.uniform(TARGET_RANGE - 3.0, TARGET_RANGE + 3.0, 5)
        cfg = _make_cfg(sigma_c=sigma_c, n_quad=n_quad)
        w = _weights(beamform_points(baseband, px, py, cfg, GEOM), cfg)
        assert (w >= 0).all()
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=0, atol=1e-10)
        nodes, _ = hermgauss(n_quad)
        np.testing.assert_array_equal(cfg.speeds(), np.sqrt(2.0) * nodes * sigma_c + 1519.0)


class TestRecordSpan:
    GRID = ScanGrid(x_min=-3.0, x_max=4.0, y_min=20.0, y_max=30.0, n_x=7, n_y=5)

    def brute_force(self, grid, speeds):
        """Min and max round trip over every pixel, sensor and speed."""
        px, py = np.meshgrid(grid.x_values(), grid.y_values())
        times = np.stack([travel_times(px, py, c, GEOM) for c in speeds])
        return times.min(), times.max()

    @pytest.mark.parametrize("method", ["das", "mvdr"])
    def test_fixed_speed_is_the_extreme_pixels(self, method):
        cfg = _make_cfg(method=method, c=1490.0)
        assert record_span(self.GRID, GEOM, [cfg]) == self.brute_force(self.GRID, [1490.0])

    def test_bayes_covers_every_node_and_the_union_every_config(self):
        bayes = _make_cfg(n_quad=32, sigma_c=2.0)
        nodes = np.sqrt(2.0) * hermgauss(32)[0] * 2.0 + 1519.0
        assert record_span(self.GRID, GEOM, [bayes]) == self.brute_force(self.GRID, nodes)
        das = _make_cfg(method="das", c=1600.0)
        assert record_span(self.GRID, GEOM, [bayes, das]) == self.brute_force(
            self.GRID, [*nodes, 1600.0])

    def test_single_row_grid_is_its_middle_range(self):
        grid = replace(self.GRID, n_y=1)
        cfg = _make_cfg(method="das")
        assert record_span(grid, GEOM, [cfg]) == self.brute_force(grid, [cfg.c])
