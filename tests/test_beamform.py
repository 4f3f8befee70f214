import numpy as np
import pytest

from sosbeam.beamform import (BeamformerConfig, FLAG_OUT_OF_RECORD, bayes_pixel,
                              beamform_image, capon_power, das_pixel,
                              gamma_of_p, log_likelihood, mvdr_pixel,
                              mvdr_weights, posterior_weights, sos_posterior)
from sosbeam.chain import demodulate, matched_filter, quantize, tvg
from sosbeam.core import ArrayGeometry, FocalPoint, LfmPulse, ScanGrid
from sosbeam.cube import BasebandCube
from sosbeam.quadrature import MAX_NODES, SosPrior, gauss_hermite, node_to_sos
from sosbeam.simulate import Environment, SimConfig, Target, synthesize_rx

GEOM = ArrayGeometry.uniform(12, 1.0, array_depth=70.0)
PULSE = LfmPulse(center_frequency=30e3, bandwidth=20e3, duration=50e-6)
ENV = Environment(bottom_depth=100.0,
                  sos_profile=((0.0, 1522.0), (50.0, 1520.0), (70.0, 1519.4),
                               (90.0, 1518.8), (100.0, 1518.5)),
                  bottom_reflectivity=0.10)
TARGET_RANGE = 33.0


def _make_cfg(**kw):
    base = dict(method="bayes", c_fixed=1519.0, subarray_length=7,
                prior=SosPrior(1519.0, 0.3), n_quad=8)
    base.update(kw)
    return BeamformerConfig(**base)


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
        with pytest.raises(ValueError, match="c_fixed"):
            _make_cfg(c_fixed=c)

    @pytest.mark.parametrize("kwargs", [
        dict(c_fixed=float("inf")), dict(dr_db=float("nan")), dict(dr_db=float("inf")),
        dict(snr0_db=float("nan")), dict(snr0_db=float("inf")), dict(snr0_db=float("-inf"))])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError):
            _make_cfg(**kwargs)

    def test_n_quad_capped_at_max_nodes(self):
        assert _make_cfg(n_quad=MAX_NODES).n_quad == MAX_NODES
        with pytest.raises(ValueError, match="n_quad"):
            _make_cfg(n_quad=MAX_NODES + 1)

    def test_default_prior_is_the_sos_prior_default(self):
        assert BeamformerConfig().prior == SosPrior()


class TestMvdrWeights:
    def test_identity_gives_uniform(self):
        w = mvdr_weights(np.eye(4, dtype=complex))
        np.testing.assert_allclose(w, np.full(4, 0.25))

    def test_diagonal_two_by_two(self):
        m = np.diag([1.0, 4.0]).astype(complex)
        np.testing.assert_allclose(mvdr_weights(m), [0.8, 0.2])

    def test_distortionless_constraint_random(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            m = a @ a.conj().T + 0.1 * np.eye(6)
            w = mvdr_weights(m)
            assert np.sum(w) == pytest.approx(1.0 + 0j, abs=1e-10)

    def test_non_pd_surfaced(self):
        m = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError):
            mvdr_weights(m)


class TestCaponPower:
    def test_identity_15(self):
        m = np.eye(15, dtype=complex)
        assert capon_power(m) == pytest.approx(1.0 / 15.0, rel=1e-14)

    def test_scaled_identity(self):
        m = 2.5 * np.eye(8, dtype=complex)
        assert capon_power(m) == pytest.approx(2.5 / 8.0, rel=1e-14)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
            s = a @ a.conj().T + 0.5 * np.eye(9)
            ones = np.ones(9)
            oracle = 1.0 / (ones @ np.linalg.inv(s) @ ones).real
            assert capon_power(s) == pytest.approx(oracle, rel=1e-12)

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
        stack = a @ np.swapaxes(a, -1, -2).conj() + 0.5 * np.eye(6)
        np.testing.assert_allclose(capon_power(stack), [capon_power(m) for m in stack],
                                   rtol=1e-12)


class TestGamma:
    def test_unit_range_substitution(self):
        # r_p = 1 -> G_TVG = 0 dB; DR == SNR0 makes NL = 1 linear
        geom = ArrayGeometry.uniform(12, 1.0)
        cfg = _make_cfg(snr0_db=15.0, dr_db=15.0)
        p = FocalPoint(0.0, 1.0)
        n_sub = cfg.n_subarrays(12)
        snr = 10.0 ** 1.5
        expected = n_sub * (n_sub * snr) / (1.0 + n_sub * snr)
        assert gamma_of_p(p, cfg, geom) == pytest.approx(expected, rel=1e-12)

    def test_saturation_limit(self):
        # huge SNR0: the SNR factor saturates at 1, gamma -> n_sub / NL^2
        geom = ArrayGeometry.uniform(12, 1.0)
        cfg = _make_cfg(snr0_db=200.0, dr_db=260.0)
        p = FocalPoint(0.0, 1.0)
        n_sub = cfg.n_subarrays(12)
        nl = 10.0 ** ((260.0 - 200.0) / 10.0)
        assert gamma_of_p(p, cfg, geom) == pytest.approx(n_sub / nl ** 2, rel=1e-9)

    def test_golden_reference_setup_value(self):
        # DR 96 dB, SNR0 15 dB, broadside focal point at 36 m, N_sub = 15;
        # frozen from a direct evaluation of the NL/SNR/gamma formulas (the
        # broadside one-way-equivalent range to the array center is exactly 36)
        geom = ArrayGeometry.uniform(30, 1.0)
        cfg = BeamformerConfig(method="bayes", subarray_length=16,
                               prior=SosPrior(1519.0, 0.3), snr0_db=15.0,
                               dr_db=96.0)
        got = gamma_of_p(FocalPoint(0.0, 36.0), cfg, geom)
        g_tvg = 20.0 * np.log10(36.0)
        nl = 10.0 ** ((96.0 - 15.0 + g_tvg) / 10.0)
        snr = 10.0 ** ((15.0 - g_tvg) / 10.0)
        oracle = (15.0 / nl ** 2) * (15.0 * snr) / (1.0 + 15.0 * snr)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(1.5097861197528931e-22, rel=1e-12)

    def test_strictly_positive(self):
        geom = ArrayGeometry.uniform(12, 1.0)
        cfg = _make_cfg()
        for y in (0.5, 5.0, 500.0):
            assert gamma_of_p(FocalPoint(2.0, y), cfg, geom) > 0


class TestLogLikelihood:
    def test_is_product_of_factors(self, baseband):
        cfg = _make_cfg()
        p = FocalPoint(0.0, TARGET_RANGE)
        got = log_likelihood(p, 1519.0, baseband, cfg, GEOM)
        from sosbeam.beamform import _Imager
        imager = _Imager(baseband, GEOM, cfg)
        _, power, _ = imager.mvdr_node(np.asarray(p.x), np.asarray(p.y), 1519.0)
        expected = imager.n_sub * gamma_of_p(p, cfg, GEOM) * float(power)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_linear_in_data_power(self, baseband):
        # doubling the data power doubles P_s and with it the log likelihood
        cfg = _make_cfg()
        p = FocalPoint(0.0, TARGET_RANGE)
        scaled = BasebandCube(samples=np.sqrt(2.0) * baseband.samples,
                              sample_rate=baseband.sample_rate,
                              carrier=baseband.carrier,
                              decimation=baseband.decimation,
                              time_origin=baseband.time_origin)
        base = log_likelihood(p, 1519.0, baseband, cfg, GEOM)
        assert log_likelihood(p, 1519.0, scaled, cfg, GEOM) == pytest.approx(
            2.0 * base, rel=1e-9)

    def test_scales_linearly_with_gamma(self, baseband):
        # dropping DR by 10 dB multiplies gamma (hence the log likelihood) by 100
        p = FocalPoint(0.0, TARGET_RANGE)
        a = log_likelihood(p, 1519.0, baseband, _make_cfg(dr_db=96.0), GEOM)
        b = log_likelihood(p, 1519.0, baseband, _make_cfg(dr_db=86.0), GEOM)
        assert b == pytest.approx(100.0 * a, rel=1e-9)

    def test_peak_near_true_average_speed(self, baseband):
        # dense sweep against the depth-averaged propagation speed
        from sosbeam.simulate import depth_averaged_sos
        cfg = _make_cfg()
        c_true = depth_averaged_sos(ENV, 70.0, 90.0)
        cs = np.arange(1516.0, 1522.0, 0.1)
        p = FocalPoint(0.0, TARGET_RANGE)
        vals = [log_likelihood(p, float(c), baseband, cfg, GEOM) for c in cs]
        assert abs(cs[int(np.argmax(vals))] - c_true) <= 0.5


class TestPosteriorWeights:
    LOG_U = np.log(gauss_hermite(8).weights)

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


class TestSosPosterior:
    def test_collapsed_prior_recovers_prior_weights(self, baseband):
        cfg = _make_cfg(prior=SosPrior(1519.0, 0.0))
        post = sos_posterior(FocalPoint(0.0, TARGET_RANGE), baseband, cfg, GEOM)
        u = gauss_hermite(8).weights
        np.testing.assert_allclose(post.weights, u / u.sum(), rtol=1e-10)

    def test_weights_form_simplex(self, baseband):
        cfg = _make_cfg()
        for y in (TARGET_RANGE, 30.0, 40.0):
            post = sos_posterior(FocalPoint(0.5, y), baseband, cfg, GEOM)
            assert (post.weights >= 0).all()
            assert post.weights.sum() == pytest.approx(1.0, rel=1e-10)

    def test_nodes_follow_prior_map(self, baseband):
        cfg = _make_cfg()
        post = sos_posterior(FocalPoint(0.0, TARGET_RANGE), baseband, cfg, GEOM)
        np.testing.assert_allclose(post.nodes,
                                   node_to_sos(gauss_hermite(8).nodes, cfg.prior))


class TestPixels:
    def test_das_single_sensor_returns_delayed_sample(self):
        geom1 = ArrayGeometry(sensor_x=np.array([0.0]))
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        bb = BasebandCube(samples=samples[None, :], sample_rate=125e3,
                          carrier=30e3, decimation=4, time_origin=0.0)
        from sosbeam.covariance import delayed_snapshot
        p = FocalPoint(0.0, 2.0)
        expected = delayed_snapshot(bb, p, 1500.0, geom1)[0]
        assert das_pixel(bb, p, 1500.0, geom1) == pytest.approx(expected, rel=1e-12)

    def test_das_constant_snapshot_returns_value(self):
        geom = ArrayGeometry.uniform(4, 0.5)
        bb = BasebandCube(samples=np.full((4, 4096), 3.0 + 0j), sample_rate=125e3,
                          carrier=0.0, decimation=4, time_origin=0.0)
        # zero carrier: no phase rotation, snapshot is exactly the constant
        got = das_pixel(bb, FocalPoint(0.0, 1.5), 1500.0, geom)
        assert got == pytest.approx(3.0 + 0j, rel=1e-12)

    def test_das_peak_tracks_matched_filter_energy(self, baseband):
        # focus at the true average propagation speed and search the immediate
        # neighborhood for the response peak; it must sit within 1 dB of the
        # per-sensor matched-filter peak of the direct echo (unit-sum weights
        # preserve scale). Window the reference around the direct arrival so
        # TVG-boosted later bounces do not masquerade as the target.
        from sosbeam.simulate import depth_averaged_sos
        c_true = depth_averaged_sos(ENV, 70.0, 90.0)
        best = max(abs(das_pixel(baseband, FocalPoint(0.0, float(y)), c_true, GEOM))
                   for y in np.arange(TARGET_RANGE - 0.05, TARGET_RANGE + 0.05, 0.005))
        k = int(round((2 * TARGET_RANGE / c_true - baseband.time_origin)
                      * baseband.sample_rate))
        sensor_peak = np.abs(baseband.samples[:, k - 20:k + 20]).max()
        assert abs(20 * np.log10(best / sensor_peak)) <= 1.0

    def test_bayes_single_node_equals_mvdr_at_prior_mean(self, baseband):
        cfg = _make_cfg(n_quad=1)
        p = FocalPoint(0.3, TARGET_RANGE)
        bayes = bayes_pixel(p, baseband, cfg, GEOM)
        mvdr = mvdr_pixel(baseband, p, cfg, GEOM, c=cfg.prior.mu_c)
        assert bayes.value == pytest.approx(mvdr.value, rel=1e-12)

    def test_bayes_collapsed_prior_equals_mvdr(self, baseband):
        cfg = _make_cfg(prior=SosPrior(1519.0, 0.0))
        p = FocalPoint(-0.4, TARGET_RANGE)
        bayes = bayes_pixel(p, baseband, cfg, GEOM)
        mvdr = mvdr_pixel(baseband, p, cfg, GEOM, c=1519.0)
        assert abs(bayes.value - mvdr.value) <= 1e-10 * abs(mvdr.value)

    def test_bayes_is_posterior_average_of_node_pixels(self, baseband):
        # reconstruction from the public pieces; also implies invariance to
        # any reordering of the quadrature nodes
        cfg = _make_cfg()
        p = FocalPoint(0.1, TARGET_RANGE)
        result = bayes_pixel(p, baseband, cfg, GEOM)
        post = result.posterior
        manual = sum(w * mvdr_pixel(baseband, p, cfg, GEOM, c=float(c)).value
                     for w, c in zip(post.weights, post.nodes))
        assert result.value == pytest.approx(manual, rel=1e-10)

    def test_adaptive_pixels_accept_a_das_config(self, baseband):
        p = FocalPoint(0.2, TARGET_RANGE)
        das_cfg, mvdr_cfg = _make_cfg(method="das"), _make_cfg(method="mvdr")
        assert (mvdr_pixel(baseband, p, das_cfg, GEOM).value
                == mvdr_pixel(baseband, p, mvdr_cfg, GEOM).value)
        assert (log_likelihood(p, 1519.0, baseband, das_cfg, GEOM)
                == log_likelihood(p, 1519.0, baseband, mvdr_cfg, GEOM))

    def test_gamma_scaling_preserves_posterior_argmax(self, baseband):
        p = FocalPoint(0.0, TARGET_RANGE)
        post_a = sos_posterior(p, baseband, _make_cfg(dr_db=96.0), GEOM)
        post_b = sos_posterior(p, baseband, _make_cfg(dr_db=99.0), GEOM)
        assert int(np.argmax(post_a.weights)) == int(np.argmax(post_b.weights))


class TestMvdrNode:
    def test_is_the_covariance_kernels_composed(self, baseband):
        # the image path's MVDR output and Capon power, rebuilt from the
        # public complex-domain covariance functions and the single-matrix
        # wrappers, for odd and even subarray lengths (the unitary transform
        # has a middle element only for odd ones)
        from sosbeam.beamform import _Imager
        from sosbeam.covariance import (delayed_snapshot, diagonal_load, forward_backward,
                                        sample_covariance, subarray_snapshots)
        p = FocalPoint(0.2, TARGET_RANGE)
        snap = delayed_snapshot(baseband, p, 1519.0, GEOM)
        for length in (7, 1, 6, 12):
            cfg = _make_cfg(method="mvdr", subarray_length=length)
            imager = _Imager(baseband, GEOM, cfg)
            value, power, flags = imager.mvdr_node(np.asarray(p.x), np.asarray(p.y), 1519.0)
            snaps = subarray_snapshots(snap, cfg.subarray_length)
            cov = diagonal_load(forward_backward(sample_covariance(snaps)), imager.eps)
            assert flags == 0
            assert power == pytest.approx(capon_power(cov), rel=1e-12)
            expected = np.vdot(mvdr_weights(cov), snaps.mean(axis=0))
            assert value == pytest.approx(expected, rel=1e-12)

    def test_zero_snapshot_flagged_singular(self):
        from sosbeam.beamform import FLAG_SINGULAR, _Imager
        bb = BasebandCube(samples=np.zeros((12, 4096), dtype=complex), sample_rate=125e3,
                          carrier=30e3, decimation=4, time_origin=0.0)
        imager = _Imager(bb, GEOM, _make_cfg(method="mvdr"))
        value, power, flags = imager.mvdr_node(np.array([0.0, 0.5]), np.array([2.0, 2.0]),
                                               1500.0)
        np.testing.assert_array_equal(flags, FLAG_SINGULAR)
        np.testing.assert_array_equal(value, 0.0)
        # the all-zero covariance is solved as the identity
        np.testing.assert_allclose(power, 1.0 / _make_cfg().subarray_length)


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
                expected = das_pixel(bb, FocalPoint(float(x), float(y)), cfg.c_fixed, geom8)
                assert img.values[iy, ix] == pytest.approx(expected, rel=1e-12)

    def test_single_pixel_grid_matches_pixel_call(self, baseband):
        grid = ScanGrid(-0.1, 0.1, TARGET_RANGE - 0.1, TARGET_RANGE + 0.1, 1, 1)
        p = FocalPoint(0.5 * (grid.x_min + grid.x_max),
                       0.5 * (grid.y_min + grid.y_max))
        for method in ("das", "mvdr", "bayes"):
            cfg = _make_cfg(method=method)
            img = beamform_image(baseband, grid, cfg, GEOM)
            if method == "das":
                expected = das_pixel(baseband, p, cfg.c_fixed, GEOM)
            elif method == "mvdr":
                expected = mvdr_pixel(baseband, p, cfg, GEOM).value
            else:
                expected = bayes_pixel(p, baseband, cfg, GEOM).value
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
