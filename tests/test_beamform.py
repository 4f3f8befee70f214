from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sosbeam.beamform import (FLAG_OUT_OF_RECORD, METHODS, BeamformerConfig, _gamma_batch,
                              _Imager, beamform_image, beamform_points, posterior_weights)
from sosbeam.chain import demodulate, matched_filter, quantize, tvg
from sosbeam.core import ArrayGeometry, LfmPulse, ScanGrid, travel_times
from sosbeam.covariance import _sample_at_times, capon_solve
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


def _mvdr(cube, x, y, cfg, c):
    """MVDR output at speed c: a config on the batched call."""
    return beamform_points(cube, x, y, replace(cfg, method="mvdr", c_fixed=c), GEOM).values


def _log_likelihood(cube, x, y, cfg, c):
    """n_sub * gamma * P_s at speed c: single-node Bayes on a collapsed prior at c."""
    cfg = replace(cfg, method="bayes", prior=SosPrior(c, 0.0), n_quad=1)
    log_v = beamform_points(cube, x, y, cfg, GEOM).log_v
    return float(log_v[..., 0] - np.log(gauss_hermite(1).weights[0]))


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
        cfg = BeamformerConfig(method="bayes", subarray_length=16,
                               prior=SosPrior(1519.0, 0.3), snr0_db=15.0,
                               dr_db=96.0)
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
        _, power, _ = imager.mvdr_node(np.asarray(0.0), np.asarray(TARGET_RANGE), 1519.0)
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
        post = beamform_points(baseband, 0.0, TARGET_RANGE, cfg, GEOM)
        u = gauss_hermite(8).weights
        np.testing.assert_allclose(post.weights, u / u.sum(), rtol=1e-10)

    def test_weights_form_simplex(self, baseband):
        cfg = _make_cfg()
        post = beamform_points(baseband, 0.5, np.array([TARGET_RANGE, 30.0, 40.0]), cfg, GEOM)
        assert post.weights.shape == (3, 8)
        assert (post.weights >= 0).all()
        np.testing.assert_allclose(post.weights.sum(axis=-1), 1.0, rtol=1e-10)

    def test_nodes_follow_prior_map(self, baseband):
        cfg = _make_cfg()
        post = beamform_points(baseband, 0.0, TARGET_RANGE, cfg, GEOM)
        np.testing.assert_allclose(post.nodes,
                                   node_to_sos(gauss_hermite(8).nodes, cfg.prior))


class TestPixels:
    def test_das_single_sensor_returns_delayed_sample(self):
        geom1 = ArrayGeometry(sensor_x=np.array([0.0]))
        rng = np.random.default_rng(0)
        samples = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        bb = BasebandCube(samples=samples[None, :], sample_rate=125e3,
                          carrier=30e3, decimation=4, time_origin=0.0)
        expected = _sample_at_times(bb, travel_times(0.0, 2.0, 1500.0, geom1))[0][0]
        cfg = BeamformerConfig(method="das", c_fixed=1500.0)
        got = beamform_points(bb, 0.0, 2.0, cfg, geom1).values
        assert complex(got) == pytest.approx(expected, rel=1e-12)

    def test_das_constant_snapshot_returns_value(self):
        geom = ArrayGeometry.uniform(4, 0.5)
        bb = BasebandCube(samples=np.full((4, 4096), 3.0 + 0j), sample_rate=125e3,
                          carrier=0.0, decimation=4, time_origin=0.0)
        # zero carrier: no phase rotation, snapshot is exactly the constant
        cfg = BeamformerConfig(method="das", c_fixed=1500.0)
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
        cfg = _make_cfg(method="das", c_fixed=c_true)
        best = np.abs(beamform_points(baseband, 0.0, ys, cfg, GEOM).values).max()
        k = int(round((2 * TARGET_RANGE / c_true - baseband.time_origin)
                      * baseband.sample_rate))
        sensor_peak = np.abs(baseband.samples[:, k - 20:k + 20]).max()
        assert abs(20 * np.log10(best / sensor_peak)) <= 1.0

    def test_bayes_single_node_equals_mvdr_at_prior_mean(self, baseband):
        cfg = _make_cfg(n_quad=1)
        bayes = beamform_points(baseband, 0.3, TARGET_RANGE, cfg, GEOM)
        mvdr = _mvdr(baseband, 0.3, TARGET_RANGE, cfg, cfg.prior.mu_c)
        assert complex(bayes.values) == pytest.approx(complex(mvdr), rel=1e-12)

    def test_bayes_collapsed_prior_equals_mvdr(self, baseband):
        cfg = _make_cfg(prior=SosPrior(1519.0, 0.0))
        bayes = beamform_points(baseband, -0.4, TARGET_RANGE, cfg, GEOM)
        mvdr = _mvdr(baseband, -0.4, TARGET_RANGE, cfg, 1519.0)
        assert abs(bayes.values - mvdr) <= 1e-10 * abs(mvdr)

    def test_bayes_is_posterior_average_of_node_pixels(self, baseband):
        # reconstruction from the public pieces; also implies invariance to
        # any reordering of the quadrature nodes
        cfg = _make_cfg()
        result = beamform_points(baseband, 0.1, TARGET_RANGE, cfg, GEOM)
        manual = sum(w * _mvdr(baseband, 0.1, TARGET_RANGE, cfg, float(c))
                     for w, c in zip(result.weights, result.nodes))
        assert complex(result.values) == pytest.approx(complex(manual), rel=1e-10)

    def test_gamma_scaling_preserves_posterior_argmax(self, baseband):
        post_a = beamform_points(baseband, 0.0, TARGET_RANGE, _make_cfg(dr_db=96.0), GEOM)
        post_b = beamform_points(baseband, 0.0, TARGET_RANGE, _make_cfg(dr_db=99.0), GEOM)
        assert int(np.argmax(post_a.weights)) == int(np.argmax(post_b.weights))


class TestMvdrNode:
    def test_is_the_covariance_kernels_composed(self, baseband):
        # the image path's MVDR output and Capon power, rebuilt from the
        # public complex-domain covariance functions and the Capon solve,
        # for odd and even subarray lengths (the unitary transform
        # has a middle element only for odd ones)
        from sosbeam.covariance import (diagonal_load, forward_backward,
                                        sample_covariance, subarray_snapshots)
        snap, _ = _sample_at_times(baseband, travel_times(0.2, TARGET_RANGE, 1519.0, GEOM))
        for length in (7, 1, 6, 12):
            cfg = _make_cfg(method="mvdr", subarray_length=length)
            imager = _Imager(baseband, GEOM, cfg)
            value, power, flags = imager.mvdr_node(np.asarray(0.2), np.asarray(TARGET_RANGE),
                                                   1519.0)
            snaps = subarray_snapshots(snap, cfg.subarray_length)
            cov = diagonal_load(forward_backward(sample_covariance(snaps)), imager.eps)
            assert flags == 0
            assert power == pytest.approx(_capon_power(cov), rel=1e-12)
            expected = np.vdot(_capon_weights(cov), snaps.mean(axis=0))
            assert value == pytest.approx(expected, rel=1e-12)

    def test_zero_snapshot_flagged_singular(self):
        from sosbeam.beamform import FLAG_SINGULAR
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

    @given(method=st.sampled_from(METHODS), n_x=st.integers(1, 6), n_y=st.integers(1, 5),
           x_min=st.floats(-2.0, 1.0), width=st.floats(0.01, 2.0),
           y_min=st.floats(TARGET_RANGE - 2.0, TARGET_RANGE + 1.0),
           depth=st.floats(0.01, 2.0))
    def test_property_threads_1_and_2_bit_identical(self, baseband, method, n_x, n_y, x_min,
                                                    width, y_min, depth):
        grid = ScanGrid(x_min, x_min + width, y_min, y_min + depth, n_x, n_y)
        cfg = _make_cfg(method=method, n_quad=8)
        one = beamform_image(baseband, grid, cfg, GEOM, threads=1)
        two = beamform_image(baseband, grid, cfg, GEOM, threads=2)
        np.testing.assert_array_equal(one.values, two.values)
        np.testing.assert_array_equal(one.flags, two.flags)

    def test_kernel_flags_non_finite_pixel_out_of_record(self, baseband):
        # beamform_points rejects such pixels; the engine under it must not
        # turn them into valid nan samples either
        imager = _Imager(baseband, GEOM, _make_cfg(method="das"))
        px = np.array([np.nan, 0.0, 0.0])
        py = np.array([TARGET_RANGE, TARGET_RANGE, np.nan])
        snap, flags = imager.delayed_snapshots(px, py, 1519.0)
        np.testing.assert_array_equal(flags, [FLAG_OUT_OF_RECORD, 0, FLAG_OUT_OF_RECORD])
        np.testing.assert_array_equal(snap[[0, 2]], 0.0)
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
            assert result.nodes is result.log_v is result.weights is None
        result = beamform_points(baseband, px, py, _make_cfg(n_quad=5), GEOM)
        assert result.values.shape == result.flags.shape == (2, 3)
        assert result.nodes.shape == (5,)
        assert result.log_v.shape == result.weights.shape == (2, 3, 5)

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
                    np.testing.assert_allclose(batch.log_v[i, j], one.log_v, rtol=1e-12)
                    np.testing.assert_allclose(batch.weights[i, j], one.weights, rtol=1e-12)

    @given(mu_c=st.floats(1517.0, 1521.0), n_quad=st.integers(1, 16),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_property_collapsed_prior_is_mvdr_at_mean(self, baseband, mu_c, n_quad, seed):
        rng = np.random.default_rng(seed)
        px = rng.uniform(-1.0, 1.0, 4)
        py = rng.uniform(TARGET_RANGE - 1.0, TARGET_RANGE + 1.0, 4)
        cfg = _make_cfg(prior=SosPrior(mu_c, 0.0), n_quad=n_quad)
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
        cfg = _make_cfg(prior=SosPrior(1519.0, sigma_c), n_quad=n_quad)
        post = beamform_points(baseband, px, py, cfg, GEOM)
        assert (post.weights >= 0).all()
        np.testing.assert_allclose(post.weights.sum(axis=-1), 1.0, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(post.nodes,
                                      node_to_sos(gauss_hermite(n_quad).nodes, cfg.prior))
