import numpy as np
import pytest

from sosbeam.beamform import FLAG_OUT_OF_RECORD, BeamformerConfig, _Imager
from sosbeam.chain import demodulate, matched_filter
from sosbeam.core import ArrayGeometry, LfmPulse, travel_times
from sosbeam.covariance import (capon_solve, diagonal_load, forward_backward,
                                replace_degenerate, sample_covariance, subarray_snapshots,
                                unitary_windows)
from sosbeam.cube import BasebandCube
from sosbeam.simulate import (Environment, SimConfig, Target, synthesize_rx)


def delayed_snapshot(cube, x, y, c, geom):
    """The beamformers' phase-aligned snapshot at one pixel: (values, flags)."""
    imager = _Imager(cube, geom, BeamformerConfig(method="das", c_fixed=c))
    return imager.delayed_snapshots(np.asarray(x), np.asarray(y), c)


def random_hermitian(rng, n, batch=()):
    a = rng.standard_normal(batch + (n, n)) + 1j * rng.standard_normal(batch + (n, n))
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


class TestSubarraySnapshots:
    def test_full_length_single_snapshot(self):
        x = np.arange(4) + 0j
        s = subarray_snapshots(x, 4)
        assert s.shape == (1, 4)
        np.testing.assert_array_equal(s[0], x)

    def test_unit_length_scalar_snapshots(self):
        x = np.arange(4) + 0j
        s = subarray_snapshots(x, 1)
        assert s.shape == (4, 1)
        np.testing.assert_array_equal(s.ravel(), x)

    def test_contiguous_windows(self):
        x = np.array([1, 2, 3, 4], dtype=complex)
        s = subarray_snapshots(x, 2)
        np.testing.assert_array_equal(s, [[1, 2], [2, 3], [3, 4]])

    def test_length_out_of_range(self):
        with pytest.raises(ValueError):
            subarray_snapshots(np.zeros(4, dtype=complex), 5)
        with pytest.raises(ValueError):
            subarray_snapshots(np.zeros(4, dtype=complex), 0)

    def test_batched_view_not_copy(self):
        x = np.arange(12, dtype=complex).reshape(3, 4)
        s = subarray_snapshots(x, 3)
        assert s.shape == (3, 2, 3)
        assert np.shares_memory(s, x)
        np.testing.assert_array_equal(s[1], [[4, 5, 6], [5, 6, 7]])


class TestSampleCovariance:
    def test_single_snapshot_outer_product(self):
        s = subarray_snapshots(np.array([1.0, 0.0], dtype=complex), 2)
        cov = sample_covariance(s)
        np.testing.assert_allclose(cov, [[1, 0], [0, 0]])

    def test_orthonormal_pair(self):
        cov = sample_covariance(np.array([[1, 0], [0, 1]], dtype=complex))
        np.testing.assert_allclose(cov, np.eye(2) / 2)

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(17)
        snaps = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        cov = sample_covariance(snaps)
        oracle = np.zeros((5, 5), dtype=complex)
        for x in snaps:
            for i in range(5):
                for j in range(5):
                    oracle[i, j] += x[i] * np.conj(x[j])
        oracle /= 3
        np.testing.assert_allclose(cov, oracle, atol=1e-14)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(2)
        snaps = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        eigs = np.linalg.eigvalsh(sample_covariance(snaps))
        assert eigs.min() >= -1e-12

    def test_batch_matches_each_matrix(self):
        rng = np.random.default_rng(9)
        snaps = rng.standard_normal((2, 3, 4, 6)) + 1j * rng.standard_normal((2, 3, 4, 6))
        batched = sample_covariance(snaps)
        assert batched.shape == (2, 3, 6, 6)
        for idx in np.ndindex(2, 3):
            np.testing.assert_allclose(batched[idx], sample_covariance(snaps[idx]),
                                       atol=1e-14)


class TestForwardBackward:
    def test_identity_fixed_point(self):
        fb = forward_backward(np.eye(3, dtype=complex))
        np.testing.assert_allclose(fb, np.eye(3))

    def test_hand_example(self):
        fb = forward_backward(np.array([[1, 1j], [-1j, 2]], dtype=complex))
        np.testing.assert_allclose(fb, [[1.5, 1j], [-1j, 1.5]])

    def test_persymmetric_inputs_unchanged(self):
        # exchange-symmetric Hermitian: J S^T J == S already
        s = np.array([[2.0, 1j, 0.5], [-1j, 3.0, 1j], [0.5, -1j, 2.0]])
        np.testing.assert_allclose(forward_backward(s), s, atol=1e-15)

    def test_output_persymmetric_random(self):
        rng = np.random.default_rng(23)
        fb = forward_backward(random_hermitian(rng, 15, (100,)))
        j = np.eye(15)[::-1]
        np.testing.assert_allclose(j @ np.swapaxes(fb, -1, -2) @ j, fb, atol=1e-12)


def unitary_matrix(n):
    """The sparse unitary Q of Huarng & Yeh, built densely."""
    k = n // 2
    q = np.zeros((n, n), dtype=complex)
    eye, exchange = np.eye(k), np.eye(k)[::-1]
    q[:k, :k], q[:k, n - k:] = eye, 1j * eye
    q[n - k:, :k], q[n - k:, n - k:] = exchange, -1j * exchange
    if n % 2:
        q[k, k] = np.sqrt(2.0)
    return q / np.sqrt(2.0)


class TestUnitaryTransform:
    @pytest.mark.parametrize("length", [1, 15, 16])
    def test_matrix_is_unitary(self, length):
        q = unitary_matrix(length)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(length), atol=1e-15)

    @pytest.mark.parametrize("length", [1, 15, 16])
    def test_covariance_is_q_h_fb_q(self, length):
        rng = np.random.default_rng(length)
        x = rng.standard_normal((4, 30)) + 1j * rng.standard_normal((4, 30))
        snaps = subarray_snapshots(x, length)
        q = unitary_matrix(length)
        expected = q.conj().T @ forward_backward(sample_covariance(snaps)) @ q
        cov = sample_covariance(unitary_windows(snaps))
        assert cov.dtype == float
        assert cov.shape == (4, length, length)
        np.testing.assert_allclose(cov, expected.real, rtol=0, atol=1e-12)
        np.testing.assert_allclose(expected.imag, 0.0, atol=1e-12)

    @pytest.mark.parametrize("length", [1, 15, 16])
    def test_windows_are_scaled_q_h_x(self, length):
        rng = np.random.default_rng(40 + length)
        snaps = rng.standard_normal((3, length)) + 1j * rng.standard_normal((3, length))
        y = np.sqrt(2.0) * snaps @ unitary_matrix(length).conj()
        np.testing.assert_allclose(unitary_windows(snaps), np.concatenate([y.real, y.imag]),
                                   atol=1e-14)

    @pytest.mark.parametrize("length", [1, 15, 16])
    def test_image_path_steering_is_q_h_ones(self, length):
        from sosbeam.beamform import BeamformerConfig, _Imager
        cube = BasebandCube(samples=np.zeros((16, 64), dtype=complex), sample_rate=125e3,
                            carrier=30e3)
        imager = _Imager(cube, ArrayGeometry.uniform(16, 1.0),
                         BeamformerConfig(method="mvdr", subarray_length=length))
        np.testing.assert_allclose(imager.q, unitary_matrix(length).conj().T @ np.ones(length),
                                   atol=1e-15)


class TestDiagonalLoad:
    def test_identity_example(self):
        dl = diagonal_load(np.eye(2, dtype=complex), 0.1)
        np.testing.assert_allclose(dl, 1.2 * np.eye(2))

    def test_zero_eps_identity_map(self):
        rng = np.random.default_rng(4)
        m = random_hermitian(rng, 6)
        np.testing.assert_array_equal(diagonal_load(m, 0.0), m)

    def test_zero_matrix_stays_zero(self):
        dl = diagonal_load(np.zeros((3, 3), dtype=complex), 0.5)
        np.testing.assert_array_equal(dl, np.zeros((3, 3)))

    def test_preserves_eigenvectors_shifts_eigenvalues(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = random_hermitian(rng, 5)
            eps = float(rng.uniform(0.01, 0.5))
            before_w, before_v = np.linalg.eigh(m)
            after_w, after_v = np.linalg.eigh(diagonal_load(m, eps))
            shift = eps * np.trace(m).real
            np.testing.assert_allclose(after_w, before_w + shift, rtol=1e-10,
                                       atol=1e-12)
            # eigenvectors agree up to phase per column
            overlap = np.abs(np.sum(np.conj(before_v) * after_v, axis=0))
            np.testing.assert_allclose(overlap, 1.0, atol=1e-9)

    def test_per_matrix_trace_in_a_batch(self):
        stack = np.stack([np.eye(2), 3.0 * np.eye(2)]).astype(complex)
        dl = diagonal_load(stack, 0.5)
        np.testing.assert_allclose(dl, [2.0 * np.eye(2), 6.0 * np.eye(2)])

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            diagonal_load(np.eye(2, dtype=complex), -0.1)

    def test_non_finite_eps_rejected(self):
        for eps in (np.nan, np.inf):
            with pytest.raises(ValueError):
                diagonal_load(np.eye(2, dtype=complex), eps)


class TestReplaceDegenerate:
    def test_bad_trace_matrices_become_identity(self):
        stack = np.stack([2.0 * np.eye(3), np.zeros((3, 3)),
                          np.full((3, 3), np.nan)]).astype(complex)
        out, degenerate = replace_degenerate(stack)
        np.testing.assert_array_equal(degenerate, [False, True, True])
        np.testing.assert_array_equal(out, [2.0 * np.eye(3), np.eye(3), np.eye(3)])
        assert np.isnan(stack[2]).all()  # the input is left alone

    def test_healthy_stack_passes_through(self):
        stack = np.stack([np.eye(2), 2.0 * np.eye(2)]).astype(complex)
        out, degenerate = replace_degenerate(stack)
        assert out is stack
        assert not degenerate.any()


class TestCaponSolve:
    def test_batch_matches_each_matrix(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
        stack = a @ np.swapaxes(a, -1, -2).conj() + 0.1 * np.eye(4)
        sol, denom, good = capon_solve(stack)
        assert good.all()
        for m, x, d in zip(stack, sol, denom):
            np.testing.assert_allclose(x, np.linalg.inv(m) @ np.ones(4), rtol=1e-12)
            assert d == pytest.approx(x.sum().real, rel=1e-15)

    def test_singular_matrix_falls_back_per_row(self):
        stack = np.stack([2.0 * np.eye(3), np.zeros((3, 3)), np.eye(3)]).astype(complex)
        sol, denom, good = capon_solve(stack)
        np.testing.assert_array_equal(good, [True, False, True])
        np.testing.assert_allclose(sol, [np.full(3, 0.5), np.zeros(3), np.ones(3)])
        np.testing.assert_allclose(denom, [1.5, 1.0, 3.0])

    def test_real_stack_with_steering_stays_real(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 4, 4))
        stack = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(4)
        stack[2] = 0.0
        q = np.array([np.sqrt(2.0), np.sqrt(2.0), 0.0, 0.0])
        sol, denom, good = capon_solve(stack, q)
        assert sol.dtype == float
        np.testing.assert_array_equal(good, [True, True, False, True, True])
        for i in (0, 1, 3, 4):
            np.testing.assert_allclose(sol[i], np.linalg.inv(stack[i]) @ q, rtol=1e-12)
            assert denom[i] == pytest.approx(q @ sol[i], rel=1e-15)
        np.testing.assert_array_equal(sol[2], 0.0)

    def test_indefinite_matrix_not_good(self):
        _, denom, good = capon_solve(np.diag([1.0, -1.0]).astype(complex))
        assert not good
        assert denom == 1.0


class TestDelayedSnapshot:
    GEOM = ArrayGeometry.uniform(8, 1.0, array_depth=70.0)
    PULSE = LfmPulse(center_frequency=30e3, bandwidth=20e3, duration=50e-6)

    def _baseband(self, targets, seed=0, noise_db=-400.0):
        env = Environment(bottom_depth=100.0, sos_profile=((0.0, 1500.0),),
                          surface_reflectivity=0.0, bottom_reflectivity=0.0)
        cfg = SimConfig(sample_rate=500e3, record_duration=0.12, rng_seed=seed,
                        noise_power_db=noise_db, signal_power_db=0.0,
                        ref_level_db=0.0)
        cube = synthesize_rx(targets, self.GEOM, self.PULSE, env, cfg)
        return matched_filter(demodulate(cube, 30e3, 4), self.PULSE)

    def test_constant_cube_gives_phase_rotated_constant(self):
        bb = BasebandCube(samples=np.full((4, 8192), 2.0 + 0j), sample_rate=125e3,
                          carrier=30e3, decimation=4, time_origin=0.0)
        geom = ArrayGeometry.uniform(4, 0.5)
        # round trip ~1.6 ms, well inside the record
        snap, flags = delayed_snapshot(bb, 0.0, 1.2, 1500.0, geom)
        assert flags == 0
        np.testing.assert_allclose(np.abs(snap), 2.0, rtol=1e-9)
        # entries differ only by the carrier rotation at each sensor delay
        t = travel_times(0.0, 1.2, 1500.0, geom)
        expected = 2.0 * np.exp(1j * 2 * np.pi * 30e3 * t)
        np.testing.assert_allclose(snap, expected, rtol=1e-9)

    def test_point_echo_phase_aligned_at_true_focus(self):
        target = Target(x=0.0, y=30.0, depth=90.0)
        bb = self._baseband([target])
        slant = float(np.hypot(30.0, 20.0))
        snap, _ = delayed_snapshot(bb, 0.0, slant, 1500.0, self.GEOM)
        phases = np.angle(snap * np.conj(snap.mean()))
        assert np.var(phases) < 1e-3

    def test_empty_region_near_noise_floor(self):
        target = Target(x=0.0, y=30.0, depth=90.0)
        bb = self._baseband([target], noise_db=-120.0)
        on, _ = delayed_snapshot(bb, 0.0, float(np.hypot(30, 20)), 1500.0, self.GEOM)
        off, _ = delayed_snapshot(bb, 0.0, 60.0, 1500.0, self.GEOM)
        assert np.linalg.norm(off) < 1e-3 * np.linalg.norm(on)

    def test_out_of_record_zero_filled_and_flagged(self):
        bb = BasebandCube(samples=np.ones((4, 64), dtype=complex), sample_rate=125e3,
                          carrier=30e3, decimation=4, time_origin=0.0)
        geom = ArrayGeometry.uniform(4, 0.5)
        snap, flags = delayed_snapshot(bb, 0.0, 5000.0, 1500.0, geom)
        np.testing.assert_array_equal(snap, np.zeros(4, dtype=complex))
        assert flags == FLAG_OUT_OF_RECORD


class TestCoherentDecorrelation:
    def test_fb_raises_capon_power_for_coherent_pair(self):
        # two coherent plane waves cancel in the raw covariance; forward-
        # backward averaging restores the estimated power (1 / denom)
        n = 30
        length = 16
        k = np.arange(n)
        a1 = np.exp(1j * 0.0 * k)           # broadside, the steered direction
        a2 = np.exp(1j * 0.8 * k)           # coherent interferer
        x = a1 + 0.9 * np.exp(1j * 2.1) * a2
        rng = np.random.default_rng(8)
        x = x + 1e-3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        snaps = subarray_snapshots(x, length)
        raw_cov = sample_covariance(snaps)
        eps = 1e-3 / snaps.shape[0]
        _, denom_raw, good_raw = capon_solve(diagonal_load(raw_cov, eps))
        _, denom_fb, good_fb = capon_solve(diagonal_load(forward_backward(raw_cov), eps))
        assert good_raw and good_fb
        assert 1.0 / denom_fb > 1.0 / denom_raw
