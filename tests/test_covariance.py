from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sosbeam.beamform import (FLAG_OUT_OF_RECORD, BeamformerConfig, _diagonal_load, _Imager,
                              _sample_covariance, _subarray_snapshots, _unitary_windows,
                              _whiten_border)
from sosbeam.chain import demodulate, matched_filter
from sosbeam.core import ArrayGeometry, LfmPulse, travel_times
from sosbeam.cube import BasebandCube
from sosbeam.simulate import (Environment, SimConfig, Target, synthesize_rx)

from covariance_oracle import capon_solve, forward_backward


def delayed_snapshot(cube, x, y, c, geom):
    """The beamformers' phase-aligned snapshot at one pixel: (values, flags)."""
    imager = _Imager(cube, geom, BeamformerConfig(method="das", c=c))
    return imager.delayed_snapshots(travel_times(x, y, c, geom))


def random_hermitian(rng, n, batch=()):
    a = rng.standard_normal(batch + (n, n)) + 1j * rng.standard_normal(batch + (n, n))
    return 0.5 * (a + np.swapaxes(a, -1, -2).conj())


class TestSubarraySnapshots:
    def test_full_length_single_snapshot(self):
        x = np.arange(4) + 0j
        s = _subarray_snapshots(x, 4)
        assert s.shape == (1, 4)
        np.testing.assert_array_equal(s[0], x)

    def test_unit_length_scalar_snapshots(self):
        x = np.arange(4) + 0j
        s = _subarray_snapshots(x, 1)
        assert s.shape == (4, 1)
        np.testing.assert_array_equal(s.ravel(), x)

    def test_contiguous_windows(self):
        x = np.array([1, 2, 3, 4], dtype=complex)
        s = _subarray_snapshots(x, 2)
        np.testing.assert_array_equal(s, [[1, 2], [2, 3], [3, 4]])

    def test_batched_view_not_copy(self):
        x = np.arange(12, dtype=complex).reshape(3, 4)
        s = _subarray_snapshots(x, 3)
        assert s.shape == (3, 2, 3)
        assert np.shares_memory(s, x)
        np.testing.assert_array_equal(s[1], [[4, 5, 6], [5, 6, 7]])


class TestSampleCovariance:
    def test_single_snapshot_outer_product(self):
        s = _subarray_snapshots(np.array([1.0, 0.0], dtype=complex), 2)
        cov = _sample_covariance(s)
        np.testing.assert_allclose(cov, [[1, 0], [0, 0]])

    def test_orthonormal_pair(self):
        cov = _sample_covariance(np.array([[1, 0], [0, 1]], dtype=complex))
        np.testing.assert_allclose(cov, np.eye(2) / 2)

    def test_against_double_loop_oracle(self):
        rng = np.random.default_rng(17)
        snaps = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        cov = _sample_covariance(snaps)
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
        eigs = np.linalg.eigvalsh(_sample_covariance(snaps))
        assert eigs.min() >= -1e-12

    def test_batch_matches_each_matrix(self):
        rng = np.random.default_rng(9)
        snaps = rng.standard_normal((2, 3, 4, 6)) + 1j * rng.standard_normal((2, 3, 4, 6))
        batched = _sample_covariance(snaps)
        assert batched.shape == (2, 3, 6, 6)
        for idx in np.ndindex(2, 3):
            np.testing.assert_allclose(batched[idx], _sample_covariance(snaps[idx]),
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
        snaps = _subarray_snapshots(x, length)
        q = unitary_matrix(length)
        expected = q.conj().T @ forward_backward(_sample_covariance(snaps)) @ q
        cov = _sample_covariance(_unitary_windows(snaps))
        assert cov.dtype == float
        assert cov.shape == (4, length, length)
        np.testing.assert_allclose(cov, expected.real, rtol=0, atol=1e-12)
        np.testing.assert_allclose(expected.imag, 0.0, atol=1e-12)

    @given(length=st.integers(1, 24), n_sub=st.integers(1, 20),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_property_covariance_is_q_h_fb_q(self, length, n_sub, seed):
        rng = np.random.default_rng(seed)
        shape = (2, length + n_sub - 1)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        snaps = _subarray_snapshots(x, length)
        q = unitary_matrix(length)
        expected = q.conj().T @ forward_backward(_sample_covariance(snaps)) @ q
        np.testing.assert_allclose(_sample_covariance(_unitary_windows(snaps)), expected.real,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(expected.imag, 0.0, atol=1e-12)

    @pytest.mark.parametrize("length", [1, 15, 16])
    def test_windows_are_scaled_q_h_x(self, length):
        rng = np.random.default_rng(40 + length)
        snaps = rng.standard_normal((3, length)) + 1j * rng.standard_normal((3, length))
        y = np.sqrt(2.0) * snaps @ unitary_matrix(length).conj()
        # window k's real part is row 2k, its imaginary part row 2k + 1
        np.testing.assert_allclose(_unitary_windows(snaps),
                                   np.stack([y.real, y.imag], axis=-2).reshape(6, length),
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
        dl = _diagonal_load(np.eye(2, dtype=complex), 0.1)
        np.testing.assert_allclose(dl, 1.2 * np.eye(2))

    def test_loads_in_place(self):
        m = np.eye(3)
        assert _diagonal_load(m, 0.5) is m
        np.testing.assert_array_equal(m, 2.5 * np.eye(3))

    def test_zero_eps_identity_map(self):
        rng = np.random.default_rng(4)
        m = random_hermitian(rng, 6)
        np.testing.assert_array_equal(_diagonal_load(m.copy(), 0.0), m)

    def test_zero_matrix_stays_zero(self):
        dl = _diagonal_load(np.zeros((3, 3), dtype=complex), 0.5)
        np.testing.assert_array_equal(dl, np.zeros((3, 3)))

    def test_preserves_eigenvectors_shifts_eigenvalues(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = random_hermitian(rng, 5)
            eps = float(rng.uniform(0.01, 0.5))
            before_w, before_v = np.linalg.eigh(m)
            after_w, after_v = np.linalg.eigh(_diagonal_load(m.copy(), eps))
            shift = eps * np.trace(m).real
            np.testing.assert_allclose(after_w, before_w + shift, rtol=1e-10,
                                       atol=1e-12)
            # eigenvectors agree up to phase per column
            overlap = np.abs(np.sum(np.conj(before_v) * after_v, axis=0))
            np.testing.assert_allclose(overlap, 1.0, atol=1e-9)

    def test_per_matrix_trace_in_a_batch(self):
        stack = np.stack([np.eye(2), 3.0 * np.eye(2)]).astype(complex)
        dl = _diagonal_load(stack, 0.5)
        np.testing.assert_allclose(dl, [2.0 * np.eye(2), 6.0 * np.eye(2)])


def bordered(cov, rows):
    """The part of [[C, B^T], [B, D]] a caller of _whiten_border writes: C (..., n, n)
    and the border rows B (..., k, n); nan where _whiten_border writes B^T and D."""
    n, k = cov.shape[-1], rows.shape[-2]
    mat = np.full(cov.shape[:-2] + (n + k, n + k), np.nan)
    mat[..., :n, :n] = cov
    mat[..., n:, :n] = rows
    return mat


def random_spd(rng, n, batch):
    a = rng.standard_normal(batch + (n, 2 * n))
    return a @ np.swapaxes(a, -1, -2) / (2 * n) + 0.1 * np.eye(n)


def capon_rows(rng, length, batch):
    """The image path's border rows: q = Q^H 1, then two random window-mean rows."""
    q = (unitary_matrix(length).conj().T @ np.ones(length)).real
    means = rng.standard_normal(batch + (2, length))
    return np.concatenate([np.broadcast_to(q, batch + (1, length)), means], axis=-2)


class TestReplaceDegenerate:
    """_whiten_border swaps a C whose trace is not finite and positive for the
    identity before factoring, and returns it rejected with W = 0."""

    def test_bad_trace_matrices_become_identity(self):
        rng = np.random.default_rng(11)
        cov = np.stack([2.0 * np.eye(3), np.zeros((3, 3)), np.full((3, 3), np.nan)])
        rows = capon_rows(rng, 3, (3,))
        mat = bordered(cov, rows)
        w, ok = _whiten_border(mat, 3)
        np.testing.assert_array_equal(ok, [True, False, False])
        np.testing.assert_array_equal(w[1:], 0.0)
        # in place, as _diagonal_load loads
        np.testing.assert_array_equal(mat[1:], np.broadcast_to(np.eye(6), (2, 6, 6)))
        np.testing.assert_allclose(w[0], rows[0] / np.sqrt(2.0), rtol=1e-14)

    def test_healthy_stack_passes_through(self):
        rng = np.random.default_rng(12)
        cov = np.stack([np.eye(2), 2.0 * np.eye(2)])
        rows = capon_rows(rng, 2, (2,))
        mat = bordered(cov, rows)
        w, ok = _whiten_border(mat, 3)
        assert ok.all()
        np.testing.assert_array_equal(mat[..., :2, :2], cov)
        np.testing.assert_allclose(w, rows / np.sqrt([1.0, 2.0])[:, None, None],
                                   rtol=1e-14)

    def test_replaces_through_a_block_view(self):
        # the leading 5 x 5 block of each 6 x 6 matrix, a strided view
        rng = np.random.default_rng(13)
        outer = np.full((2, 6, 6), 7.0)
        outer[0, :2, :2] = 0.0
        outer[1, :2, :2] = 2.0 * np.eye(2)
        outer[:, 2:5, :2] = capon_rows(rng, 2, (2,))
        w, ok = _whiten_border(outer[:, :5, :5], 3)
        np.testing.assert_array_equal(ok, [False, True])
        np.testing.assert_array_equal(w[0], 0.0)
        np.testing.assert_array_equal(outer[0, :5, :5], np.eye(5))
        np.testing.assert_array_equal(outer[1, :2, :2], 2.0 * np.eye(2))
        np.testing.assert_array_equal(outer[:, 5], 7.0)
        np.testing.assert_array_equal(outer[:, :, 5], 7.0)


class TestWhitenBorder:
    @pytest.mark.parametrize("length", [1, 2, 15, 16])
    def test_forms_match_solve(self, length):
        # q^T C^-1 q and m^T C^-1 q from the border rows, against a general solve
        rng = np.random.default_rng(100 + length)
        cov = random_spd(rng, length, (50,))
        rows = capon_rows(rng, length, (50,))
        w, ok = _whiten_border(bordered(cov, rows), 3)
        assert w.shape == (50, 3, length)
        assert ok.all()
        forms = np.einsum("...ki,...i->...k", w, w[..., 0, :])
        solution = np.linalg.solve(cov, rows[..., 0, :, None])[..., 0]
        expected = np.einsum("...ki,...i->...k", rows, solution)
        np.testing.assert_allclose(forms, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("length", [1, 2, 15, 16])
    def test_corner_does_not_change_border_rows(self, length):
        # _whiten_border writes the corner itself, over whatever the caller left there
        rng = np.random.default_rng(200 + length)
        cov = random_spd(rng, length, (20,))
        rows = capon_rows(rng, length, (20,))
        mat = bordered(cov, rows)
        w_nan, ok_nan = _whiten_border(mat.copy(), 3)
        mat[..., :length, length:] = 7.0
        mat[..., length:, length:] = 1e6 * np.eye(3)
        w_set, ok_set = _whiten_border(mat, 3)
        assert ok_nan.all() and ok_set.all()
        np.testing.assert_array_equal(w_nan, w_set)
        assert (mat[..., length:, length:] == np.finfo(float).max * np.eye(3)).all()

    @pytest.mark.parametrize("reject", [False, True])
    def test_reads_the_lower_triangle_only(self, reject):
        # nan in the whole strict upper triangle of every matrix, C's included,
        # gives the bits of the symmetric stack: this numpy's cholesky reads the
        # lower triangle only. With reject, matrix 2 is singular, so the stack
        # takes the matrix-by-matrix fallback.
        rng = np.random.default_rng(300 + reject)
        cov = random_spd(rng, 16, (5,))
        if reject:
            u = rng.standard_normal((2, 16))
            u[:, -1] = 0.0
            cov[2] = u.T @ u / 2
        sym = bordered(cov, capon_rows(rng, 16, (5,)))
        sym[..., :16, 16:] = np.swapaxes(sym[..., 16:, :16], -1, -2)
        lower = sym.copy()
        lower[..., np.triu(np.ones((19, 19), dtype=bool), 1)] = np.nan
        with mock.patch("numpy.linalg.cholesky", wraps=np.linalg.cholesky) as cholesky:
            w_lower, ok_lower = _whiten_border(lower, 3)
        assert cholesky.call_count == (6 if reject else 1)
        w_sym, ok_sym = _whiten_border(sym, 3)
        np.testing.assert_array_equal(ok_lower, [True, True, not reject, True, True])
        np.testing.assert_array_equal(ok_lower, ok_sym)
        np.testing.assert_array_equal(w_lower, w_sym)

    def test_rejected_matrix_falls_back_alone(self):
        # matrix 2 is rejected, each neighbour keeps its one-matrix bits. In turn:
        # what L = 16 on 16 sensors gives unloaded, u^T u / 2 of the one window's
        # two unitary rows, rank 2, whose zero last column makes the last pivot
        # exactly 0 whatever the rounding of the others; and C blocks holding no
        # data, with a zero or a nan trace, rejected unfactored. The stack is a
        # view into a larger one, whose other matrices stay untouched.
        rng = np.random.default_rng(7)
        u = rng.standard_normal((2, 16))
        u[:, -1] = 0.0
        for rejected in (u.T @ u / 2, np.zeros((16, 16)), np.full((16, 16), np.nan)):
            cov = random_spd(rng, 16, (5,))
            cov[2] = rejected
            outer = np.full((7, 19, 19), 7.0)
            outer[1:6] = bordered(cov, capon_rows(rng, 16, (5,)))
            alone = [_whiten_border(m.copy(), 3) for m in outer[1:6]]
            w, ok = _whiten_border(outer[1:6], 3)
            np.testing.assert_array_equal(ok, [True, True, False, True, True])
            np.testing.assert_array_equal(w[2], 0.0)
            for i in (0, 1, 3, 4):
                assert alone[i][1]
                np.testing.assert_array_equal(w[i], alone[i][0])
            assert not alone[2][1]
            np.testing.assert_array_equal(alone[2][0], 0.0)
            np.testing.assert_array_equal(outer[[0, 6]], 7.0)

    def test_no_data_block_keeps_the_batched_call(self):
        # a C with a zero trace is rejected before factoring: it does not send
        # the whole stack into the matrix-by-matrix fallback
        rng = np.random.default_rng(10)
        cov = random_spd(rng, 16, (5,))
        cov[2] = 0.0
        mat = bordered(cov, capon_rows(rng, 16, (5,)))
        with mock.patch("numpy.linalg.cholesky", wraps=np.linalg.cholesky) as cholesky:
            _, ok = _whiten_border(mat, 3)
        assert cholesky.call_count == 1
        np.testing.assert_array_equal(ok, [True, True, False, True, True])

    @pytest.mark.parametrize("entry", [(0, 0), (-1, 0)])
    def test_non_finite_entry_never_gives_finite_rows(self, entry):
        # a nan in C's diagonal is rejected unfactored; in a border row, LAPACKs
        # differ (a nan pivot is rejected or spreads into W), but ok is False either way
        rng = np.random.default_rng(8)
        mat = bordered(random_spd(rng, 4, (3,)), capon_rows(rng, 4, (3,)))
        mat[(1,) + entry] = mat[(1,) + entry[::-1]] = np.nan
        w, ok = _whiten_border(mat, 3)
        np.testing.assert_array_equal(ok, [True, False, True])
        np.testing.assert_array_equal(w[1], 0.0)


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
        # a constant envelope: the cube carries the carrier, 2 exp(j theta n)
        theta = 2 * np.pi * 30e3 / 125e3
        samples = np.tile(2.0 * np.exp(1j * theta * np.arange(8192)), (4, 1))
        bb = BasebandCube(samples=samples, sample_rate=125e3,
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
        snaps = _subarray_snapshots(x, length)
        raw_cov = _sample_covariance(snaps)
        eps = 1e-3 / snaps.shape[0]
        _, denom_raw, good_raw = capon_solve(_diagonal_load(raw_cov.copy(), eps))
        _, denom_fb, good_fb = capon_solve(_diagonal_load(forward_backward(raw_cov), eps))
        assert good_raw and good_fb
        assert 1.0 / denom_fb > 1.0 / denom_raw
