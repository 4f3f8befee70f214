"""The Gauss-Hermite rule that Bayes integrates with, numpy's hermgauss, and
the prior N(c, sigma_c^2) of BeamformerConfig that maps its nodes to speeds."""

import numpy as np
import pytest

from sosbeam.beamform import MAX_NODES, BeamformerConfig, _Imager
from sosbeam.core import ArrayGeometry
from sosbeam.cube import BasebandCube

hermgauss = np.polynomial.hermite.hermgauss


def gaussian_moment(k: int) -> float:
    """Closed form for integral of z^k exp(-z^2) dz over the real line."""
    if k % 2 == 1:
        return 0.0
    # (k-1)!! * sqrt(pi) / 2^(k/2)
    double_fact = 1.0
    for m in range(k - 1, 0, -2):
        double_fact *= m
    return double_fact * np.sqrt(np.pi) / 2.0 ** (k // 2)


class TestGaussHermite:
    def test_single_node(self):
        nodes, weights = hermgauss(1)
        np.testing.assert_allclose(nodes, [0.0])
        np.testing.assert_allclose(weights, [np.sqrt(np.pi)], rtol=1e-15)

    def test_two_nodes(self):
        nodes, weights = hermgauss(2)
        np.testing.assert_allclose(sorted(nodes), [-1 / np.sqrt(2), 1 / np.sqrt(2)],
                                   rtol=1e-12)
        np.testing.assert_allclose(weights, [np.sqrt(np.pi) / 2] * 2, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_moments_exact_to_degree(self, n):
        nodes, weights = hermgauss(n)
        for k in range(0, 2 * n - 1):
            got = float((weights * nodes ** k).sum())
            want = gaussian_moment(k)
            if want == 0.0:
                # odd moments cancel; compare against the summand magnitude
                scale = float((weights * np.abs(nodes) ** k).sum())
                assert abs(got) <= 1e-10 * max(scale, 1.0)
            else:
                assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n", [3, 8, 16, 64, 128])
    def test_weight_sum_and_symmetry(self, n):
        nodes, weights = hermgauss(n)
        assert weights.sum() == pytest.approx(np.sqrt(np.pi), rel=1e-12)
        np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-12)
        np.testing.assert_allclose(weights, weights[::-1], rtol=1e-10)

    def test_second_moment_any_n(self):
        for n in (2, 5, 9, 33, 64, 128):
            nodes, weights = hermgauss(n)
            assert (weights * nodes ** 2).sum() == pytest.approx(
                np.sqrt(np.pi) / 2, rel=1e-12)

    def test_converges_to_trapezoid_oracle_for_cosine(self):
        # dense trapezoid evaluation of integral exp(-z^2) cos(z) dz
        z = np.linspace(-12.0, 12.0, 1_000_001)
        oracle = np.trapezoid(np.exp(-z ** 2) * np.cos(z), z)
        nodes, weights = hermgauss(8)
        got = float((weights * np.cos(nodes)).sum())
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_out_of_range_rejected(self):
        # the node count is checked where it is set, in BeamformerConfig
        with pytest.raises(ValueError, match="n_quad"):
            BeamformerConfig(n_quad=0)
        with pytest.raises(ValueError, match="n_quad"):
            BeamformerConfig(n_quad=MAX_NODES + 1)

    @pytest.mark.parametrize("n", [1, 2, 8, 32, MAX_NODES])
    def test_is_numpy_hermgauss_pair(self, n):
        # a Bayes imager's log prior weights and node speeds are numpy's pair, bit for bit
        cfg = BeamformerConfig(c=1500.0, subarray_length=2, sigma_c=2.0, n_quad=n)
        cube = BasebandCube(np.ones((4, 64), complex), 125e3, 30e3)
        imager = _Imager(cube, ArrayGeometry.uniform(4, 1.0), cfg)
        nodes, weights = hermgauss(n)
        np.testing.assert_array_equal(imager.log_u, np.log(weights))
        np.testing.assert_array_equal(imager.c_nodes, np.sqrt(2.0) * nodes * 2.0 + 1500.0)


class TestSosPrior:
    # the prior N(c, sigma_c^2) is BeamformerConfig's c and sigma_c
    @pytest.mark.parametrize("mu, sigma", [
        (float("nan"), 0.3), (float("inf"), 0.3), (0.0, 0.3), (-1519.0, 0.3),
        (1519.0, float("inf")), (1519.0, float("nan")), (1519.0, -0.1)])
    def test_non_finite_or_out_of_range_rejected(self, mu, sigma):
        with pytest.raises(ValueError, match="finite"):
            BeamformerConfig(c=mu, sigma_c=sigma)

    def test_collapsed_prior_allowed(self):
        assert BeamformerConfig(c=1519.0, sigma_c=0.0).sigma_c == 0.0


def bayes_speeds(c, sigma_c, n_quad):
    return BeamformerConfig(c=c, sigma_c=sigma_c, n_quad=n_quad).speeds()


class TestNodeToSos:
    # speeds() maps node z to the speed sqrt(2) * z * sigma_c + c
    def test_zero_node_maps_to_mean(self):
        np.testing.assert_array_equal(bayes_speeds(1519.0, 0.3, 1), [1519.0])

    def test_collapsed_prior(self):
        for n in (1, 2, 8):
            np.testing.assert_array_equal(bayes_speeds(1519.0, 0.0, n), np.full(n, 1519.0))

    def test_unit_node(self):
        # the two-node rule's nodes are -+1/sqrt(2): one sigma_c either side of c
        np.testing.assert_allclose(bayes_speeds(1519.0, 0.3, 2), [1518.7, 1519.3],
                                   rtol=1e-15)

    def test_affine_preserves_node_order(self):
        assert np.all(np.diff(bayes_speeds(1500.0, 2.0, 16)) > 0)

    def test_prior_validation(self):
        with pytest.raises(ValueError, match="c must be"):
            BeamformerConfig(c=-1.0, sigma_c=0.3)
        with pytest.raises(ValueError, match="sigma_c must be"):
            BeamformerConfig(c=1519.0, sigma_c=-0.1)
