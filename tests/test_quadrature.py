import numpy as np
import pytest

from sosbeam.quadrature import MAX_NODES, SosPrior, gauss_hermite, node_to_sos


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
        nodes, weights = gauss_hermite(1)
        np.testing.assert_allclose(nodes, [0.0])
        np.testing.assert_allclose(weights, [np.sqrt(np.pi)], rtol=1e-15)

    def test_two_nodes(self):
        nodes, weights = gauss_hermite(2)
        np.testing.assert_allclose(sorted(nodes), [-1 / np.sqrt(2), 1 / np.sqrt(2)],
                                   rtol=1e-12)
        np.testing.assert_allclose(weights, [np.sqrt(np.pi) / 2] * 2, rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_moments_exact_to_degree(self, n):
        nodes, weights = gauss_hermite(n)
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
        nodes, weights = gauss_hermite(n)
        assert weights.sum() == pytest.approx(np.sqrt(np.pi), rel=1e-12)
        np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-12)
        np.testing.assert_allclose(weights, weights[::-1], rtol=1e-10)

    def test_second_moment_any_n(self):
        for n in (2, 5, 9, 33, 64, 128):
            nodes, weights = gauss_hermite(n)
            assert (weights * nodes ** 2).sum() == pytest.approx(
                np.sqrt(np.pi) / 2, rel=1e-12)

    def test_converges_to_trapezoid_oracle_for_cosine(self):
        # dense trapezoid evaluation of integral exp(-z^2) cos(z) dz
        z = np.linspace(-12.0, 12.0, 1_000_001)
        oracle = np.trapezoid(np.exp(-z ** 2) * np.cos(z), z)
        nodes, weights = gauss_hermite(8)
        got = float((weights * np.cos(nodes)).sum())
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gauss_hermite(0)
        with pytest.raises(ValueError):
            gauss_hermite(129)

    @pytest.mark.parametrize("n", [1, 2, 8, 32, MAX_NODES])
    def test_is_numpy_hermgauss_pair(self, n):
        nodes, weights = gauss_hermite(n)
        want_nodes, want_weights = np.polynomial.hermite.hermgauss(n)
        np.testing.assert_array_equal(nodes, want_nodes)
        np.testing.assert_array_equal(weights, want_weights)


class TestSosPrior:
    @pytest.mark.parametrize("mu, sigma", [
        (float("nan"), 0.3), (float("inf"), 0.3), (0.0, 0.3), (-1519.0, 0.3),
        (1519.0, float("inf")), (1519.0, float("nan")), (1519.0, -0.1)])
    def test_non_finite_or_out_of_range_rejected(self, mu, sigma):
        with pytest.raises(ValueError):
            SosPrior(mu, sigma)

    def test_collapsed_prior_allowed(self):
        assert SosPrior(1519.0, 0.0).sigma_c == 0.0


class TestNodeToSos:
    def test_zero_node_maps_to_mean(self):
        prior = SosPrior(1519.0, 0.3)
        assert node_to_sos(0.0, prior) == 1519.0

    def test_collapsed_prior(self):
        prior = SosPrior(1519.0, 0.0)
        for z in (-3.0, 0.0, 2.5):
            assert node_to_sos(z, prior) == 1519.0

    def test_unit_node(self):
        prior = SosPrior(1519.0, 0.3)
        assert node_to_sos(1.0, prior) == pytest.approx(1519.0 + 0.3 * np.sqrt(2.0),
                                                        rel=1e-15)

    def test_affine_preserves_node_order(self):
        prior = SosPrior(1500.0, 2.0)
        nodes, _ = gauss_hermite(16)
        cs = node_to_sos(nodes, prior)
        assert np.all(np.diff(cs) > 0)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            SosPrior(-1.0, 0.3)
        with pytest.raises(ValueError):
            SosPrior(1519.0, -0.1)
