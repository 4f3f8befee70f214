"""Gauss-Hermite quadrature and the Gaussian sound-speed prior.

The rule is numpy's hermgauss, in the physicists' convention: nodes/weights
integrate against exp(-z**2), so the weights sum to sqrt(pi). The affine map
node_to_sos places nodes in m/s under a normal prior; the rule is exact for
polynomials of degree 2n - 1 or less.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_NODES = 128


@dataclass(frozen=True)
class SosPrior:
    """Normal prior on the sound speed: mean mu_c, standard deviation sigma_c (m/s)."""

    mu_c: float = 1519.0
    sigma_c: float = 0.3

    def __post_init__(self):
        if not 0 < self.mu_c < np.inf:
            raise ValueError("mu_c must be finite and > 0")
        if not 0 <= self.sigma_c < np.inf:
            raise ValueError("sigma_c must be finite and >= 0")


def gauss_hermite(n: int):
    """Gauss-Hermite rule of order n, 1 <= n <= MAX_NODES: numpy's hermgauss
    pair (nodes, weights), nodes ascending and symmetric about 0, weights
    positive.

    numpy imports numpy.polynomial on first attribute access, so only a
    caller that builds a rule loads it.
    """
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"node count must be in [1, {MAX_NODES}]")
    return np.polynomial.hermite.hermgauss(n)


def node_to_sos(z, prior: SosPrior):
    """Map a quadrature node to a sound speed: c = sqrt(2) * z * sigma_c + mu_c."""
    return np.sqrt(2.0) * np.asarray(z, dtype=float) * prior.sigma_c + prior.mu_c
