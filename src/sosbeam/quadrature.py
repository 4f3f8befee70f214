"""Gauss-Hermite quadrature and the Gaussian sound-speed prior.

Physicists' convention: nodes/weights integrate against exp(-z**2), so the
weights sum to sqrt(pi). The affine map node_to_sos places nodes in m/s
under a normal prior; the rule is exact for polynomials of degree
2n - 1 or less.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_NODES = 128


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes (symmetric about 0) and positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.nodes, dtype=float)
        u = np.asarray(self.weights, dtype=float)
        if z.shape != u.shape or z.ndim != 1:
            raise ValueError("nodes and weights must be matching 1-D arrays")
        if np.any(u <= 0):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "nodes", z)
        object.__setattr__(self, "weights", u)

    @property
    def n(self) -> int:
        return self.nodes.size


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


def gauss_hermite(n: int) -> QuadratureRule:
    """Gauss-Hermite rule of order n via the Golub-Welsch eigenproblem.

    The Jacobi matrix for the Hermite recurrence has zero diagonal and
    off-diagonals sqrt(k/2); its eigenvalues are the nodes. The matrix is at
    most MAX_NODES x MAX_NODES, so it is solved densely with
    np.linalg.eigvalsh. Weights come from the Christoffel identity
    1 / sum_k p_k(x)^2 over the orthonormal Hermite polynomials, which stays
    finite where the eigenvector first components underflow for large n.
    Nodes and weights are symmetrized to kill rounding asymmetry.
    """
    if not 1 <= n <= MAX_NODES:
        raise ValueError(f"node count must be in [1, {MAX_NODES}]")
    if n == 1:
        return QuadratureRule(nodes=np.zeros(1), weights=np.array([np.sqrt(np.pi)]))
    off = np.sqrt(np.arange(1, n) / 2.0)
    nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    nodes = 0.5 * (nodes - nodes[::-1])

    # orthonormal recurrence w.r.t. exp(-z^2): p0 = pi^(-1/4),
    # sqrt((k+1)/2) p_{k+1} = z p_k - sqrt(k/2) p_{k-1}
    prev = np.zeros_like(nodes)
    cur = np.full_like(nodes, np.pi ** -0.25)
    total = cur ** 2
    for k in range(n - 1):
        nxt = (nodes * cur - np.sqrt(k / 2.0) * prev) / np.sqrt((k + 1) / 2.0)
        prev, cur = cur, nxt
        total += cur ** 2
    weights = 1.0 / total
    weights = 0.5 * (weights + weights[::-1])
    return QuadratureRule(nodes=nodes, weights=weights)


def node_to_sos(z, prior: SosPrior):
    """Map a quadrature node to a sound speed: c = sqrt(2) * z * sigma_c + mu_c."""
    return np.sqrt(2.0) * np.asarray(z, dtype=float) * prior.sigma_c + prior.mu_c
