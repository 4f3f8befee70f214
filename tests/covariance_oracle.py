"""Reference forms of the MVDR estimator that the image path does not run.

The image path forward-backward averages inside covariance.unitary_windows
and reads the Capon forms from one bordered Cholesky factorization
(covariance.whiten_border). The tests check it against these direct forms:
the complex forward-backward average and a general linear solve.
"""

import numpy as np


def forward_backward(cov: np.ndarray) -> np.ndarray:
    """Forward-backward averaging: 0.5 * (S + J S^T J) with J the exchange matrix."""
    return 0.5 * (cov + np.swapaxes(cov, -1, -2)[..., ::-1, ::-1])


def capon_solve(cov: np.ndarray, steering: np.ndarray | None = None):
    """Solve S x = a for every matrix of a (..., L, L) stack; a is all ones by default.

    Returns (x, denom, good) with denom = a^H x, real, the inverse Capon
    power. A matrix the solver rejects gets x = 0. good marks the matrices
    whose denom is finite and positive; elsewhere denom is set to 1.
    """
    a = np.ones(cov.shape[-1]) if steering is None else np.asarray(steering)
    try:
        sol = np.linalg.solve(cov, a)
    except np.linalg.LinAlgError:
        sol = _solve_rows(cov, a)
    denom = (sol * a.conj()).sum(axis=-1).real
    good = np.isfinite(denom) & (denom > 0)
    return sol, np.where(good, denom, 1.0), good


def _solve_rows(cov: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Matrix-by-matrix fallback for a stack in which some matrix is singular."""
    n = cov.shape[-1]
    flat = cov.reshape(-1, n, n)
    sol = np.zeros((flat.shape[0], n), dtype=cov.dtype)
    for i, m in enumerate(flat):
        try:
            sol[i] = np.linalg.solve(m, a)
        except np.linalg.LinAlgError:
            pass
    return sol.reshape(cov.shape[:-1])
