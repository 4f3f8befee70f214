"""The MVDR covariance kernels.

The estimator at one focal point and sound speed: split the phase-aligned
snapshot across the array (interp.sample_rows) into overlapping subarrays,
average the outer products, forward-backward average and diagonally load the
result, then solve it against the all-ones steering vector.

The image path runs it in the real domain: with the unitary Q of Huarng &
Yeh (1991), sample_covariance of unitary_windows is C = Q^H FB(S) Q, real
symmetric, solved against the real q = Q^H 1 (sqrt(2) on the first L // 2
entries, 1 in the middle for odd L, 0 elsewhere). sample_covariance and
forward_backward on complex windows are the forms it is tested against.

The kernels take and return plain ndarrays with any leading batch axes: a
snapshot stack (..., N) gives subarray windows (..., n_sub, L) and
covariances (..., L, L). The beamformers call them on one batch of pixels
at a time, a block of grid rows for images.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def subarray_snapshots(x: np.ndarray, length: int) -> np.ndarray:
    """Overlapping windows of the trailing axis: (..., N) -> (..., N - L + 1, L).

    Returns a read-only view of x, not a copy.
    """
    x = np.asarray(x)
    if x.ndim < 1:
        raise ValueError("snapshot must have a sensor axis")
    if not 1 <= length <= x.shape[-1]:
        raise ValueError(f"subarray length {length} out of range [1, {x.shape[-1]}]")
    return sliding_window_view(x, length, axis=-1)


def sample_covariance(snaps: np.ndarray) -> np.ndarray:
    """Average outer product of the windows: (..., n_sub, L) -> (..., L, L)."""
    # cov_ij = sum_l x_li conj(x_lj), batched over the leading axes via BLAS
    return np.matmul(np.swapaxes(snaps, -1, -2), snaps.conj()) / snaps.shape[-2]


def unitary_windows(snaps: np.ndarray) -> np.ndarray:
    """sqrt(2) Q^H x for each window x, real and imaginary parts stacked along
    the snapshot axis: (..., n_sub, L) complex -> (..., 2 n_sub, L) real.

    Q^H x = [x1 + J x2, sqrt(2) x_mid, -j (x1 - J x2)] / sqrt(2) for the first
    and last L // 2 entries x1, x2 (x_mid for odd L only).
    """
    length = snaps.shape[-1]
    k, h = length // 2, (length + 1) // 2
    re, im = snaps.real, snaps.imag
    rev_re, rev_im = re[..., ::-1], im[..., ::-1]
    out = np.empty(snaps.shape[:-2] + (2,) + snaps.shape[-2:])
    # x1 + J x2 and, for odd L, 2 x_mid, which the division below makes sqrt(2) x_mid
    np.add(re[..., :h], rev_re[..., :h], out=out[..., 0, :, :h])
    np.add(im[..., :h], rev_im[..., :h], out=out[..., 1, :, :h])
    np.subtract(im[..., :k], rev_im[..., :k], out=out[..., 0, :, h:])
    np.subtract(rev_re[..., :k], re[..., :k], out=out[..., 1, :, h:])
    out[..., k:h] /= np.sqrt(2.0)
    return out.reshape(snaps.shape[:-2] + (-1, length))


def forward_backward(cov: np.ndarray) -> np.ndarray:
    """Forward-backward averaging: 0.5 * (S + J S^T J) with J the exchange matrix."""
    return 0.5 * (cov + np.swapaxes(cov, -1, -2)[..., ::-1, ::-1])


def _trace(cov: np.ndarray) -> np.ndarray:
    return np.einsum("...ii->...", cov).real


def diagonal_load(cov: np.ndarray, eps: float) -> np.ndarray:
    """Add eps * trace(S) to the diagonal, guaranteeing invertibility for eps > 0.

    Loads cov in place and returns it. A zero matrix stays zero;
    replace_degenerate deals with it.
    """
    if not 0 <= eps < np.inf:
        raise ValueError("loading factor must be finite and >= 0")
    np.einsum("...ii->...i", cov)[...] += (eps * _trace(cov))[..., None]
    return cov


def replace_degenerate(cov: np.ndarray):
    """Swap matrices whose trace is not finite and positive for the identity.

    Such a matrix holds no data (an all-zero snapshot, say) and would stop
    the batched solve. Loading with eps >= 0 keeps a trace's sign and
    finiteness, so the check finds the same matrices before or after
    diagonal_load. Returns (cov, degenerate); cov is copied only when some
    matrix is replaced.
    """
    trace = _trace(cov)
    degenerate = ~(np.isfinite(trace) & (trace > 0))
    if np.any(degenerate):
        cov = cov.copy()
        cov[degenerate] = np.eye(cov.shape[-1])
    return cov, degenerate


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
