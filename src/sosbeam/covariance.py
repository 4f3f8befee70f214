"""The MVDR covariance kernels.

The estimator at one focal point and sound speed: split the phase-aligned
snapshot across the array (interp.sample_rows) into overlapping subarrays,
average the outer products, forward-backward average and diagonally load the
result, then solve it against the all-ones steering vector.

The image path runs it in the real domain: with the unitary Q of Huarng &
Yeh (1991), sample_covariance of unitary_windows is C = Q^H FB(S) Q, real
symmetric, against the real q = Q^H 1 (sqrt(2) on the first L // 2
entries, 1 in the middle for odd L, 0 elsewhere). MVDR needs only forms
b^T C^-1 q, which whiten_border reads from one Cholesky factorization of C
bordered by the rows b (the caller writes that lower triangle, whiten_border
the corner). It is also the one acceptance test: a C that holds no data, a
factorization that fails or non-finite border rows leave W = 0 and ok False.

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


def sample_covariance(snaps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Average outer product of the windows: (..., n_sub, L) -> (..., L, L), into out if given."""
    # cov_ij = sum_l x_li conj(x_lj), batched over the leading axes via BLAS
    cov = np.matmul(np.swapaxes(snaps, -1, -2), snaps.conj(), out=out)
    return np.divide(cov, snaps.shape[-2], out=cov)


def unitary_windows(snaps: np.ndarray) -> np.ndarray:
    """sqrt(2) Q^H x for each window x as two real rows: (..., n_sub, L) complex
    -> (..., 2 n_sub, L) real, window k's real part in row 2k and its
    imaginary part in row 2k + 1, a transposed view of complex columns.

    Q^H x = [x1 + J x2, sqrt(2) x_mid, -j (x1 - J x2)] / sqrt(2) for the first
    and last L // 2 entries x1, x2 (x_mid for odd L only).
    """
    k, h = snaps.shape[-1] // 2, (snaps.shape[-1] + 1) // 2
    cols = np.swapaxes(snaps, -1, -2)
    rev = cols[..., ::-1, :]
    out = np.empty(cols.shape, dtype=complex)
    # x1 + J x2 and, for odd L, 2 x_mid, which the division below makes sqrt(2) x_mid
    np.add(cols[..., :h, :], rev[..., :h, :], out=out[..., :h, :])
    np.subtract(cols.imag[..., :k, :], rev.imag[..., :k, :], out=out.real[..., h:, :])
    np.subtract(rev.real[..., :k, :], cols.real[..., :k, :], out=out.imag[..., h:, :])
    out.view(float)[..., k:h, :] /= np.sqrt(2.0)
    return np.swapaxes(out.view(float), -1, -2)


def _trace(cov: np.ndarray) -> np.ndarray:
    return np.einsum("...ii->...", cov).real


def diagonal_load(cov: np.ndarray, eps: float) -> np.ndarray:
    """Add eps * trace(S) to the diagonal, guaranteeing invertibility for eps > 0.

    Loads cov in place and returns it. A zero matrix stays zero, and
    whiten_border rejects it.
    """
    if not 0 <= eps < np.inf:
        raise ValueError("loading factor must be finite and >= 0")
    np.einsum("...ii->...i", cov)[...] += (eps * _trace(cov))[..., None]
    return cov


def whiten_border(mat: np.ndarray, k: int):
    """Border rows W of the lower Cholesky factor of each symmetric
    [[C, B^T], [B, D]] of a (..., n, n) stack, with C its leading n - k block.

    The caller writes C and the k rows B, the lower triangle the factorization
    reads (B^T is never read); this writes only the corner D = finfo(float).max
    * I in place, which keeps the matrix positive definite while |W|^2 is
    below it. Row i of W is L^-1 b_i for C = L L^T, so W[i] . W[j] =
    b_i^T C^-1 b_j. Returns W (..., k, n - k) and ok, the mask of matrices
    whose border rows are finite; W is 0 elsewhere. A C whose trace is not
    finite and positive (no data, such as an all-zero snapshot's, or a nan)
    cannot be positive definite: it is rejected unfactored, swapped for the
    identity only so the batched factorization runs.
    """
    m = mat.shape[-1] - k
    mat[..., m:, m:] = np.finfo(float).max * np.eye(k)
    trace = _trace(mat[..., :m, :m])
    empty = ~(np.isfinite(trace) & (trace > 0))
    mat[empty] = np.eye(m + k)
    try:
        factor, ok = np.linalg.cholesky(mat), np.ones(mat.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:  # matrix by matrix, as the batched call runs each
        factor, ok = np.zeros_like(mat), np.zeros(mat.shape[:-2], dtype=bool)
        for idx in np.ndindex(ok.shape):
            try:
                factor[idx], ok[idx] = np.linalg.cholesky(mat[idx]), True
            except np.linalg.LinAlgError:
                pass
    w = factor[..., m:, :m]
    # the corner's pivot i is sqrt(D_ii - |W[i]|^2 - ...), finite only if row i
    # is: their sum checks all k rows for a fraction of a pass over W
    ok &= ~empty & np.isfinite(_trace(factor[..., m:, m:]))
    w[~ok] = 0.0
    return w, ok
