"""DAS, MVDR, and sound-speed-marginalized Bayesian beamformers.

All three operate on matched-filtered baseband cubes. Data are pre-delayed
per focal point (so the steering vector is all ones), then:

  das    Hann-weighted sum of the delayed snapshot at the speed c.
  mvdr   minimum-variance weights from the subarray-averaged, forward-
         backward averaged, diagonally loaded covariance at the speed c.
  bayes  MVDR evaluated at the Gauss-Hermite nodes (numpy's hermgauss) of
         the sound-speed prior N(c, sigma_c^2) and averaged under the
         per-pixel posterior; the likelihood couples the Capon power through
         the range-dependent strength constant gamma. sigma_c=0.0 collapses
         the prior onto c, where Bayes is MVDR at c (the limit of Bell,
         Ephraim & Van Trees' Bayesian beamformer, IEEE TSP 2000).

Under a weak posterior (weights equal to the prior's) Bayes is MVDR times
the range taper e^{-a^2/2}, a = 2*pi*f_c*d*sigma_c/c^2 for a round-trip
path d: the prior's Gaussian average of the carrier phase 2*pi*f_c*d/c.

The phase-aligned delayed snapshots come from interp.sample_rows, which
folds the carrier phase into its Farrow taps.

MVDR runs in the real domain: with the unitary Q of Huarng & Yeh (1991),
the covariance of the windows sqrt(2) Q^H x is the real symmetric
C = Q^H FB(S) Q of the forward-backward average FB(S), and the steering
vector is the real q = Q^H 1. _whiten_border is the one acceptance test: a
C that holds no data, a factorization that fails or non-finite border rows
leave W = 0, and the pixel-node is flagged singular with value and Capon
power 0.

Pixels are independent. beamform_points runs one batch of pixels of any
shape and, for Bayes, also returns each node's log likelihood, the
evidence of the per-pixel sound-speed posterior; beamform_image runs the
same engine on blocks of whole grid rows on core.map_rows. A pixel's bits
do not depend on the thread count, nor on the size of the batch it is in
while the BLAS meets interp's assumption and rounds a row of a real
product alike at two rows or more (numpy's bundled OpenBLAS does).
record_span gives the round-trip times an image reads, the span the
receive chain must cover.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .chain import TVG_TWO_WAY, TVG_VARIANTS, tvg_range
from .core import (TWO_PI, ArrayGeometry, ScanGrid, hann_weights, is_integer, map_rows,
                   path_lengths, travel_times)
from .cube import BasebandCube
from .interp import sample_rows

METHOD_DAS = "das"
METHOD_MVDR = "mvdr"
METHOD_BAYES = "bayes"
METHODS = (METHOD_DAS, METHOD_MVDR, METHOD_BAYES)

MAX_NODES = 128  # the largest Gauss-Hermite rule, n_quad's upper bound

# per-pixel flag bits
FLAG_OUT_OF_RECORD = 1
FLAG_SINGULAR = 2
FLAG_POSTERIOR_FALLBACK = 4

# beamform_image's work unit: whole grid rows, as many as fit in this many
# pixels (one row if the grid is wider). Larger batches amortize numpy's
# per-call overhead over more pixels; the bits do not depend on the size
# (under interp's BLAS assumption).
BLOCK_PIXELS = 512


@functools.lru_cache(maxsize=None)
def _hermgauss(n: int) -> tuple:
    """numpy's n-node Gauss-Hermite rule (nodes, weights), built once per n, read-only."""
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass(frozen=True)
class BeamformerConfig:
    """Settings shared by the imaging methods.

    c is the assumed sound speed in m/s: DAS and MVDR focus at it, and Bayes
    centres its normal prior on it, with standard deviation sigma_c.
    subarray_length is the adaptive estimation window L; the snapshot count
    is n_sensors - L + 1. loading_factor defaults to 1e-3 divided by the
    snapshot count when left unset. DAS uses neither.
    """

    method: str = METHOD_BAYES
    c: float = 1519.0
    subarray_length: int = 16
    sigma_c: float = 0.3
    n_quad: int = 8
    snr0_db: float = 15.0
    dr_db: float = 96.0
    loading_factor: float | None = None
    tvg_variant: str = TVG_TWO_WAY

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0 < self.c < np.inf:
            raise ValueError("c must be finite and > 0")
        if not 0 <= self.sigma_c < np.inf:
            raise ValueError("sigma_c must be finite and >= 0")
        if not (is_integer(self.subarray_length) and self.subarray_length >= 1):
            raise ValueError(f"subarray_length must be an integer >= 1, "
                             f"got {self.subarray_length!r}")
        if not (is_integer(self.n_quad) and 1 <= self.n_quad <= MAX_NODES):
            raise ValueError(f"n_quad must be an integer in [1, {MAX_NODES}], got {self.n_quad!r}")
        if not 0 < self.dr_db < np.inf:
            raise ValueError("dr_db must be finite and > 0")
        if not math.isfinite(self.snr0_db):
            raise ValueError("snr0_db must be finite")
        if self.loading_factor is not None and not 0 <= self.loading_factor < np.inf:
            raise ValueError("loading_factor must be finite and >= 0")
        if self.tvg_variant not in TVG_VARIANTS:
            raise ValueError(f"unknown TVG variant {self.tvg_variant!r}")

    def n_subarrays(self, n_sensors: int) -> int:
        n_sub = n_sensors - self.subarray_length + 1
        if n_sub < 1:
            raise ValueError(f"subarray_length {self.subarray_length} exceeds "
                             f"the {n_sensors}-sensor array")
        return n_sub

    def loading(self, n_sub: int) -> float:
        if self.loading_factor is not None:
            return self.loading_factor
        return 1e-3 / n_sub

    def speeds(self) -> np.ndarray:
        """The sound speeds the method focuses at, m/s: c for DAS and MVDR,
        and for Bayes the node speeds of rule()."""
        if self.method != METHOD_BAYES:
            return np.array([self.c])
        return self.rule()[0]

    def rule(self) -> tuple:
        """(speeds, weights): the Gauss-Hermite rule of the prior
        N(c, sigma_c^2). The speeds are sqrt(2) * z * sigma_c + c for numpy's
        nodes z; the weights are numpy's, which integrate against exp(-z**2)
        and sum to sqrt(pi).

        A prior so wide that a node lands at or below 0 m/s is a ValueError.
        The check is here, where the nodes are built, because building them
        loads numpy.polynomial, which config parsing does not need.
        """
        nodes, weights = _hermgauss(self.n_quad)
        speeds = np.sqrt(2.0) * nodes * self.sigma_c + self.c
        if speeds.min() <= 0:
            raise ValueError(f"the {self.n_quad}-node rule puts a node at "
                             f"{speeds.min():.6g} m/s; node speeds must be > 0")
        return speeds, weights


@dataclass(frozen=True)
class PointsResult:
    """Beamformer output at a batch of pixels, shaped like broadcast(px, py).

    Bayes results also carry the evidence log_lik, each node's log likelihood
    n_sub * gamma * P_Capon at the speeds cfg.speeds(); the image's weights are
    posterior_weights(np.log(cfg.rule()[1]), log_lik). DAS and MVDR leave it None.
    """

    values: np.ndarray                 # complex
    flags: np.ndarray                  # uint8
    log_lik: np.ndarray | None = None  # (..., n_quad) log likelihood per node


@dataclass(frozen=True)
class ImageResult:
    """Complex image over a scan grid, row-major in range, plus per-pixel flags."""

    values: np.ndarray   # (n_y, n_x) complex
    flags: np.ndarray    # (n_y, n_x) uint8
    grid: ScanGrid
    method: str

    def flag_summary(self) -> dict:
        return {
            "out_of_record": int(np.count_nonzero(self.flags & FLAG_OUT_OF_RECORD)),
            "singular": int(np.count_nonzero(self.flags & FLAG_SINGULAR)),
            "posterior_fallback": int(np.count_nonzero(self.flags & FLAG_POSTERIOR_FALLBACK)),
        }


def posterior_weights(log_u: np.ndarray, log_lik: np.ndarray):
    """Normalized posterior weights from log prior weights and log likelihoods.

    Works on the trailing axis; max-subtraction keeps the exponentials in
    range for any likelihood scale. A non-finite row runs on the log prior
    instead, so its weights are the prior's; returns (weights, fallback_mask).
    """
    log_v = np.asarray(log_u) + np.asarray(log_lik)
    finite = np.isfinite(log_v).all(axis=-1)
    safe = np.where(finite[..., None], log_v, log_u)
    w = np.exp(safe - safe.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    return w, ~finite


def focal_range(px, py, geom: ArrayGeometry):
    """One-way-equivalent range: half the source-to-pixel-to-array-center trip."""
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    r_tx = np.hypot(px - geom.source_x, py)
    r_rx = np.hypot(px - geom.center_x, py)
    return 0.5 * (r_tx + r_rx)


def _gamma_batch(px, py, cfg: BeamformerConfig, geom: ArrayGeometry):
    """Likelihood strength constant gamma(p) for each pixel.

    Converts the range-dependent noise level and SNR models (in dB, driven by
    the TVG the chain applied at a single reference speed) to linear and
    combines them; positive, or 0 from about 1e73 m at the default dB settings.

    Units, as computed: nl = 10**(dB / 10) is a power and snr is
    dimensionless, so gamma = (n_sub / nl**2) * n_sub*snr / (1 + n_sub*snr)
    has units of 1/power**2. The log likelihood n_sub * gamma * P_s, with
    P_s the Capon power of the cube, then has units of 1/power rather than
    none: scaling the cube by k scales the exponent by k**2, which
    test_linear_in_data_power pins. A unit-free form is ROADMAP open item 2.
    """
    r_p = focal_range(px, py, geom)
    if np.any(r_p <= 0):
        raise ValueError("focal range must be positive")
    # the chain's gain at this pixel's arrival time, where its r = c*t/2 is
    # the focal range whatever the reference speed
    g_tvg_db = 20.0 * np.log10(tvg_range(r_p, cfg.tvg_variant))
    n_sub = cfg.n_subarrays(geom.n_sensors)
    with np.errstate(over="ignore"):
        nl = 10.0 ** ((cfg.dr_db - cfg.snr0_db + g_tvg_db) / 10.0)
        snr = 10.0 ** ((cfg.snr0_db - g_tvg_db) / 10.0)
        return (n_sub / nl ** 2) * (n_sub * snr) / (1.0 + n_sub * snr)


def _subarray_snapshots(x: np.ndarray, length: int) -> np.ndarray:
    """Overlapping windows of the trailing axis: (..., N) -> (..., N - L + 1, L), a view."""
    return sliding_window_view(x, length, axis=-1)


def _sample_covariance(snaps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Average outer product of the windows: (..., n_sub, L) -> (..., L, L), into out if given."""
    # cov_ij = sum_l x_li conj(x_lj), batched over the leading axes via BLAS
    cov = np.matmul(np.swapaxes(snaps, -1, -2), snaps.conj(), out=out)
    return np.divide(cov, snaps.shape[-2], out=cov)


def _unitary_windows(snaps: np.ndarray) -> np.ndarray:
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


def _diagonal_load(cov: np.ndarray, eps: float) -> np.ndarray:
    """Add eps * trace(S) to the diagonal in place and return cov. A zero
    matrix stays zero, and _whiten_border rejects it."""
    np.einsum("...ii->...i", cov)[...] += (eps * _trace(cov))[..., None]
    return cov


def _whiten_border(mat: np.ndarray, k: int):
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


class _Imager:
    """Batched pixel engine; one instance per (cube, geometry, config)."""

    def __init__(self, cube: BasebandCube, geom: ArrayGeometry, cfg: BeamformerConfig):
        if cube.n_sensors != geom.n_sensors:
            raise ValueError(f"cube holds {cube.n_sensors} sensors, geometry has "
                             f"{geom.n_sensors}")
        self.cube = cube
        self.geom = geom
        self.cfg = cfg
        self.theta = TWO_PI * cube.carrier / cube.sample_rate  # carrier step per cube sample
        if cfg.method == METHOD_DAS:
            self.hann = hann_weights(geom.n_sensors)
        else:
            self.n_sub = cfg.n_subarrays(geom.n_sensors)
            self.eps = cfg.loading(self.n_sub)
            half, odd = divmod(cfg.subarray_length, 2)
            self.q = np.r_[np.full(half, np.sqrt(2.0)), np.ones(odd), np.zeros(half)]
            # the unit snapshots' window means: (re, im) pairs -> unitary rows (m_re, m_im)
            units = np.eye(2 * geom.n_sensors).view(complex)
            mean = _subarray_snapshots(units, cfg.subarray_length).mean(axis=-2, keepdims=True)
            self.mean_map = _unitary_windows(mean).reshape(len(units), -1)
        if cfg.method == METHOD_BAYES:
            self.c_nodes, weights = cfg.rule()
            self.log_u = np.log(weights)

    # -- per-batch primitives ------------------------------------------------

    def delayed_snapshots(self, t):
        """Phase-aligned snapshots at round-trip times t (P, n_sensors), read at the
        positions t*f_s - (t0*f_s + offset): values + flags."""
        cube = self.cube
        pos = t * cube.sample_rate
        pos -= cube.time_origin * cube.sample_rate + cube.sample_offset
        values, valid = sample_rows(cube.samples, pos, self.theta)
        flags = np.where(valid.all(axis=-1), 0, FLAG_OUT_OF_RECORD).astype(np.uint8)
        return values, flags

    def das(self, px, py):
        snap, flags = self.delayed_snapshots(travel_times(px, py, self.cfg.c, self.geom))
        # einsum, not matmul: a one-pixel batch's matmul rounds unlike a longer one's
        return np.einsum("...s,s->...", snap, self.hann), flags

    def mvdr_node(self, t):
        """MVDR output and Capon power at the round-trip times t of one
        speed: (values, power, flags).

        The loaded unitary covariance C, bordered by q and the rows m_re, m_im
        of sqrt(2) Q^H m for the window mean m, gives q^T C^-1 [q, m_re, m_im]
        from one Cholesky factorization: the Capon power is 1 / q^T C^-1 q and
        the output (m_re + j m_im)^T C^-1 q / (sqrt(2) q^T C^-1 q)."""
        snap, flags = self.delayed_snapshots(t)
        n = self.cfg.subarray_length
        # m_re, m_im from one real product of two rows or more, as one row rounds apart
        pairs = snap.reshape(-1, snap.shape[-1]).view(float)
        rows = (np.vstack([pairs, pairs]) if len(pairs) == 1 else pairs) @ self.mean_map
        windows = _unitary_windows(_subarray_snapshots(snap, n))
        del snap, pairs  # a lower peak keeps glibc from trimming the heap and re-faulting it
        mat = np.empty(flags.shape + (n + 3, n + 3))
        _diagonal_load(_sample_covariance(windows, out=mat[..., :n, :n]), self.eps)
        mat[..., n + 1:, :n] = rows[:flags.size].reshape(flags.shape + (2, n))
        del windows, rows
        mat[..., n, :n] = self.q
        # a rejected matrix's W is 0, so its forms, and its value, are 0
        w, ok = _whiten_border(mat, 3)
        forms = np.einsum("...ki,...i->k...", w, w[..., 0, :])
        flags = flags | np.where(ok, 0, FLAG_SINGULAR).astype(np.uint8)
        denom = np.where(ok, forms[0], 1.0)
        values = (forms[1] + 1j * forms[2]) / (np.sqrt(2.0) * denom)
        return values, np.where(ok, 1.0 / denom, 0.0), flags

    def bayes(self, px, py) -> PointsResult:
        """Posterior-averaged MVDR over the quadrature nodes, with the log likelihoods."""
        shape = np.broadcast_shapes(np.shape(px), np.shape(py))
        nq = self.cfg.n_quad
        node_values = np.empty(shape + (nq,), dtype=complex)
        node_power = np.empty(shape + (nq,))
        flags = np.zeros(shape, dtype=np.uint8)
        # each node's travel_times, from path lengths taken once per batch
        paths = path_lengths(px, py, self.geom)
        for i, c_n in enumerate(self.c_nodes):
            v, p_s, f = self.mvdr_node(paths / c_n)
            node_values[..., i] = v
            node_power[..., i] = p_s
            flags = flags | f
        gamma = _gamma_batch(px, py, self.cfg, self.geom)
        with np.errstate(over="ignore"):  # an inf likelihood falls back to the prior
            log_lik = self.n_sub * np.asarray(gamma)[..., None] * node_power
        w, fallback = posterior_weights(self.log_u, log_lik)
        flags = flags | np.where(fallback, FLAG_POSTERIOR_FALLBACK, 0).astype(np.uint8)
        values = np.einsum("...n,...n->...", w, node_values)
        return PointsResult(values, flags, log_lik)

    def row(self, px, py) -> PointsResult:
        """A batch of pixels, a block of grid rows for images, with the configured method."""
        if self.cfg.method == METHOD_DAS:
            return PointsResult(*self.das(px, py))
        if self.cfg.method == METHOD_MVDR:
            values, _, flags = self.mvdr_node(travel_times(px, py, self.cfg.c, self.geom))
            return PointsResult(values, flags)
        return self.bayes(px, py)


def beamform_points(cube: BasebandCube, px, py, cfg: BeamformerConfig,
                    geom: ArrayGeometry) -> PointsResult:
    """Beamform the pixels (px, py) with the configured method.

    px, py are broadcastable arrays of azimuth and range in meters; py must
    be positive. A single-speed question is a config: MVDR at the speed c a
    Bayes config centres its prior on is replace(cfg, method="mvdr"), and
    replace(cfg, c=c, sigma_c=0.0, n_quad=1) puts Bayes's one node at c, so
    log_lik is the log likelihood there.
    """
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    if not np.isfinite(px).all():
        raise ValueError("pixel azimuth px must be finite")
    if not ((py > 0) & (py < np.inf)).all():
        raise ValueError("pixel range py must be finite and > 0")
    return _Imager(cube, geom, cfg).row(px, py)


def record_span(grid: ScanGrid, geom: ArrayGeometry, cfgs) -> tuple:
    """(t_first, t_last): the earliest and latest round trip that any pixel of
    grid is focused at by any of the configs cfgs, in seconds.

    The speeds are each config's speeds(): c for DAS and MVDR, the
    quadrature node speeds for Bayes. r_tx + r_rx grows with range at every azimuth, so the
    earliest trip is on the first grid row at the fastest speed and the
    latest on the last row at the slowest.
    """
    speeds = np.concatenate([cfg.speeds() for cfg in cfgs])
    xs, ys = grid.x_values(), grid.y_values()
    t_first = travel_times(xs, ys[0], speeds.max(), geom).min()
    t_last = travel_times(xs, ys[-1], speeds.min(), geom).max()
    return float(t_first), float(t_last)


def beamform_image(cube: BasebandCube, grid: ScanGrid, cfg: BeamformerConfig,
                   geom: ArrayGeometry, threads: int = 1) -> ImageResult:
    """Beamform the full scan grid; rows are range, columns azimuth.

    The work units are blocks of whole rows, BLOCK_PIXELS pixels or one row
    if the grid is wider. They are independent, so the thread count changes
    scheduling only, never the arithmetic or the assembled image. Per-pixel
    problems are collected into flags rather than raised.
    """
    imager = _Imager(cube, geom, cfg)
    xs = grid.x_values()
    ys = grid.y_values()
    values = np.empty((grid.n_y, grid.n_x), dtype=complex)
    flags = np.empty((grid.n_y, grid.n_x), dtype=np.uint8)
    rows = max(1, BLOCK_PIXELS // grid.n_x)

    def run_block(i: int):
        block = slice(i * rows, (i + 1) * rows)
        result = imager.row(xs, ys[block, None])
        values[block], flags[block] = result.values, result.flags

    map_rows(run_block, -(-grid.n_y // rows), threads)
    return ImageResult(values=values, flags=flags, grid=grid, method=cfg.method)
