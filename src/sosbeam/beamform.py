"""DAS, MVDR, and sound-speed-marginalized Bayesian beamformers.

All three operate on matched-filtered baseband cubes. Data are pre-delayed
per focal point (so the steering vector is all ones), then:

  das    Hann-weighted sum of the delayed snapshot at a fixed speed.
  mvdr   minimum-variance weights from the subarray-averaged, forward-
         backward averaged, diagonally loaded covariance at a fixed speed.
  bayes  MVDR evaluated at Gauss-Hermite nodes of the sound-speed prior and
         averaged under the per-pixel posterior; the likelihood couples the
         Capon power through the range-dependent strength constant gamma.

Pixels are independent: images are computed row by row, optionally across a
thread pool, with identical per-row arithmetic either way.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .chain import TVG_TWO_WAY, TVG_VARIANTS
from .core import ArrayGeometry, FocalPoint, ScanGrid, hann_weights, travel_times
from .covariance import (_sample_at_times, capon_solve, diagonal_load, replace_degenerate,
                         sample_covariance, subarray_snapshots, unitary_windows)
from .cube import BasebandCube
from .quadrature import MAX_NODES, SosPrior, gauss_hermite, node_to_sos

METHOD_DAS = "das"
METHOD_MVDR = "mvdr"
METHOD_BAYES = "bayes"
METHODS = (METHOD_DAS, METHOD_MVDR, METHOD_BAYES)

# per-pixel flag bits
FLAG_OUT_OF_RECORD = 1
FLAG_SINGULAR = 2
FLAG_POSTERIOR_FALLBACK = 4


@dataclass(frozen=True)
class BeamformerConfig:
    """Settings shared by the imaging methods.

    subarray_length is the adaptive estimation window L; the snapshot count
    is n_sensors - L + 1. loading_factor defaults to 1e-3 divided by the
    snapshot count when left unset. DAS uses neither.
    """

    method: str = METHOD_BAYES
    c_fixed: float = 1519.0
    subarray_length: int = 16
    prior: SosPrior = field(default_factory=SosPrior)
    n_quad: int = 8
    snr0_db: float = 15.0
    dr_db: float = 96.0
    loading_factor: float | None = None
    tvg_variant: str = TVG_TWO_WAY

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0 < self.c_fixed < np.inf:
            raise ValueError("c_fixed must be finite and > 0")
        if self.subarray_length < 1:
            raise ValueError("subarray_length must be >= 1")
        if not 1 <= self.n_quad <= MAX_NODES:
            raise ValueError(f"n_quad must be in [1, {MAX_NODES}]")
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


@dataclass(frozen=True)
class SosPosterior:
    """Per-pixel sound-speed posterior on the quadrature nodes."""

    nodes: np.ndarray      # m/s
    log_v: np.ndarray      # unnormalized log posterior weights
    weights: np.ndarray    # normalized, sums to 1
    fallback: bool = False


@dataclass(frozen=True)
class PixelResult:
    value: complex
    posterior: SosPosterior | None = None
    flags: int = 0


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


def mvdr_weights(cov: np.ndarray) -> np.ndarray:
    """Distortionless minimum-variance weights S^-1 1 / (1^T S^-1 1), all-ones steering.

    Works on a (..., L, L) stack; the unit-gain constraint ones^H w = 1
    holds to solver precision.
    """
    sol, denom = _capon(cov)
    return sol / denom[..., None]


def capon_power(cov: np.ndarray):
    """Capon spectral estimate of the focal signal power: 1 / (ones^H S^-1 ones)."""
    return 1.0 / _capon(cov)[1]


def _capon(cov):
    sol, denom, good = capon_solve(np.asarray(cov))
    if not np.all(good):
        raise np.linalg.LinAlgError("covariance is not positive definite")
    return sol, denom


def posterior_weights(log_u: np.ndarray, log_lik: np.ndarray):
    """Normalized posterior weights from log prior weights and log likelihoods.

    Works on the trailing axis; max-subtraction keeps the exponentials in
    range for any likelihood scale. Rows with non-finite log likelihoods fall
    back to the prior; returns (weights, fallback_mask).
    """
    log_v = np.asarray(log_u) + np.asarray(log_lik)
    finite = np.isfinite(log_v).all(axis=-1)
    safe = np.where(finite[..., None], log_v, 0.0)
    w = np.exp(safe - safe.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    prior = np.exp(log_u - np.max(log_u))
    prior = prior / prior.sum()
    w = np.where(finite[..., None], w, prior)
    return w, ~finite


def focal_range(px, py, geom: ArrayGeometry):
    """One-way-equivalent range: half the source-to-pixel-to-array-center trip."""
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    r_tx = np.hypot(px - geom.source_x, py)
    r_rx = np.hypot(px - geom.center_x, py)
    return 0.5 * (r_tx + r_rx)


def gamma_of_p(p: FocalPoint, cfg: BeamformerConfig, geom: ArrayGeometry,
               c_ref: float | None = None) -> float:
    """Likelihood strength constant gamma(p).

    Converts the range-dependent noise level and SNR models (in dB, driven by
    the TVG the chain applied at a single reference speed) to linear and
    combines them; strictly positive for any focal point.
    """
    return float(_gamma_batch(np.asarray(p.x), np.asarray(p.y), cfg, geom))


def _gamma_batch(px, py, cfg: BeamformerConfig, geom: ArrayGeometry):
    r_p = focal_range(px, py, geom)
    if np.any(r_p <= 0):
        raise ValueError("focal range must be positive")
    # the chain's gain at this pixel's arrival time; the reference speed
    # cancels out of r = c*t/2 (and contributes only the 2*pi factor in the
    # pi-range variant)
    if cfg.tvg_variant == TVG_TWO_WAY:
        g_tvg_db = 20.0 * np.log10(r_p)
    else:
        g_tvg_db = 20.0 * np.log10(2.0 * np.pi * r_p)
    nl = 10.0 ** ((cfg.dr_db - cfg.snr0_db + g_tvg_db) / 10.0)
    snr = 10.0 ** ((cfg.snr0_db - g_tvg_db) / 10.0)
    n_sub = cfg.n_subarrays(geom.n_sensors)
    return (n_sub / nl ** 2) * (n_sub * snr) / (1.0 + n_sub * snr)


class _Imager:
    """Batched pixel engine; one instance per (cube, geometry, config)."""

    def __init__(self, cube: BasebandCube, geom: ArrayGeometry, cfg: BeamformerConfig):
        self.cube = cube
        self.geom = geom
        self.cfg = cfg
        if cfg.method == METHOD_DAS:
            self.hann = hann_weights(geom.n_sensors)
        else:
            self.n_sub = cfg.n_subarrays(geom.n_sensors)
            self.eps = cfg.loading(self.n_sub)
            half, odd = divmod(cfg.subarray_length, 2)
            self.q = np.r_[np.full(half, np.sqrt(2.0)), np.ones(odd), np.zeros(half)]
            rule = gauss_hermite(cfg.n_quad)
            self.log_u = np.log(rule.weights)
            self.c_nodes = node_to_sos(rule.nodes, cfg.prior)

    # -- per-batch primitives ------------------------------------------------

    def delayed_snapshots(self, px, py, c):
        """Phase-aligned snapshots for a pixel batch: (P, n_sensors) + flags."""
        t = travel_times(px, py, c, self.geom)
        values, valid = _sample_at_times(self.cube, t)
        flags = np.where(valid.all(axis=-1), 0, FLAG_OUT_OF_RECORD).astype(np.uint8)
        return values, flags

    def das(self, px, py):
        snap, flags = self.delayed_snapshots(px, py, self.cfg.c_fixed)
        return snap @ self.hann, flags

    def mvdr_node(self, px, py, c):
        """MVDR output and Capon power at one speed: (values, power, flags).

        With y = C^-1 q in the unitary domain, the output is y^T Q^H m / q^T y
        for the window mean m."""
        snap, flags = self.delayed_snapshots(px, py, c)
        snaps = subarray_snapshots(snap, self.cfg.subarray_length)
        cov = diagonal_load(sample_covariance(unitary_windows(snaps)), self.eps)
        cov, degenerate = replace_degenerate(cov)
        sol, denom, good = capon_solve(cov, self.q)
        flags = flags | np.where(degenerate | ~good, FLAG_SINGULAR, 0).astype(np.uint8)
        power = np.where(good, 1.0 / denom, 0.0)
        mean = unitary_windows(snaps.mean(axis=-2, keepdims=True))  # sqrt(2) Q^H m
        re, im = np.einsum("...ci,...i->c...", mean, sol)
        values = (re + 1j * im) / (np.sqrt(2.0) * denom)
        return np.where(good, values, 0.0), power, flags

    def bayes(self, px, py):
        """Posterior-averaged MVDR over the quadrature nodes.

        Returns (values, flags, log_v, weights); the latter two have shape
        (P, n_quad).
        """
        shape = np.broadcast_shapes(np.shape(px), np.shape(py))
        nq = self.cfg.n_quad
        node_values = np.empty(shape + (nq,), dtype=complex)
        node_power = np.empty(shape + (nq,))
        flags = np.zeros(shape, dtype=np.uint8)
        for i, c_n in enumerate(self.c_nodes):
            v, p_s, f = self.mvdr_node(px, py, float(c_n))
            node_values[..., i] = v
            node_power[..., i] = p_s
            flags = flags | f
        gamma = _gamma_batch(px, py, self.cfg, self.geom)
        log_lik = self.n_sub * np.asarray(gamma)[..., None] * node_power
        log_v = self.log_u + log_lik
        w, fallback = posterior_weights(self.log_u, log_lik)
        flags = flags | np.where(fallback, FLAG_POSTERIOR_FALLBACK, 0).astype(np.uint8)
        values = np.einsum("...n,...n->...", w, node_values)
        return values, flags, log_v, w

    def row(self, px, py):
        """One grid row with the configured method: (values, flags)."""
        if self.cfg.method == METHOD_DAS:
            return self.das(px, py)
        if self.cfg.method == METHOD_MVDR:
            values, _, flags = self.mvdr_node(px, py, self.cfg.c_fixed)
            return values, flags
        values, flags, _, _ = self.bayes(px, py)
        return values, flags


# -- single-pixel API ---------------------------------------------------------

def _adaptive_imager(cube: BasebandCube, geom: ArrayGeometry,
                     cfg: BeamformerConfig) -> _Imager:
    """An imager set up for MVDR and Bayes, whichever method cfg names."""
    if cfg.method == METHOD_DAS:
        cfg = replace(cfg, method=METHOD_MVDR)
    return _Imager(cube, geom, cfg)


def das_pixel(cube: BasebandCube, p: FocalPoint, c: float,
              geom: ArrayGeometry) -> complex:
    """Hann-weighted delay-and-sum response at one focal point."""
    cfg = BeamformerConfig(method=METHOD_DAS, c_fixed=c)
    values, _ = _Imager(cube, geom, cfg).das(np.asarray(p.x), np.asarray(p.y))
    return complex(values)


def mvdr_pixel(cube: BasebandCube, p: FocalPoint, cfg: BeamformerConfig,
               geom: ArrayGeometry, c: float | None = None) -> PixelResult:
    """MVDR response at one focal point and a single speed (cfg.c_fixed by default)."""
    imager = _adaptive_imager(cube, geom, cfg)
    c = cfg.c_fixed if c is None else c
    values, _, flags = imager.mvdr_node(np.asarray(p.x), np.asarray(p.y), c)
    return PixelResult(value=complex(values), flags=int(flags))


def log_likelihood(p: FocalPoint, c: float, cube: BasebandCube,
                   cfg: BeamformerConfig, geom: ArrayGeometry) -> float:
    """Log sound-speed likelihood at one focal point: n_sub * gamma(p) * P_s(p, c)."""
    imager = _adaptive_imager(cube, geom, cfg)
    _, power, _ = imager.mvdr_node(np.asarray(p.x), np.asarray(p.y), c)
    return float(imager.n_sub * gamma_of_p(p, cfg, geom) * power)


def sos_posterior(p: FocalPoint, cube: BasebandCube, cfg: BeamformerConfig,
                  geom: ArrayGeometry) -> SosPosterior:
    """Quadrature-node posterior over the sound speed at one focal point."""
    return bayes_pixel(p, cube, cfg, geom).posterior


def bayes_pixel(p: FocalPoint, cube: BasebandCube, cfg: BeamformerConfig,
                geom: ArrayGeometry) -> PixelResult:
    """Sound-speed-marginalized MVDR response at one focal point."""
    imager = _adaptive_imager(cube, geom, cfg)
    values, flags, log_v, weights = imager.bayes(np.asarray(p.x), np.asarray(p.y))
    posterior = SosPosterior(nodes=imager.c_nodes.copy(), log_v=np.asarray(log_v),
                             weights=np.asarray(weights),
                             fallback=bool(flags & FLAG_POSTERIOR_FALLBACK))
    return PixelResult(value=complex(values), posterior=posterior, flags=int(flags))


def beamform_image(cube: BasebandCube, grid: ScanGrid, cfg: BeamformerConfig,
                   geom: ArrayGeometry, threads: int = 1) -> ImageResult:
    """Beamform the full scan grid; rows are range, columns azimuth.

    Rows are independent work units, so the thread count changes scheduling
    only, never the per-row arithmetic or the assembled image. Per-pixel
    problems are collected into flags rather than raised.
    """
    imager = _Imager(cube, geom, cfg)
    xs = grid.x_values()
    ys = grid.y_values()
    values = np.empty((grid.n_y, grid.n_x), dtype=complex)
    flags = np.empty((grid.n_y, grid.n_x), dtype=np.uint8)

    def run_row(iy: int):
        py = np.full(grid.n_x, ys[iy])
        values[iy], flags[iy] = imager.row(xs, py)

    if threads <= 1:
        for iy in range(grid.n_y):
            run_row(iy)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_row, range(grid.n_y)))
    return ImageResult(values=values, flags=flags, grid=grid, method=cfg.method)
