"""Command-line entry point: simulate, beamform, metrics, or the whole pipeline.

Each subcommand reads the same JSON run configuration; intermediate artifacts
(raw cube, per-method images) are ordinary files so any stage can be re-run
or inspected on its own. `all` runs the simulate, beamform and metrics steps
in one process: it images each configured method once, with that method's
settings, under `<out-dir>/<method>`, and evaluates the images it holds in
memory. `all` and `beamform` chain only the part of the record their images
read (`beamform.record_span`) and hold the raw record only through the chain.

`main` pins numpy's bundled OpenBLAS to one thread before any subcommand
runs, so `--threads N` bounds the threads that compute: the row pool's BLAS
calls are small per-pixel and per-sensor products, which BLAS threads of
their own only slow down. Where numpy bundles no OpenBLAS, or it lacks the
symbol, nothing is pinned. Importing sosbeam sets nothing.

Exit codes: 0 success, 1 invalid configuration, 2 usage, a file that cannot
be read or written, or a bad image CSV, 3 data/config mismatch (cube file,
cube header, image grids, boxes off the images' grid, or a grid past the record).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from dataclasses import asdict
from itertools import combinations
from pathlib import Path

import numpy as np

from .beamform import METHOD_BAYES, METHODS, beamform_image, record_span
from .chain import receive_chain
from .config import ConfigError, RunConfig, default_config_dict, load_config
from .cube import BasebandCube, CubeFormatError, RawDataCube, read_cube, write_cube
from .imaging_io import ImageFormatError, read_image_csv, write_image_csv, write_image_pgm
from .metrics import DbImage, envelope_db, fwhm_of_image, pmal, rmse_db
from .simulate import enumerate_paths, synthesize_rx

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3


_NUMPY_LIBS = Path(np.__file__).resolve().parent.parent / "numpy.libs"


def _bundled_openblas(libs: Path = _NUMPY_LIBS):
    """numpy's bundled OpenBLAS as a ctypes library, or None if libs holds none
    that loads. numpy has loaded it already, so this is the same instance."""
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            pass
    return None


def _pin_blas_threads(libs: Path = _NUMPY_LIBS) -> None:
    """Set the bundled OpenBLAS to one thread; a quiet no-op without it."""
    set_threads = getattr(_bundled_openblas(libs), "scipy_openblas_set_num_threads64_", None)
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def _thread_count(text: str) -> int:
    """argparse type of --threads: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


class UsageError(Exception):
    """Arguments that parse but cannot be run together (exit 2)."""


class MismatchError(Exception):
    """Inputs that do not fit the config or each other (exit 3)."""


def _existing(path, kind: str):
    if not Path(path).is_file():
        raise FileNotFoundError(f"{kind} file not found: {path}")
    return path


def _print_arrival_table(cfg: RunConfig) -> None:
    geom = cfg.geometry
    tx = (geom.source_x, 0.0, geom.array_depth)
    rx = (geom.center_x, 0.0, geom.array_depth)
    print(f"{'target':>8} {'tx path':>16} {'rx path':>16} {'delay [ms]':>12} "
          f"{'amplitude':>12} {'app. range [m]':>15}")
    for i, target in enumerate(cfg.targets):
        for a in enumerate_paths(tx, target, rx, cfg.environment):
            app_range = 0.5 * a.delay * cfg.chain.tvg_speed
            print(f"{i:>8d} {a.tx_kind:>16} {a.rx_kind:>16} {1e3 * a.delay:>12.4f} "
                  f"{a.amplitude:>12.4e} {app_range:>15.2f}")


def _simulate(cfg: RunConfig, path, threads: int = 1) -> RawDataCube:
    """The simulate step: synthesize the raw cube, write it, print the arrivals."""
    cube = synthesize_rx(cfg.targets, cfg.geometry, cfg.pulse, cfg.environment,
                         cfg.simulation, threads=threads)
    write_cube(path, cube)
    _print_arrival_table(cfg)
    print(f"wrote {cube.n_sensors} x {cube.n_samples} raw cube to {path}")
    return cube


def cmd_simulate(args) -> int:
    _simulate(load_config(_existing(args.config, "config")), args.out)
    return EXIT_OK


def _read_raw_cube(cfg: RunConfig, path) -> RawDataCube:
    cube = read_cube(_existing(path, "data"))
    if cube.n_sensors != cfg.geometry.n_sensors:
        raise MismatchError(f"cube holds {cube.n_sensors} sensors, config expects "
                            f"{cfg.geometry.n_sensors}")
    if cube.sample_rate != cfg.simulation.sample_rate:
        raise MismatchError(f"cube sample rate {cube.sample_rate} Hz, config expects "
                            f"{cfg.simulation.sample_rate} Hz")
    return cube


def _image_outputs(prefix, image, cfg: RunConfig) -> DbImage:
    """Write an image's dB CSV, PGM and flag summary; returns the dB image."""
    db_img = envelope_db(image.values, image.grid)
    write_image_csv(f"{prefix}.csv", db_img)
    write_image_pgm(f"{prefix}.pgm", db_img, cfg.dynamic_range_db)
    report = {"method": image.method, "flags": image.flag_summary()}
    with open(f"{prefix}_flags.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return db_img


def _beamform(baseband, cfg: RunConfig, bf_cfg, prefix, threads: int) -> DbImage:
    """The per-method step: image the baseband, write its outputs under prefix."""
    image = beamform_image(baseband, cfg.grid, bf_cfg, cfg.geometry, threads=threads)
    if not image.values.any():
        raise MismatchError(f"{image.method}: every pixel of the grid lies outside "
                            "the record")
    db_img = _image_outputs(prefix, image, cfg)
    print(f"wrote {prefix}.csv / .pgm ({image.method}, "
          f"{cfg.grid.n_y} x {cfg.grid.n_x} pixels)")
    return db_img


def _chain(raw: RawDataCube, cfg: RunConfig, jobs: list, threads: int) -> BasebandCube:
    """The chain step over the record span of jobs' images. Callers pass raw as
    an expression, so no name holds the record once the chain returns."""
    return receive_chain(raw, cfg.pulse, cfg.chain, threads=threads,
                         span=record_span(cfg.grid, cfg.geometry, jobs))


def cmd_beamform(args) -> int:
    if args.n_quad is not None and args.method != METHOD_BAYES:
        raise UsageError(f"--n-quad applies to --method {METHOD_BAYES} only")
    cfg = load_config(_existing(args.config, "config"))
    baseband = _chain(_read_raw_cube(cfg, args.data), cfg,  # checked before the method's settings
                      [bf_cfg := cfg.beamformer(args.method, n_quad=args.n_quad)], args.threads)
    _beamform(baseband, cfg, bf_cfg, args.out, args.threads)
    return EXIT_OK


def _evaluate(cfg: RunConfig, images: dict, out) -> None:
    """The metrics step: FWHM and PMAL per image, RMSE per pair, written to out."""
    grid = next(iter(images.values())).grid
    for name, img in images.items():
        if img.grid != grid:
            raise MismatchError(f"image {name} uses a different grid")
    for key in ("target_box", "artifact_box"):
        try:
            getattr(cfg, key).indices(grid)
        except ValueError as exc:
            raise MismatchError(f"metrics.{key}: {exc} of the images") from None
    fwhm_m, pmal_db = {}, {}
    for name, img in images.items():
        for label, values, metric, boxes in (
                ("FWHM", fwhm_m, fwhm_of_image, [cfg.target_box]),
                ("PMAL", pmal_db, pmal, [cfg.target_box, cfg.artifact_box])):
            try:
                values[name] = metric(img, *boxes)
            except ValueError as exc:
                values[name] = None
                print(f"warning: {label} undefined for {name}: {exc}", file=sys.stderr)
    report = {"boxes": {"target_box": asdict(cfg.target_box),
                        "artifact_box": asdict(cfg.artifact_box)},
              "fwhm_m": fwhm_m, "pmal_db": pmal_db, "method": sorted(images),
              "rmse_db": {f"{a}/{b}": rmse_db(images[a], images[b])
                          for a, b in combinations(sorted(images), 2)}}
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(out).write_text(text)
    print(text, end="")


def cmd_metrics(args) -> int:
    cfg = load_config(_existing(args.config, "config"))
    # the report keys images by file stem, so two files must not share one
    paths = {}
    for path in args.images:
        stem = Path(path).stem
        if stem in paths:
            raise UsageError(f"images {paths[stem]} and {path} share the name {stem!r}")
        paths[stem] = path
    images = {stem: read_image_csv(_existing(path, "image")) for stem, path in paths.items()}
    _evaluate(cfg, images, args.out)
    return EXIT_OK


def cmd_all(args) -> int:
    cfg = load_config(_existing(args.config, "config"))
    jobs = [cfg.beamformer(m) for m in METHODS if m in cfg.beamformers]
    if not jobs:
        raise ConfigError("beamformers", f"'all' needs at least one of {', '.join(METHODS)}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    baseband = _chain(_simulate(cfg, out / "raw_cube.bin", args.threads), cfg, jobs, args.threads)
    images = {bf.method: _beamform(baseband, cfg, bf, out / bf.method, args.threads) for bf in jobs}
    _evaluate(cfg, images, out / "metrics.json")
    return EXIT_OK


def cmd_init_config(args) -> int:
    doc = default_config_dict()
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote default config to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sosbeam",
                                     description="Sound-speed-marginalized sonar imaging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a raw receive cube")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output cube file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("beamform", help="run the signal chain and one beamformer")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True, help="raw cube file from 'simulate'")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--n-quad", type=int, default=None,
                   help="override the configured quadrature node count (bayes only)")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--threads", type=_thread_count, default=1)
    p.set_defaults(func=cmd_beamform)

    p = sub.add_parser("metrics", help="evaluate beamformed images")
    p.add_argument("--config", required=True)
    p.add_argument("images", nargs="+", help="image CSV files")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("all", help="simulate, beamform every method, evaluate")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=_thread_count, default=1)
    p.set_defaults(func=cmd_all)

    p = sub.add_parser("init-config", help="write the default configuration")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init_config)

    return parser


def main(argv=None) -> int:
    """Run one subcommand. A handled failure prints `error: ...` to stderr and
    returns its exit code; only argparse exits by itself (usage errors, 2)."""
    args = build_parser().parse_args(argv)
    _pin_blas_threads()
    try:
        return args.func(args)
    except ConfigError as exc:
        code, message = EXIT_CONFIG, f"invalid config: {exc}"
    except (OSError, ImageFormatError, UsageError) as exc:
        code, message = EXIT_USAGE, exc
    except (CubeFormatError, MismatchError) as exc:
        code, message = EXIT_MISMATCH, exc
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
