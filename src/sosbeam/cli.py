"""Command-line entry point: simulate, beamform, metrics, or the whole pipeline.

Each subcommand reads the same JSON run configuration; intermediate artifacts
(raw cube, per-method images) are ordinary files so any stage can be re-run
or inspected on its own.

Exit codes: 0 success, 1 invalid configuration, 2 usage or missing file,
3 data/config mismatch (cube header or image grids).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .beamform import METHOD_BAYES, METHOD_DAS, METHOD_MVDR, beamform_image
from .chain import receive_chain
from .config import ConfigError, RunConfig, default_config_dict, load_config
from .cube import CubeFormatError, RawDataCube, read_cube, write_cube
from .imaging_io import read_image_csv, write_image_csv, write_image_pgm
from .metrics import MetricsReport, envelope_db, fwhm_of_image, pmal, rmse_db
from .simulate import enumerate_paths, synthesize_rx

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3

THREADS_ENV = "SOSBEAM_THREADS"


def _thread_count(args) -> int:
    if args.threads is not None:
        return max(args.threads, 1)
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return max(int(env), 1)
        except ValueError:
            print(f"warning: ignoring non-integer {THREADS_ENV}={env!r}", file=sys.stderr)
    return 1


def _load_config_or_exit(path: str) -> RunConfig:
    if not Path(path).is_file():
        print(f"error: config file not found: {path}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        return load_config(path)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _print_arrival_table(cfg: RunConfig) -> None:
    geom = cfg.geometry
    tx = (geom.source_x, 0.0, geom.source_depth)
    rx = (geom.center_x, 0.0, geom.array_depth)
    print(f"{'target':>8} {'tx path':>16} {'rx path':>16} {'delay [ms]':>12} "
          f"{'amplitude':>12} {'app. range [m]':>15}")
    for i, target in enumerate(cfg.targets):
        for a in enumerate_paths(tx, target, rx, cfg.environment):
            app_range = 0.5 * a.delay * cfg.chain.tvg_speed
            print(f"{i:>8d} {a.tx_kind:>16} {a.rx_kind:>16} {1e3 * a.delay:>12.4f} "
                  f"{a.amplitude:>12.4e} {app_range:>15.2f}")


def cmd_simulate(args) -> int:
    cfg = _load_config_or_exit(args.config)
    cube = synthesize_rx(cfg.targets, cfg.geometry, cfg.pulse, cfg.environment,
                         cfg.simulation)
    write_cube(args.out, cube)
    _print_arrival_table(cfg)
    print(f"wrote {cube.n_sensors} x {cube.n_samples} raw cube to {args.out}")
    return EXIT_OK


def _run_chain(cfg: RunConfig, cube: RawDataCube, threads: int):
    chain = cfg.chain
    return receive_chain(cube, cfg.pulse, chain.quantization_bits, chain.tvg_speed,
                         chain.tvg_variant, chain.decimation, threads=threads)


def _load_cube_or_exit(cfg: RunConfig, path: str) -> RawDataCube:
    if not Path(path).is_file():
        print(f"error: data file not found: {path}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        cube = read_cube(path)
    except CubeFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_MISMATCH)
    if not isinstance(cube, RawDataCube):
        print(f"error: {path} is not a raw cube", file=sys.stderr)
        raise SystemExit(EXIT_MISMATCH)
    if cube.n_sensors != cfg.geometry.n_sensors:
        print(f"error: cube holds {cube.n_sensors} sensors, config expects "
              f"{cfg.geometry.n_sensors}", file=sys.stderr)
        raise SystemExit(EXIT_MISMATCH)
    if cube.sample_rate != cfg.simulation.sample_rate:
        print(f"error: cube sample rate {cube.sample_rate} Hz, config expects "
              f"{cfg.simulation.sample_rate} Hz", file=sys.stderr)
        raise SystemExit(EXIT_MISMATCH)
    return cube


def _image_outputs(prefix: str, image, cfg: RunConfig) -> None:
    db_img = envelope_db(image.values, image.grid)
    write_image_csv(f"{prefix}.csv", db_img)
    write_image_pgm(f"{prefix}.pgm", db_img, cfg.dynamic_range_db)
    report = {"method": image.method, "flags": image.flag_summary()}
    with open(f"{prefix}_flags.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_beamform(args) -> int:
    cfg = _load_config_or_exit(args.config)
    raw = _load_cube_or_exit(cfg, args.data)
    try:
        bf_cfg = cfg.beamformer(args.method, n_quad=args.n_quad)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    threads = _thread_count(args)
    baseband = _run_chain(cfg, raw, threads)
    image = beamform_image(baseband, cfg.grid, bf_cfg, cfg.geometry, threads=threads)
    _image_outputs(args.out, image, cfg)
    print(f"wrote {args.out}.csv / .pgm ({image.method}, "
          f"{cfg.grid.n_y} x {cfg.grid.n_x} pixels)")
    return EXIT_OK


def cmd_metrics(args) -> int:
    cfg = _load_config_or_exit(args.config)
    images = {}
    for path in args.images:
        if not Path(path).is_file():
            print(f"error: image file not found: {path}", file=sys.stderr)
            return EXIT_USAGE
        try:
            images[Path(path).stem] = read_image_csv(path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    grids = {name: img.grid for name, img in images.items()}
    first = next(iter(grids.values()))
    for name, grid in grids.items():
        if grid != first:
            print(f"error: image {name} uses a different grid", file=sys.stderr)
            return EXIT_MISMATCH
    report = MetricsReport(boxes={"target_box": cfg.target_box.to_dict(),
                                  "artifact_box": cfg.artifact_box.to_dict()})
    for name, img in images.items():
        try:
            report.fwhm_m[name] = fwhm_of_image(img, cfg.target_box,
                                                cfg.fwhm_convention)
        except ValueError as exc:
            report.fwhm_m[name] = None
            print(f"warning: FWHM undefined for {name}: {exc}", file=sys.stderr)
        report.pmal_db[name] = pmal(img, cfg.target_box, cfg.artifact_box)
    names = sorted(images)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            report.rmse_db[f"{a}/{b}"] = rmse_db(images[a], images[b])
    report.write(args.out)
    print(report.to_json())
    return EXIT_OK


def cmd_all(args) -> int:
    cfg = _load_config_or_exit(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    cube_path = out_dir / "raw_cube.bin"
    threads = _thread_count(args)
    cube = synthesize_rx(cfg.targets, cfg.geometry, cfg.pulse, cfg.environment,
                         cfg.simulation, threads=threads)
    write_cube(cube_path, cube)
    _print_arrival_table(cfg)

    baseband = _run_chain(cfg, cube, threads)
    jobs = []
    if METHOD_DAS in cfg.beamformers:
        jobs.append(("das", cfg.beamformer(METHOD_DAS)))
    if METHOD_MVDR in cfg.beamformers:
        jobs.append(("mvdr", cfg.beamformer(METHOD_MVDR)))
    if METHOD_BAYES in cfg.beamformers:
        base = cfg.beamformer(METHOD_BAYES)
        jobs.append((f"bayes_q{base.n_quad}", base))
        if base.n_quad != 32:
            jobs.append(("bayes_q32", cfg.beamformer(METHOD_BAYES, n_quad=32)))

    image_paths = []
    for name, bf_cfg in jobs:
        image = beamform_image(baseband, cfg.grid, bf_cfg, cfg.geometry,
                               threads=threads)
        prefix = out_dir / name
        _image_outputs(str(prefix), image, cfg)
        image_paths.append(str(prefix) + ".csv")
        print(f"beamformed {name}")

    metrics_args = argparse.Namespace(config=args.config, images=image_paths,
                                      out=str(out_dir / "metrics.json"))
    return cmd_metrics(metrics_args)


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
    p.add_argument("--method", required=True,
                   choices=[METHOD_DAS, METHOD_MVDR, METHOD_BAYES])
    p.add_argument("--n-quad", type=int, default=None,
                   help="override the configured quadrature node count (bayes)")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_beamform)

    p = sub.add_parser("metrics", help="evaluate beamformed images")
    p.add_argument("--config", required=True)
    p.add_argument("images", nargs="+", help="image CSV files")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("all", help="simulate, beamform every method, evaluate")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_all)

    p = sub.add_parser("init-config", help="write the default configuration")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
