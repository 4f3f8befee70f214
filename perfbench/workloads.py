"""The benchmark's workloads, their inputs and their correctness checks.

A round is one image per method (bayes_slice, fixed_speed) or one
`sosbeam all` ping (pipeline); README.md says what each workload runs and
why. The input of the two image workloads is made as `sosbeam simulate`
and `sosbeam beamform` make it: the CLI writes the raw cube, which is read
back and chain-processed before timing starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sosbeam import beamform, chain, cli, config, core, cube, imaging_io, metrics

RMSE_GATE_DB = -100.0
# the functions `sosbeam all` calls one after another, each timed as a stage of a ping
STAGES = ("synthesize_rx", "write_cube", "quantize", "tvg", "demodulate", "matched_filter",
          "beamform_image", "_image_outputs", "cmd_metrics")
REFS = Path(__file__).resolve().parent / "refs"


@dataclass
class Inputs:
    config_path: Path
    cfg: config.RunConfig
    baseband: cube.BasebandCube


def prepare(work: Path, doc: dict) -> Inputs:
    """Write the config, simulate through the CLI, read the cube back, run the chain."""
    config_path = work / "config.json"
    config_path.write_text(json.dumps(doc))
    cube_path = work / "raw_cube.bin"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--config", str(config_path), "--out", str(cube_path)])
    if code != 0:
        raise RuntimeError(f"sosbeam simulate exited with {code}")
    cfg = config.load_config(config_path)
    raw = cube.read_cube(cube_path)
    data = chain.quantize(raw, cfg.chain.quantization_bits)
    data = chain.tvg(data, cfg.chain.tvg_speed, cfg.chain.tvg_variant, t_min=cfg.pulse.duration)
    data = chain.demodulate(data, cfg.pulse.center_frequency, cfg.chain.decimation)
    return Inputs(config_path, cfg, chain.matched_filter(data, cfg.pulse))


def digest(image) -> tuple:
    """SHA-256 of an image's complex values and of its flags."""
    values = np.ascontiguousarray(image.values, dtype=np.complex128)
    flags = np.ascontiguousarray(image.flags, dtype=np.uint8)
    return (hashlib.sha256(values.tobytes()).hexdigest(),
            hashlib.sha256(flags.tobytes()).hexdigest())


def band_grid(grid, start: int, rows: int):
    """Rows [start, start + rows) of a scan grid, as a grid of their own."""
    ys = grid.y_values()
    return core.ScanGrid(x_min=grid.x_min, x_max=grid.x_max, y_min=float(ys[start]),
                         y_max=float(ys[start + rows - 1]), n_x=grid.n_x, n_y=rows)


def middle_row(grid):
    """The one-row grid through the middle of a grid's range span."""
    return core.ScanGrid(x_min=grid.x_min, x_max=grid.x_max, y_min=grid.y_min,
                         y_max=grid.y_max, n_x=grid.n_x, n_y=1)


class BandWorkload:
    """Each round images the next band once with every method, one thread."""

    threads = 1

    def __init__(self, name, methods, ranges_m, rows):
        self.name = name
        self.methods = methods          # (label, method, n_quad)
        self.ranges_m = ranges_m        # range intervals whose rows are imaged
        self.rows = rows                # rows per band

    def config_doc(self, seed: int) -> dict:
        doc = config.default_config_dict()
        doc["simulation"]["rng_seed"] = seed
        return doc

    def bands(self, cfg):
        ys = cfg.grid.y_values()
        bands = []
        for lo, hi in self.ranges_m:
            index = np.flatnonzero((ys >= lo) & (ys <= hi))
            usable = index.size - index.size % self.rows
            bands += [band_grid(cfg.grid, int(i), self.rows)
                      for i in index[:usable:self.rows]]
        return bands

    def setup(self, inputs: Inputs):
        self.inputs = inputs
        self.grids = self.bands(inputs.cfg)
        self.configs = [inputs.cfg.beamformer(method, n_quad=n_quad)
                        for _, method, n_quad in self.methods]
        self.last = {}

    def warmup_grid(self):
        return middle_row(self.grids[0])

    def round(self, k: int, checker):
        """Image band k (cyclic) with every method; returns the image times by label."""
        band = k % len(self.grids)
        cfg = self.inputs.cfg
        times = {}
        for (label, _, _), bf_cfg in zip(self.methods, self.configs):
            key = f"{label}.b{band:02d}"
            start = time.perf_counter()
            try:
                image = beamform.beamform_image(self.inputs.baseband, self.grids[band], bf_cfg,
                                                cfg.geometry)
            except Exception as exc:  # a failed image is counted, the run goes on
                times[label] = time.perf_counter() - start
                checker.fail(key, f"raised {exc!r}")
                continue
            times[label] = time.perf_counter() - start
            checker.check(key, image)
            self.last[label] = image
        return times

    def pixels_per_image(self) -> int:
        return self.grids[0].n_x * self.grids[0].n_y

    def reference_images(self):
        """Every image of the workload, keyed as in the reference files."""
        for band in range(len(self.grids)):
            for (label, _, _), bf_cfg in zip(self.methods, self.configs):
                yield (f"{label}.b{band:02d}",
                       beamform.beamform_image(self.inputs.baseband, self.grids[band], bf_cfg,
                                               self.inputs.cfg.geometry))

    def check_outputs(self, work: Path, checker) -> None:
        """Write each method's last image as `sosbeam beamform` would; read the CSV back."""
        for label, image in self.last.items():
            db = metrics.envelope_db(image.values, image.grid)
            imaging_io.write_image_csv(work / f"{label}.csv", db)
            imaging_io.write_image_pgm(work / f"{label}.pgm", db,
                                       self.inputs.cfg.dynamic_range_db)
            back = imaging_io.read_image_csv(work / f"{label}.csv")
            if not np.array_equal(back.pixels, db.pixels):
                checker.problem(f"{label}.csv does not read back as the image it was written from")


class PipelineWorkload:
    """Each round is one `sosbeam all` ping with the row pool at nproc threads."""

    name = "pipeline"
    methods = (("das", "das", None), ("mvdr", "mvdr", None))

    def __init__(self, threads: int):
        self.threads = threads

    def config_doc(self, seed: int) -> dict:
        doc = config.default_config_dict()
        doc["simulation"]["rng_seed"] = seed
        doc["grid"]["n_x"] = 128
        doc["grid"]["n_y"] = 64
        doc["beamformers"] = {m: doc["beamformers"][m] for _, m, _ in self.methods}
        return doc

    def setup(self, inputs: Inputs):
        self.inputs = inputs
        self.out_dir = inputs.config_path.parent / "all"

    def warmup_grid(self):
        return middle_row(self.inputs.cfg.grid)

    def ping(self, threads: int):
        """Run `sosbeam all`; returns (exit code, the images it beamformed, stage times).

        For the ping, each function of STAGES that `sosbeam.cli` calls is
        rebound to a timed wrapper; its n-th call is stage `<name>.<n>`. The
        stages do not nest. A name cli no longer has is not timed.
        """
        images, stages, calls = [], {}, Counter()

        def timed(name, fn):
            def call(*args, **kwargs):
                key = f"{name}.{calls[name]}"
                calls[name] += 1
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                stages[key] = time.perf_counter() - start
                if name == "beamform_image":
                    images.append(result)
                return result
            return call

        argv = ["all", "--config", str(self.inputs.config_path), "--out-dir", str(self.out_dir),
                "--threads", str(threads)]
        bound = {name: getattr(cli, name) for name in STAGES if hasattr(cli, name)}
        for name, fn in bound.items():
            setattr(cli, name, timed(name, fn))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        finally:
            for name, fn in bound.items():
                setattr(cli, name, fn)
        return code, images, stages

    def round(self, k: int, checker):
        """One ping; returns its stage times and `other`, the rest of the ping."""
        start = time.perf_counter()
        try:
            code, images, stages = self.ping(self.threads)
            error = None if code == 0 else f"exit code {code}"
        except (Exception, SystemExit) as exc:  # a failed ping is counted, the run goes on
            images, stages, error = [], {}, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if error is not None:
            for label, _, _ in self.methods:
                checker.fail(label, error)
        for image in images:
            checker.check(image.method, image)
        stages["other"] = elapsed - sum(stages.values())
        return stages

    def pixels_per_image(self) -> int:
        return self.inputs.cfg.grid.n_x * self.inputs.cfg.grid.n_y

    def reference_images(self):
        _, images, _ = self.ping(1)
        for image in images:
            yield image.method, image

    def check_outputs(self, work: Path, checker) -> None:
        """Ping once at one thread: the images must equal the nproc-thread ones.

        Also reads each written CSV back against the image it came from.
        """
        before = checker.failed
        code, images, _ = self.ping(1)
        if code != 0:
            checker.problem(f"one-thread ping exited with {code}")
        for image in images:
            checker.check(image.method, image)
            db = metrics.envelope_db(image.values, image.grid)
            back = imaging_io.read_image_csv(self.out_dir / f"{image.method}.csv")
            if not np.array_equal(back.pixels, db.pixels):
                checker.problem(f"{image.method}.csv does not read back as its image")
        checker.notes.append(
            f"thread check: images at 1 thread {'match' if checker.failed == before else 'DIFFER FROM'}"
            f" those at {self.threads} threads")


def make(name: str, nproc: int):
    if name == "bayes_slice":
        return BandWorkload(name, (("bayes8", "bayes", 8), ("bayes32", "bayes", 32)),
                            ((31.0, 33.0), (39.0, 40.0)), rows=2)
    if name == "fixed_speed":
        return BandWorkload(name, (("das", "das", None), ("mvdr", "mvdr", None)),
                            ((0.0, float("inf")),), rows=32)
    if name == "pipeline":
        return PipelineWorkload(nproc)
    raise ValueError(f"unknown workload {name!r}")


class Checker:
    """Correctness of every image against the workload's reference.

    At the reference seed an image must be bit-identical to its reference
    or within RMSE_GATE_DB of the reference dB pixels. At any seed an image
    fails if it has non-finite pixels, flag counts other than the
    reference's, or differs from an earlier image of the same key in the run.
    """

    def __init__(self, workload: str, seed: int):
        ref = json.loads((REFS / f"{workload}.json").read_text())
        self.images = ref["images"]
        self.seed = seed
        self.gate = seed == ref["seed"]
        self.ref_seed = ref["seed"]
        self._db = np.load(REFS / f"{workload}_db.npz") if self.gate else None
        self.seen = {}
        self.attempted = self.failed = self.identical = 0
        self.worst_rmse_db = metrics.RMSE_FLOOR_DB
        self.problems = []
        self.notes = []

    def fail(self, key, reason):
        self.attempted += 1
        self.failed += 1
        self.problem(f"{key}: {reason}")

    def problem(self, text):
        if len(self.problems) < 20:
            self.problems.append(text)

    def check(self, key, image):
        self.attempted += 1
        reasons = []
        ref = self.images[key]
        if not np.isfinite(image.values).all():
            reasons.append("non-finite pixels")
        if image.flag_summary() != ref["flags"]:
            reasons.append(f"flags {image.flag_summary()} != reference {ref['flags']}")
        sha = digest(image)
        if self.seen.setdefault(key, sha) != sha:
            reasons.append("differs from an earlier image of the same key in this run")
        if self.gate:
            if sha == (ref["values_sha256"], ref["flags_sha256"]):
                self.identical += 1
            else:
                ref_db = metrics.DbImage(pixels=self._db[key].astype(float), grid=image.grid)
                err = metrics.rmse_db(metrics.envelope_db(image.values, image.grid), ref_db)
                self.worst_rmse_db = max(self.worst_rmse_db, err)
                if err > RMSE_GATE_DB:
                    reasons.append(f"rmse {err:.2f} dB against the reference")
        if reasons:
            self.failed += 1
            self.problem(f"{key}: {'; '.join(reasons)}")

    def summary(self) -> str:
        if not self.gate:
            return (f"reference gate skipped: references exist for seed {self.ref_seed} only; "
                    "finiteness, flag, repeat and thread checks ran")
        changed = self.attempted - self.failed - self.identical
        return (f"{self.identical} of {self.attempted} images bit-identical to the reference, "
                f"{changed} within the {RMSE_GATE_DB:g} dB RMSE gate")
