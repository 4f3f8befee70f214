"""Where the traced run hooks the program, and the per-layer metrics it reports.

Each hook sits on a function through which one layer calls the next. The
span name's prefix is the layer; the counts come from each call's arguments
and result, never from inside the program.
"""

from __future__ import annotations

import os
import re
import sys

import numpy as np


def _file_bytes(args, kwargs, result, elapsed):
    return {"bytes": os.path.getsize(args[0])}


def _raw_samples(args, kwargs, result, elapsed):
    return {"samples": args[0].samples.size}


def _sample_rows(args, kwargs, result, elapsed):
    values, valid = result
    taps = getattr(sys.modules.get("sosbeam.interp"), "TAPS", 8)
    return {"samples": valid.size, "valid": int(np.count_nonzero(valid)),
            "gather_bytes": valid.size * taps * values.itemsize}


def _pixels(args, kwargs, result, elapsed):
    return {"pixels": result[-1].size}


def _cov_flops(args, kwargs, result, elapsed):
    imager = args[0]
    length = imager.cfg.subarray_length
    # complex L x n_sub by n_sub x L product: 8 real flops per multiply-add
    return {"flops": result[0].size * 8 * length * length * imager.n_sub}


def _solve_matrices(args, kwargs, result, elapsed):
    a = np.asarray(args[0])
    return {"matrices": a.size // (a.shape[-1] * a.shape[-2])}


def _image(args, kwargs, result, elapsed):
    threads = kwargs.get("threads", args[4] if len(args) > 4 else 1)
    counts = {"thread_capacity_s": elapsed * max(int(threads), 1)}
    counts.update({f"flags_{k}": v for k, v in result.flag_summary().items()})
    return counts


HOOKS = (
    ("sosbeam.cli:main", "cli.main", None),
    ("sosbeam.config:parse_config", "config.parse_config", None),
    ("sosbeam.simulate:synthesize_rx", "simulate.synthesize_rx", None),
    ("sosbeam.interp:place_fractional", "interp.place_fractional", None),
    ("sosbeam.chain:quantize", "chain.quantize", _raw_samples),
    ("sosbeam.chain:tvg", "chain.tvg", None),
    ("sosbeam.chain:demodulate", "chain.demodulate", None),
    ("sosbeam.chain:matched_filter", "chain.matched_filter", None),
    ("sosbeam.cube:write_cube", "cube.write_cube", _file_bytes),
    ("sosbeam.cube:read_cube", "cube.read_cube", None),
    ("sosbeam.imaging_io:write_image_csv", "imaging_io.write_image_csv", _file_bytes),
    ("sosbeam.imaging_io:read_image_csv", "imaging_io.read_image_csv", None),
    ("sosbeam.imaging_io:write_image_pgm", "imaging_io.write_image_pgm", _file_bytes),
    ("sosbeam.metrics:envelope_db", "metrics.envelope_db", None),
    ("sosbeam.metrics:fwhm_of_image", "metrics.fwhm_of_image", None),
    ("sosbeam.metrics:pmal", "metrics.pmal", None),
    ("sosbeam.metrics:rmse_db", "metrics.rmse_db", None),
    ("sosbeam.core:travel_times", "core.travel_times", None),
    ("sosbeam.interp:delay_kernel", "interp.delay_kernel", None),
    ("sosbeam.interp:sample_rows", "interp.sample_rows", _sample_rows),
    ("sosbeam.covariance:_sample_at_times", "covariance._sample_at_times", None),
    ("sosbeam.beamform:beamform_image", "beamform.beamform_image", _image),
    ("sosbeam.beamform:_Imager.row", "beamform.row", None),
    ("sosbeam.beamform:_Imager.delayed_snapshots", "beamform.delayed_snapshots", _pixels),
    ("sosbeam.beamform:_Imager.das", "beamform.das", None),
    ("sosbeam.beamform:_Imager.mvdr_node", "beamform.mvdr_node", _cov_flops),
    ("sosbeam.beamform:_Imager.bayes", "beamform.bayes", None),
    ("sosbeam.beamform:posterior_weights", "beamform.posterior", None),
    ("sosbeam.beamform:_solve_rows", "beamform.solve_retry", None),
    ("numpy.linalg:solve", "beamform.solve", _solve_matrices),
)

def install(tracer) -> None:
    for target, name, info in HOOKS:
        tracer.hook(target, name, info)


def dropped_arrivals(caught) -> int:
    """Arrivals the simulator reported dropping through SimulationWarning."""
    total = 0
    for w in caught:
        if w.category.__name__ == "SimulationWarning":
            match = re.match(r"(\d+) arrivals", str(w.message))
            total += int(match.group(1)) if match else 0
    return total


def per_layer(stats, accounting, setup, overhead_ratio, dropped):
    """The per-layer metric values of one traced run, named as in BENCHMARK.json."""
    def incl(name):
        return stats[name]["incl"] if name in stats else 0.0

    def self_of(name):
        return stats[name]["self"] if name in stats else 0.0

    def count(name):
        return stats[name]["count"] if name in stats else 0

    def info(name, key):
        return stats[name]["info"].get(key, 0) if name in stats else 0

    def layer_self(layer, exclude=()):
        return sum(st["self"] for name, st in stats.items()
                   if name.split(".", 1)[0] == layer and name not in exclude)

    samples = info("interp.sample_rows", "samples")
    rows = count("beamform.row")
    busy_capacity = info("beamform.beamform_image", "thread_capacity_s")
    return {
        "init.import_s": setup["import_s"],
        "config.parse_s": setup["parse_s"],
        "simulate.synthesize_s": incl("simulate.synthesize_rx"),
        "simulate.arrivals": count("interp.place_fractional"),
        "simulate.dropped_arrivals": dropped,
        "chain.quantize_s": incl("chain.quantize"),
        "chain.tvg_s": incl("chain.tvg"),
        "chain.demodulate_s": incl("chain.demodulate"),
        "chain.matched_filter_s": incl("chain.matched_filter"),
        "chain.raw_samples": info("chain.quantize", "samples"),
        "cube.write_s": incl("cube.write_cube"),
        "cube.bytes": info("cube.write_cube", "bytes"),
        "imaging_io.write_csv_s": incl("imaging_io.write_image_csv"),
        "imaging_io.read_csv_s": incl("imaging_io.read_image_csv"),
        "imaging_io.write_pgm_s": incl("imaging_io.write_image_pgm"),
        "imaging_io.bytes": (info("imaging_io.write_image_csv", "bytes")
                             + info("imaging_io.write_image_pgm", "bytes")),
        "metrics.self_s": layer_self("metrics"),
        "cli.self_s": layer_self("cli"),
        "core.travel_times_s": incl("core.travel_times"),
        "core.travel_times_calls": count("core.travel_times"),
        "interp.delay_kernel_s": incl("interp.delay_kernel"),
        "interp.gather_s": self_of("interp.sample_rows"),
        "interp.samples": samples,
        "interp.valid_frac": info("interp.sample_rows", "valid") / samples if samples else 0.0,
        "interp.gather_mb": info("interp.sample_rows", "gather_bytes") / 1e6,
        "covariance.rotate_s": self_of("covariance._sample_at_times"),
        "beamform.self_s": layer_self("beamform", ("beamform.solve", "beamform.posterior")),
        "beamform.solve_s": incl("beamform.solve"),
        "beamform.solve_matrices": info("beamform.solve", "matrices"),
        "beamform.solve_retries": count("beamform.solve_retry"),
        "beamform.pixel_nodes": info("beamform.delayed_snapshots", "pixels"),
        "beamform.calls_per_row": count("beamform.delayed_snapshots") / rows if rows else 0.0,
        "beamform.cov_gflop": info("beamform.mvdr_node", "flops") / 1e9,
        "beamform.flags_singular": info("beamform.beamform_image", "flags_singular"),
        "beamform.flags_fallback": info("beamform.beamform_image", "flags_posterior_fallback"),
        "beamform.flags_out_of_record": info("beamform.beamform_image", "flags_out_of_record"),
        "beamform.thread_busy_frac": incl("beamform.row") / busy_capacity if busy_capacity else 0.0,
        "trace.unattributed_s": accounting["unattributed_s"],
        "trace.overhead_ratio": overhead_ratio,
    }
