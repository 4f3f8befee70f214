"""sosbeam benchmark: one workload, one run.

    python3 perfbench/run.py --workload {bayes_slice,fixed_speed,pipeline}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout; the program is imported from its `src/`. Prints a
report, then, as its last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. perfbench/README.md
defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("bayes_slice", "fixed_speed", "pipeline")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
DEFAULT_SEED = 20240901     # the default scene's seed; the references are made with it
TRACE_CALIBRATION = 1 / 3   # share of a traced run spent on untraced rounds


def contract_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="sosbeam benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="simulation.rng_seed; references exist for the default")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail(samples):
    """The highest percentile with at least 10 samples above it: (value, percentile)."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    i = len(ordered) - 11
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def provenance(nproc, row_threads):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "nproc": nproc,
            "row_threads": row_threads, "thread_env": {v: os.environ[v] for v in THREAD_VARS}}


def setup_probes(workload, inputs, work):
    """Median set-up times of SETUP_PROBES fresh interpreters, run one after another."""
    import numpy as np
    bb = inputs.baseband
    np.savez(work / "baseband.npz", samples=bb.samples, sample_rate=bb.sample_rate,
             carrier=bb.carrier, decimation=bb.decimation, time_origin=bb.time_origin)
    grid = workload.warmup_grid()
    spec = {"src": str(ROOT / "src"), "config": str(inputs.config_path),
            "baseband": str(work / "baseband.npz"),
            "grid": {k: getattr(grid, k) for k in ("x_min", "x_max", "y_min", "y_max", "n_x", "n_y")},
            "methods": [[method, n_quad] for _, method, n_quad in workload.methods]}
    runs = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(HERE / "probe.py"), json.dumps(spec)],
                             capture_output=True, text=True, timeout=120, check=True)
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    setup = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
    setup["setup_s"] = statistics.median(sum(r.values()) for r in runs)
    return setup


def measure(workload, checker, seconds, k, span=None):
    """Closed-loop rounds for `seconds`; returns (per-round times by label, next k)."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        with span("bench.round") if span else contextlib.nullcontext():
            rounds.append(workload.round(k, checker))
        k += 1
    return rounds, k


def line(name, value, unit, note=""):
    return f"{name:<28} {value:>14.6g} {unit:<9} {note}".rstrip()


def end_to_end(workload, rounds, setup):
    """The end-to-end metrics of one untraced run, and the report lines.

    A round is made of stages: one image per method, or the steps of one
    ping. Throughput divides the pixels of a round by the sum of each
    stage's fastest time in the run. On shared machines the speed flips
    between an uncontended and a ~1.5x slower contended state for a second
    or a few at a time; a stage (5 ms to 0.5 s) meets an uncontended stretch
    in nearly every 30 s run, a whole 1 s ping far less often, and the
    median moves with the neighbours' duty cycle. The fastest round and
    the median are reported beside it. The tail is not in BENCHMARK.json:
    it measures the contended state.
    """
    round_times = [sum(r.values()) for r in rounds]
    n = len(round_times)
    p50 = statistics.median(round_times)
    tail_s, pct = tail(round_times)
    fastest = {}
    for r in rounds:
        for stage, seconds in r.items():
            fastest[stage] = min(fastest.get(stage, seconds), seconds)
    best = sum(fastest.values())
    pixels = workload.pixels_per_image()
    per_round = pixels * len(workload.methods)
    values = {
        "setup_s": setup["setup_s"],
        "pix_s": per_round / best,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = [
        line("setup_s", values["setup_s"], "s",
             f"median of {SETUP_PROBES} fresh interpreters: import {setup['import_s']:.4f} s, "
             f"parse_config {setup['parse_s']:.6f} s, warm-up row {setup['warmup_s']:.4f} s"),
        line("pix_s", values["pix_s"], "pixels/s",
             f"{per_round} pixels / {best:.6g} s, the fastest of each of {len(fastest)} stages "
             f"over {n} rounds; {per_round / min(round_times):.6g} at the fastest round, "
             f"{per_round / p50:.6g} at the median"),
        line("round_tail_s", tail_s, "s", f"p{pct:.0f} of {n} rounds; median {p50:.6g} s"),
        line("peak_rss_mb", values["peak_rss_mb"], "MB", "ru_maxrss of the workload process"),
    ]
    if workload.name == "pipeline":
        report += [line("pipeline_p50_s", p50, "s", f"median of {n} pings"),
                   line("pipeline_tail_s", tail_s, "s", f"p{pct:.0f} of {n} pings")]
    else:
        for label, _, _ in workload.methods:
            times = [r[label] for r in rounds]
            report.append(line(f"{label}_pix_s", pixels / min(times), "pixels/s",
                               f"{pixels} pixels / fastest of {n} images; "
                               f"{pixels / statistics.median(times):.6g} at the median"))
    return values, report


def run_traced(workload, checker, seconds, work, doc, setup):
    import layers
    import spans
    import workloads

    calibration, k = measure(workload, checker, seconds * TRACE_CALIBRATION, 1)
    tracer = spans.Tracer()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        layers.install(tracer)
        try:
            with tracer.span("bench.run"):
                with tracer.span("bench.prep"):
                    workload.setup(workloads.prepare(work, doc))
                with tracer.span("bench.measure"):
                    traced, _ = measure(workload, checker, seconds * (1 - TRACE_CALIBRATION), k,
                                        tracer.span)
                with tracer.span("bench.check"):
                    workload.check_outputs(work, checker)
        finally:
            tracer.unhook_all()
    stats, accounting = spans.analyze(tracer.spans, "bench.run")
    overhead = (statistics.median(sum(r.values()) for r in traced)
                / statistics.median(sum(r.values()) for r in calibration))
    values = layers.per_layer(stats, accounting, setup, overhead,
                              layers.dropped_arrivals(caught))
    report = [line(name, values[name], unit) for name, unit in contract_units(1).items()]
    posterior = stats["beamform.posterior"]["incl"] if "beamform.posterior" in stats else 0.0
    report.append(line("beamform.posterior_s", posterior, "s", "reported here only"))
    report.append(f"trace: {len(tracer.spans)} spans, {len(traced)} traced rounds against "
                  f"{len(calibration)} untraced; overhead ratio {overhead:.4f}")
    report.append(f"accounting: wall {accounting['wall_s']:.6f} s = layers + unattributed "
                  f"{accounting['unattributed_s']:.6f} s (residual {accounting['residual_s']:.3g} s, "
                  f"{'ok' if accounting['ok'] else 'FAILED'})")
    for layer, seconds_in in accounting["layers_s"].items():
        report.append(f"  {layer:<12} {seconds_in:>12.6f} s  "
                      f"{100 * seconds_in / accounting['wall_s']:6.2f} %")
    if tracer.absent:
        report.append(f"absent hooks (layer not measured): {', '.join(tracer.absent)}")
    path = WORK / "traces" / f"{workload.name}-seed{checker.seed}.json.gz"
    tracer.write(path)
    report.append(f"spans written to {path.relative_to(ROOT)}")
    return values, report, accounting["ok"] and tracer.open_spans() == 0


def use_checkout() -> bool:
    """Pin BLAS/OpenMP to one thread and import sosbeam from this checkout's src/."""
    if not (ROOT / "src" / "sosbeam" / "__init__.py").is_file():
        print(f"error: no sosbeam package under {ROOT / 'src'}", file=sys.stderr)
        return False
    # the BLAS reads its thread count when numpy loads, so pin it before any import
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout():
        return 2
    import workloads

    nproc = len(os.sched_getaffinity(0))
    workload = workloads.make(args.workload, nproc)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        doc = workload.config_doc(args.seed)
        workload.setup(workloads.prepare(work, doc))
        checker = workloads.Checker(workload.name, args.seed)
        setup = setup_probes(workload, workload.inputs, work)
        workload.round(0, checker)  # warm-up, checked but not timed
        if args.trace:
            values, report, trace_ok = run_traced(workload, checker, args.seconds, work, doc, setup)
        else:
            rounds, _ = measure(workload, checker, args.seconds, 1)
            workload.check_outputs(work, checker)
            values, report = end_to_end(workload, rounds, setup)
            trace_ok = True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("provenance " + json.dumps(provenance(nproc, workload.threads)))
    for text in report:
        print(text)
    gate = checker.summary()
    print(f"image_rmse_db {checker.worst_rmse_db:g} dB; {gate}" if checker.gate
          else f"image_rmse_db not measured; {gate}")
    print(f"failed_frac {checker.failed / max(checker.attempted, 1):g} "
          f"({checker.failed} of {checker.attempted} images)")
    for note in checker.notes + checker.problems:
        print(note)
    correct = checker.failed == 0 and not checker.problems and trace_ok
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in contract_units(args.trace).items()}
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
