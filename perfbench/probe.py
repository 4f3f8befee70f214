"""Set-up probe: the set-up cost one fresh interpreter pays before imaging.

Times `import sosbeam` (which imports numpy and scipy), `parse_config`, and
one warm-up row per method of the workload. Loading the input is not timed.
Takes one JSON argument from run.py and prints one JSON line of seconds.
"""

import json
import sys
import time


def main(spec: dict) -> None:
    with open(spec["config"]) as fh:
        doc = json.load(fh)
    start = time.perf_counter()
    sys.path.insert(0, spec["src"])
    import sosbeam
    from sosbeam.config import parse_config
    imported = time.perf_counter()
    cfg = parse_config(doc)
    parsed = time.perf_counter()

    import numpy as np
    with np.load(spec["baseband"]) as z:
        baseband = sosbeam.BasebandCube(samples=z["samples"], sample_rate=float(z["sample_rate"]),
                                        carrier=float(z["carrier"]),
                                        decimation=int(z["decimation"]),
                                        time_origin=float(z["time_origin"]))
    grid = sosbeam.ScanGrid(**spec["grid"])
    loaded = time.perf_counter()
    for method, n_quad in spec["methods"]:
        sosbeam.beamform_image(baseband, grid, cfg.beamformer(method, n_quad=n_quad),
                               cfg.geometry)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "parse_s": parsed - imported,
                      "warmup_s": done - loaded}))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
