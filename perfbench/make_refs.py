"""Make the reference images of the workloads at the default seed.

    python3 perfbench/make_refs.py [workload ...]

Writes refs/<workload>.json (SHA-256 of every image's complex values and
flags, and its flag counts) and refs/<workload>_db.npz (its dB pixels as
float32). The references pin the images of the commit they were made on;
later runs are checked against them, so remake them only on purpose.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(names) -> int:
    if not run.use_checkout():
        return 2
    import numpy as np

    import workloads
    from sosbeam.metrics import envelope_db

    workloads.REFS.mkdir(exist_ok=True)
    for name in names or run.WORKLOADS:
        workload = workloads.make(name, len(os.sched_getaffinity(0)))
        work = run.WORK / f"refs-{name}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            workload.setup(workloads.prepare(work, workload.config_doc(run.DEFAULT_SEED)))
            images, pixels = {}, {}
            for key, image in workload.reference_images():
                values_sha, flags_sha = workloads.digest(image)
                images[key] = {"values_sha256": values_sha, "flags_sha256": flags_sha,
                               "flags": image.flag_summary()}
                pixels[key] = envelope_db(image.values, image.grid).pixels.astype(np.float32)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        doc = {"seed": run.DEFAULT_SEED, "images": images}
        (workloads.REFS / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
        np.savez_compressed(workloads.REFS / f"{name}_db.npz", **pixels)
        print(f"{name}: {len(images)} reference images")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
