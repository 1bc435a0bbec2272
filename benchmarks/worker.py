"""One pass of a workload in a fresh process.

Usage: python3 benchmarks/worker.py SPEC.json

The spec names the checkout root, the workload (as data), the seed and
whether to run its order backwards, the mode (`setup` only imports and
builds inputs; `cold` and `warm` run the pass against the given cache
directory), whether to trace, and where to write the result.  The
package is imported from the checkout's `src/` and from nowhere else.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import layers
from pace import Pace, speed_now
from spans import Tracer
from workloads import Outcome, from_spec


def load_package(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import spfext
    import spfext.cli  # noqa: F401  (set-up pays for every module)

    if not Path(spfext.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"spfext came from {spfext.__file__}, not {src}")
    return spfext


def run_pass(workload, items, cache_dir: str, tracer: Tracer | None = None,
             paced: bool = False) -> dict:
    """Run and check one pass; the clock covers the first library call to
    the last verified result.  A paced pass also reports its time in
    reference seconds (see pace.py)."""
    cpu0 = time.process_time()
    with Pace() if paced else contextlib.nullcontext() as pace:
        start = time.perf_counter()
        try:
            with tracer.root("bench.pass") if tracer else contextlib.nullcontext():
                outcome = workload.run(items, cache_dir)
        except Exception:
            traceback.print_exc()
            outcome = Outcome()
            outcome.check(False, "the pass raised an exception")
        seconds = time.perf_counter() - start
    result = {"seconds": seconds, "cpu_s": time.process_time() - cpu0,
              "outputs": outcome.outputs, "checks": outcome.checks,
              "failures": outcome.failures}
    if pace is not None:
        result.update(seconds=pace.wall_s, cpu_s=pace.cpu_s,
                      reference_s=pace.reference_s, probes=len(pace.probes))
    return result


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    load_package(Path(spec["root"]))
    workload = from_spec(spec["workload"])
    items = workload.items(spec["seed"])
    if spec["reverse"]:
        items.reverse()
    tracer = None
    if spec["traced"]:
        tracer = Tracer()
        layers.install(tracer)
    result = {"setup_done": time.perf_counter()}
    # set-up in reference seconds: the process's CPU seconds so far, from
    # interpreter start to inputs built, at the core's speed right now
    result["setup_ref_s"] = time.process_time() * speed_now()
    if spec["mode"] != "setup":
        result.update(run_pass(workload, items, spec["cache_dir"], tracer,
                               paced=spec["paced"]))
    if tracer is not None:
        tracer.restore()
        result["layers"] = layers.summarize(tracer)
        tracer.write(spec["trace_path"], spec["mode"])

    import numpy
    import scipy

    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    tmp = spec["result_path"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(tmp, spec["result_path"])


if __name__ == "__main__":
    main(sys.argv[1])
