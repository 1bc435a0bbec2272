"""spfext benchmark runner.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload suites --seed 1 --seconds 60 --trace 0

Each pass runs in a fresh single-process worker, one after another: a
closed loop with one client.  An untraced run (`--trace 0`) measures
set-up, cold passes (empty cache directory) and warm passes (a fresh
process reading the cache the cold pass filled) and prints the
end-to-end metrics.  A traced run (`--trace 1`) pairs a plain cold pass
with a traced cold and warm pass and prints the per-layer metrics.
Every output is checked; the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  Details of the run,
including the environment, go to stderr and to .bench_run/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import layers
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_run"

SETUP_PROBES = 3
RUN_LIMIT_S = 170.0

# Pinned for every worker so that two commits are measured alike: one
# BLAS thread (the package is GIL-bound, and threads add noise on small
# blocks), fixed hashing, sources compiled in every worker rather than
# read from a bytecode cache, no cache directory from the caller.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
              "PYTHONDONTWRITEBYTECODE": "1"}


class BenchError(Exception):
    pass


def src_line_count() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((ROOT / "src").rglob("*.py")))


class Session:
    """Spawns workers for one run, one at a time, inside `workdir`."""

    def __init__(self, name: str, workload, seed: int, workdir: Path,
                 deadline: float):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.spawned = 0
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("SPFEXT_CACHE", "PYTHONPATH")}
        self.env.update(PINNED_ENV)
        self.env["TMPDIR"] = str(workdir)
        self.setups: list[float] = []       # reference seconds (pace.py)
        self.setup_walls: list[float] = []  # wall seconds from spawn
        self.versions: dict = {}

    def spawn(self, mode: str, cache: str | None = None, traced: bool = False,
              reverse: bool = False, paced: bool = False) -> dict:
        self.spawned += 1
        tag = f"{self.spawned:03d}-{mode}"
        spec_path = self.workdir / f"{tag}.spec.json"
        result_path = self.workdir / f"{tag}.result.json"
        trace_dir = WORK_ROOT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        spec = {"root": str(ROOT), "workload": asdict(self.workload),
                "seed": self.seed, "reverse": reverse, "mode": mode,
                "traced": traced, "paced": paced,
                "cache_dir": None if cache is None else str(self.workdir / cache),
                "result_path": str(result_path),
                "trace_path": str(trace_dir / f"{self.name}.{mode}.jsonl")}
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker ran past the run's time limit") from exc
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        # perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes
        self.setup_walls.append(result["setup_done"] - start)
        self.setups.append(result["setup_ref_s"])
        self.versions = result["versions"]
        return result


class Tally:
    """Checks attempted and failed over a run, the workers' and our own."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add_pass(self, label: str, result: dict) -> None:
        self.attempted += result["checks"]
        self.failures += [f"{label}: {f}" for f in result["failures"]]

    def same(self, label: str, got: dict, want: dict) -> None:
        self.attempted += 1
        if got["outputs"] != want["outputs"]:
            diff = sorted(k for k in set(got["outputs"]) | set(want["outputs"])
                          if got["outputs"].get(k) != want["outputs"].get(k))
            self.failures.append(f"{label}: outputs differ for {diff}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def measure(session: Session, seconds: float, traced: bool) -> tuple[dict, Tally, dict]:
    """Run rounds of passes for about `seconds`: at least one round, then
    each further worker only if one like the last of its kind still ends
    in time.  Return the metrics, the checks and the raw samples."""
    tally = Tally()
    samples: dict[str, list] = {"cold_s": [], "warm_s": [], "cold_ref_s": [],
                                "warm_ref_s": [], "peak_rss_mb": [],
                                "traced_cold_s": [], "cpu_s": [], "layers": []}
    if not traced:
        for _ in range(SETUP_PROBES):
            session.spawn("setup")
    start = time.perf_counter()
    took: dict[str, float] = {}

    def spawn(mode: str, cache: str, reverse: bool) -> dict:
        began = time.perf_counter()
        # untraced passes are paced: end-to-end times are reference seconds
        result = session.spawn(mode, cache=cache, reverse=reverse,
                               paced=not traced)
        took[mode] = time.perf_counter() - began
        return result

    def fits(kind: str) -> bool:
        """Would one more worker like the last of its kind end in time?"""
        return time.perf_counter() - start + took[kind] <= seconds

    first = None
    rounds = 0
    while rounds == 0 or fits("round" if traced else "cold"):
        round_start = time.perf_counter()
        # odd rounds run the seed's order backwards, so that any two suites
        # or tables meet in both orders within a run
        reverse = rounds % 2 == 1
        cold = spawn("cold", f"cache{rounds}", reverse)
        tally.add_pass(f"cold {rounds}", cold)
        first = first or cold
        tally.same(f"cold {rounds} vs cold 0", cold, first)
        samples["cold_s"].append(cold["seconds"])
        if not traced:
            samples["cold_ref_s"].append(cold["reference_s"])
            samples["cpu_s"].append(cold["cpu_s"])
        samples["peak_rss_mb"].append(cold["maxrss_kb"] / 1024)
        if traced:
            t_cold = session.spawn("cold", cache=f"traced{rounds}", traced=True,
                                   reverse=reverse)
            t_warm = session.spawn("warm", cache=f"traced{rounds}", traced=True,
                                   reverse=reverse)
            for label, res in (("traced cold", t_cold), ("traced warm", t_warm)):
                tally.add_pass(f"{label} {rounds}", res)
                tally.same(f"{label} {rounds} vs untraced", res, first)
            samples["traced_cold_s"].append(t_cold["seconds"])
            samples["cpu_s"].append(t_cold["cpu_s"] + t_warm["cpu_s"])
            samples["layers"].append(layers.merge(t_cold["layers"], t_warm["layers"]))
        elif rounds == 0 or fits("warm"):
            warm = spawn("warm", f"cache{rounds}", reverse)
            tally.add_pass(f"warm {rounds}", warm)
            tally.same(f"warm {rounds} vs cold", warm, cold)
            samples["warm_s"].append(warm["seconds"])
            samples["warm_ref_s"].append(warm["reference_s"])
        took["round"] = time.perf_counter() - round_start
        rounds += 1

    median = statistics.median
    pass_rate = (tally.attempted - tally.failed) / tally.attempted
    if not traced:
        values = {"setup_s": median(session.setups),
                  "cold_s": median(samples["cold_ref_s"]),
                  "warm_s": median(samples["warm_ref_s"]),
                  "peak_rss_mb": max(samples["peak_rss_mb"]),
                  "pass_rate": pass_rate}
    else:
        per_round = [layers.metrics(rows) for rows in samples["layers"]]
        values = {name: median(m[name] for m in per_round) for name in per_round[0]}
        values["proc.cpu_s"] = median(samples["cpu_s"])
        values["trace.overhead_ratio"] = median(
            t / c - 1 for t, c in zip(samples["traced_cold_s"], samples["cold_s"]))
        values["failure_rate"] = 1 - pass_rate
    return values, tally, samples


def declared_metrics(traced: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if traced else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spfext" / "__init__.py").is_file():
        print(f"no spfext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    declared = declared_metrics(traced)
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    session = Session(args.workload, WORKLOADS[args.workload], args.seed,
                      workdir, time.perf_counter() + RUN_LIMIT_S)
    try:
        values, tally, samples = measure(session, args.seconds, traced)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"metrics declared but not measured: {missing}", file=sys.stderr)
        return 1
    env = {"nproc": os.cpu_count(), **session.versions, **PINNED_ENV,
           "src_lines": src_line_count()}
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} env={env}",
          file=sys.stderr)
    for m in declared:
        print(f"  {m['name']:<36} {values[m['name']]:.6g} {m['unit']}",
              file=sys.stderr)
    details = {"args": vars(args), "env": env, "values": values,
               "samples": {k: v for k, v in samples.items() if k != "layers"},
               "setup_s": session.setups, "setup_wall_s": session.setup_walls,
               "failures": tally.failures}
    (WORK_ROOT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
