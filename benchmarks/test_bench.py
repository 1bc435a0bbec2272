"""Self-tests of the benchmark runner.

Run from the root of a checkout with `python3 -m pytest benchmarks`.
They use degree-2 inputs, so the whole file takes a few seconds.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

import layers
import run
import worker
from pace import Pace
from spans import Tracer
from workloads import WORKLOADS, Suites, Tables, from_spec

ROOT = Path(__file__).resolve().parent.parent

# the degree-2 analogue of deg4_tables: slicing and flip checks on the two
# Schur targets, mirror pairs, and sweep independence
TINY = Tables(p=2, d=1, shapes=((2,), (1, 1)), mirror_targets=("S(2)", "G(2)"),
              sweeps=("dominance", "reversed"))


@pytest.fixture(scope="module")
def spfext():
    return worker.load_package(ROOT)


def test_tiny_case_through_the_runner(tmp_path):
    session = run.Session("tiny", Suites(names=("lemma22",)), seed=3,
                          workdir=tmp_path, deadline=time.perf_counter() + 120)
    values, tally, samples = run.measure(session, seconds=0, traced=False)
    assert tally.failures == []
    assert tally.attempted > 0
    assert len(samples["cold_s"]) == 1 and len(samples["warm_s"]) == 1
    assert len(session.setups) == run.SETUP_PROBES + 2
    assert all(values[name] > 0 for name in ("setup_s", "cold_s", "warm_s",
                                             "peak_rss_mb", "pass_rate"))


def test_traced_pass_restores_every_wrapped_name(spfext, tmp_path):
    sites = [(layers.owner(path), attr) for _, attr, owners in layers.SITES
             for path in owners]
    before = [vars(owner)[attr] for owner, attr in sites]
    spfext.homology.clear_resolution_memo()
    tracer = Tracer()
    layers.install(tracer)
    assert all(vars(owner)[attr] is not orig
               for (owner, attr), orig in zip(sites, before))
    result = worker.run_pass(TINY, TINY.items(0), str(tmp_path), tracer)
    tracer.restore()
    assert result["failures"] == []
    assert all(vars(owner)[attr] is orig
               for (owner, attr), orig in zip(sites, before))
    values = layers.metrics(layers.summarize(tracer))
    assert values["homology.resolve_calls"] >= 1
    assert values["cache.bytes_written"] > 0
    assert values["young.oracle_s"] > 0


def test_seed_permutes_order_but_not_tables(spfext, tmp_path):
    orders = [TINY.items(seed) for seed in range(4)]
    assert all(sorted(order) == sorted(orders[0]) for order in orders)
    assert len({tuple(map(tuple, order)) for order in orders}) > 1
    outputs = []
    for seed, order in enumerate(orders[:2]):
        spfext.homology.clear_resolution_memo()
        result = worker.run_pass(TINY, order, str(tmp_path / f"cache{seed}"))
        assert result["failures"] == []
        outputs.append(result["outputs"])
    assert outputs[0] == outputs[1]


def test_pace_probes_a_pass_and_leaves_probe_time_out():
    with Pace() as pace:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(pace.probes) >= 3
    assert 0 < pace.wall_s < pace.end - pace.start
    assert 0 < pace.cpu_s < pace.cpu_end - pace.cpu_start
    assert pace.reference_s > 0


def test_workload_specs_round_trip():
    for workload in list(WORKLOADS.values()) + [TINY]:
        assert from_spec(json.loads(json.dumps(asdict(workload)))) == workload


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "suites", "--seed", "0", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
