"""The benchmark's golden report digests, replayed at benchmark length.

``bench/workloads.py`` holds the sha256 of the emitted report of each
event-simulator workload at its recorded seed.  Each untraced benchmark run
replays that seed at the workload's length first and checks the digest; this
test does the same for both workloads, built as the benchmark builds them, so
a change that moves a report fails here too.
"""

import dataclasses
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from loraguard import metrics, scenario as scenario_mod, simulation

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module's annotations here
    spec.loader.exec_module(module)
    return module


bench = _bench_workloads()


@pytest.mark.parametrize("name", ["dcp_storm", "cluster_burst"])
def test_report_at_benchmark_length_matches_its_golden_digest(name):
    workload = bench.WORKLOADS[name]
    seed, ups = workload.recorded_seed, workload.ups
    scenario = scenario_mod.load_scenario(scenario_mod.shipped_scenario_path(workload.scenario))
    scenario = dataclasses.replace(scenario, seed=seed, stop=scenario_mod.StopSpec(ups=ups))
    text = metrics.emit_report(simulation.Simulation(scenario).run())
    assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
            == bench.GOLDEN_SHA256[(name, seed, ups)])
