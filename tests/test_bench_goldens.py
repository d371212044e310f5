"""The benchmark's golden report digests and layer boundaries, checked here.

``bench/workloads.py`` holds the sha256 of the emitted report of each
event-simulator workload at its recorded seed.  Each untraced benchmark run
replays that seed at the workload's length first and checks the digest; this
test does the same for both workloads, built as the benchmark builds them, so
a change that moves a report fails here too.

``bench/tracer.py`` wraps the functions and methods its ``BOUNDARIES`` name,
and only warns about one it cannot find, so a change that removes one fails
here instead.
"""

import dataclasses
import hashlib
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from loraguard import metrics, scenario as scenario_mod, simulation

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module's annotations here
    spec.loader.exec_module(module)
    return module


bench = _bench_module("workloads")

# The boundaries whose code is gone; the tracer warns about each and traces
# nothing there.  The next change to bench/ drops them from BOUNDARIES and
# empties this set.
DEAD_BOUNDARIES = {
    "engine.Engine.run_while",
    "phy.DutyCycleLedger.check",
    "phy.DutyCycleLedger.record",
    "device.EndDevice.apply_dcp",
    "server.NetworkServer.on_uplink",
    "server.NetworkServer.dcp_for",
}


@pytest.mark.parametrize("name", ["dcp_storm", "cluster_burst"])
def test_report_at_benchmark_length_matches_its_golden_digest(name):
    workload = bench.WORKLOADS[name]
    seed, ups = workload.recorded_seed, workload.ups
    scenario = scenario_mod.load_scenario(scenario_mod.shipped_scenario_path(workload.scenario))
    scenario = dataclasses.replace(scenario, seed=seed, stop=scenario_mod.StopSpec(ups=ups))
    text = metrics.emit_report(simulation.Simulation(scenario).run())
    assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
            == bench.GOLDEN_SHA256[(name, seed, ups)])


def test_every_tracer_boundary_resolves_but_the_known_dead_ones():
    unresolved = set()
    for module_name, path, _span, _outcome in _bench_module("tracer").BOUNDARIES:
        target = importlib.import_module(f"loraguard.{module_name}")
        for attr in path.split("."):
            target = getattr(target, attr, None)
        if target is None:
            unresolved.add(f"{module_name}.{path}")
    assert unresolved == DEAD_BOUNDARIES
