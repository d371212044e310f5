"""loraguard benchmark: DES throughput, set-up cost and model latency.

Usage, from the repository root:

    python3 bench/run.py --workload dcp_storm --seed 1 --seconds 15 --trace 0

Untraced (``--trace 0``): starts one fresh single-threaded interpreter after
another (``child.py``) until ``--seconds`` have passed, each running the
workload once on inputs derived from ``--seed``, and reports the end-to-end
metrics over those runs.  Traced (``--trace 1``): runs the workload once
untraced and once with every layer boundary wrapped, on the same inputs,
checks that both produce the same output, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
say the same for people.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import (BASELINE_EVENTS, EVENT_KINDS, WORKLOADS, DesWorkload,
                       child_seed)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 150
MIN_RUNS = 3  # children per untraced run, however short --seconds is


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "absent"
    return {"nproc": os.cpu_count(), "cpu": cpu or "unknown",
            "python": platform.python_version(), **versions,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def _child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)  # the child puts this checkout's src/ first itself
    return env


def run_child(workload: str, seed: int, ups: int, trace: int) -> dict:
    """Run one child interpreter to completion and return its parsed result."""
    t0 = time.perf_counter()
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--ups", str(ups), "--trace", str(trace),
           "--t0", repr(t0)]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} child (seed {seed}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def warm_up() -> None:
    """Compile bytecode and fill the file cache once, outside any timing."""
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                    "import loraguard.cli, jsonschema"],
                   cwd=ROOT, env=_child_env(), check=True, timeout=CHILD_TIMEOUT_S)


def _percentile(sorted_values: list[float], q: float) -> float:
    # Nearest rank, as the simulator's own latency report uses.
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _tally(results: list[dict]) -> tuple[int, list[str]]:
    checks = [(name, ok) for r in results for name, ok in r["checks"]]
    return len(checks), [name for name, ok in checks if not ok]


# -- untraced runs: end-to-end metrics ----------------------------------------------


def timed_runs(name: str, seed: int, seconds: float) -> tuple[dict, int, list[str]]:
    workload = WORKLOADS[name]
    is_des = isinstance(workload, DesWorkload)
    results = []
    start = time.perf_counter()
    while len(results) < MIN_RUNS or time.perf_counter() - start < seconds:
        index = len(results)
        # The first child replays the recorded seed, so its report is held to
        # the golden digest; the others take fresh seeds.
        child = workload.recorded_seed if is_des and index == 0 else child_seed(seed, index)
        results.append(run_child(name, child, workload.ups if is_des else 0, 0))

    # Neighbours on a shared host only ever slow a child down, so the timing
    # of the run is its best child; set-up and memory are medians.
    setup = statistics.median(r["setup_s"] for r in results)
    wall = min(r["wall_s"] for r in results)
    rate = max(r["items"] / r["cpu_s"] for r in results)
    rss = statistics.median(r["peak_rss_mb"] for r in results)
    metrics = {"setup_s": (setup, "s"), "wall_s": (wall, "s"),
               "items_per_cpu_s": (rate, "1/s"), "peak_rss_mb": (rss, "MB")}
    attempted, failures = _tally(results)

    print(f"workload {name}: {len(results)} runs, one fresh interpreter each")
    print(f"  setup_s      {setup:.4f} s  (median)")
    print(f"  wall_s       {wall:.4f} s  (best)")
    if is_des:
        print(f"  ups_per_s    {rate:.1f} UP/CPU-s  (best; {workload.ups} UPs per run)")
    else:
        latencies = sorted(x for r in results for x in r["latencies_s"])
        print(f"  evals_per_s  {rate:.1f} eval/CPU-s  (best; {results[0]['items']} evals per run)")
        print(f"  eval_p50_us  {_percentile(latencies, 0.50) * 1e6:.2f} us"
              f"  (of {len(latencies)} calls)")
        print(f"  eval_p99_us  {_percentile(latencies, 0.99) * 1e6:.2f} us")
    print(f"  peak_rss_mb  {rss:.2f} MB  (median)")
    print(f"  failed_ratio {len(failures) / attempted:.4f} ratio"
          f"  ({len(failures)} of {attempted} checks)")
    if is_des and results[0]["model_plr"] is not None:
        lost = sum(r["up_lost"] for r in results)
        sent = sum(r["items"] for r in results)
        print(f"  model error: DES UP PLR {100 * lost / sent:.3f}% over {sent} UPs, "
              f"plr_exact_fixed predicts {100 * results[0]['model_plr']:.3f}%")
    return metrics, attempted, failures


# -- traced run: per-layer metrics ------------------------------------------------


def _layer_metrics(plain: dict, traced: dict) -> dict:
    spans = traced["spans"]

    def span(name):  # [calls, self_s, incl_s, outcome sum]
        return spans.get(name, (0, 0.0, 0.0, 0))

    def ratio(name):
        calls, _self, _incl, outcome = span(name)
        return outcome / calls if calls else 0.0

    m: dict[str, tuple[float, str]] = {}
    total_events = sum(stat[0] for name, stat in spans.items()
                       if name.startswith("simulation.") and name != "simulation.init")
    m["engine.events"] = (total_events, "count")
    for kind in EVENT_KINDS:
        m[f"engine.events.{kind}"] = (span(f"simulation.{kind}")[0], "count")
    m["engine.peak_queue"] = (traced["peak_queue"], "count")
    m["engine.self_s"] = (span("engine.run")[1], "s")
    # Untraced CPU of run() plus report, per event counted by the traced twin.
    m["engine.us_per_event"] = (plain["cpu_s"] / total_events * 1e6 if total_events else 0.0,
                                "us")
    m["simulation.init_s"] = (span("simulation.init")[2], "s")
    for kind in EVENT_KINDS:
        m[f"simulation.{kind}.self_s"] = (span(f"simulation.{kind}")[1], "s")
    for name in ("phy.airtime", "phy.subband_of", "phy.ledger.check", "phy.ledger.record",
                 "phy.capture", "gateway.uplink_start", "gateway.uplink_end",
                 "device.next_rp_time", "device.pick_rp_channel", "server.on_uplink",
                 "server.dcp_for", "sensor.alarm_check", "metrics.gateway_outcome",
                 "analytic.survivor_integral", "analytic.plr_exact_fixed",
                 "analytic.plr_marginal"):
        m[f"{name}.calls"] = (span(name)[0], "count")
        m[f"{name}.self_s"] = (span(name)[1], "s")
    m["phy.ledger.clear_ratio"] = (ratio("phy.ledger.check"), "ratio")
    m["phy.capture.survive_ratio"] = (ratio("phy.capture"), "ratio")
    m["gateway.decode_ratio"] = (ratio("gateway.uplink_end"), "ratio")
    m["gateway.downlink.calls"] = (span("gateway.downlink")[0], "count")
    m["gateway.preempted"] = (span("gateway.downlink")[3], "count")
    m["device.apply_dcp.calls"] = (span("device.apply_dcp")[0], "count")
    m["device.dcp_accept_ratio"] = (ratio("device.apply_dcp"), "ratio")
    m["sensor.trip_ratio"] = (ratio("sensor.alarm_check"), "ratio")
    m["metrics.report_s"] = (span("metrics.report")[2], "s")
    m["metrics.up_outcomes_retained"] = (traced.get("up_outcomes_retained", 0), "count")
    m["scenario.load_s"] = (span("scenario.load")[2], "s")
    m["scenario.digest_s"] = (span("scenario.digest")[2], "s")
    m["analytic.import_s"] = (traced["import_s"].get("loraguard.analytic", 0.0), "s")
    latencies = sorted(plain.get("latencies_s", ()))
    m["analytic.eval_p50_us"] = (_percentile(latencies, 0.50) * 1e6 if latencies else 0.0, "us")
    m["analytic.eval_p99_us"] = (_percentile(latencies, 0.99) * 1e6 if latencies else 0.0, "us")
    # Wall time after set-up, traced over untraced.
    m["trace.overhead_ratio"] = ((traced["wall_s"] - traced["setup_s"])
                                 / (plain["wall_s"] - plain["setup_s"]), "ratio")
    return m


def traced_run(name: str, seed: int) -> tuple[dict, int, list[str]]:
    workload = WORKLOADS[name]
    if isinstance(workload, DesWorkload):
        # The shipped scenario as it stands, so the event counts can be held
        # to the ROADMAP baseline and the report to its golden digest.
        inputs = (workload.recorded_seed, workload.shipped_ups)
    else:
        inputs = (child_seed(seed, 0), 0)
    plain = run_child(name, *inputs, 0)
    traced = run_child(name, *inputs, 1)
    attempted, failures = _tally([plain, traced])
    checks = [("traced output byte-identical to untraced",
               traced["output_sha256"] == plain["output_sha256"])]
    metrics = _layer_metrics(plain, traced)
    for kind, expected in BASELINE_EVENTS.get(name, {}).items():
        checks.append((f"engine.events.{kind} == {expected} (ROADMAP baseline)",
                       metrics[f"engine.events.{kind}"][0] == expected))
    attempted += len(checks)
    failures += [check for check, ok in checks if not ok]

    print(f"workload {name}: traced run, seed {inputs[0]}"
          + (f", {inputs[1]} UPs" if inputs[1] else ""))
    for boundary in traced["missing"]:
        print(f"  warning: boundary {boundary} not found; its metrics read 0")
    for key, (value, unit) in metrics.items():
        print(f"  {key:38s} {value:.6g} {unit}")
    print(f"  failed_ratio {len(failures) / attempted:.4f} ratio"
          f"  ({len(failures)} of {attempted} checks)")
    return metrics, attempted, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "loraguard" / "__init__.py").is_file():
        print(f"error: no loraguard sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine_info()))
    try:
        warm_up()
        if args.trace:
            metrics, attempted, failures = traced_run(args.workload, args.seed)
        else:
            metrics, attempted, failures = timed_runs(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in failures:
        print(f"FAILED check: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
