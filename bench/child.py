"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports what a
``loraguard`` command-line user imports, builds its inputs from ``--seed``,
times set-up and the run, checks the output and prints one JSON line.

``--t0`` is ``time.perf_counter()`` in ``run.py`` just before it started this
process.  On Linux that clock is system-wide (CLOCK_MONOTONIC), so set-up and
wall times start at interpreter launch.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

from tracer import ImportTimer, Tracer
from workloads import GOLDEN_SHA256, WORKLOADS, DesWorkload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

GRID_SFS = (7, 8, 9, 10)      # urgent-capable spreading factors
GRID_PAYLOAD = 37             # the scenario default for reports, UPs and DCPs
MARGINAL_TOLERANCE = 1e-12    # one-point mixture vs. the exact product


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finish_trace(tracer: Tracer | None, result: dict) -> list[tuple[str, bool]]:
    """Copy the tracer's totals into ``result`` and restore every wrapper."""
    if tracer is None:
        return []
    result["spans"] = {name: [s.calls, s.self_s, s.incl_s, s.outcome]
                       for name, s in tracer.stats.items()}
    result["peak_queue"] = tracer.peak_queue
    result["missing"] = tracer.missing
    return [("every wrapper restored", tracer.uninstall())]


def _import_loraguard(tracing: bool) -> dict[str, float]:
    """Import the modules the ``loraguard`` console script imports."""
    sys.path.insert(0, str(SRC))
    timer = ImportTimer()
    if tracing:
        with timer:
            import loraguard.cli  # noqa: F401
    else:
        import loraguard.cli  # noqa: F401
    import loraguard
    if Path(loraguard.__file__).resolve().parent != SRC / "loraguard":
        raise SystemExit(f"loraguard imported from {loraguard.__file__}, not {SRC}")
    return timer.seconds


# -- discrete-event workloads --------------------------------------------------


def _model_prediction(scenario, sim) -> float | None:
    """``plr_exact_fixed`` for the scenario, derived as ``loraguard validate`` does."""
    from loraguard import analytic, phy
    reporters = [d for d in scenario.devices if d.rp_period_us is not None]
    if not reporters:
        return None
    dcp = [phy.airtime_us(phy.RadioParams(sf=d.rp_sf), scenario.dcp_payload_len) / 1e6
           for d in reporters]
    triggered = {d for trig in scenario.triggers
                 for d in (trig.devices or next(c.members for c in scenario.clusters
                                                if c.id == trig.cluster))}
    up = max(phy.airtime_us(phy.RadioParams(sf=sim.server.assignments[d][1]),
                            scenario.device(d).up_payload_len) / 1e6 for d in triggered)
    return analytic.plr_exact_fixed(dcp, up, reporters[0].rp_period_us / 1e6,
                                    reporters[0].clock_sigma_us / 1e6).plr


def _report_checks(name: str, seed: int, ups: int, report: dict, text: str,
                   outcomes: int) -> list[tuple[str, bool]]:
    import jsonschema
    schema = json.loads((ROOT / "docs" / "report.schema.json").read_text(encoding="utf-8"))
    try:
        jsonschema.validate(report, schema)
        valid = True
    except jsonschema.ValidationError:
        valid = False
    checks = [("report matches docs/report.schema.json", valid)]
    for kind, stats in report["kinds"].items():
        checks.append((f"{kind}: generated == delivered + lost",
                       stats["generated"] == stats["delivered"] + stats["lost"]))
    up_generated = report["kinds"].get("UP", {}).get("generated", 0)
    checks.append(("len(up_outcomes) == UP generated", outcomes == up_generated))
    golden = GOLDEN_SHA256.get((name, seed, ups))
    if golden is not None:
        checks.append((f"golden report digest at seed {seed}, {ups} UPs",
                       hashlib.sha256(text.encode("utf-8")).hexdigest() == golden))
    return checks


def run_des(name: str, workload: DesWorkload, seed: int, ups: int, t0: float,
            tracer: Tracer | None) -> dict:
    from loraguard import metrics, scenario as scenario_mod, simulation
    if tracer is not None:
        tracer.install()
    scenario = scenario_mod.load_scenario(scenario_mod.shipped_scenario_path(workload.scenario))
    scenario = dataclasses.replace(scenario, seed=seed, stop=scenario_mod.StopSpec(ups=ups))
    sim = simulation.Simulation(scenario)
    setup_s = time.perf_counter() - t0

    cpu0 = time.process_time()
    report = sim.run()
    text = metrics.emit_report(report)
    cpu_s = time.process_time() - cpu0
    wall_s = time.perf_counter() - t0
    rss = _peak_rss_mb()

    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": rss,
              "items": report["kinds"]["UP"]["generated"],
              "output_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    checks = _finish_trace(tracer, result)
    up = report["kinds"]["UP"]
    result["up_lost"] = up["lost"]
    result["model_plr"] = _model_prediction(scenario, sim)
    result["up_outcomes_retained"] = len(sim.up_outcomes)
    checks += _report_checks(name, seed, ups, report, text, len(sim.up_outcomes))
    result["checks"] = checks
    return result


# -- analytic workload -------------------------------------------------------------


def build_grid(rng: random.Random, points: int) -> list[tuple]:
    """Seeded operating points: (shape, exact args, marginal params, approx args).

    Shapes cycle through: 0 inside the model's regime, 1 the same with one
    airtime shared by every sender (a one-point mixture), 2 near saturation
    (blocking interval 67-95% of the period), 3 out of regime (sigma large
    against the gap between blocking interval and period), 4 a one-point
    mixture near saturation.
    """
    from loraguard import analytic, phy
    air = {sf: phy.airtime_us(phy.RadioParams(sf=sf), GRID_PAYLOAD) / 1e6 for sf in GRID_SFS}
    grid = []
    for i in range(points):
        shape = i % 5
        n = rng.randint(1, 15)
        if shape in (1, 4):
            dcp = [air[rng.choice(GRID_SFS)]] * n
        else:
            dcp = [air[rng.choice(GRID_SFS)] for _ in range(n)]
        up = air[rng.choice(GRID_SFS)]
        block = max(dcp) + up
        if shape in (0, 1):
            period = rng.uniform(20.0, 300.0)
            sigma = rng.uniform(0.001, 1.0)
        elif shape in (2, 4):
            period = block * rng.uniform(1.05, 1.5)
            sigma = period * rng.uniform(0.01, 0.1)
        else:
            period = block * rng.uniform(2.0, 10.0)
            sigma = (period - block) / 5.0 * rng.uniform(1.2, 4.0)
        mixture = tuple((tau, dcp.count(tau) / n) for tau in sorted(set(dcp)))
        params = analytic.PlrModelParams(n_senders=n, period_s=period, sigma_s=sigma,
                                         dcp_airtimes=mixture, up_airtimes=((up, 1.0),))
        grid.append((shape, (dcp, up, period, sigma), params,
                     (n, sum(dcp) / n, up, period)))
    return grid


def run_grid(points: int, seed: int, t0: float, tracer: Tracer | None) -> dict:
    from loraguard import analytic
    if tracer is not None:
        tracer.install()
    grid = build_grid(random.Random(seed), points)
    setup_s = time.perf_counter() - t0

    clock = time.perf_counter
    latencies = []
    rows = []
    cpu0 = time.process_time()
    for _shape, exact_args, params, approx_args in grid:
        start = clock()
        exact = analytic.plr_exact_fixed(*exact_args)
        mid = clock()
        marginal = analytic.plr_marginal(params)
        mid2 = clock()
        approx = analytic.plr_approx(*approx_args)
        end = clock()
        latencies += (mid - start, mid2 - mid, end - mid2)
        rows.append((exact.plr, marginal.plr, approx.plr))
    cpu_s = time.process_time() - cpu0
    wall_s = time.perf_counter() - t0
    rss = _peak_rss_mb()

    text = "".join(f"{e!r} {m!r} {a!r}\n" for e, m, a in rows)
    result = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": rss,
              "items": len(latencies), "latencies_s": latencies,
              "output_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    checks = _finish_trace(tracer, result)
    out_of_range = sum(1 for row in rows for p in row if not 0.0 <= p <= 1.0)
    checks.append((f"all {3 * len(rows)} PLRs in [0, 1]", out_of_range == 0))
    one_point = [(e, m) for (shape, *_), (e, m, _a) in zip(grid, rows) if shape in (1, 4)]
    worst = max(abs(e - m) for e, m in one_point)
    checks.append((f"plr_marginal == plr_exact_fixed on {len(one_point)} one-point mixtures",
                   worst <= MARGINAL_TOLERANCE))
    result["checks"] = checks
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ups", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    import_s = _import_loraguard(bool(args.trace))
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload]
    if isinstance(workload, DesWorkload):
        result = run_des(args.workload, workload, args.seed, args.ups, args.t0, tracer)
    else:
        result = run_grid(workload.points, args.seed, args.t0, tracer)
    result["import_s"] = import_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
