"""Simulated urgent-uplink loss vs the analytic renewal-model prediction.

Runs the shipped downlink-priority scenario (8 reporting devices soliciting
control downlinks every 70 s through one half-duplex gateway; one of them
also sends 20000 urgent uplinks at SF9) and compares the measured loss rate
against the closed-form prediction computed from the same parameters.

Run: python3 demos/04_sim_vs_model.py   (about 10 s; it prints when the run is done)
"""

import time

from loraguard.analytic import verdict
from loraguard.scenario import load_scenario, shipped_scenario_path
from loraguard.simulation import Simulation


def main() -> None:
    scenario = load_scenario(shipped_scenario_path("test2_dl_priority"))
    started = time.perf_counter()
    sim = Simulation(scenario)
    report = sim.run()
    elapsed = time.perf_counter() - started
    check = verdict(sim.model_inputs(), report)
    inputs, (lo, hi) = check.inputs, check.ci95
    up = report["kinds"]["UP"]

    print(f"Scenario: {scenario.name} (seed {scenario.seed})")
    print(f"  {len(inputs.dcp_airtimes_s)} reporting devices, control downlink "
          f"{inputs.dcp_airtimes_s[0] * 1000:.1f} ms each {inputs.period_s:.0f} s")
    # ed8 is the one device its alarm triggers.
    print(f"  urgent uplink {inputs.up_airtime_s * 1000:.1f} ms "
          f"at SF{scenario.assignments['ed8'][1]}")
    print(f"\nAnalytic prediction: PLR = {check.predicted:.4%}")

    print(f"\nSimulating {scenario.stop.ups} urgent uplinks ...")
    print(f"  done in {elapsed:.1f} s")
    print(f"  delivered {up['delivered']} / {up['generated']}, "
          f"losses by cause: {up['losses']}")
    print(f"  measured PLR = {check.observed:.4%}   95% CI [{lo:.4%}, {hi:.4%}]")
    print(f"\nPrediction {'inside' if check.inside else 'OUTSIDE'} the simulation's "
          "95% confidence interval.")


if __name__ == "__main__":
    main()
