"""A statistics-free identity between the simulator and the renewal model.

The model loses an urgent uplink of airtime D that starts at s iff a control
downlink (DCP) of airtime tau starts at some d in (s - D, s + tau).  With no
clock jitter the DCP instants are periodic, and scripted alarms at
t0 + k (T + step) sweep the alarm's phase through one report period in steps
of ``step`` (systematic sampling).  The counted loss is then an exact
integer: the number of alarm instants inside the union of (d - D, d + tau)
over the run's DCP instants.  A DCP that starts while the uplink is on the
air preempts it (``gw-preempted``); an uplink that starts while the gateway
transmits is never heard (``tx-busy``).
"""

import math
from bisect import bisect_right

import pytest

from loraguard.analytic import plr_exact_fixed
from loraguard.metrics import CAUSE_GW_PREEMPTED, CAUSE_TX_BUSY
from loraguard.phy import RadioParams, airtime_us
from loraguard.scenario import parse_scenario
from loraguard.simulation import Simulation

T0_US = 5_000_000  # the first alarm


def lattice_scenario(reporters, period_s, step_us, alarms, seed):
    """One gateway, ``reporters`` jitter-free reporters on 868.1 MHz and one urgent
    device that does not report, with ``alarms`` scripted alarms one period plus
    ``step_us`` apart; returns the scenario and its alarm instants."""
    ids = [f"ed{i}" for i in range(1, reporters + 1)]
    instants = [T0_US + k * (period_s * 1_000_000 + step_us) for k in range(alarms)]
    return parse_scenario({
        "name": "lattice",
        "seed": seed,
        "stop": {"ups": alarms},
        "gateways": [{"id": "gw1"}],
        "clusters": [{"id": "c1", "members": [*ids, "urgent"], "dcp_gateway": "gw1"}],
        "devices": [*({"id": dev, "cluster": "c1", "rp_period": f"{period_s} s",
                       "clock_sigma": "0 s", "rp_channels": ["868.1 MHz"]} for dev in ids),
                    # 867.1 MHz SF7 is the first reporter's automatic assignment.
                    {"id": "urgent", "cluster": "c1", "rp_period": None,
                     "assignment": {"channel": "867.9 MHz", "sf": 7}}],
        "alarms": [{"kind": "script", "species": "methane", "level": "1.2 %vol",
                    "devices": ["urgent"], "times": [f"{at} us" for at in instants]}],
    }), instants


def airtimes(scenario):
    """The DCP's airtime tau, at the report SF 7, and the urgent uplink's D."""
    sf7 = RadioParams(sf=7)
    return (airtime_us(sf7, scenario.dcp_payload_len),
            airtime_us(sf7, scenario.device("urgent").up_payload_len))


def run_lattice(scenario):
    """The run's report and model inputs; the construction needs every report
    decoded, so that each one is answered by a DCP."""
    sim = Simulation(scenario)
    report = sim.run()
    assert report["kinds"]["RP"]["lost"] == 0
    return report, sim.model_inputs()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_reporter_loses_the_lattice_points_of_one_window(seed):
    step_us, alarms = 5_000, 2_000  # the phase sweeps one 10 s period
    scenario, _instants = lattice_scenario(1, 10, step_us, alarms, seed)
    report, inputs = run_lattice(scenario)
    tau, up = airtimes(scenario)
    losses = report["kinds"]["UP"]["losses"]
    lost = report["kinds"]["UP"]["lost"]
    assert set(losses) <= {CAUSE_GW_PREEMPTED, CAUSE_TX_BUSY}
    window = (tau + up) / step_us
    assert lost in (math.floor(window), math.ceil(window))
    assert abs(losses.get(CAUSE_GW_PREEMPTED, 0) - up / step_us) <= 1
    assert abs(losses.get(CAUSE_TX_BUSY, 0) - tau / step_us) <= 1
    assert abs(lost - alarms * plr_exact_fixed(*inputs).plr) <= 1
    # The urgent channel carries no report; a run may stop with one DCP in flight.
    dcp = report["dcp"]
    assert 0 <= dcp["requested"] - dcp["sent_rx1"] <= 1


def test_three_reporters_lose_exactly_the_lattice_points_in_the_union(frames):
    step_us, alarms = 3_000, 10_000
    scenario, instants = lattice_scenario(3, 30, step_us, alarms, seed=1)
    report, _inputs = run_lattice(scenario)
    tau, up = airtimes(scenario)
    # Each decoded report's DCP goes out at the report's RX1 instant.
    dcps = sorted(tx.end_us + scenario.device(tx.source).receive_delay1_us
                  for tx in frames if tx.kind == "RP")
    preempted = busy = 0
    for s in instants:
        # No alarm falls on a window's edge, where the tie order would decide.
        assert not {s - tau, s, s + up} & set(dcps[bisect_right(dcps, s - tau - 1):
                                                   bisect_right(dcps, s + up)])
        first = bisect_right(dcps, s - tau)  # the first d with s < d + tau
        if first < len(dcps) and dcps[first] < s:
            busy += 1  # the gateway is on the air when the uplink starts
        elif first < len(dcps) and dcps[first] < s + up:
            preempted += 1  # a DCP starts while the uplink is on the air
    losses = report["kinds"]["UP"]["losses"]
    assert losses == {CAUSE_GW_PREEMPTED: preempted, CAUSE_TX_BUSY: busy}
    dcp = report["dcp"]
    assert 0 <= dcp["requested"] - dcp["sent_rx1"] <= 3
