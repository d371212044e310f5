"""Acceptance suite: one test per shipped acceptance criterion.

``pytest tests/test_acceptance.py -v`` prints one PASS/FAIL line per
criterion; ``-s`` additionally shows an ``ACCEPTANCE NN <title>: PASS`` line
from each test body.  Heavy scenario runs are shared module-wide, so the
whole suite performs each shipped simulation at most twice (the second run
feeds the determinism check).
"""

import collections
import contextlib
import hashlib
import re
import time
from dataclasses import replace

import pytest

from loraguard.analytic import PlrModelParams, plr_approx, plr_exact_fixed, plr_marginal
from loraguard.cli import main
from loraguard.engine import US_PER_SECOND
from loraguard.metrics import CAUSE_PRIORITY, emit_report, wilson_interval
from loraguard.phy import DutyCycleLedger, RadioParams, airtime_us, default_eu868_plan
from loraguard.scenario import (
    load_scenario,
    shipped_scenario_path,
    urgent_resources,
    validate_scenario,
)
from loraguard.sensor import (
    COMBUSTIBLE_ALARM_VOLTS,
    COMBUSTIBLE_GASES,
    LEL_PCT_VOL,
    METHANE_PCT_PER_VOLT,
    PROPANE_BUTANE_SCALE,
    GasEvent,
    SensorProfile,
    alarm_check,
    lel_voltage,
)
from loraguard.server import assign_resources
from loraguard.simulation import Simulation

SHIPPED = [
    "test1_sf_pairs",
    "test2_dl_priority",
    "test3_dual_gw",
    "calibration_pairs_sf7",
    "calibration_pairs_sf7_sf8",
    "demo_small",
    "burst_cluster15",
]

# sha256 of emit_report for every shipped scenario at its own seed and length.
# A change that moves one of these changes the simulator's output and must
# say why.
GOLDEN_REPORT_SHA256 = {
    "test1_sf_pairs":
        "900b60e14cf8487b97b01842d8ee99298870c76f93a36bdd75e8d1190d515e94",
    "test2_dl_priority":
        "17587e0f1c19c7c90950973c827395f3b9c2c49397ee9ca2f35e89a19c4ce6b7",
    "test3_dual_gw":
        "b9ef7b7a3336ab2d2c17ff3e2be970acfcf61afff7a96fb6948173241565cf2c",
    "calibration_pairs_sf7":
        "1640d97cb2d94e1e854d239db18e6f0d9e9cf617d88dd3f20dac7de007c69651",
    "calibration_pairs_sf7_sf8":
        "d7f4b37ded696866c216394ac14cd02bb09899327402e0af027d26dcac08f20b",
    "demo_small":
        "126e0ccae5829898f4c89b844accc07b406602b9565ead507dc1c67ef5192dad",
    "burst_cluster15":
        "a5428da3e1114b1c2cd8707670a35b085964fc2aa8131fde8a8ac808b092426d",
}


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {title}: PASS")


def timed_run(scenario):
    sim = Simulation(scenario)
    started = time.perf_counter()
    report = sim.run()
    return sim, report, time.perf_counter() - started


@pytest.fixture(scope="module")
def shipped_runs():
    """One full run of every shipped scenario: {name: (scenario, sim, report, s)}."""
    runs = {}
    for name in SHIPPED:
        scenario = load_scenario(shipped_scenario_path(name))
        sim, report, elapsed = timed_run(scenario)
        runs[name] = (scenario, sim, report, elapsed)
    return runs


@pytest.fixture(scope="module")
def test3_sf8_run():
    """The dual-gateway scenario with the alarm device moved from SF7 to SF8."""
    base = load_scenario(shipped_scenario_path("test3_dual_gw"))
    devices = tuple(
        replace(d, assignment=(d.assignment[0], 8)) if d.id == "ed8" else d
        for d in base.devices)
    variant = replace(base, name="test3_dual_gw_sf8", devices=devices)
    validate_scenario(variant)
    return timed_run(variant)


def scenario_model_inputs(scenario):
    """Renewal-model parameters implied by a scenario's reporting population."""
    dcp_airtimes, periods, sigmas = [], [], []
    for dev in scenario.devices:
        if dev.rp_period_us is None:
            continue
        dcp_airtimes.append(
            airtime_us(RadioParams(sf=dev.rp_sf), scenario.dcp_payload_len)
            / US_PER_SECOND)
        periods.append(dev.rp_period_us / US_PER_SECOND)
        sigmas.append(dev.clock_sigma_us / US_PER_SECOND)
    return dcp_airtimes, periods[0], sigmas[0]


def test_criterion_01_analytic_prediction_under_one_second(capsys):
    with criterion(1, "analytic PLR prediction in [3.9%, 4.0%]"):
        started = time.perf_counter()
        code = main(["analyze", "--senders", "8", "--period-s", "70",
                     "--dcp-s", "0.0822", "--up-s", "0.2673", "--method", "all"])
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert code == 0
        values = [float(v) for v in re.findall(r"plr=([0-9.]+)%", out)]
        assert len(values) == 3
        for plr_pct in values:
            assert 3.9 <= plr_pct <= 4.0
        assert elapsed < 1.0


def test_criterion_02_simulation_matches_the_exact_model(shipped_runs):
    with criterion(2, "downlink-priority PLR agrees with the renewal model"):
        scenario, sim, report, elapsed = shipped_runs["test2_dl_priority"]
        up = report["kinds"]["UP"]
        assert up["generated"] == 20_000
        dcp_airtimes, period, sigma = scenario_model_inputs(scenario)
        assert len(dcp_airtimes) == 8
        up_air = airtime_us(RadioParams(sf=9), 37) / US_PER_SECOND
        predicted = plr_exact_fixed(dcp_airtimes, up_air, period, sigma)
        lo, hi = up["plr_ci95"]
        assert lo <= predicted.plr <= hi
        assert 0.030 <= up["plr"] <= 0.048
        assert elapsed < 60.0


def test_criterion_03_receive_only_gateway_rescues_urgent_uplinks(
        shipped_runs, test3_sf8_run):
    with criterion(3, "rx-only gateway drops urgent PLR below 0.1%"):
        sf7 = shipped_runs["test3_dual_gw"][1:3]
        for sim, report in (sf7, test3_sf8_run[:2]):
            up = report["kinds"]["UP"]
            assert up["generated"] == 20_000
            assert up["plr"] < 0.001
            # The rescue gateway never transmits, so none of its losses may
            # come from its own downlinks.
            gw2_losses = report["gateways"]["gw2"]["losses"].get("UP", {})
            assert set(gw2_losses) <= {"collision", "no-demod-path"}
            for outcome in sim.up_outcomes:
                if not outcome.delivered:
                    assert outcome.per_gateway["gw2"] in ("collision",
                                                          "no-demod-path")


def test_criterion_04_airtime_oracle_and_sf_budget():
    with criterion(4, "airtime oracle and the 500 ms urgent SF cut-off"):
        sf9 = airtime_us(RadioParams(sf=9), 37)
        assert abs(sf9 - 267_264) <= 100  # 267.264 ms +/- 0.1 ms
        budget = 500_000
        for sf in (7, 8, 9, 10):
            assert airtime_us(RadioParams(sf=sf), 37) <= budget
        for sf in (11, 12):
            params = RadioParams(sf=sf)
            assert params.ldro  # automatic low-data-rate optimization
            assert airtime_us(params, 37) > budget


def test_criterion_05_duty_cycle_ledger_invariants():
    with criterion(5, "duty-cycle off-time, independence, saturation"):
        plan = default_eu868_plan()
        g, g1 = plan.subband("g"), plan.subband("g1")
        ledger = DutyCycleLedger("offtime")
        air = 267_264
        ledger.record("ed1", g, 0, air)
        # Off-time formula t * (1/d - 1) after the frame.
        assert ledger.check("ed1", g, air) == air + air * (g.duty_one_in - 1)
        # Sub-band independence: g is blocked, g1 is free.
        assert ledger.check("ed1", g, air + 1) > air + 1
        assert ledger.check("ed1", g1, air + 1) == air + 1
        # A greedy saturating sender never exceeds the band's busy fraction.
        ledger2 = DutyCycleLedger("offtime")
        now = busy = 0
        for _ in range(500):
            now = ledger2.check("dev", g, now, air)
            ledger2.record("dev", g, now, air)
            busy += air
            now += air
        horizon = ledger2.check("dev", g, now)
        assert busy * g.duty_one_in <= horizon


def test_criterion_06_model_evaluator_consistency():
    with criterion(6, "analytic evaluators agree where they must"):
        n, tau, up, period, sigma = 8, 0.082176, 0.267264, 70.0, 0.05
        # Empty product: nobody transmits, nothing is lost.
        assert plr_exact_fixed([], up, period, sigma).plr == 0.0
        # sigma = 0 collapses to the closed form.
        closed = 1.0 - (1.0 - (tau + up) / period) ** n
        assert abs(plr_exact_fixed([tau] * n, up, period, 0.0).plr - closed) < 1e-10
        # Approximation within 1% relative inside its regime (N q <= 2%).
        for n_small in (1, 2, 4):
            approx = plr_approx(n_small, tau, up, period)
            assert approx.in_regime
            exact = plr_exact_fixed([tau] * n_small, up, period, 0.0)
            assert abs(approx.plr - exact.plr) / exact.plr < 0.01
        # Point-mass mixture equals the fixed-airtime product.
        params = PlrModelParams(n, period, sigma, ((tau, 1.0),), ((up, 1.0),))
        assert abs(plr_marginal(params).plr
                   - plr_exact_fixed([tau] * n, up, period, sigma).plr) < 1e-6
        # Clock jitter far below the period does not move the answer.
        base = plr_exact_fixed([tau] * n, up, period, 0.0).plr
        for s in (period / 1000, period / 100):
            assert abs(plr_exact_fixed([tau] * n, up, period, s).plr
                       - base) / base < 0.001


def joint_loss_of_pairs(sim):
    pairs = collections.defaultdict(list)
    for outcome in sim.up_outcomes:
        pairs[outcome.trigger_us].append(outcome)
    assert all(len(group) == 2 for group in pairs.values())
    both_lost = sum(1 for group in pairs.values()
                    if not group[0].delivered and not group[1].delivered)
    return both_lost, len(pairs)


@pytest.mark.parametrize("name,target", [
    ("calibration_pairs_sf7", 0.2966),
    ("calibration_pairs_sf7_sf8", 0.0012),
])
def test_criterion_07_capture_calibration_reproduces_joint_losses(
        shipped_runs, name, target):
    with criterion(7, f"synchronized-pair joint loss reproduces {target:.2%}"):
        _scenario, sim, report, _elapsed = shipped_runs[name]
        assert report["kinds"]["UP"]["generated"] == 40_000
        both_lost, n_pairs = joint_loss_of_pairs(sim)
        assert n_pairs >= 20_000
        lo, hi = wilson_interval(both_lost, n_pairs)
        assert lo <= target <= hi


def test_criterion_08_conflict_free_assignment_and_burst(shipped_runs):
    with criterion(8, "cluster assignments keep synchronized bursts lossless"):
        channels = default_eu868_plan().subband("g").channels
        for n in range(1, 16):
            names = [f"ed{i:02d}" for i in range(1, n + 1)]
            table = assign_resources(names, channels)
            pairs = list(table.values())
            assert len(set(pairs)) == len(pairs)  # no duplicate (channel, SF)
            by_channel = collections.defaultdict(list)
            for ch, sf in pairs:
                by_channel[ch].append(sf)
            for sfs in by_channel.values():
                assert len(sfs) <= 3
                if len(sfs) == 1:
                    assert sfs == [7]
                else:
                    assert set(sfs) <= {8, 9, 10}
        with pytest.raises(ValueError):
            assign_resources([f"ed{i:02d}" for i in range(1, 17)], channels)
        # A full 15-member cluster raising simultaneous alarms for hours
        # loses nothing to UP-vs-UP collisions.
        _scenario, _sim, report, _elapsed = shipped_runs["burst_cluster15"]
        up = report["kinds"]["UP"]
        assert up["generated"] == 30_000
        assert up["delivered"] == 30_000
        assert up["losses"] == {}


def test_criterion_09_sensor_thresholds():
    with criterion(9, "catalytic-bridge voltages and sub-LEL alarm points"):
        profile = SensorProfile()
        assert abs(lel_voltage("methane") - 2.5) < 1e-12
        assert abs(lel_voltage("butane") - 0.6) < 1e-12
        assert abs(lel_voltage("propane") - 0.7) < 1e-12
        for species in COMBUSTIBLE_GASES:
            pct_per_volt = METHANE_PCT_PER_VOLT
            if species != "methane":
                pct_per_volt *= PROPANE_BUTANE_SCALE
            trip_conc = COMBUSTIBLE_ALARM_VOLTS * pct_per_volt
            assert trip_conc < LEL_PCT_VOL[species]
            assert alarm_check(profile, GasEvent(0, species, trip_conc))
            assert not alarm_check(profile, GasEvent(0, species, trip_conc * 0.99))


def test_criterion_10_seeded_runs_are_byte_identical(shipped_runs):
    with criterion(10, "same seed, byte-identical reports"):
        for name in SHIPPED:
            scenario, _sim, first_report, _elapsed = shipped_runs[name]
            second_report = Simulation(scenario).run()
            assert emit_report(first_report) == emit_report(second_report), name


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_report_matches_its_golden_digest(shipped_runs, name):
    _scenario, _sim, report, _elapsed = shipped_runs[name]
    digest = hashlib.sha256(emit_report(report).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256[name]


@pytest.mark.parametrize("name", SHIPPED)
def test_every_urgent_uplink_ends_with_exactly_one_outcome(shipped_runs, name):
    scenario, sim, report, _elapsed = shipped_runs[name]
    up = report["kinds"]["UP"]
    outcomes = sim.up_outcomes
    assert len(outcomes) == up["generated"]
    gateway_ids = [g.id for g in scenario.gateways]
    decoded = collections.Counter()
    lost = collections.defaultdict(collections.Counter)
    maps = {}
    for outcome in outcomes:
        if outcome.delivered:
            assert outcome.cause is None
            assert outcome.delivered_at_us >= outcome.end_us
        else:
            assert outcome.cause in CAUSE_PRIORITY
        if outcome.start_us is None:  # lost before it reached the air
            assert not outcome.per_gateway
            continue
        assert list(outcome.per_gateway) == gateway_ids
        maps[id(outcome.per_gateway)] = outcome.per_gateway
        for gw, verdict in outcome.per_gateway.items():
            if verdict == "decoded":
                decoded[gw] += 1
            else:
                lost[gw][verdict] += 1
    causes = collections.Counter(o.cause for o in outcomes if not o.delivered)
    assert causes == up["losses"]
    for gw in gateway_ids:
        entry = report["gateways"].get(gw, {"decoded": {}, "losses": {}})
        assert entry["decoded"].get("UP", 0) == decoded[gw]
        assert entry["losses"].get("UP", {}) == lost[gw]
    for per_gateway in maps.values():
        with pytest.raises(TypeError):
            per_gateway[gateway_ids[0]] = "decoded"


@pytest.mark.parametrize("name", SHIPPED)
def test_resolved_assignments_are_the_reported_ones(shipped_runs, name):
    scenario, _sim, report, _elapsed = shipped_runs[name]
    _channels, assignments = urgent_resources(scenario)
    assert report["assignments"] == {device: {"channel_hz": freq, "sf": sf}
                                     for device, (freq, sf) in assignments.items()}
