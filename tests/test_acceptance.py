"""Acceptance suite: one test per shipped acceptance criterion.

``pytest tests/test_acceptance.py -v`` prints one PASS/FAIL line per
criterion; ``-s`` additionally shows an ``ACCEPTANCE NN <title>: PASS`` line
from each test body.  Heavy scenario runs are shared module-wide, so the
whole suite performs each shipped simulation at most twice.  The second run
feeds the determinism check and happens in one spawned worker process, while
this process makes the first.
"""

import collections
import contextlib
import hashlib
import multiprocessing
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

from loraguard.analytic import PlrModelParams, plr_approx, plr_exact_fixed, plr_marginal, verdict
from loraguard.cli import main
from loraguard.engine import US_PER_SECOND
from loraguard.metrics import CAUSE_PRIORITY, emit_report, wilson_interval
from loraguard.phy import OfftimeBudget, RadioParams, airtime_us, default_eu868_plan
from loraguard.scenario import load_scenario, shipped_scenario_path
from loraguard.sensor import (
    COMBUSTIBLE_ALARM_VOLTS,
    COMBUSTIBLE_GASES,
    LEL_PCT_VOL,
    METHANE_PCT_PER_VOLT,
    PROPANE_BUTANE_SCALE,
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


def emitted_reports(names):
    """{name: emitted report} of one run of each named shipped scenario."""
    return {name: emit_report(Simulation(load_scenario(shipped_scenario_path(name))).run())
            for name in names}


@pytest.fixture(scope="module")
def replayed_reports():
    """Future of ``emitted_reports(SHIPPED)`` in one spawned worker process.

    A fresh interpreter shares no state with this one, not even its string
    hash seed, and it runs on another core while ``shipped_runs`` runs here.
    """
    with ProcessPoolExecutor(max_workers=1,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        yield pool.submit(emitted_reports, SHIPPED)


@pytest.fixture(scope="module")
def shipped_runs(replayed_reports):
    """One full run of every shipped scenario: {name: (scenario, sim, report, s)}.

    It starts the replay in the worker first, so the two overlap.
    """
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
    return timed_run(replace(base, name="test3_dual_gw_sf8", devices=devices))


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
        assert report["kinds"]["UP"]["generated"] == 20_000
        check = verdict(sim.model_inputs(), report)
        assert len(check.inputs.dcp_airtimes_s) == 8
        assert check.inputs.up_airtime_s == airtime_us(RadioParams(sf=9), 37) / US_PER_SECOND
        assert check.inside
        assert 0.030 <= check.observed <= 0.048
        assert elapsed < 60.0


# ``loraguard validate``'s verdict on each shipped run, at its printed precision:
# (prediction inside the interval, observed %, interval %, predicted %), or None
# where the model does not apply.  test1's system PLR also counts UP-vs-UP
# collisions and test3's uplinks are rescued by the receive-only gw2, which the
# one-gateway model does not see (ROADMAP D1 and K).
SHIPPED_VERDICTS = {
    "test1_sf_pairs": (False, "54.590", "53.899", "55.279", "0.469"),
    "test2_dl_priority": (True, "3.725", "3.471", "3.996", "3.925"),
    "test3_dual_gw": (False, "0.000", "0.000", "0.019", "1.863"),
    "calibration_pairs_sf7": None,
    "calibration_pairs_sf7_sf8": None,
    "demo_small": (True, "4.000", "3.120", "5.115", "3.925"),
    "burst_cluster15": None,
}


def test_the_model_verdict_on_every_shipped_run(shipped_runs):
    def printed(check):
        if check is None:
            return None
        return (check.inside, *(f"{100 * x:.3f}" for x in
                                (check.observed, *check.ci95, check.predicted)))

    assert {name: printed(verdict(sim.model_inputs(), report))
            for name, (_scenario, sim, report, _s) in shipped_runs.items()} == SHIPPED_VERDICTS


def test_the_model_inputs_are_the_airtimes_the_specs_imply(shipped_runs):
    """Every shipped reporter's downlinks reach window 1, so the run's inputs
    are one report-SF DCP per reporter and the longest urgent airtime over the
    tripping scopes, derived here from the specs alone."""
    for name, (scenario, sim, _report, _s) in shipped_runs.items():
        fresh = Simulation(scenario).model_inputs()
        assert sim.model_inputs() == fresh, name
        reporters = [d for d in scenario.devices if d.rp_period_us is not None]
        if not reporters:
            assert fresh is None, name
            continue
        scopes = {d for _i, trig in scenario.tripping for d in scenario.alarm_scope(trig)}
        assert fresh == (
            tuple(airtime_us(RadioParams(sf=d.rp_sf), scenario.dcp_payload_len)
                  / US_PER_SECOND for d in reporters),
            max(airtime_us(RadioParams(sf=scenario.assignments[d][1]),
                           scenario.device(d).up_payload_len) / US_PER_SECOND
                for d in scopes),
            reporters[0].rp_period_us / US_PER_SECOND,
            reporters[0].clock_sigma_us / US_PER_SECOND), name


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
        on_g, on_g1 = OfftimeBudget("ed1", g), OfftimeBudget("ed1", g1)
        air = 267_264
        on_g.record(0, air)
        # Off-time formula t * (1/d - 1) after the frame.
        assert on_g.clearance(air) == air + air * (g.duty_one_in - 1)
        # Sub-band independence: g is blocked, g1 is free.
        assert on_g.clearance(air + 1) > air + 1
        assert on_g1.clearance(air + 1) == air + 1
        # A greedy saturating sender never exceeds the band's busy fraction.
        greedy = OfftimeBudget("dev", g)
        now = busy = 0
        for _ in range(500):
            now = greedy.clearance(now, air)
            greedy.record(now, air)
            busy += air
            now += air
        horizon = greedy.clearance(now)
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
            assert alarm_check(profile, species, trip_conc)
            assert not alarm_check(profile, species, trip_conc * 0.99)


def test_criterion_10_seeded_runs_are_byte_identical(shipped_runs, replayed_reports):
    with criterion(10, "same seed, byte-identical reports in another process"):
        replayed = replayed_reports.result(timeout=600)
        for name in SHIPPED:
            _scenario, _sim, first_report, _elapsed = shipped_runs[name]
            assert emit_report(first_report) == replayed[name], name


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
    assert report["assignments"] == {device: {"channel_hz": freq, "sf": sf}
                                     for device, (freq, sf) in scenario.assignments.items()}
