"""Scenario runner: wires devices, gateways, server and alarm sources together.

Traffic flow per periodic report: the device hops to a random report channel,
every gateway in range tracks the frame, and if any gateway decoded it the
server schedules one control downlink through the cluster's gateway into the
device's first receive window (mirroring the uplink channel and SF).  A
window-1 downlink blocked by the duty-cycle budget falls back to window 2 on
the high-duty band; one that would overlap a transmission already programmed
at the gateway is dropped.  Starting any downlink aborts every reception in
progress at that gateway, which is the loss mechanism urgent uplinks suffer.
A control downlink is modelled by its airtime and by whether the device
receives it; its payload would only repeat the device's assignment.  It goes
out at exactly its report's RX1 or RX2 instant, on that window's channel and
SF, so the device is listening when it starts if and only if that report is
still the device's latest uplink.  Keying up before the downlink starts
replaces the windows it was sent into (``missed_window``); keying up while it
is on the air loses it (``missed_device_busy``).

Urgent uplinks are triggered by gas alarms, use the (channel, SF) assignment
the device was commissioned with, and are never retransmitted.

The scenario was validated when it was built and carries each member's
assignment, which holds for the run and is read once, into the device's
urgent resource.  Devices, gateways and the capture model hold their scenario
specs and keep only what the run resolves (a device's report channels, the
merged survival table) besides their mutable state; a sender's received power
and SF travel on each of its frames.

Everything else that depends only on the scenario is bound while the
simulation is built, so a run resolves no sub-band, computes no airtime and
looks up no duty-cycle budget.  Every transmitter gets one budget per
sub-band, an ``OfftimeBudget`` or a ``WindowBudget`` after its policy (a
gateway's own, the scenario's device policy for a device), so one
(transmitter, sub-band) pair shares one object, and the run calls its
``clearance`` and ``record`` directly.  Bound are: each device's urgent-uplink
resource (its id, channel, SF, airtime, received power and budget); each
reporter's SF and airtime, its budget on the sub-band of each of its report
channels (indexed by the hop's position in ``rp_channels``), its cluster's DCP
gateway, that gateway's budget on each of those sub-bands and the airtime of
its window-1 downlink, which goes out on the report's own channel and
sub-band; and the gateway's window-2 budget and the window-2 downlink's
airtime, the same for every device.  ``model_inputs`` reads the renewal
model's inputs from these bindings.

Each trigger that trips its sensors, as the scenario decided when it was built
(``Scenario.tripping``), becomes an alarm source holding the resources it
triggers and its one ``alarm`` action; one that cannot trip gets no source, no
stream and no events, as if it were absent.  A report is closed out at its
end, so the server's command reaches the gateway one backhaul round trip
later: each reporter binds the first receive window that round trip makes (1,
else 2, else none), and a report whose round trip misses window 1 counts as
``skipped_too_late``.  The urgent-uplink counters are bound when the first
alarm triggers an uplink, so a run without urgent uplinks still reports no
``UP`` kind.  A report starts in ``_attempt_rp`` and is closed out in
``_finish_rp``; urgent uplinks start in ``_start_ups`` and are closed out in
``_finish_ups``.  Each of these does its per-uplink work in its own body: a
start keys the device up, records the frame on its budget and registers it at
every gateway, and a close-out ends it at every gateway, in scenario order,
counting each gateway's outcome.  Each distinct tuple of per-gateway outcomes
is resolved once into a shared read-only per-gateway map, the earliest
backhaul delay among the decoding gateways and the system-level loss cause,
and every uplink with that tuple, report or urgent, reuses them.

An alarm starts its burst in one ``_start_ups`` loop, and a member that must
wait for its device's own transmission is retried through the same function,
alone.  The urgent uplinks that start at one instant in one loop and end at
one instant are one group, closed out by one ``up-end`` action that carries
the alarm's trigger instant: a burst of 15 uplinks on three SFs makes three.
Each started uplink is its ``Transmission`` in its group's list; no outcome
object is built.  The group's first member schedules the action, so it runs
where the members' own close-outs would have run one after another, and it
closes them out in the order they started.  A deferred member is a group of
one, and the members after it start new groups: its retry may run at their
end instant, before their close-out.  Once finalized, a group is written
into ``up_outcomes``, a ``metrics.OutcomeLog``, as one 20-byte row (its
first uid, its trigger instant and the position of its layout: the wait, the
airtime and each member's uid offset and device) and one 4-byte code per
member, the code its verdict got when ``_verdict`` interned it; an uplink lost
to the duty cycle is a group of one, uid 0.  Iterating the log rebuilds
each ``PacketOutcome``.  A delivered uplink's latency is counted straight
into the collector's latency counts; nothing else is kept per uplink, not
even its frame.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Callable, Iterator

from .analytic import ModelInputs
from .device import EndDevice
from .engine import US_PER_SECOND, Engine, RandomStreams, SimTime, Stream
from .gateway import Gateway
from .metrics import (CAUSE_DUTY_CYCLE, NO_GATEWAYS, KindStats, MetricsCollector,
                      OutcomeLog, build_report, system_cause)
from .phy import (BUDGETS, CaptureModel, OfftimeBudget, RadioParams, RX2_FREQ_HZ, RX2_SF,
                  Transmission, WindowBudget, airtime_us, default_eu868_plan)
from .scenario import Scenario, scenario_digest
from .sensor import generate_events
from .server import NetworkServer


_Budget = OfftimeBudget | WindowBudget

# What an urgent uplink of one device needs, bound once per run: the device,
# its id, the urgent channel and SF, airtime, received power and the device's
# duty-cycle budget on the urgent sub-band.
_Resource = tuple[EndDevice, str, int, int, SimTime, float, _Budget]


@dataclass(slots=True)
class _AlarmSource:
    """A trigger whose exposure trips its sensors, bound once per run."""

    resources: tuple[_Resource, ...]  # of the devices it triggers, in scope order
    instants: Iterator[SimTime]  # of its exposures, in time order
    handler: Callable[[], None] | None = None  # the source's one "alarm" action


# What one tuple of per-gateway outcomes means for an uplink: the earliest
# backhaul delay among the gateways that decoded it (None if none did), its
# system-level loss cause (None if delivered) and the code under which
# ``up_outcomes`` holds these with its read-only per-gateway map.
_Verdict = tuple[SimTime | None, str | None, int]


@dataclass(slots=True)
class _Reporter:
    """Periodic-report state of one device, bound once per run."""

    device: EndDevice
    rng: Stream
    sf: int
    airtime_us: SimTime
    budgets: tuple[_Budget, ...]  # the device's, on each report channel's sub-band
    dcp_gateway: Gateway  # the cluster's gateway, which answers each decoded report
    dcp_budgets: tuple[_Budget, ...]  # the gateway's, on each report channel's sub-band
    dcp_airtime_us: SimTime  # a window-1 downlink's, at the report SF
    # the gateway's budget on the window-2 sub-band and a window-2 downlink's airtime
    rx2_dcp: tuple[_Budget, SimTime]
    dcp_window: int | None  # 1, 2 or None: the first window a backhaul round trip makes
    handler: Callable[[], None] | None = None  # the device's one "rp" action


class Simulation:
    """One runnable instance of a scenario, which was validated when it was built."""

    def __init__(self, scenario: Scenario) -> None:
        self.server = NetworkServer(scenario.assignments)
        self.scenario = scenario
        plan = default_eu868_plan()
        self.engine = Engine()
        streams = RandomStreams(self.scenario.seed)
        self.metrics = MetricsCollector()
        self.up_outcomes = OutcomeLog()
        self._uids = itertools.count(1)
        self._up_resources: dict[str, _Resource] = {}  # device id -> urgent resource
        self._rp_stats: KindStats | None = None
        self._up_stats: KindStats | None = None
        # per-gateway causes (None = decoded), in receiver order -> verdict
        self._verdicts: dict[tuple[str | None, ...], _Verdict] = {}
        self._duty_cycle_code = self.up_outcomes.add_verdict(NO_GATEWAYS, None,
                                                             CAUSE_DUTY_CYCLE)

        self.capture = CaptureModel(self.scenario.capture)
        self.gateways = {spec.id: Gateway(spec, self.capture)
                         for spec in self.scenario.gateways}
        policy = {d.id: self.scenario.device_duty_policy for d in self.scenario.devices}
        policy.update((g.id, g.duty_policy) for g in self.scenario.gateways)
        # One budget per (transmitter, sub-band), of the transmitter's policy.
        budgets = {(t, band.name): BUDGETS[p](t, band)
                   for t, p in policy.items() for band in plan.subbands}
        dcp_gateway = {c.id: self.gateways[c.dcp_gateway] for c in self.scenario.clusters}
        dcp_len = self.scenario.dcp_payload_len
        rx2_band = plan.subband_of(RX2_FREQ_HZ)
        rx2_airtime_us = airtime_us(RadioParams(sf=RX2_SF), dcp_len)

        rp_band = plan.subband(self.scenario.rp_subband)
        self._reporters: list[_Reporter] = []
        for dspec in self.scenario.devices:
            device = EndDevice(dspec, dspec.rp_channels or rp_band.channels)
            freq_hz, sf = scenario.assignments[dspec.id]
            self._up_resources[dspec.id] = (
                device, dspec.id, freq_hz, sf,
                airtime_us(RadioParams(sf=sf), dspec.up_payload_len),
                dspec.rx_power_dbm, budgets[dspec.id, plan.subband_of(freq_hz).name])
            if dspec.rp_period_us is None:
                continue
            params = RadioParams(sf=dspec.rp_sf)
            bands = tuple(map(plan.subband_of, device.rp_channels))
            gw = dcp_gateway[dspec.cluster]
            round_trip = 2 * gw.spec.backhaul_delay_us
            window = (1 if round_trip <= dspec.receive_delay1_us
                      else 2 if round_trip <= dspec.receive_delay2_us else None)
            reporter = _Reporter(device, streams.stream(f"rp:{dspec.id}"), dspec.rp_sf,
                                 airtime_us(params, dspec.rp_payload_len),
                                 tuple(budgets[dspec.id, band.name] for band in bands), gw,
                                 tuple(budgets[gw.spec.id, band.name] for band in bands),
                                 airtime_us(params, dcp_len),
                                 (budgets[gw.spec.id, rx2_band.name], rx2_airtime_us), window)
            reporter.handler = partial(self._attempt_rp, reporter)
            self._reporters.append(reporter)
        # (gateway id, gateway, its capture stream), in scenario order.
        self._receivers = [(g, gw, streams.stream(f"capture:{g}"))
                           for g, gw in self.gateways.items()]

        self._ups_generated = 0
        self._ups_finalized = 0
        self._up_target = self.scenario.stop.ups
        self._end_at = self.scenario.stop.at_us

        # A source's stream keeps its trigger's index.
        self._alarm_sources: list[_AlarmSource] = []
        for i, trig in self.scenario.tripping:
            source = _AlarmSource(
                tuple(map(self._up_resources.get, self.scenario.alarm_scope(trig))),
                generate_events(trig, streams.stream(f"alarm:{i}")))
            source.handler = partial(self._fire_alarm, source)
            self._alarm_sources.append(source)
        self._live_alarm_sources = len(self._alarm_sources)

    def model_inputs(self) -> ModelInputs | None:
        """The exact model's inputs, read from what this run bound; None when no
        reporter's downlinks reach a receive window.

        The model assumes of the run one DCP term per reporter whose backhaul
        round trip reaches a window, in scenario order, at its window-1
        airtime.  A window-2 reporter keeps that term until the model sees the
        gateway's budgets: the window-2 budget lets only part of its downlinks
        out, so the SF12 airtime alone would overstate the loss.  Those
        reporters share one report period and clock jitter (T, sigma), else
        ValueError; an urgent uplink lasts the longest airtime among the
        resources of the alarm sources that trip (None if none trips).
        """
        reporters = [r for r in self._reporters if r.dcp_window is not None]
        if not reporters:
            return None
        first = reporters[0].device.spec
        differing = [r.device.spec.id for r in reporters
                     if (r.device.spec.rp_period_us, r.device.spec.clock_sigma_us)
                     != (first.rp_period_us, first.clock_sigma_us)]
        if differing:
            raise ValueError(f"reporters {', '.join(differing)} differ from {first.id} in "
                             f"report period or clock jitter; the model needs one shared "
                             f"(T, sigma)")
        return ModelInputs(
            tuple(r.dcp_airtime_us / US_PER_SECOND for r in reporters),
            max((resource[4] / US_PER_SECOND for source in self._alarm_sources
                 for resource in source.resources), default=None),
            first.rp_period_us / US_PER_SECOND, first.clock_sigma_us / US_PER_SECOND)

    # -- run loop ---------------------------------------------------------------

    def run(self) -> dict:
        """Execute the scenario and return its report.

        The engine's one loop ends at the scenario's duration, whose later
        events never run, or when ``_stop_if_done`` stops it.
        """
        for reporter in self._reporters:
            # Stationary start: each sender begins at a uniform random phase
            # of its report period.
            phase = reporter.rng.below(reporter.device.spec.rp_period_us)
            self.engine.schedule(phase, reporter.handler, "rp")
        for source in self._alarm_sources:
            self._schedule_next_alarm(source)

        self._stop_if_done()
        self.engine.run_until(self._end_at)
        return self.report()

    def _stop_if_done(self) -> None:
        """Stop the engine once every UP is finalized and no more can come.

        Called when the last UP in flight is finalized, when an alarm source
        runs dry and once before the run, which are the only moments the
        answer can turn to "done".
        """
        if (self._up_target is not None
                and self._ups_finalized == self._ups_generated
                and (self._ups_generated >= self._up_target
                     or self._live_alarm_sources == 0)):
            self.engine.stop()

    def report(self) -> dict:
        return build_report(
            self.metrics,
            scenario_name=self.scenario.name,
            seed=self.scenario.seed,
            scenario_digest=scenario_digest(self.scenario),
            ended_at_us=self.engine.now,
            assignments=self.scenario.assignments,
        )

    # -- alarm handling ---------------------------------------------------------

    def _schedule_next_alarm(self, source: _AlarmSource) -> None:
        if self._up_target is not None and self._ups_generated >= self._up_target:
            return
        for at in source.instants:
            self.engine.schedule(at, source.handler, "alarm")
            return
        self._live_alarm_sources -= 1  # generator exhausted
        self._stop_if_done()

    def _fire_alarm(self, source: _AlarmSource) -> None:
        stats = self._up_stats
        if stats is None:
            stats = self._up_stats = self.metrics.kind("UP")
        # Count the whole burst first: an uplink lost at once to the duty
        # cycle must not look like the last one in flight and stop the run.
        burst = len(source.resources)
        stats.generated += burst
        self._ups_generated += burst
        self._start_ups(source.resources, self.engine.now)
        self._schedule_next_alarm(source)

    # -- urgent uplinks -----------------------------------------------------------

    def _start_ups(self, resources: tuple[_Resource, ...], trigger_us: SimTime) -> None:
        """Send the urgent uplinks on ``resources`` of the alarm triggered at ``trigger_us``.

        Each started uplink joins its group (end instant -> members), or
        starts one and schedules the group's close-out.
        """
        # Each uplink starts here, and is closed out in ``_finish_ups``, in
        # the loop body rather than in a helper per uplink: that cut the CPU
        # of a 60,000-uplink burst_cluster15 run by ~6%.
        engine = self.engine
        now = engine.now
        uids = self._uids
        receivers = self._receivers
        ending: dict[SimTime, list[Transmission]] = {}
        for resource in resources:
            device, dev_id, freq_hz, sf, air, rx_power_dbm, budget = resource
            if device.busy_until > now:
                # Half-duplex: wait out the device's own transmission.  The
                # retry may run at a later member's end, before its close-out,
                # so later members start new groups.
                self._up_stats.deferrals += 1
                ending.clear()
                engine.schedule(device.busy_until,
                                partial(self._start_ups, (resource,), trigger_us), "up")
                continue
            if budget.clearance(now, air) > now:
                # An urgent alarm is stale by the time the band frees; count it lost.
                self._up_stats.add_loss(CAUSE_DUTY_CYCLE)
                self.up_outcomes.write(trigger_us, 0, None, None, (0,), (dev_id,),
                                       (self._duty_cycle_code,))
                self._ups_finalized += 1
                if self._ups_finalized == self._ups_generated:
                    self._stop_if_done()
                continue
            tx = Transmission(dev_id, "UP", freq_hz, sf, now, air, next(uids), rx_power_dbm)
            end = tx.end_us
            device.last_tx_start = now
            device.busy_until = end
            budget.record(now, air)
            for _gw_id, gw, _rng in receivers:
                gw.on_uplink_start(tx, now)
            group = ending.get(end)
            if group is None:
                group = ending[end] = []
                engine.schedule(end, partial(self._finish_ups, group, trigger_us,
                                             now - trigger_us), "up-end")
            group.append(tx)

    def _finish_ups(self, group: list[Transmission], trigger_us: SimTime,
                    wait_us: SimTime) -> None:
        """Close out the uplinks of ``group``, which end now, in the order they started.

        They started ``wait_us`` after the alarm triggered at ``trigger_us``.
        Each ends at every gateway, in scenario order, and its tuple of
        per-gateway causes is looked up among the resolved verdicts; the group
        is written into ``up_outcomes`` as one row.
        """
        now = self.engine.now
        stats = self._up_stats
        latencies = self.metrics.up_latencies_us
        on_outcome = self.metrics.on_gateway_outcome
        receivers = self._receivers
        verdicts = self._verdicts
        uid = group[0].uid
        codes = []
        offsets = []
        devices = []
        delivered = 0
        for tx in group:
            causes: tuple[str | None, ...] = ()
            for gw_id, gw, rng in receivers:
                cause = gw.on_uplink_end(tx, now, rng)
                on_outcome("UP", gw_id, cause)
                causes += (cause,)
            verdict = verdicts.get(causes)
            delay, cause, code = verdict if verdict is not None else self._verdict(causes)
            if cause is None:
                delivered += 1
                latency = now + delay - trigger_us
                latencies[latency] = latencies.get(latency, 0) + 1
            else:
                stats.add_loss(cause)
            codes.append(code)
            offsets.append(tx.uid - uid)
            devices.append(tx.source)
        self.up_outcomes.write(trigger_us, uid, wait_us, group[0].airtime_us, tuple(offsets),
                               tuple(devices), codes)
        stats.delivered += delivered
        self._ups_finalized += len(group)
        if self._ups_finalized == self._ups_generated:
            self._stop_if_done()

    # -- periodic reports -----------------------------------------------------------

    def _attempt_rp(self, reporter: _Reporter) -> None:
        engine = self.engine
        now = engine.now
        device = reporter.device
        if device.busy_until > now:
            self.metrics.kind("RP").deferrals += 1
            engine.schedule(device.busy_until, reporter.handler, "rp")
            return
        hop = device.pick_rp_channel(reporter.rng)
        budget, air = reporter.budgets[hop], reporter.airtime_us
        clear_at = budget.clearance(now, air)
        if clear_at > now:
            self.metrics.kind("RP").deferrals += 1
            engine.schedule(clear_at, reporter.handler, "rp")
            return
        tx = Transmission(device.spec.id, "RP", device.rp_channels[hop],
                          reporter.sf, now, air, next(self._uids), device.spec.rx_power_dbm)
        device.last_tx_start = now
        device.busy_until = tx.end_us
        budget.record(now, air)
        for _gw_id, gw, _rng in self._receivers:
            gw.on_uplink_start(tx, now)
        engine.schedule(tx.end_us, partial(self._finish_rp, reporter, tx, hop), "rp-end")
        engine.schedule(device.next_rp_time(now, reporter.rng), reporter.handler, "rp")

    def _finish_rp(self, reporter: _Reporter, tx: Transmission, hop: int) -> None:
        """Close out report ``tx`` at every gateway, in scenario order."""
        now = self.engine.now
        on_outcome = self.metrics.on_gateway_outcome
        causes: tuple[str | None, ...] = ()
        for gw_id, gw, rng in self._receivers:
            cause = gw.on_uplink_end(tx, now, rng)
            on_outcome("RP", gw_id, cause)
            causes += (cause,)
        verdict = self._verdicts.get(causes)
        cause = (verdict if verdict is not None else self._verdict(causes))[1]
        stats = self._rp_stats
        if stats is None:
            stats = self._rp_stats = self.metrics.kind("RP")
        stats.generated += 1
        if cause is None:
            stats.delivered += 1
            self._request_dcp(reporter, tx, hop)
        else:
            stats.add_loss(cause)

    # -- verdicts, shared by reports and urgent uplinks -------------------------------

    def _verdict(self, causes: tuple[str | None, ...]) -> _Verdict:
        """Resolve and intern what ``causes``, one per receiver, mean for an uplink,
        and give it its code in ``up_outcomes``."""
        per_gateway = {}
        delay = None
        for (gw_id, gw, _rng), cause in zip(self._receivers, causes):
            per_gateway[gw_id] = cause if cause is not None else "decoded"
            if cause is None and (delay is None or gw.spec.backhaul_delay_us < delay):
                delay = gw.spec.backhaul_delay_us
        cause = system_cause(per_gateway) if delay is None else None
        verdict = (delay, cause,
                   self.up_outcomes.add_verdict(MappingProxyType(per_gateway), delay, cause))
        self._verdicts[causes] = verdict
        return verdict

    # -- control downlinks -----------------------------------------------------------

    def _request_dcp(self, reporter: _Reporter, rp: Transmission, hop: int) -> None:
        """Answer decoded report ``rp``, sent on report channel ``hop``, with a downlink."""
        dcp = self.metrics.dcp
        dcp["requested"] += 1
        if reporter.dcp_window == 1:
            rx1_at = rp.end_us + reporter.device.spec.receive_delay1_us
            self.engine.schedule(rx1_at, partial(self._attempt_dcp, reporter, rp, 1,
                                                 reporter.dcp_budgets[hop],
                                                 reporter.dcp_airtime_us), "dl")
            return
        dcp["skipped_too_late"] += 1
        if reporter.dcp_window == 2:
            self._schedule_rx2(reporter, rp)

    def _schedule_rx2(self, reporter: _Reporter, rp: Transmission) -> None:
        """Try to answer ``rp`` in its second receive window, on the high-duty band."""
        rx2_at = rp.end_us + reporter.device.spec.receive_delay2_us
        self.engine.schedule(
            rx2_at, partial(self._attempt_dcp, reporter, rp, 2, *reporter.rx2_dcp), "dl")

    def _attempt_dcp(self, reporter: _Reporter, rp: Transmission, window: int,
                     budget: _Budget, air: SimTime) -> None:
        now = self.engine.now
        device, gw = reporter.device, reporter.dcp_gateway
        if gw.tx_busy_until > now:
            # The gateway already committed to an overlapping downlink;
            # conflicting programming is rejected, not deferred.
            self.metrics.dcp["skipped_tx_busy"] += 1
            return
        if budget.clearance(now, air) > now:
            if window == 1:
                # Window 1 blocked by the sub-band budget: retry in window 2.
                self._schedule_rx2(reporter, rp)
            else:
                self.metrics.dcp["skipped_duty_cycle"] += 1
            return
        listening = device.last_tx_start == rp.start_us
        gw.start_downlink(now, air)
        budget.record(now, air)
        self.metrics.dcp["sent_rx1" if window == 1 else "sent_rx2"] += 1
        self.engine.schedule(
            now + air, partial(self._finish_dcp, device, rp, listening), "dl-end")

    def _finish_dcp(self, device: EndDevice, rp: Transmission, listening: bool) -> None:
        if not listening:
            self.metrics.dcp["missed_window"] += 1
        elif rp.start_us < device.last_tx_start < self.engine.now:
            # Keyed up while the downlink was on the air.
            self.metrics.dcp["missed_device_busy"] += 1
        else:
            self.metrics.dcp["received"] += 1
