"""Scenario runner: wires devices, gateways, server and alarm sources together.

Traffic flow per periodic report: the device hops to a random report channel,
every gateway in range tracks the frame, and if any gateway decoded it the
server schedules one control downlink through the cluster's gateway into the
device's first receive window (mirroring the uplink channel and SF).  A
window-1 downlink blocked by the duty-cycle budget falls back to window 2 on
the high-duty band; one that would overlap a transmission already programmed
at the gateway is dropped.  Starting any downlink aborts every reception in
progress at that gateway, which is the loss mechanism urgent uplinks suffer.

Urgent uplinks are triggered by gas alarms, use the device's confirmed
(channel, SF) assignment, and are never retransmitted.  Each cluster's urgent
channels and each member's commissioned assignment come from
``scenario.urgent_resources``.

Everything that depends only on the scenario is bound once per run: radio
parameters and airtime per (SF, payload length), each reporter's sub-band,
parameters and airtime per report channel, and each downlink's sub-band and
airtime per (channel, SF).  Urgent-uplink resources are bound per assignment,
since a control downlink may change it.  The urgent-uplink counters are bound
when the first alarm triggers an uplink, so a run without urgent uplinks still
reports no ``UP`` kind.  Each distinct tuple of per-gateway outcomes (in
scenario gateway order) is resolved once into a shared read-only per-gateway
map, the earliest backhaul delay among the decoding gateways and the
system-level loss cause; every urgent uplink with that tuple reuses them.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, fields
from functools import partial
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .device import DcpCommand, EndDevice
from .engine import Engine, RandomStreams, SimTime
from .gateway import Gateway
from .metrics import (CAUSE_DUTY_CYCLE, CAUSE_UNASSIGNED, KindStats, MetricsCollector,
                      PacketOutcome, build_report, system_cause)
from .phy import (CaptureModel, DEFAULT_SURVIVAL, DutyCycleLedger,
                  RadioParams, RX2_FREQ_HZ, RX2_SF, SubBand, Transmission,
                  TransmissionKind, airtime_us, default_eu868_plan)
from .scenario import Scenario, scenario_digest, urgent_resources
from .sensor import GasEvent, alarm_check, generate_events
from .server import NetworkServer

log = logging.getLogger(__name__)


@dataclass
class _AlarmSource:
    index: int
    devices: tuple[str, ...]
    events: object  # iterator of GasEvent


# (sub-band, radio parameters, airtime) of one uplink resource.
_Resource = tuple[SubBand, RadioParams, SimTime]

# What one tuple of per-gateway outcomes means for an urgent uplink: its
# read-only per-gateway map, the earliest backhaul delay among the gateways
# that decoded it (None if none did) and its system-level loss cause (None
# if delivered).
_UpVerdict = tuple[Mapping[str, str], SimTime | None, str | None]


@dataclass(slots=True)
class _Reporter:
    """Periodic-report state of one device, bound once per run."""

    device: EndDevice
    rng: np.random.Generator
    channels: dict[int, _Resource]  # report channel -> resource
    handler: Callable[[], None] | None = None  # the device's one "rp" action


def _from_spec(cls: type, spec: object, **resolved: object):
    """A ``cls`` built from the fields it shares with ``spec``, then ``resolved``."""
    wanted = {f.name for f in fields(cls)}
    shared = {f.name: getattr(spec, f.name) for f in fields(spec) if f.name in wanted}
    return cls(**{**shared, **resolved})


class Simulation:
    """One runnable instance of a scenario."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.plan = default_eu868_plan()
        self.engine = Engine()
        self.streams = RandomStreams(self.scenario.seed)
        self.metrics = MetricsCollector()
        self.up_outcomes: list[PacketOutcome] = []
        self.transmission_log: list[Transmission] | None = None  # enable for tests
        self._uids = itertools.count(1)
        self._radio: dict[tuple[int, int], tuple[RadioParams, SimTime]] = {}
        self._up_resources: dict[tuple[int, int, int], _Resource] = {}
        self._dcp_resources: dict[tuple[int, int], tuple[SubBand, SimTime]] = {}
        self._rp_stats: KindStats | None = None
        self._up_stats: KindStats | None = None
        # per-gateway causes (None = decoded), in receiver order -> verdict
        self._up_verdicts: dict[tuple[str | None, ...], _UpVerdict] = {}

        capture = self.scenario.capture
        self.capture = _from_spec(CaptureModel, capture,
                                  survival={**DEFAULT_SURVIVAL, **dict(capture.survival)})

        self.rp_band = self.plan.subband(self.scenario.rp_subband)

        self.ledger = DutyCycleLedger(default_policy=self.scenario.device_duty_policy)
        self.gateways: dict[str, Gateway] = {}
        for spec in self.scenario.gateways:
            self.gateways[spec.id] = _from_spec(Gateway, spec)
            self.ledger.set_policy(spec.id, spec.duty_policy)

        up_channels, assignments = urgent_resources(self.scenario)
        self.server = NetworkServer(assignments)

        self.devices: dict[str, EndDevice] = {}
        for dspec in self.scenario.devices:
            device = _from_spec(
                EndDevice, dspec,
                rp_channels=dspec.rp_channels or self.rp_band.channels,
                up_channels=up_channels[dspec.cluster],
                # Commissioning: the device powers up knowing its assignment;
                # control downlinks re-confirm it for the rest of the run.
                assignment=assignments[dspec.id],
            )
            self.devices[dspec.id] = device
            for gw in self.gateways.values():
                gw.rx_power_dbm[dspec.id] = dspec.rx_power_dbm

        self._reporters: list[_Reporter] = []
        for device in self.devices.values():
            if device.rp_period_us is None:
                continue
            params, air = self._radio_for(device.rp_sf, device.rp_payload_len)
            channels = {freq: (self.plan.subband_of(freq), params, air)
                        for freq in device.rp_channels}
            reporter = _Reporter(device, self.streams.stream(f"rp:{device.id}"), channels)
            reporter.handler = partial(self._attempt_rp, reporter)
            self._reporters.append(reporter)
        # (gateway id, gateway, its capture stream), in scenario order.
        self._receivers = [(g, gw, self.streams.stream(f"capture:{g}"))
                           for g, gw in self.gateways.items()]
        self._dcp_gateway = {member: self.gateways[cspec.dcp_gateway]
                             for cspec in self.scenario.clusters for member in cspec.members}

        self._ups_generated = 0
        self._ups_finalized = 0
        self._up_target = self.scenario.stop.ups
        self._end_at = self.scenario.stop.at_us

        self._alarm_sources: list[_AlarmSource] = []
        for i, trig in enumerate(self.scenario.triggers):
            source = _AlarmSource(index=i, devices=self.scenario.alarm_scope(trig),
                                  events=generate_events(
                                      trig, self.streams.stream(f"alarm:{i}")))
            self._alarm_sources.append(source)
        self._live_alarm_sources = len(self._alarm_sources)

    def _radio_for(self, sf: int, payload_len: int) -> tuple[RadioParams, SimTime]:
        radio = self._radio.get((sf, payload_len))
        if radio is None:
            params = RadioParams(sf=sf)
            radio = self._radio[(sf, payload_len)] = (params, airtime_us(params, payload_len))
        return radio

    def _up_resource(self, device: EndDevice) -> _Resource:
        freq_hz, sf = device.assignment
        key = (freq_hz, sf, device.up_payload_len)
        resource = self._up_resources.get(key)
        if resource is None:
            resource = self._up_resources[key] = (
                self.plan.subband_of(freq_hz), *self._radio_for(sf, device.up_payload_len))
        return resource

    def _dcp_resource(self, freq_hz: int, sf: int) -> tuple[SubBand, SimTime]:
        resource = self._dcp_resources.get((freq_hz, sf))
        if resource is None:
            _params, air = self._radio_for(sf, self.scenario.dcp_payload_len)
            resource = self._dcp_resources[(freq_hz, sf)] = (self.plan.subband_of(freq_hz), air)
        return resource

    # -- run loop ---------------------------------------------------------------

    def run(self) -> dict:
        """Execute the scenario and return its report."""
        for reporter in self._reporters:
            # Stationary start: each sender begins at a uniform random phase
            # of its report period.
            phase = int(reporter.rng.integers(reporter.device.rp_period_us))
            self.engine.schedule(phase, reporter.handler, "rp")
        for source in self._alarm_sources:
            self._schedule_next_alarm(source)

        if self._end_at is not None:
            self.engine.run_until(self._end_at)
        else:
            self.engine.run_while(self._keep_going)
        return self.report()

    def _keep_going(self) -> bool:
        assert self._up_target is not None
        if self._ups_finalized < self._ups_generated:
            return True
        if self._ups_generated >= self._up_target:
            return False
        # Below target with everything finalized: only a live alarm source
        # can still produce uplinks.
        return self._live_alarm_sources > 0

    def report(self) -> dict:
        return build_report(
            self.metrics,
            scenario_name=self.scenario.name,
            seed=self.scenario.seed,
            scenario_digest=scenario_digest(self.scenario),
            ended_at_us=self.engine.now,
            assignments=self.server.assignments,
        )

    # -- alarm handling ---------------------------------------------------------

    def _schedule_next_alarm(self, source: _AlarmSource) -> None:
        if self._up_target is not None and self._ups_generated >= self._up_target:
            return
        for event in source.events:
            if self._end_at is not None and event.at_us > self._end_at:
                return
            self.engine.schedule(event.at_us, partial(self._fire_alarm, source, event),
                                 "alarm")
            return
        self._live_alarm_sources -= 1  # generator exhausted

    def _fire_alarm(self, source: _AlarmSource, event: GasEvent) -> None:
        if alarm_check(self.scenario.sensor, event):
            for dev_id in source.devices:
                self._trigger_up(self.devices[dev_id])
        self._schedule_next_alarm(source)

    # -- urgent uplinks -----------------------------------------------------------

    def _trigger_up(self, device: EndDevice) -> None:
        now = self.engine.now
        self._ups_generated += 1
        stats = self._up_stats
        if stats is None:
            stats = self._up_stats = self.metrics.kind("UP")
        stats.generated += 1
        outcome = PacketOutcome(0, device.id, now)
        if device.assignment is None:
            outcome.cause = CAUSE_UNASSIGNED
            stats.add_loss(CAUSE_UNASSIGNED)
            self._finalize_up(outcome)
            return
        self._attempt_up(device, outcome)

    def _attempt_up(self, device: EndDevice, outcome: PacketOutcome) -> None:
        now = self.engine.now
        if not device.idle_at(now):
            # Half-duplex: wait out the device's own transmission.
            self._up_stats.deferrals += 1
            self.engine.schedule(device.busy_until,
                                 partial(self._attempt_up, device, outcome), "up")
            return
        band, params, air = self._up_resource(device)
        if self.ledger.check(device.id, band, now, air) > now:
            # An urgent alarm is stale by the time the band frees; count it lost.
            outcome.cause = CAUSE_DUTY_CYCLE
            self._up_stats.add_loss(CAUSE_DUTY_CYCLE)
            self._finalize_up(outcome)
            return
        uid = next(self._uids)
        tx = Transmission(device.id, TransmissionKind.UP, device.assignment[0], params,
                          now, air, uid)
        outcome.uid = uid
        outcome.start_us = now
        outcome.end_us = tx.end_us
        self._start_uplink(device, tx, band)
        self.engine.schedule(tx.end_us, partial(self._finish_up, tx, outcome), "up-end")

    def _finish_up(self, tx: Transmission, outcome: PacketOutcome) -> None:
        now = self.engine.now
        causes: tuple[str | None, ...] = ()
        for gw_id, gw, rng in self._receivers:
            cause = gw.on_uplink_end(tx, now, self.capture, rng)
            self.metrics.on_gateway_outcome("UP", gw_id, cause)
            causes += (cause,)
        verdict = self._up_verdicts.get(causes)
        if verdict is None:
            verdict = self._up_verdict(causes)
        outcome.per_gateway, delay, cause = verdict
        if cause is None:
            outcome.delivered = True
            outcome.delivered_at_us = now + delay
            self._up_stats.delivered += 1
            self.metrics.on_up_delivered(outcome)
        else:
            outcome.cause = cause
            self._up_stats.add_loss(cause)
        self._finalize_up(outcome)

    def _up_verdict(self, causes: tuple[str | None, ...]) -> _UpVerdict:
        """Resolve and intern what ``causes``, one per receiver, mean for an uplink."""
        per_gateway = {}
        delay = None
        for (gw_id, gw, _rng), cause in zip(self._receivers, causes):
            per_gateway[gw_id] = cause if cause is not None else "decoded"
            if cause is None and (delay is None or gw.backhaul_delay_us < delay):
                delay = gw.backhaul_delay_us
        verdict = (MappingProxyType(per_gateway), delay,
                   system_cause(per_gateway) if delay is None else None)
        self._up_verdicts[causes] = verdict
        return verdict

    def _finalize_up(self, outcome: PacketOutcome) -> None:
        self.up_outcomes.append(outcome)
        self._ups_finalized += 1

    # -- periodic reports -----------------------------------------------------------

    def _attempt_rp(self, reporter: _Reporter) -> None:
        now = self.engine.now
        device = reporter.device
        if not device.idle_at(now):
            self.metrics.kind("RP").deferrals += 1
            self.engine.schedule(device.busy_until, reporter.handler, "rp")
            return
        freq_hz = device.pick_rp_channel(reporter.rng)
        band, params, air = reporter.channels[freq_hz]
        clear_at = self.ledger.check(device.id, band, now, air)
        if clear_at > now:
            self.metrics.kind("RP").deferrals += 1
            self.engine.schedule(clear_at, reporter.handler, "rp")
            return
        tx = Transmission(device.id, TransmissionKind.RP, freq_hz, params, now, air,
                          next(self._uids))
        self._start_uplink(device, tx, band)
        self.engine.schedule(tx.end_us, partial(self._finish_rp, device, tx), "rp-end")
        self.engine.schedule(device.next_rp_time(now, reporter.rng), reporter.handler, "rp")

    def _finish_rp(self, device: EndDevice, tx: Transmission) -> None:
        now = self.engine.now
        stats = self._rp_stats
        if stats is None:
            stats = self._rp_stats = self.metrics.kind("RP")
        stats.generated += 1
        decoded = False
        lost = None  # gateway id -> loss cause, built only when some gateway lost it
        for gw_id, gw, rng in self._receivers:
            cause = gw.on_uplink_end(tx, now, self.capture, rng)
            self.metrics.on_gateway_outcome("RP", gw_id, cause)
            if cause is None:
                decoded = True
            elif lost is None:
                lost = {gw_id: cause}
            else:
                lost[gw_id] = cause
        if decoded:
            stats.delivered += 1
            self._request_dcp(device, tx)
        else:
            stats.add_loss(system_cause(lost))

    # -- shared uplink mechanics ---------------------------------------------------

    def _start_uplink(self, device: EndDevice, tx: Transmission, band: SubBand) -> None:
        device.mark_transmitting(tx.start_us, tx.end_us)
        device.open_rx_windows(tx.end_us, tx.freq_hz, tx.params.sf)
        self.ledger.record(device.id, band, tx.start_us, tx.airtime_us)
        if self.transmission_log is not None:
            self.transmission_log.append(tx)
        for _gw_id, gw, _rng in self._receivers:
            gw.on_uplink_start(tx, tx.start_us)

    # -- control downlinks -----------------------------------------------------------

    def _request_dcp(self, device: EndDevice, rp: Transmission) -> None:
        gw = self._dcp_gateway[device.id]
        command = self.server.dcp_for(device.id)
        self.metrics.dcp["requested"] += 1
        rx1_at = rp.end_us + device.receive_delay1_us
        rx2_at = rp.end_us + device.receive_delay2_us
        # Uplink to server and command back to the gateway: one backhaul
        # round trip must beat the receive window.
        ready_at = self.engine.now + 2 * gw.backhaul_delay_us
        if ready_at <= rx1_at:
            self.engine.schedule(
                rx1_at, partial(self._attempt_dcp, device, command, gw, rp, 1), "dl")
        elif ready_at <= rx2_at:
            self.metrics.dcp["skipped_too_late"] += 1
            self.engine.schedule(
                rx2_at, partial(self._attempt_dcp, device, command, gw, rp, 2), "dl")
        else:
            self.metrics.dcp["skipped_too_late"] += 1

    def _attempt_dcp(self, device: EndDevice, command: DcpCommand, gw: Gateway,
                     rp: Transmission, window: int) -> None:
        now = self.engine.now
        if gw.role != "full":
            self.metrics.dcp["skipped_rx_only"] += 1
            return
        if window == 1:
            freq_hz, sf = rp.freq_hz, rp.params.sf
        else:
            freq_hz, sf = RX2_FREQ_HZ, RX2_SF
        if gw.tx_busy_until > now:
            # The gateway already committed to an overlapping downlink;
            # conflicting programming is rejected, not deferred.
            self.metrics.dcp["skipped_tx_busy"] += 1
            return
        band, air = self._dcp_resource(freq_hz, sf)
        if self.ledger.check(gw.id, band, now, air) > now:
            if window == 1:
                # Window 1 blocked by the sub-band budget: retry in window 2,
                # which lives on the high-duty band.
                rx2_at = rp.end_us + device.receive_delay2_us
                self.engine.schedule(
                    rx2_at, partial(self._attempt_dcp, device, command, gw, rp, 2), "dl")
            else:
                self.metrics.dcp["skipped_duty_cycle"] += 1
            return
        listening = (device.window_open_at(now, freq_hz, sf)
                     and device.idle_at(now))
        gw.start_downlink(now, air)
        self.ledger.record(gw.id, band, now, air)
        self.metrics.dcp["sent_rx1" if window == 1 else "sent_rx2"] += 1
        self.engine.schedule(
            now + air, partial(self._finish_dcp, device, command, now, listening), "dl-end")

    def _finish_dcp(self, device: EndDevice, command: DcpCommand,
                    started_at: SimTime, listening: bool) -> None:
        now = self.engine.now
        if not listening:
            self.metrics.dcp["missed_window"] += 1
            return
        if device.transmitted_during(started_at, now):
            self.metrics.dcp["missed_device_busy"] += 1
            return
        if device.apply_dcp(command):
            self.metrics.dcp["received"] += 1
        else:
            self.metrics.dcp["missed_window"] += 1
