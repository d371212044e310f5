"""Outcome accounting: loss causes, Wilson intervals, latency, run reports.

A packet decoded by several gateways counts once toward delivery; per-gateway
outcomes are kept separately so multi-gateway analyses can attribute losses
at each radio.  The system-level loss histogram assigns one cause per lost
packet using a fixed priority (the device-side duty-cycle first, then
collision > no-demod-path > tx-busy > gw-preempted).

A run retains a 4-byte verdict code per finalized urgent uplink and a
20-byte row per close-out group, the uplinks of one alarm that start and end
together, in an ``OutcomeLog``: the group's first uid and trigger instant in
one ``array('q')`` and the position of its layout in an ``array('I')``.  A
layout is the wait before the start, the airtime and each member's uid
offset and device; a verdict is the per-gateway map, the backhaul delay and
the loss cause; a run has few of each.  No ``PacketOutcome`` exists until the
log is iterated, which rebuilds one per uplink.  Latencies are counted in a dict
keyed by integer microseconds, from which the nearest-rank quantiles and the
mean come out exactly, and gateway outcomes in nested dicts, gateway -> kind
-> cause, which hash one string each where a ``(gateway, kind, cause)`` key
would be hashed whole twice.  All are plain dicts: a ``Counter`` increment
costs about twice a dict's.
"""

from __future__ import annotations

import json
import math
import struct
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .engine import SimTime

# Device-side cause: the packet never reached the air.
CAUSE_DUTY_CYCLE = "duty-cycle"
# Gateway-side causes, one per (packet, gateway).
CAUSE_COLLISION = "collision"
CAUSE_NO_DEMOD_PATH = "no-demod-path"
CAUSE_TX_BUSY = "tx-busy"
CAUSE_GW_PREEMPTED = "gw-preempted"

CAUSE_PRIORITY = (CAUSE_DUTY_CYCLE, CAUSE_COLLISION, CAUSE_NO_DEMOD_PATH,
                  CAUSE_TX_BUSY, CAUSE_GW_PREEMPTED)

# Uplink kinds a run counts: periodic report, urgent alarm uplink.
KINDS = ("RP", "UP")

WILSON_Z = 1.96  # two-sided 95%


def wilson_interval(losses: int, total: int) -> tuple[float, float]:
    """Wilson score interval for a loss proportion.

    Well-behaved at zero observed losses, where the upper bound is
    z^2 / (n + z^2), with z = ``WILSON_Z``.
    """
    if total <= 0:
        raise ValueError(f"total must be > 0, got {total}")
    if not 0 <= losses <= total:
        raise ValueError(f"losses {losses} out of range [0, {total}]")
    p = losses / total
    z = WILSON_Z
    z2 = z * z
    denom = 1.0 + z2 / total
    center = (p + z2 / (2 * total)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / total + z2 / (4 * total * total))
    return (max(0.0, center - half), min(1.0, center + half))


def plr(losses: int, total: int) -> tuple[float, tuple[float, float]]:
    """Point estimate and 95% Wilson interval of the packet loss ratio."""
    if total <= 0:
        raise ValueError(f"total must be > 0, got {total}")
    return losses / total, wilson_interval(losses, total)


# The per-gateway view of an uplink that never reached the air.
NO_GATEWAYS: Mapping[str, str] = MappingProxyType({})


@dataclass(slots=True)
class PacketOutcome:
    """Lifecycle record of one urgent uplink.

    ``per_gateway`` maps each gateway id to its loss cause, or ``"decoded"``.
    It is read-only, so one mapping can serve every uplink with the same
    per-gateway outcomes.
    """

    uid: int
    device: str
    trigger_us: SimTime
    start_us: SimTime | None = None
    end_us: SimTime | None = None
    delivered: bool = False
    delivered_at_us: SimTime | None = None
    cause: str | None = None  # system-level loss cause when not delivered
    per_gateway: Mapping[str, str] = field(default_factory=lambda: NO_GATEWAYS)


# A close-out group's first uid and trigger instant as the bytes of two array('q') items.
_ROW = struct.Struct("2q")

# What a close-out group shares with others: the wait (start - trigger) and the
# airtime (end - start), both None where the uplink never reached the air, then
# each member's uid offset from the first member's and its device, in start order.
_Layout = tuple[SimTime | None, SimTime | None, tuple[int, ...], tuple[str, ...]]

# What an uplink's per-gateway outcomes mean: its per-gateway map, the delay
# (delivered-at - end, None unless delivered) and the loss cause.
_Verdict = tuple[Mapping[str, str], SimTime | None, str | None]


def _outcome(uid: int, device: str, trigger: SimTime, wait: SimTime | None,
             airtime: SimTime | None, verdict: _Verdict) -> PacketOutcome:
    """Rebuild an outcome from its group's times and layout and its own verdict."""
    per_gateway, delay, cause = verdict
    if wait is None:  # never reached the air
        return PacketOutcome(uid, device, trigger, None, None, False, None, cause, per_gateway)
    start = trigger + wait
    end = start + airtime
    return PacketOutcome(uid, device, trigger, start, end, delay is not None,
                         None if delay is None else end + delay, cause, per_gateway)


class OutcomeLog:
    """Sized, read-only iterable of finalized uplink outcomes, stored one row per group.

    A group is the uplinks of one alarm that start at one instant and end at
    one instant, closed out together; an uplink that never reached the air is
    a group of one.  ``write`` takes a group's trigger instant and first uid,
    which go into one ``array('q')``, two entries per group, and its layout:
    the wait (start - trigger), the airtime (end - start), both None where the
    group never reached the air, and each member's uid offset from the first
    and device, in start order.  A run's layouts are few, so each distinct one
    is held once and the group keeps its position in an ``array('I')``: 20
    bytes per group.  Each member keeps only the code of its verdict, in
    another ``array('I')``: 4 bytes per uplink.  A verdict is the per-gateway
    map, the delay (delivered-at - end, None unless delivered) and the loss
    cause; ``add_verdict`` holds each by reference (a shared per-gateway map
    stays the same object) and gives its code, and its caller interns them.
    Iteration rebuilds each ``PacketOutcome``, in the order written, with uid =
    first uid + offset, start = trigger + wait, end = start + airtime and
    delivered-at = end + delay; the log has no random access.
    """

    __slots__ = ("_rows", "_layout_at", "_layouts", "_layout_index", "_codes", "_verdicts")

    def __init__(self) -> None:
        self._rows = array("q")  # first uid and trigger instant of each group, in turn
        self._layout_at = array("I")  # position in _layouts of each group's layout
        self._layouts: list[_Layout] = []  # in order of first use
        self._layout_index: dict[_Layout, int] = {}
        self._codes = array("I")  # each outcome's verdict code, a position in _verdicts
        self._verdicts: list[_Verdict] = []

    def add_verdict(self, per_gateway: Mapping[str, str], delay_us: SimTime | None,
                    cause: str | None) -> int:
        """Hold this verdict and return its code; an outcome is delivered iff ``delay_us``
        is given."""
        self._verdicts.append((per_gateway, delay_us, cause))
        return len(self._verdicts) - 1

    def write(self, trigger_us: SimTime, first_uid: int, wait_us: SimTime | None,
              airtime_us: SimTime | None, offsets: tuple[int, ...], devices: tuple[str, ...],
              codes: Iterable[int]) -> None:
        """Append a group: its members' uid offsets, devices and verdict codes, in start order."""
        layout = (wait_us, airtime_us, offsets, devices)
        at = self._layout_index.get(layout)
        if at is None:
            at = self._layout_index[layout] = len(self._layouts)
            self._layouts.append(layout)
        self._layout_at.append(at)
        # Packing the row is faster than two appends or an extend.
        self._rows.frombytes(_ROW.pack(first_uid, trigger_us))
        self._codes.extend(codes)

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[PacketOutcome]:
        layouts, verdicts = self._layouts, self._verdicts
        codes = iter(self._codes)
        rows = iter(self._rows)
        for at, first, trigger in zip(self._layout_at, rows, rows):
            wait, airtime, offsets, devices = layouts[at]
            # offsets runs out first, so zip takes no code past the group's.
            for offset, device, code in zip(offsets, devices, codes):
                yield _outcome(first + offset, device, trigger, wait, airtime, verdicts[code])


def latency_of(outcome: PacketOutcome) -> SimTime:
    """Trigger-to-server latency in microseconds of a delivered uplink."""
    if not outcome.delivered or outcome.delivered_at_us is None:
        raise ValueError(f"uplink {outcome.uid} was not delivered")
    return outcome.delivered_at_us - outcome.trigger_us


def system_cause(per_gateway: Mapping[str, str]) -> str:
    """Collapse per-gateway loss causes into one, by fixed priority."""
    causes = set(per_gateway.values())
    for cause in CAUSE_PRIORITY:
        if cause in causes:
            return cause
    raise ValueError(f"no recognizable loss cause in {per_gateway!r}")


@dataclass
class KindStats:
    """Counters for one traffic kind."""

    generated: int = 0
    delivered: int = 0
    deferrals: int = 0
    losses: dict[str, int] = field(default_factory=dict)

    def add_loss(self, cause: str) -> None:
        self.losses[cause] = self.losses.get(cause, 0) + 1

    @property
    def lost(self) -> int:
        return sum(self.losses.values())


class MetricsCollector:
    """Accumulates the counters a run report is built from."""

    def __init__(self) -> None:
        self.kinds: dict[str, KindStats] = {}
        # gateway -> kind -> loss cause (None = decoded) -> uplinks
        self.gateway_outcomes: dict[str, dict[str, dict[str | None, int]]] = {}
        self.up_latencies_us: dict[int, int] = {}  # latency in us -> uplinks
        self.dcp: dict[str, int] = {
            "requested": 0, "sent_rx1": 0, "sent_rx2": 0, "received": 0,
            "skipped_duty_cycle": 0, "skipped_tx_busy": 0, "skipped_rx_only": 0,
            "skipped_too_late": 0, "missed_device_busy": 0, "missed_window": 0,
        }

    def kind(self, kind: str) -> KindStats:
        if kind not in self.kinds:
            self.kinds[kind] = KindStats()
        return self.kinds[kind]

    def on_gateway_outcome(self, kind: str, gateway: str, cause: str | None) -> None:
        """Record one gateway's view of an uplink (cause None = decoded)."""
        try:
            causes = self.gateway_outcomes[gateway][kind]
        except KeyError:
            causes = self.gateway_outcomes.setdefault(gateway, {}).setdefault(kind, {})
        causes[cause] = causes.get(cause, 0) + 1

    def latency_summary(self) -> dict[str, float] | None:
        """Mean and nearest-rank quantiles of the UP latencies, exact on integers."""
        counts = self.up_latencies_us
        if not counts:
            return None
        values = sorted(counts)
        ranks = list(accumulate(counts[v] for v in values))  # rank of each value's last copy
        n = ranks[-1]

        def quantile(q: float) -> int:
            return values[bisect_left(ranks, max(1, math.ceil(q * n)))]

        # float() of the exact integer total is correctly rounded, as math.fsum
        # over the individual latencies is.
        mean = float(sum(v * counts[v] for v in values)) / n
        return {
            "mean_ms": mean / 1000.0,
            "p50_ms": quantile(0.50) / 1000.0,
            "p95_ms": quantile(0.95) / 1000.0,
            "p99_ms": quantile(0.99) / 1000.0,
            "max_ms": values[-1] / 1000.0,
        }


def build_report(collector: MetricsCollector, *, scenario_name: str, seed: int,
                 scenario_digest: str, ended_at_us: SimTime,
                 assignments: Mapping[str, tuple[int, int]]) -> dict:
    """Assemble the JSON-serializable run report."""
    kinds = {}
    for name, stats in sorted(collector.kinds.items()):
        entry: dict[str, object] = {
            "generated": stats.generated,
            "delivered": stats.delivered,
            "lost": stats.lost,
            "deferrals": stats.deferrals,
            "losses": {c: stats.losses[c] for c in sorted(stats.losses)},
        }
        if stats.generated > 0:
            point, (lo, hi) = plr(stats.lost, stats.generated)
            entry["plr"] = point
            entry["plr_ci95"] = [lo, hi]
        kinds[name] = entry
    if collector.kinds.get("UP") and (latency := collector.latency_summary()):
        kinds["UP"]["latency"] = latency

    gateways: dict[str, dict[str, object]] = {}
    for gw, by_kind in sorted(collector.gateway_outcomes.items()):
        decoded: dict[str, int] = {}
        losses: dict[str, dict[str, int]] = {}
        for kind, causes in sorted(by_kind.items()):
            if None in causes:
                decoded[kind] = causes[None]
            lost = sorted((c, n) for c, n in causes.items() if c is not None)
            if lost:
                losses[kind] = dict(lost)
        gateways[gw] = {"decoded": decoded, "losses": losses}

    return {
        "scenario": scenario_name,
        "scenario_digest": scenario_digest,
        "seed": seed,
        "ended_at_us": ended_at_us,
        "kinds": kinds,
        "dcp": dict(collector.dcp),
        "gateways": gateways,
        "assignments": {dev: {"channel_hz": ch, "sf": sf}
                        for dev, (ch, sf) in sorted(assignments.items())},
    }


def emit_report(report: Mapping[str, object], fmt: str = "json") -> str:
    """Serialize a report deterministically as JSON or flat CSV."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        import csv  # local: only a CSV report loads it
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in sorted(_flatten(report)):
            writer.writerow([key, value])
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")


def _flatten(node: object, prefix: str = "") -> list[tuple[str, object]]:
    if isinstance(node, Mapping):
        rows: list[tuple[str, object]] = []
        for key, value in node.items():
            rows.extend(_flatten(value, f"{prefix}{key}." if prefix else f"{key}."))
        return rows
    if isinstance(node, (list, tuple)):
        rows = []
        for i, value in enumerate(node):
            rows.extend(_flatten(value, f"{prefix}{i}."))
        return rows
    return [(prefix[:-1], node)]
