"""Outcome accounting: loss causes, Wilson intervals, latency, run reports.

A packet decoded by several gateways counts once toward delivery; per-gateway
outcomes are kept separately so multi-gateway analyses can attribute losses
at each radio.  The system-level loss histogram assigns one cause per lost
packet using a fixed priority (the device-side duty-cycle first, then
collision > no-demod-path > tx-busy > gw-preempted).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

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
_NO_GATEWAYS: Mapping[str, str] = MappingProxyType({})


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
    per_gateway: Mapping[str, str] = field(default_factory=lambda: _NO_GATEWAYS)


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


def _quantile(sorted_values: Sequence[int], q: float) -> int:
    # Nearest-rank definition: deterministic and exact on integers.
    if not sorted_values:
        raise ValueError("no values")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


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
        self.per_gateway_losses: dict[str, dict[str, dict[str, int]]] = {}
        self.gateway_decoded: dict[str, dict[str, int]] = {}
        self.up_latencies_us: list[int] = []
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
        if cause is None:
            by_kind = self.gateway_decoded.get(gateway)
            if by_kind is None:
                by_kind = self.gateway_decoded[gateway] = {}
            by_kind[kind] = by_kind.get(kind, 0) + 1
            return
        by_kind = self.per_gateway_losses.setdefault(gateway, {})
        hist = by_kind.setdefault(kind, {})
        hist[cause] = hist.get(cause, 0) + 1

    def on_up_delivered(self, outcome: PacketOutcome) -> None:
        self.up_latencies_us.append(latency_of(outcome))

    def latency_summary(self) -> dict[str, float] | None:
        if not self.up_latencies_us:
            return None
        values = sorted(self.up_latencies_us)
        return {
            "mean_ms": math.fsum(values) / len(values) / 1000.0,
            "p50_ms": _quantile(values, 0.50) / 1000.0,
            "p95_ms": _quantile(values, 0.95) / 1000.0,
            "p99_ms": _quantile(values, 0.99) / 1000.0,
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
    for gw in sorted(set(collector.gateway_decoded) | set(collector.per_gateway_losses)):
        gateways[gw] = {
            "decoded": dict(sorted(collector.gateway_decoded.get(gw, {}).items())),
            "losses": {k: dict(sorted(v.items()))
                       for k, v in sorted(collector.per_gateway_losses.get(gw, {}).items())},
        }

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
