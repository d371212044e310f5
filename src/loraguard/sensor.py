"""Behavioral model of the multi-gas alarm sensors.

Combustible gases are measured by a catalytic bridge whose output voltage is
proportional to concentration: methane reads 2 %vol per volt, propane and
butane 3 %vol per volt (a 1.5x concentration scale).  The alarm trips at
0.5 V, which for every supported gas sits strictly below its lower explosive
limit.  CO and O2 channels are simple quantized threshold detectors.

The bridge scale, the combustible trip voltage and the CO/O2 ranges and
resolutions are calibration constants of the sensor head, fixed below.  The
CO and O2 trip points are site configuration and live in ``SensorProfile``,
which a scenario's ``sensor`` section sets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator

from .engine import SimTime, US_PER_SECOND

log = logging.getLogger(__name__)

COMBUSTIBLE_GASES = ("methane", "propane", "butane")

# Lower explosive limits in %vol, for the safety-margin checks.
LEL_PCT_VOL = {"methane": 5.0, "propane": 2.1, "butane": 1.8}

# Calibration of the sensor head.
METHANE_PCT_PER_VOLT = 2.0
PROPANE_BUTANE_SCALE = 1.5  # %vol-per-volt multiplier vs methane
COMBUSTIBLE_ALARM_VOLTS = 0.5
CO_RANGE_PPM = (0.0, 500.0)
CO_RESOLUTION_PPM = 2.0
O2_RANGE_PCT = (15.0, 21.0)
O2_RESOLUTION_PCT = 0.5


@dataclass(frozen=True)
class SensorProfile:
    """The site's CO and O2 trip points.

    They are site configuration, not calibration constants; the defaults are
    conventional occupational limits.
    """

    co_alarm_ppm: float = 100.0
    o2_deficiency_pct: float = 19.0


@dataclass(frozen=True)
class GasEvent:
    """A gas exposure at a given time.

    ``level`` is %vol for combustible gases, ppm for CO, %O2 for oxygen.  The
    devices it reaches are its trigger's scope (``Scenario.alarm_scope``).
    """

    at_us: SimTime
    species: str
    level: float


def bridge_voltage(species: str, concentration_pct_vol: float) -> float:
    """Catalytic-bridge output for a combustible-gas concentration in %vol."""
    if species not in COMBUSTIBLE_GASES:
        raise ValueError(f"{species!r} is not a combustible gas {COMBUSTIBLE_GASES}")
    if concentration_pct_vol < 0:
        raise ValueError(f"concentration must be >= 0, got {concentration_pct_vol}")
    pct_per_volt = METHANE_PCT_PER_VOLT
    if species in ("propane", "butane"):
        pct_per_volt *= PROPANE_BUTANE_SCALE
    return concentration_pct_vol / pct_per_volt


def lel_voltage(species: str) -> float:
    """Bridge voltage at the gas's lower explosive limit."""
    return bridge_voltage(species, LEL_PCT_VOL[species])


def quantize(value: float, resolution: float, lo: float, hi: float) -> tuple[float, bool]:
    """Clamp ``value`` into [lo, hi] and round to the sensor resolution.

    Returns (reading, clamped).
    """
    clamped = value < lo or value > hi
    value = min(max(value, lo), hi)
    steps = round((value - lo) / resolution)
    return lo + steps * resolution, clamped


def alarm_check(profile: SensorProfile, event: GasEvent) -> bool:
    """Would this exposure trip the alarm?

    Combustibles alarm at bridge voltage >= the trip voltage; CO alarms at or
    above its trip ppm; O2 alarms at or below the deficiency level.  CO and O2
    readings are quantized to the sensor resolution first, and out-of-range
    readings are clamped (logged, still evaluated).
    """
    if event.species in COMBUSTIBLE_GASES:
        return bridge_voltage(event.species, event.level) >= COMBUSTIBLE_ALARM_VOLTS
    if event.species == "co":
        reading, clamped = quantize(event.level, CO_RESOLUTION_PPM, *CO_RANGE_PPM)
        if clamped:
            log.warning("CO reading %.1f ppm clamped to %.1f", event.level, reading)
        return reading >= profile.co_alarm_ppm
    if event.species == "o2":
        reading, clamped = quantize(event.level, O2_RESOLUTION_PCT, *O2_RANGE_PCT)
        if clamped:
            log.warning("O2 reading %.1f%% clamped to %.1f%%", event.level, reading)
        return reading <= profile.o2_deficiency_pct
    raise ValueError(f"unknown gas species {event.species!r}")


@dataclass(frozen=True)
class TriggerSpec:
    """How a scenario generates gas events for a set of devices.

    ``kind="script"`` replays ``times_us`` verbatim; ``kind="random"`` draws
    interarrival times uniformly from [min, max].  ``species``/``level`` fill
    the emitted events.
    """

    kind: str
    species: str
    level: float
    devices: tuple[str, ...] = ()
    cluster: str | None = None
    times_us: tuple[SimTime, ...] = ()
    interarrival_min_us: SimTime = 120 * US_PER_SECOND
    interarrival_max_us: SimTime = 130 * US_PER_SECOND

    def __post_init__(self) -> None:
        if self.kind not in ("script", "random"):
            raise ValueError(f"unknown trigger kind {self.kind!r}")
        if self.kind == "script" and not self.times_us:
            raise ValueError("scripted trigger needs at least one time")
        if self.interarrival_min_us <= 0 or self.interarrival_max_us < self.interarrival_min_us:
            raise ValueError("interarrival bounds must satisfy 0 < min <= max")


def generate_events(spec: TriggerSpec, rng) -> Iterator[GasEvent]:
    """Yield the gas events of one trigger source in time order.

    Scripted sources are finite; random sources are endless (the caller stops
    consuming when its packet budget is met).
    """
    if spec.kind == "script":
        for at in sorted(spec.times_us):
            yield GasEvent(at, spec.species, spec.level)
        return
    at: SimTime = 0
    while True:
        at += int(rng.integers(spec.interarrival_min_us, spec.interarrival_max_us + 1))
        yield GasEvent(at, spec.species, spec.level)
