"""Behavioral model of the multi-gas alarm sensors.

Combustible gases are measured by a catalytic bridge whose output voltage is
proportional to concentration: methane reads 2 %vol per volt, propane and
butane 3 %vol per volt (a 1.5x concentration scale).  The alarm trips at
0.5 V, which for every supported gas sits strictly below its lower explosive
limit.  CO and O2 channels are simple quantized threshold detectors.

The bridge scale, the combustible trip voltage and the CO/O2 ranges and
resolutions are calibration constants of the sensor head, fixed below.  The
CO and O2 trip points are site configuration: ``SensorProfile``, declared
with the scenario's ``sensor`` section.  Alarm sources are declared there too,
as ``TriggerSpec``.  A source exposes one species at one level, so its
scenario asks ``alarm_check`` once, when it is built, and ``generate_events``
yields only the instants of its exposures.  A clamped CO or O2 reading warns
on the ``loraguard.sensor`` logger; ``logging`` loads on the first such reading.
"""

from __future__ import annotations

from typing import Iterator

from .engine import SimTime, Stream
from .scenario import SensorProfile, TriggerSpec

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


def alarm_check(profile: SensorProfile, species: str, level: float) -> bool:
    """Would an exposure to ``species`` at ``level`` trip the alarm?

    ``level`` is %vol for combustible gases, ppm for CO, %O2 for oxygen.
    Combustibles alarm at bridge voltage >= the trip voltage; CO alarms at or
    above its trip ppm; O2 alarms at or below the deficiency level.  CO and O2
    readings are quantized to the sensor resolution first, and out-of-range
    readings are clamped (logged, still evaluated).
    """
    if species in COMBUSTIBLE_GASES:
        return bridge_voltage(species, level) >= COMBUSTIBLE_ALARM_VOLTS
    if species == "co":
        reading, clamped = quantize(level, CO_RESOLUTION_PPM, *CO_RANGE_PPM)
        if clamped:
            import logging  # local: only a clamped reading loads it
            logging.getLogger(__name__).warning(
                "CO reading %.1f ppm clamped to %.1f", level, reading)
        return reading >= profile.co_alarm_ppm
    if species == "o2":
        reading, clamped = quantize(level, O2_RESOLUTION_PCT, *O2_RANGE_PCT)
        if clamped:
            import logging  # local: only a clamped reading loads it
            logging.getLogger(__name__).warning(
                "O2 reading %.1f%% clamped to %.1f%%", level, reading)
        return reading <= profile.o2_deficiency_pct
    raise ValueError(f"unknown gas species {species!r}")


def generate_events(spec: TriggerSpec, rng: Stream | None) -> Iterator[SimTime]:
    """Yield the exposure instants of one trigger source in time order.

    Scripted sources are finite; random sources are endless (the caller stops
    consuming when its packet budget is met).
    """
    if spec.kind == "script":
        yield from sorted(spec.times_us)
        return
    lo, hi = spec.interarrival_us
    at: SimTime = 0
    while True:
        at += lo + rng.below(hi + 1 - lo)
        yield at
