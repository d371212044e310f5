"""Scenario files: YAML documents with explicit units, validated into dataclasses.

Every dimensioned field is a string with a unit suffix ("70 s", "50 ms",
"867.1 MHz", "14 dBm", "1.2 %vol"); bare numbers are rejected so a stray
millisecond/second mix-up cannot slip through.  Validation errors name the
offending field path.

Each field is declared once, on its spec dataclass: YAML key, kind (how the
value parses and formats), default and range.  Parsing, serialising and the
range checks are all derived from those declarations.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

import yaml

from .engine import SimTime, US_PER_SECOND
from .server import MAX_PER_CHANNEL, assign_resources

__all__ = [
    "ScenarioError", "StopSpec", "DeviceSpec", "GatewaySpec", "ClusterSpec",
    "CaptureSpec", "TriggerSpec", "SensorProfile", "GasLevel", "Scenario",
    "load_scenario", "parse_scenario", "scenario_to_dict", "save_scenario",
    "scenario_digest", "shipped_scenario_path", "parse_duration", "parse_frequency",
]


class ScenarioError(ValueError):
    """A scenario document is malformed; the message names the field."""


_QUANTITY_RE = re.compile(r"^\s*([-+]?[0-9._]+(?:[eE][-+]?[0-9]+)?)\s*([%a-zA-Z]+)\s*$")

_DURATION_US = {"us": 1, "ms": 1_000, "s": US_PER_SECOND,
                "min": 60 * US_PER_SECOND, "h": 3_600 * US_PER_SECOND}
_FREQ_HZ = {"hz": 1, "khz": 1_000, "mhz": 1_000_000, "ghz": 1_000_000_000}


def _split_quantity(value: object, path: str, expected: str) -> tuple[float, str]:
    if not isinstance(value, str):
        raise ScenarioError(
            f"{path}: expected a string with a unit suffix like {expected!r}, "
            f"got {value!r}")
    match = _QUANTITY_RE.match(value)
    if not match:
        raise ScenarioError(
            f"{path}: cannot parse quantity {value!r} (expected e.g. {expected!r})")
    try:
        number = float(match.group(1).replace("_", ""))
    except ValueError as exc:
        raise ScenarioError(f"{path}: bad number in {value!r}") from exc
    if not math.isfinite(number):
        raise ScenarioError(f"{path}: {value!r} is out of range")
    return number, match.group(2)


def _scaled(value: object, path: str, expected: str, what: str, factors: dict[str, int]) -> int:
    number, unit = _split_quantity(value, path, expected)
    factor = factors.get(unit.lower())
    if factor is None:
        raise ScenarioError(f"{path}: unknown {what} unit {unit!r} in {value!r}")
    if not math.isfinite(number * factor):
        raise ScenarioError(f"{path}: {value!r} is out of range")
    return round(number * factor)


def parse_duration(value: object, path: str = "duration") -> SimTime:
    """Parse a duration string into integer microseconds."""
    return _scaled(value, path, "70 s", "duration", _DURATION_US)


def parse_frequency(value: object, path: str = "frequency") -> int:
    """Parse a frequency string into integer hertz."""
    return _scaled(value, path, "867.1 MHz", "frequency", _FREQ_HZ)


def _parse_decibels(value: object, path: str, unit: str) -> float:
    number, got = _split_quantity(value, path, f"6 {unit}")
    if got.lower() != unit.lower():
        raise ScenarioError(f"{path}: expected {unit}, got {got!r}")
    return number


_LEVEL_UNITS = {"methane": "%vol", "propane": "%vol", "butane": "%vol",
                "co": "ppm", "o2": "%"}


class GasLevel(NamedTuple):
    """A gas level in its species' unit: %vol, ppm (CO) or % (O2)."""

    value: float
    unit: str


def _level_problem(species: str, unit: str) -> str | None:
    want = _LEVEL_UNITS[species]
    return None if unit == want else f"{species} levels use {want!r}, got {unit!r}"


def _parse_level(value: object, path: str, species: str) -> float:
    """A level of one fixed species, in its exact unit."""
    number, unit = _split_quantity(value, path, f"1.2 {_LEVEL_UNITS[species]}")
    problem = _level_problem(species, unit)
    if problem is not None:
        raise ScenarioError(f"{path}: {problem}")
    return number


def _fmt_us(us: SimTime) -> str:
    if us % US_PER_SECOND == 0:
        return f"{us // US_PER_SECOND} s"
    if us % 1000 == 0:
        return f"{us // 1000} ms"
    return f"{us} us"


def _fmt_hz(hz: int) -> str:
    if hz % 100_000 == 0:
        return f"{hz / 1_000_000} MHz"
    return f"{hz} Hz"


def _as_mapping(node: object, path: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(node).__name__}")
    return dict(node)


def _as_list(node: object, path: str) -> list:
    if not isinstance(node, list):
        raise ScenarioError(f"{path}: expected a list, got {type(node).__name__}")
    return node


def _no_leftovers(section: dict, path: str) -> None:
    if section:
        raise ScenarioError(f"{path}: unknown fields {sorted(section)}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


# -- field kinds ------------------------------------------------------------------


class _Kind(NamedTuple):
    """How one field's YAML value parses, ``parse(value, path)``, and formats back."""

    parse: Callable[[Any, str], Any]
    format: Callable[[Any], Any]


def _parse_int(value: object, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{path}: expected an integer, got {value!r}")
    return value


def _parse_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{path}: expected a string, got {value!r}")
    return value


def _list_of(kind: _Kind) -> _Kind:
    def parse(node: object, path: str) -> tuple:
        return tuple(kind.parse(item, f"{path}[{i}]")
                     for i, item in enumerate(_as_list(node, path)))
    return _Kind(parse, lambda items: [kind.format(item) for item in items])


def _parse_spec(cls: type, node: object, path: str) -> Any:
    """Build a declared spec from its YAML mapping; ``path`` prefixes error messages.

    A missing key, or a null one, takes the declared default; a key without a
    default is required.  A spec with an ``id`` names it in later paths.
    """
    section = _as_mapping(node, path or "scenario")
    values: dict[str, object] = {}
    for f in fields(cls):
        key = f.metadata["key"]
        raw = section.pop(key, None)
        if raw is not None:
            values[f.name] = f.metadata["kind"].parse(raw, _join(path, key))
        elif key in node and f.metadata.get("nullable"):
            values[f.name] = None
        elif f.default is MISSING:
            raise ScenarioError(f"{_join(path, key)}: required")
        if f.name == "id":
            path = f"{path}({values['id']})"
    _no_leftovers(section, path or "scenario")
    return cls(**values)


def _dump_spec(spec: Any) -> dict:
    """The YAML mapping of a declared spec.

    A None or empty value is left out, so parsing restores the default,
    unless the field is nullable.
    """
    doc: dict[str, object] = {}
    for f in fields(spec):
        value = getattr(spec, f.name)
        text = None if value is None else f.metadata["kind"].format(value)
        if text not in (None, [], {}) or f.metadata.get("nullable"):
            doc[f.metadata["key"]] = text
    return doc


def _spec(cls: type) -> _Kind:
    return _Kind(partial(_parse_spec, cls), _dump_spec)


def _parse_assignment(node: object, path: str) -> tuple[int, int]:
    section = _as_mapping(node, path)
    freq = parse_frequency(section.pop("channel", None), f"{path}.channel")
    sf = _parse_int(section.pop("sf", None), f"{path}.sf")
    _no_leftovers(section, path)
    return freq, sf


def _parse_interval(node: object, path: str) -> tuple[SimTime, SimTime]:
    section = _as_mapping(node, path)
    lo, hi = (parse_duration(section.pop(key, None), f"{path}.{key}") for key in ("min", "max"))
    _no_leftovers(section, path)
    return lo, hi


def _parse_survival(node: object, path: str) -> tuple[tuple[tuple[int, int], float], ...]:
    overrides = []
    # YAML may mix integer and string keys; sort on the text so both compare.
    for key, prob in sorted(_as_mapping(node, path).items(), key=lambda kv: str(kv[0])):
        pair = re.fullmatch(r"(\d+)/(\d+)", str(key))
        if not pair:
            raise ScenarioError(f"{path}: keys look like 'own_sf/other_sf', got {key!r}")
        if not isinstance(prob, (int, float)) or isinstance(prob, bool):
            raise ScenarioError(f"{path}[{key}]: expected a number")
        overrides.append(((int(pair.group(1)), int(pair.group(2))), float(prob)))
    return tuple(overrides)


_INT = _Kind(_parse_int, int)
_STR = _Kind(_parse_str, str)
_IDS = _list_of(_STR)
_DURATION = _Kind(parse_duration, _fmt_us)
_DURATIONS = _list_of(_DURATION)
_FREQUENCIES = _list_of(_Kind(parse_frequency, _fmt_hz))
_DBM = _Kind(partial(_parse_decibels, unit="dBm"), "{} dBm".format)
_DB = _Kind(partial(_parse_decibels, unit="dB"), "{} dB".format)
_ASSIGNMENT = _Kind(_parse_assignment,
                    lambda a: {"channel": _fmt_hz(a[0]), "sf": a[1]})
_INTERVAL = _Kind(_parse_interval, lambda b: {"min": _fmt_us(b[0]), "max": _fmt_us(b[1])})
_SURVIVAL = _Kind(_parse_survival,
                  lambda table: {f"{own}/{other}": p for (own, other), p in table})
_GAS_LEVEL = _Kind(lambda value, path: GasLevel(*_split_quantity(value, path, "1.2 %vol")),
                   lambda level: f"{level.value} {level.unit}")
_CO_PPM = _Kind(partial(_parse_level, species="co"), "{} ppm".format)
_O2_PCT = _Kind(partial(_parse_level, species="o2"), "{} %".format)


# -- field declarations -------------------------------------------------------------


def _field(key: str, kind: _Kind, default: object = MISSING, **checks: object) -> Any:
    """Declare a scenario field: YAML key, kind, default (none = required) and checks.

    Checks are ``lo``/``hi`` (inclusive bounds), ``choices``, and ``nullable``:
    YAML null is then a value of its own instead of meaning "use the default".
    """
    return field(default=default, metadata={"key": key, "kind": kind, **checks})


_DUTY_POLICIES = ("offtime", "window")
_PAYLOAD_BYTES = {"lo": 0, "hi": 255}  # the LoRa PHY payload limit
UP_SF_MIN = 7
UP_SF_MAX = 10  # keeps the urgent airtime under the 500 ms latency budget


@dataclass(frozen=True)
class StopSpec:
    """Run termination: a count of finalized urgent uplinks or a sim duration.

    Exactly one of the two is required; ``validate_scenario`` checks that and
    the ranges when a Scenario is built, so constructing this never raises.
    """

    ups: int | None = _field("ups", _INT, None, lo=1)
    at_us: SimTime | None = _field("duration", _DURATION, None, lo=1)


@dataclass(frozen=True)
class DeviceSpec:
    id: str = _field("id", _STR)
    cluster: str = _field("cluster", _STR)
    rp_period_us: SimTime | None = _field("rp_period", _DURATION, 70 * US_PER_SECOND,
                                          lo=1, nullable=True)
    clock_sigma_us: SimTime = _field("clock_sigma", _DURATION, 50_000, lo=0)
    rp_sf: int = _field("rp_sf", _INT, 7, lo=7, hi=12)
    rp_payload_len: int = _field("rp_payload", _INT, 37, **_PAYLOAD_BYTES)
    # None = all report-band channels
    rp_channels: tuple[int, ...] | None = _field("rp_channels", _FREQUENCIES, None)
    up_payload_len: int = _field("up_payload", _INT, 37, **_PAYLOAD_BYTES)
    assignment: tuple[int, int] | None = _field("assignment", _ASSIGNMENT, None)  # (freq_hz, sf)
    rx_power_dbm: float = _field("rx_power", _DBM, 0.0)
    receive_delay1_us: SimTime = _field("receive_delay1", _DURATION, 1 * US_PER_SECOND, lo=0)
    receive_delay2_us: SimTime = _field("receive_delay2", _DURATION, 2 * US_PER_SECOND, lo=0)
    rp_floor_us: SimTime = _field("rp_floor", _DURATION, 1 * US_PER_SECOND, lo=0)


@dataclass(frozen=True)
class GatewaySpec:
    id: str = _field("id", _STR)
    role: str = _field("role", _STR, "full", choices=("full", "rx_only"))
    demod_paths: int = _field("demod_paths", _INT, 10, lo=1)
    backhaul_delay_us: SimTime = _field("backhaul", _DURATION, 20_000, lo=0)
    duty_policy: str = _field("duty_policy", _STR, "window", choices=_DUTY_POLICIES)


@dataclass(frozen=True)
class ClusterSpec:
    id: str = _field("id", _STR)
    members: tuple[str, ...] = _field("members", _IDS)
    dcp_gateway: str = _field("dcp_gateway", _STR)
    # None = all urgent-band channels
    up_channels: tuple[int, ...] | None = _field("up_channels", _FREQUENCIES, None)


@dataclass(frozen=True)
class CaptureSpec:
    mode: str = _field("mode", _STR, "empirical", choices=("empirical", "threshold"))
    co_sf_margin_db: float = _field("co_sf_margin", _DB, 6.0)
    # ((own_sf, other_sf), survival) overrides of the calibrated table
    survival: tuple[tuple[tuple[int, int], float], ...] = _field("survival", _SURVIVAL, ())


@dataclass(frozen=True)
class TriggerSpec:
    """How a scenario generates gas events for a set of devices.

    ``kind="script"`` replays ``times_us`` verbatim; ``kind="random"`` draws
    interarrival times uniformly from ``interarrival_us`` = (min, max).
    ``species``/``level`` fill the emitted events.  The other kind's timing
    is a validation error, not ignored.  ``validate_scenario`` checks a
    trigger when a Scenario is built, so constructing one never raises.
    """

    kind: str = _field("kind", _STR, choices=("script", "random"))
    species: str = _field("species", _STR, choices=tuple(_LEVEL_UNITS))
    level: GasLevel = _field("level", _GAS_LEVEL)
    devices: tuple[str, ...] = _field("devices", _IDS, ())
    cluster: str | None = _field("cluster", _STR, None)
    times_us: tuple[SimTime, ...] = _field("times", _DURATIONS, ())
    interarrival_us: tuple[SimTime, SimTime] | None = _field("interarrival", _INTERVAL, None)

    def __post_init__(self) -> None:
        # Filled in here, not declared, so that a scripted alarm has none.
        if self.kind == "random" and self.interarrival_us is None:
            object.__setattr__(self, "interarrival_us",
                               (120 * US_PER_SECOND, 130 * US_PER_SECOND))


@dataclass(frozen=True)
class SensorProfile:
    """The site's CO and O2 trip points.

    They are site configuration, not calibration constants of the sensor
    head; the defaults are conventional occupational limits.
    """

    co_alarm_ppm: float = _field("co_alarm", _CO_PPM, 100.0)
    o2_deficiency_pct: float = _field("o2_deficiency", _O2_PCT, 19.0)


@dataclass(frozen=True)
class Scenario:
    """A complete simulation input, validated whenever one is built (``replace`` too).

    ``assignments`` holds each cluster member's urgent (channel, SF), ``tripping`` the
    (index, trigger) pairs whose exposure trips the sensors.  Neither is a field,
    so parsing, serialising, the digest and the range checks skip them.
    """

    name: str = _field("name", _STR)
    stop: StopSpec = _field("stop", _spec(StopSpec))
    gateways: tuple[GatewaySpec, ...] = _field("gateways", _list_of(_spec(GatewaySpec)))
    clusters: tuple[ClusterSpec, ...] = _field("clusters", _list_of(_spec(ClusterSpec)))
    devices: tuple[DeviceSpec, ...] = _field("devices", _list_of(_spec(DeviceSpec)))
    triggers: tuple[TriggerSpec, ...] = _field("alarms", _list_of(_spec(TriggerSpec)), ())
    capture: CaptureSpec = _field("capture", _spec(CaptureSpec), CaptureSpec())
    # The default sensor serialises as {}, so it is left out like a default.
    sensor: SensorProfile = _field(
        "sensor", _Kind(partial(_parse_spec, SensorProfile),
                        lambda s: {} if s == SensorProfile() else _dump_spec(s)),
        SensorProfile())
    seed: int = _field("seed", _INT, 0, lo=0, hi=2**63 - 1)
    dcp_payload_len: int = _field("dcp_payload", _INT, 37, **_PAYLOAD_BYTES)
    rp_subband: str = _field("rp_subband", _STR, "g1")
    up_subband: str = _field("up_subband", _STR, "g")
    device_duty_policy: str = _field("device_duty_policy", _STR, "offtime",
                                     choices=_DUTY_POLICIES)

    def __post_init__(self) -> None:
        from .sensor import alarm_check  # lazy: sensor imports this module

        object.__setattr__(self, "assignments", validate_scenario(self))
        object.__setattr__(self, "tripping", tuple(
            (i, trig) for i, trig in enumerate(self.triggers)
            if alarm_check(self.sensor, trig.species, trig.level.value)))

    def with_seed(self, seed: int) -> "Scenario":
        """This scenario with another seed, validated like any other."""
        return replace(self, seed=seed)

    def device(self, device_id: str) -> DeviceSpec:
        for dev in self.devices:
            if dev.id == device_id:
                return dev
        raise KeyError(device_id)

    def alarm_scope(self, trigger: TriggerSpec) -> tuple[str, ...]:
        """The devices an alarm triggers: its ``devices``, else its cluster's members."""
        return trigger.devices or next(c.members for c in self.clusters
                                       if c.id == trigger.cluster)


# -- range checks over the declarations -------------------------------------------


def _is_declared(value: object) -> bool:
    return is_dataclass(value) and "key" in fields(value)[0].metadata


def _range_problems(spec: Any, path: str = "") -> list[str]:
    """Every declared ``lo``/``hi``/``choices`` violation in a spec and its nested specs."""
    problems: list[str] = []
    for f in fields(spec):
        meta, value = f.metadata, getattr(spec, f.name)
        where = _join(path, meta["key"])
        if _is_declared(value):
            problems += _range_problems(value, where)
        elif isinstance(value, tuple) and value and _is_declared(value[0]):
            for i, item in enumerate(value):
                label = f"({item.id})" if hasattr(item, "id") else f"[{i}]"
                problems += _range_problems(item, where + label)
        elif value is not None:
            problem = _value_problem(meta, value, where)
            if problem is not None:
                problems.append(problem)
    return problems


def _value_problem(meta: Mapping[str, Any], value: object, where: str) -> str | None:
    """The declared ``lo``/``hi``/``choices`` violation of one field value, if any."""
    fmt, lo, hi = meta["kind"].format, meta.get("lo"), meta.get("hi")
    if "choices" in meta and value not in meta["choices"]:
        return f"{where}: {value!r} is not one of {list(meta['choices'])}"
    if hi is not None and not lo <= value <= hi:
        return f"{where}: {fmt(value)} outside [{fmt(lo)}, {fmt(hi)}]"
    if lo is not None and value < lo:
        return f"{where}: {fmt(value)} below {fmt(lo)}"
    return None


def parse_scenario(data: object) -> Scenario:
    """Build a Scenario, which validates itself, from a parsed YAML document."""
    return _parse_spec(Scenario, data, "")


def validate_scenario(scenario: Scenario) -> dict[str, tuple[int, int]]:
    """Every check of a scenario, then each cluster member's urgent (channel, SF).

    The spec constructors check nothing; this runs the declared range and
    choice checks and every cross-field rule.

    A member keeps its explicit assignment; the others take the automatic
    rule, which runs over the whole cluster (on its ``up_channels``, else the
    urgent sub-band's) when some member has none.  Raises ScenarioError
    listing every problem found.
    """
    from .phy import SubBand, default_eu868_plan  # lazy: phy imports this module

    plan = default_eu868_plan()
    problems = _range_problems(scenario)
    if (scenario.stop.ups is None) == (scenario.stop.at_us is None):
        problems.append("stop: exactly one of 'ups' or 'duration' is required")

    def subband(name: str, where: str) -> SubBand | None:
        try:
            return plan.subband(name)
        except KeyError:
            problems.append(f"{where}: unknown sub-band {name!r}")
            return None

    rp_band = subband(scenario.rp_subband, "rp_subband")
    up_band = subband(scenario.up_subband, "up_subband")
    up_default_channels = up_band.channels if up_band is not None else ()

    device_ids = [d.id for d in scenario.devices]
    gateway_ids = [g.id for g in scenario.gateways]
    cluster_ids = [c.id for c in scenario.clusters]
    for label, ids in (("devices", device_ids), ("gateways", gateway_ids),
                       ("clusters", cluster_ids)):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        if dupes:
            problems.append(f"{label}: duplicate ids {dupes}")
    shared = sorted(set(device_ids) & set(gateway_ids))
    if shared:
        problems.append(f"ids used for both a device and a gateway: {shared}")
    known_devices = set(device_ids)
    gateways_by_id = {g.id: g for g in scenario.gateways}

    explicit = {d.id: d.assignment for d in scenario.devices if d.assignment is not None}
    assignments: dict[str, tuple[int, int]] = {}
    member_cluster: dict[str, str] = {}
    cluster_channels: dict[str, tuple[int, ...]] = {}
    for cl in scenario.clusters:
        where = f"clusters({cl.id})"
        channels = cluster_channels[cl.id] = (
            cl.up_channels if cl.up_channels is not None else up_default_channels)
        if not cl.members:
            problems.append(f"{where}.members: empty")
        if not channels:
            problems.append(f"{where}: no urgent-uplink channels available")
        if up_band is not None:
            for ch in channels:
                if not up_band.contains(ch):
                    problems.append(
                        f"{where}.up_channels: {ch} Hz outside sub-band "
                        f"{scenario.up_subband}")
        repeated = sorted({ch for ch in channels if channels.count(ch) > 1})
        if repeated:
            problems.append(f"{where}.up_channels: duplicate channels "
                            f"{[_fmt_hz(ch) for ch in repeated]}")
        for member in cl.members:
            if member not in known_devices:
                problems.append(f"{where}.members: unknown device {member!r}")
            if member in member_cluster:
                problems.append(f"{where}.members: {member!r} already in "
                                f"{member_cluster[member]!r}")
            member_cluster[member] = cl.id
        gw = gateways_by_id.get(cl.dcp_gateway)
        if gw is None:
            problems.append(f"{where}.dcp_gateway: unknown gateway {cl.dcp_gateway!r}")
        elif gw.role != "full":
            problems.append(f"{where}.dcp_gateway: {gw.id} is receive-only")
        if not channels or repeated or len(set(cl.members)) < len(cl.members):
            continue  # reported above; the automatic rule cannot run
        try:
            automatic = ({} if all(m in explicit for m in cl.members)
                         else assign_resources(cl.members, channels))
        except ValueError as exc:  # over capacity
            problems.append(f"{where}: {exc}")
            continue
        for member in cl.members:
            if member in explicit:
                assignments[member] = explicit[member]
                continue
            # Explicit members may share a resource on purpose; an automatic
            # one never should, or the cluster loses its collision-free bursts.
            freq, sf = assignments[member] = automatic[member]
            holder = next((d for d, held in explicit.items()
                           if held == (freq, sf) and d in cl.members), None)
            if holder is not None:
                problems.append(f"devices({member}).assignment: automatic "
                                f"({_fmt_hz(freq)}, SF{sf}) collides with {holder}")

    occupancy: dict[tuple[str, int], int] = {}
    for dev in scenario.devices:
        where = f"devices({dev.id})"
        if dev.cluster not in {c.id for c in scenario.clusters}:
            problems.append(f"{where}.cluster: unknown cluster {dev.cluster!r}")
        elif member_cluster.get(dev.id) != dev.cluster:
            problems.append(f"{where}: not listed in cluster {dev.cluster!r} members")
        if dev.receive_delay1_us >= dev.receive_delay2_us:
            problems.append(
                f"{where}.receive_delay1: {_fmt_us(dev.receive_delay1_us)} not before "
                f"receive_delay2 {_fmt_us(dev.receive_delay2_us)}")
        if dev.rp_channels is not None:
            if not dev.rp_channels:
                problems.append(f"{where}.rp_channels: empty list")
            elif rp_band is not None:
                for ch in dev.rp_channels:
                    if not rp_band.contains(ch):
                        problems.append(
                            f"{where}.rp_channels: {ch} Hz outside sub-band "
                            f"{scenario.rp_subband}")
        elif dev.rp_period_us is not None and rp_band is not None and not rp_band.channels:
            problems.append(f"{where}.rp_channels: none given, and rp_subband "
                            f"{scenario.rp_subband} has no channels to report on")
        if dev.assignment is not None:
            freq, sf = dev.assignment
            if not UP_SF_MIN <= sf <= UP_SF_MAX:
                problems.append(
                    f"{where}.assignment.sf: {sf} outside [{UP_SF_MIN}, {UP_SF_MAX}]")
            allowed = cluster_channels.get(dev.cluster, up_default_channels)
            if allowed and freq not in allowed:
                problems.append(
                    f"{where}.assignment.channel: {freq} Hz not an urgent channel "
                    f"of cluster {dev.cluster!r}")
            key = (dev.cluster, freq)
            occupancy[key] = occupancy.get(key, 0) + 1
            if occupancy[key] > MAX_PER_CHANNEL:
                problems.append(
                    f"{where}.assignment.channel: more than {MAX_PER_CHANNEL} devices on "
                    f"{freq} Hz in cluster {dev.cluster!r}")

    for i, trig in enumerate(scenario.triggers):
        where = f"alarms[{i}]"
        if trig.species in _LEVEL_UNITS:  # an unknown one is a range problem
            problem = _level_problem(trig.species, trig.level.unit)
            if problem is not None:
                problems.append(f"{where}: {problem}")
        if not trig.devices and trig.cluster is None:
            problems.append(f"{where}: needs 'devices' or 'cluster'")
        for dev_id in trig.devices:
            if dev_id not in known_devices:
                problems.append(f"{where}.devices: unknown device {dev_id!r}")
        if trig.cluster is not None and trig.cluster not in {c.id for c in scenario.clusters}:
            problems.append(f"{where}.cluster: unknown cluster {trig.cluster!r}")
        if trig.level.value < 0:
            problems.append(f"{where}.level: must be >= 0")
        if trig.kind == "script":
            if not trig.times_us:
                problems.append(f"{where}: scripted trigger needs at least one time")
            if trig.interarrival_us is not None:
                problems.append(f"{where}.interarrival: not used by a scripted alarm")
        elif trig.kind == "random":
            if trig.times_us:
                problems.append(f"{where}.times: not used by a random alarm")
            lo, hi = trig.interarrival_us
            if lo <= 0 or hi < lo:
                problems.append(
                    f"{where}: interarrival bounds must satisfy 0 < min <= max")

    for (own, other), p in scenario.capture.survival:
        if not (7 <= own <= 12 and 7 <= other <= 12):
            problems.append(f"capture.survival: SF pair {own}/{other} outside [7, 12]")
        if not 0.0 <= p <= 1.0:
            problems.append(f"capture.survival[{own}/{other}]: {p} outside [0, 1]")

    if problems:
        raise ScenarioError("; ".join(problems))
    return assignments


# libyaml's parser is about 9x faster than PyYAML's pure-Python one, but the
# two disagree on some text.  libyaml builds another document, or one where
# the pure-Python parser raises, from text with a tag, a tab, a block scalar,
# a "?" or a character that is not printable ASCII, so such text goes to the
# pure-Python parser; and text libyaml rejects goes there too, which accepts
# some of it and words its own errors.  A file so reads alike on a host
# without libyaml.
_PURE_ONLY = re.compile(r"[^\n\x20-\x7e]|[!|>?]")


def _parse_yaml(text: str) -> Any:
    """The document in ``text``, as PyYAML's pure-Python parser builds it."""
    if yaml.__with_libyaml__ and not _PURE_ONLY.search(text):
        try:
            return yaml.load(text, Loader=yaml.CSafeLoader)
        except yaml.YAMLError:
            pass
    return yaml.safe_load(text)


def load_scenario(path: str | Path, seed: int | None = None) -> Scenario:
    """Read and validate a scenario YAML file, with ``seed``, if given, for its own."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = _parse_yaml(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: not valid YAML: {exc}") from exc
    if seed is not None and isinstance(data, dict):
        data["seed"] = seed
    return parse_scenario(data)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize back to the YAML document shape; parse_scenario round-trips it."""
    return _dump_spec(scenario)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(
        yaml.safe_dump(scenario_to_dict(scenario), sort_keys=False), encoding="utf-8")


# Every run digests its scenario, and libyaml's emitter is about 4x faster than
# PyYAML's pure-Python one.
_FAST_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


def _printable_ascii(node: object) -> bool:
    """Whether every string value in the document ``node`` is printable ASCII.

    Both emitters write such a string plain or single-quoted, and fold it
    alike.  Any other string is double-quoted, and once one passes the line
    width libyaml folds it differently.
    """
    if isinstance(node, str):
        return node.isascii() and node.isprintable()
    if isinstance(node, dict):
        return all(map(_printable_ascii, node.values()))
    if isinstance(node, list):
        return all(map(_printable_ascii, node))
    return True


def scenario_digest(scenario: Scenario) -> str:
    """Stable content hash of a scenario, independent of file formatting.

    It hashes the text PyYAML's pure-Python emitter writes, so a host
    without libyaml gets the same digest.
    """
    doc = scenario_to_dict(scenario)
    dumper = _FAST_DUMPER if _printable_ascii(doc) else yaml.SafeDumper
    canonical = yaml.dump(doc, Dumper=dumper, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def shipped_scenario_path(name: str) -> Path:
    """Path of a scenario bundled with the package, e.g. 'test2_dl_priority'."""
    from importlib import resources

    candidate = resources.files("loraguard") / "scenarios" / f"{name}.yaml"
    with resources.as_file(candidate) as path:
        if not path.exists():
            raise FileNotFoundError(f"no shipped scenario named {name!r}")
        return Path(path)
