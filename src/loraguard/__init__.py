"""Reliability toolkit for urgent-alarm delivery over LoRaWAN in gas-risk plants.

The package pairs a discrete-event simulator (half-duplex gateways, EU868
duty-cycle rules, capture-based collisions, control downlinks after every
periodic report) with a renewal-process model predicting how much urgent
traffic those downlinks destroy.
"""

from .analytic import (PlrModelParams, PlrResult, plr_approx, plr_exact_fixed,
                       plr_marginal, residual_density, survivor_integral)
from .engine import Engine, RandomStreams, SimTime, sample_gaussian
from .device import DcpCommand, EndDevice
from .gateway import Gateway
from .metrics import MetricsCollector, PacketOutcome, emit_report, plr, wilson_interval
from .phy import (CaptureModel, ChannelPlan, DutyCycleLedger, RadioParams, SubBand,
                  Transmission, TransmissionKind, airtime_us, default_eu868_plan)
from .scenario import (Scenario, ScenarioError, load_scenario, parse_scenario,
                       save_scenario, scenario_digest)
from .sensor import (GasEvent, SensorProfile, TriggerSpec, alarm_check,
                     bridge_voltage, generate_events, lel_voltage)
from .server import NetworkServer, assign_resources
from .simulation import Simulation

__version__ = "0.1.0"

__all__ = [
    "CaptureModel", "ChannelPlan", "DcpCommand", "DutyCycleLedger", "EndDevice",
    "Engine", "GasEvent", "Gateway", "MetricsCollector", "NetworkServer",
    "PacketOutcome", "PlrModelParams", "PlrResult", "RadioParams", "RandomStreams",
    "Scenario", "ScenarioError", "SensorProfile", "SimTime", "SubBand",
    "Simulation", "Transmission", "TransmissionKind", "TriggerSpec",
    "airtime_us", "alarm_check", "assign_resources", "bridge_voltage",
    "default_eu868_plan", "emit_report", "generate_events", "lel_voltage",
    "load_scenario", "parse_scenario", "plr", "plr_approx", "plr_exact_fixed",
    "plr_marginal", "residual_density", "sample_gaussian", "save_scenario",
    "scenario_digest", "survivor_integral", "wilson_interval",
]
