"""Layer boundaries for the traced benchmark run.

The tracer replaces chosen public functions and methods of the ``loraguard``
modules with wrappers, from outside the package.  Each wrapper is a span: it
counts calls, adds the call's inclusive time and its self time (inclusive time
minus the time of spans nested inside it) and, where a boundary can waste
work, sums an outcome so the benchmark can report a useful-to-attempted ratio.
Everything stays in memory; ``uninstall`` puts every original back.

Event handlers are traced through ``Engine.schedule``: each scheduled action is
wrapped in a span named after the event kind, so a handler's self time
excludes the phy, gateway, device, server and metrics spans it calls.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import sys
import time

_clock = time.perf_counter


def _result_is(value):
    return lambda args, kwargs, result: result is value


def _ledger_clear(args, kwargs, result):
    # DutyCycleLedger.check(self, transmitter, band, now, airtime_us=0)
    now = args[3] if len(args) > 3 else kwargs["now"]
    return result == now


def _count(args, kwargs, result):
    return result


# (module, attribute path, span name, outcome).  A function imported by name
# into other modules is replaced in every loraguard namespace that holds it.
BOUNDARIES = (
    ("engine", "Engine.run_while", "engine.run", None),
    ("engine", "Engine.run_until", "engine.run", None),
    ("simulation", "Simulation.__init__", "simulation.init", None),
    ("phy", "airtime_us", "phy.airtime", None),
    ("phy", "ChannelPlan.subband_of", "phy.subband_of", None),
    ("phy", "DutyCycleLedger.check", "phy.ledger.check", _ledger_clear),
    ("phy", "DutyCycleLedger.record", "phy.ledger.record", None),
    ("phy", "decodes_against", "phy.capture", _result_is(True)),
    ("gateway", "Gateway.on_uplink_start", "gateway.uplink_start", None),
    ("gateway", "Gateway.on_uplink_end", "gateway.uplink_end", _result_is(None)),
    ("gateway", "Gateway.start_downlink", "gateway.downlink", _count),
    ("device", "EndDevice.next_rp_time", "device.next_rp_time", None),
    ("device", "EndDevice.pick_rp_channel", "device.pick_rp_channel", None),
    ("device", "EndDevice.apply_dcp", "device.apply_dcp", _result_is(True)),
    ("server", "NetworkServer.on_uplink", "server.on_uplink", None),
    ("server", "NetworkServer.dcp_for", "server.dcp_for", None),
    ("sensor", "alarm_check", "sensor.alarm_check", _result_is(True)),
    ("metrics", "MetricsCollector.on_gateway_outcome", "metrics.gateway_outcome", None),
    ("metrics", "build_report", "metrics.report", None),
    ("metrics", "emit_report", "metrics.report", None),
    ("scenario", "load_scenario", "scenario.load", None),
    ("scenario", "scenario_digest", "scenario.digest", None),
    ("analytic", "survivor_integral", "analytic.survivor_integral", None),
    ("analytic", "plr_exact_fixed", "analytic.plr_exact_fixed", None),
    ("analytic", "plr_marginal", "analytic.plr_marginal", None),
    ("analytic", "plr_approx", "analytic.plr_approx", None),
)


class SpanStats:
    """Totals of one span name: calls, self and inclusive seconds, outcome sum."""

    __slots__ = ("calls", "self_s", "incl_s", "outcome")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.outcome = 0


class Tracer:
    """Wraps layer boundaries of an imported ``loraguard`` and collects spans."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.peak_queue = 0
        self.missing: list[str] = []
        self._stack: list[float] = []  # child time accumulated per open span
        self._patches: list[tuple[object, str, object]] = []

    def span(self, fn, name: str, outcome=None):
        """Return ``fn`` wrapped as a span called ``name``."""
        stat = self.stats.setdefault(name, SpanStats())
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - t0
                inner = stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - inner
                stat.incl_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if outcome is not None:
                stat.outcome += outcome(args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every boundary of the already imported ``loraguard`` modules."""
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "loraguard" or name.startswith("loraguard."))]
        for module_name, path, span_name, outcome in BOUNDARIES:
            module = sys.modules.get(f"loraguard.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self.span(original, span_name, outcome)
            if owner_name:
                self._patch(owner, attr, wrapped)
                continue
            for namespace in namespaces:
                if vars(namespace).get(attr) is original:
                    self._patch(namespace, attr, wrapped)
        self._install_schedule(sys.modules["loraguard.engine"].Engine)

    def _install_schedule(self, engine_cls) -> None:
        original = engine_cls.schedule
        tracer = self

        def schedule(engine, at, action, kind=""):
            original(engine, at, tracer.span(action, f"simulation.{kind or 'event'}"), kind)
            if len(engine) > tracer.peak_queue:
                tracer.peak_queue = len(engine)

        self._patch(engine_cls, "schedule", functools.update_wrapper(schedule, original))

    def uninstall(self) -> bool:
        """Restore every patched attribute; True when all originals are back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(getattr(owner, attr) is original
                       for owner, attr, original in self._patches)
        self._patches.clear()
        return restored


class ImportTimer(importlib.abc.MetaPathFinder):
    """Times the execution of each ``loraguard`` module, nested imports included."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def find_spec(self, fullname, path, target=None):
        if fullname != "loraguard" and not fullname.startswith("loraguard."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        seconds = self.seconds

        def timed_exec(module):
            t0 = _clock()
            try:
                exec_module(module)
            finally:
                seconds[fullname] = _clock() - t0

        spec.loader.exec_module = timed_exec
        return spec

    def __enter__(self):
        sys.meta_path.insert(0, self)
        return self

    def __exit__(self, *exc):
        sys.meta_path.remove(self)
        return False
