"""Shared fixtures: the default channel plan, repo paths, a two-gateway scenario and a
recorder of the frames a simulation builds."""

from pathlib import Path

import pytest

from loraguard.phy import Transmission, default_eu868_plan
from loraguard.scenario import parse_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def plan():
    return default_eu868_plan()


@pytest.fixture(scope="session")
def docs_dir():
    return REPO_ROOT / "docs"


@pytest.fixture
def two_gateway_scenario():
    """Two reporters heard by gw1, which sends their downlinks, and by receive-only gw2."""
    return parse_scenario({
        "name": "two_gateways",
        "seed": 5,
        "stop": {"duration": "600 s"},
        "gateways": [{"id": "gw1"}, {"id": "gw2", "role": "rx_only"}],
        "clusters": [{"id": "c1", "members": ["ed1", "ed2"], "dcp_gateway": "gw1"}],
        "devices": [{"id": "ed1", "cluster": "c1", "rp_period": "10 s"},
                    {"id": "ed2", "cluster": "c1", "rp_period": "10 s"}],
        "alarms": [{"kind": "script", "species": "methane", "level": "1.2 %vol",
                    "devices": ["ed1"], "times": ["100 s"]}],
    })


def record_frames(monkeypatch):
    """Every frame any ``Simulation`` builds from now on, in build order, with its uid.

    ``Simulation`` keeps no frame once it is closed out, so this stands in for
    its ``Transmission`` with a subclass that records each frame as it is
    built, until ``monkeypatch`` is undone.  Clear the list between runs to
    tell them apart.
    """
    built = []

    class RecordedTransmission(Transmission):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr("loraguard.simulation.Transmission", RecordedTransmission)
    return built


@pytest.fixture
def frames(monkeypatch):
    """The frames this test's simulations build; see ``record_frames``."""
    return record_frames(monkeypatch)
