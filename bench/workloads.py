"""Workload definitions shared by ``run.py`` and its child runs.

Importing this module imports nothing from ``loraguard``, so ``run.py`` stays
out of the measured program.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DesWorkload:
    """A shipped scenario run through the event simulator."""

    scenario: str
    ups: int            # stop.ups of every untraced run
    recorded_seed: int  # the shipped seed; its reports have golden digests
    shipped_ups: int    # stop.ups of the shipped file, used by the traced run


@dataclass(frozen=True)
class GridWorkload:
    """A seeded grid of operating points for the analytic evaluators."""

    points: int  # operating points per run; three evaluations each


WORKLOADS = {
    # ~58 events per urgent uplink, nearly all report/DCP traffic.
    "dcp_storm": DesWorkload("test2_dl_priority", ups=1_500, recorded_seed=2,
                             shipped_ups=20_000),
    # ~1.07 events per urgent uplink: 15-frame bursts, no reports or DCPs.
    "cluster_burst": DesWorkload("burst_cluster15", ups=60_000, recorded_seed=8,
                                 shipped_ups=30_000),
    # No simulator code: the renewal model alone.
    "model_grid": GridWorkload(points=2_000),
}

# sha256 of emit_report(report) at (workload, seed, stop.ups), measured at the
# commit that defined this benchmark.  A change that moves one of these
# changes the simulator's output and must say why.
GOLDEN_SHA256 = {
    ("dcp_storm", 2, 1_500):
        "784085ed5e3d688d7c66412b401ae1a1f04359f69018b1b81ac49948f6fff602",
    ("dcp_storm", 2, 20_000):
        "17587e0f1c19c7c90950973c827395f3b9c2c49397ee9ca2f35e89a19c4ce6b7",
    ("cluster_burst", 8, 60_000):
        "030d6cc47bf1fc4c1cbecf7316092f6ceb962cc083053efcf7bdadd83edc2f27",
    ("cluster_burst", 8, 30_000):
        "a5428da3e1114b1c2cd8707670a35b085964fc2aa8131fde8a8ac808b092426d",
}

# Event counts by kind of test2_dl_priority at its shipped seed and length,
# as listed in the ROADMAP baseline.  The traced run must reproduce them.
BASELINE_EVENTS = {
    "dcp_storm": {"rp": 285_826, "dl": 278_565, "rp-end": 285_744,
                  "alarm": 20_000, "dl-end": 276_648},
}

EVENT_KINDS = ("rp", "rp-end", "dl", "dl-end", "alarm", "up", "up-end")


def child_seed(seed: int, index: int) -> int:
    """Input seed of the ``index``-th child run of a benchmark run."""
    return (seed * 1_000 + index) % 2**63
