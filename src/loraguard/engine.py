"""Discrete-event core: integer-microsecond clock, ordered queue, seeded substreams.

Simulation time is an integer count of microseconds (``SimTime``).  All radio
timing in this package (airtimes, off-times, receive windows) is exact in
integer microseconds, so equal-time comparisons are safe and runs replay
bit-identically for a fixed seed.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from typing import Callable

import numpy as np

SimTime = int

US_PER_MS = 1_000
US_PER_SECOND = 1_000_000


class SchedulingError(RuntimeError):
    """An event was scheduled before the current simulation time."""


class Engine:
    """Event loop over a single global queue.

    Events at the same timestamp are processed in scheduling order: the queue
    is keyed by ``(at, seq)`` where ``seq`` is a monotone counter, so ordering
    never depends on hash order or callback identity.
    """

    def __init__(self) -> None:
        self.now: SimTime = 0
        self._queue: list[tuple[SimTime, int, str, Callable[[], None]]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._queue)

    def schedule(self, at: SimTime, action: Callable[[], None], kind: str = "") -> None:
        """Enqueue ``action`` to run at time ``at`` (which may equal ``now``)."""
        if at < self.now:
            raise SchedulingError(f"cannot schedule {kind or 'event'} at {at} (now={self.now})")
        heapq.heappush(self._queue, (at, next(self._seq), kind, action))

    def step(self) -> bool:
        """Run the next event; return False if the queue is empty."""
        if not self._queue:
            return False
        at, _seq, _kind, action = heapq.heappop(self._queue)
        self.now = at
        action()
        return True

    def run_until(self, end: SimTime) -> None:
        """Process every event with timestamp <= ``end``, then set now = end."""
        if end < self.now:
            raise SchedulingError(f"cannot run backwards to {end} (now={self.now})")
        queue = self._queue
        while queue and queue[0][0] <= end:
            at, _seq, _kind, action = heapq.heappop(queue)
            self.now = at
            action()
        self.now = end

    def run_while(self, keep_going: Callable[[], bool]) -> None:
        """Drain the queue until it empties or ``keep_going()`` turns false."""
        queue = self._queue
        pop = heapq.heappop
        while keep_going() and queue:
            at, _seq, _kind, action = pop(queue)
            self.now = at
            action()


class RandomStreams:
    """Named, independent random substreams derived from one master seed.

    Each entity draws from its own ``stream(name)`` generator, so adding or
    reordering consumers does not perturb anyone else's draws.  The same
    ``(seed, name)`` pair always yields the same sequence.
    """

    def __init__(self, seed: int) -> None:
        if not 0 <= int(seed) < 2**63:
            raise ValueError(f"seed must be a non-negative 63-bit integer, got {seed!r}")
        self.seed = int(seed)

    def stream(self, name: str) -> np.random.Generator:
        # Hash the name so stream keys are stable across runs and platforms.
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        key = int.from_bytes(digest[:8], "little")
        seq = np.random.SeedSequence([self.seed, key])
        return np.random.Generator(np.random.PCG64(seq))


def sample_gaussian(stream, mean_us: SimTime, sigma_us: SimTime) -> SimTime:
    """Draw a Gaussian jitter around ``mean_us``, rounded to whole microseconds.

    ``sigma_us == 0`` returns the mean exactly (no draw is consumed).
    """
    if sigma_us < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma_us}")
    if sigma_us == 0:
        return int(mean_us)
    return round(stream.normal(mean_us, sigma_us))
