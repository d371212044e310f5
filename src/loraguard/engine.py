"""Discrete-event core: integer-microsecond clock, ordered queue, seeded substreams.

Simulation time is an integer count of microseconds (``SimTime``).  All radio
timing in this package (airtimes, off-times, receive windows) is exact in
integer microseconds, so equal-time comparisons are safe and runs replay
bit-identically for a fixed seed.

Random draws go through ``Stream``, which offers exactly the draws the
simulator makes and returns, for the same bits, what numpy's
``Generator.integers``, ``normal`` and ``random`` would:

* ``below(n)`` is Lemire's multiply-and-reject bounded integer (Lemire, *Fast
  Random Integer Generation in an Interval*, ACM TOMACS 2019), the method
  numpy uses, on the bit generator's 32-bit output for n - 1 < 2**32 - 1 and
  on its 64-bit output above that.  ``below(1)`` draws nothing, and
  n - 1 = 2**32 - 1 returns the raw 32-bit word, as numpy does.
* ``standard_normal()`` and ``random()`` are the generator's own methods; a
  Gaussian of mean m and deviation s is ``m + s * standard_normal()``, which
  is how numpy computes ``normal(m, s)``.

``below`` calls the bit generator through its ctypes interface, which skips
the generator's lock.  That is safe because a run is single-threaded and
every stream belongs to one run.  numpy is imported by the first
``RandomStreams.stream`` call, so code that never simulates never loads it.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from functools import partial
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

SimTime = int

US_PER_SECOND = 1_000_000

_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


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
        self._stopped = False
        self._queue: list[tuple[SimTime, int, str, Callable[[], None]]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._queue)

    def schedule(self, at: SimTime, action: Callable[[], None], kind: str = "") -> None:
        """Enqueue ``action`` to run at time ``at`` (which may equal ``now``)."""
        if at < self.now:
            raise SchedulingError(f"cannot schedule {kind or 'event'} at {at} (now={self.now})")
        heapq.heappush(self._queue, (at, next(self._seq), kind, action))

    def stop(self) -> None:
        """End ``run_while`` once the running action returns; it cannot resume."""
        self._stopped = True

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

    def run_while(self) -> None:
        """Drain the queue while events remain and ``stop`` has not been called."""
        queue = self._queue
        pop = heapq.heappop
        while queue and not self._stopped:
            at, _seq, _kind, action = pop(queue)
            self.now = at
            action()


class Stream:
    """One seeded random substream with exactly the draws the simulator makes."""

    __slots__ = ("_generator", "_next32", "_next64", "standard_normal", "random")

    def __init__(self, generator: np.random.Generator) -> None:
        interface = generator.bit_generator.ctypes
        self._generator = generator  # owns the state the ctypes calls point into
        self._next32 = partial(interface.next_uint32, interface.state)
        self._next64 = partial(interface.next_uint64, interface.state)
        self.standard_normal = generator.standard_normal
        self.random = generator.random

    def below(self, n: int) -> int:
        """A uniform integer in [0, n), bit-identical to ``Generator.integers(n)``."""
        top = n - 1
        if top < _MASK32:
            if top <= 0:
                if top == 0:
                    return 0  # one choice: nothing is drawn
                raise ValueError(f"below() needs n >= 1, got {n}")
            m = self._next32() * n
            if (m & _MASK32) < n:
                threshold = (_MASK32 - top) % n
                while (m & _MASK32) < threshold:
                    m = self._next32() * n
            return m >> 32
        if top == _MASK32:
            return self._next32()
        if top >= 2**63:
            raise ValueError(f"below() needs n <= 2**63, got {n}")
        m = self._next64() * n
        if (m & _MASK64) < n:
            threshold = (_MASK64 - top) % n
            while (m & _MASK64) < threshold:
                m = self._next64() * n
        return m >> 64


class RandomStreams:
    """Named, independent random substreams derived from one master seed.

    Each entity draws from its own ``stream(name)``, so adding or reordering
    consumers does not perturb anyone else's draws.  The same ``(seed,
    name)`` pair always yields the same sequence.
    """

    def __init__(self, seed: int) -> None:
        if not 0 <= int(seed) < 2**63:
            raise ValueError(f"seed must be a non-negative 63-bit integer, got {seed!r}")
        self.seed = int(seed)

    def stream(self, name: str) -> Stream:
        import numpy as np  # the bit source; loaded only once a run needs draws

        # Hash the name so stream keys are stable across runs and platforms.
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        key = int.from_bytes(digest[:8], "little")
        seq = np.random.SeedSequence([self.seed, key])
        return Stream(np.random.Generator(np.random.PCG64(seq)))


def sample_gaussian(stream: Stream, mean_us: SimTime, sigma_us: SimTime) -> SimTime:
    """Draw a Gaussian jitter around ``mean_us``, rounded to whole microseconds.

    ``sigma_us == 0`` returns the mean exactly (no draw is consumed).
    """
    if sigma_us < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma_us}")
    if sigma_us == 0:
        return int(mean_us)
    return round(mean_us + sigma_us * stream.standard_normal())
