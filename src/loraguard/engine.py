"""Discrete-event core: integer-microsecond clock, ordered queue, seeded substreams.

Simulation time is an integer count of microseconds (``SimTime``).  All radio
timing in this package (airtimes, off-times, receive windows) is exact in
integer microseconds, so equal-time comparisons are safe and runs replay
bit-identically for a fixed seed.

Random draws go through ``Stream``, written in pure Python.  For a given
seed and stream name it returns, draw for draw, what numpy's
``Generator(PCG64(SeedSequence([seed, key])))`` returns, with ``key`` the
first 8 bytes of ``sha256(name)`` read little-endian:

* the bits are PCG64 (O'Neill, *PCG: A Family of Simple Fast
  Space-Efficient Statistically Good Algorithms for Random Number
  Generation*, HMC-CS-2014-0905): a 128-bit LCG whose state is output
  through XSL-RR as one 64-bit word per step, seeded by numpy's
  SeedSequence hash.  A 32-bit draw takes a word's low half and keeps its
  high half for the next 32-bit draw, as numpy does;
* ``below(n)`` is Lemire's multiply-and-reject bounded integer (Lemire, *Fast
  Random Integer Generation in an Interval*, ACM TOMACS 2019), numpy's
  ``integers(n)``, on 32-bit draws for n - 1 < 2**32 - 1 and on words
  above that.  ``below(1)`` draws nothing, and n - 1 = 2**32 - 1 returns
  the raw 32-bit draw, as numpy does;
* ``random()`` is a word's top 53 bits times 2**-53, numpy's ``random()``;
* ``standard_normal()`` is numpy's ziggurat (Marsaglia & Tsang, J. Stat.
  Softw. 2000) on numpy's own tables (``ziggurat.py``), with libm's
  ``log1p`` and ``exp`` in the tail and the wedges (a libm that rounds
  differently in the last bit can flip a rare accept, as it can for
  numpy).  A Gaussian of mean m and deviation s is ``m + s *
  standard_normal()``, which is how numpy computes ``normal(m, s)``.

numpy is not needed to run; the tests hold these draws equal to numpy's.
"""

from __future__ import annotations

import hashlib
import itertools
from heapq import heappop, heappush
from math import exp, inf, log1p
from types import ModuleType
from typing import Callable, Iterable

SimTime = int

US_PER_SECOND = 1_000_000

_MASK32 = 0xFFFF_FFFF
_MASK52 = (1 << 52) - 1
_MASK53 = (1 << 53) - 1
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_MASK128 = (1 << 128) - 1
_TWO_TO_MINUS_53 = 2.0**-53

_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645  # PCG's default 128-bit multiplier
# XSL-RR: the state's halves XORed into a word, rotated right by the state's
# top 6 bits.  A word times _TWICE is the word twice over (w << 64 | w), so a
# right shift of it rotates the word in its low 64 bits.
_TWICE = (1 << 64) + 1
# The ziggurat's rightmost layer edge r and 1/r, as numpy writes them.
_ZIGGURAT_R = 3.6541528853610087963519472518
_ZIGGURAT_INV_R = 0.27366123732975827203338247596
# numpy's SeedSequence hash constants.
_SEED_POOL = 4
_SEED_INIT_A, _SEED_MULT_A = 0x43B0_D7E5, 0x931E_8875
_SEED_INIT_B, _SEED_MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_SEED_MIX_L, _SEED_MIX_R = 0xCA01_F9DD, 0x4973_F715


class SchedulingError(RuntimeError):
    """An event was scheduled before the current simulation time."""


class Engine:
    """Event loop over a single global queue.

    Events at the same timestamp are processed in scheduling order: the queue
    is keyed by ``(at, seq)`` where ``seq`` is a monotone counter, so ordering
    never depends on hash order or callback identity.  ``run_until`` is the
    one loop; an event's kind names it only in the scheduling error.
    """

    def __init__(self) -> None:
        self.now: SimTime = 0
        self._stopped = False
        self._queue: list[tuple[SimTime, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._queue)

    def schedule(self, at: SimTime, action: Callable[[], None], kind: str = "") -> None:
        """Enqueue ``action`` to run at time ``at`` (which may equal ``now``)."""
        if at < self.now:
            raise SchedulingError(f"cannot schedule {kind or 'event'} at {at} (now={self.now})")
        heappush(self._queue, (at, next(self._seq), action))

    def stop(self) -> None:
        """End ``run_until``, with or without an end, once the running action
        returns; the engine cannot resume."""
        self._stopped = True

    def run_until(self, end: SimTime | None = None) -> None:
        """Run events in time order until ``stop``, an empty queue or the first
        event after ``end``; then, if ``end`` was given, set now = end."""
        if end is not None and end < self.now:
            raise SchedulingError(f"cannot run backwards to {end} (now={self.now})")
        queue = self._queue
        bound = inf if end is None else end
        while queue and not self._stopped and queue[0][0] <= bound:
            at, _seq, action = heappop(queue)
            self.now = at
            action()
        if end is not None:
            self.now = end


class Stream:
    """One seeded PCG64 substream with exactly the draws the simulator makes.

    The state is numpy's ``PCG64`` state: the 128-bit LCG state and
    increment, and the upper half of the last 64-bit word while it waits to
    be returned as a 32-bit draw.  Each draw method steps the generator
    inline: a per-word helper would double the cost of a Gaussian.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger", "_ki", "_wi", "_fi")

    def __init__(self, state: int, inc: int, tables: ModuleType) -> None:
        self._state = state
        self._inc = inc
        self._has_uint32 = False
        self._uinteger = 0
        self._ki, self._wi, self._fi = tables.KI, tables.WI, tables.FI

    def _next32(self) -> int:
        """numpy's ``next_uint32``: the low half of a word, then its buffered high half."""
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        w = ((s >> 64) ^ (s & _MASK64)) * _TWICE >> (s >> 122)
        self._has_uint32 = True
        self._uinteger = w >> 32 & _MASK32
        return w & _MASK32

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        return ((s >> 64) ^ (s & _MASK64)) * _TWICE >> (s >> 122) & _MASK64

    def below(self, n: int) -> int:
        """A uniform integer in [0, n), bit-identical to ``Generator.integers(n)``."""
        top = n - 1
        if top < _MASK32:
            if top <= 0:
                if top == 0:
                    return 0  # one choice: nothing is drawn
                raise ValueError(f"below() needs n >= 1, got {n}")
            if self._has_uint32:
                self._has_uint32 = False
                m = self._uinteger * n
            else:
                s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
                w = ((s >> 64) ^ (s & _MASK64)) * _TWICE >> (s >> 122)
                self._has_uint32 = True
                self._uinteger = w >> 32 & _MASK32
                m = (w & _MASK32) * n
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

    def random(self) -> float:
        """A uniform float in [0, 1): the word's top 53 bits times 2**-53."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        w = ((s >> 64) ^ (s & _MASK64)) * _TWICE >> (s >> 122)
        return (w >> 11 & _MASK53) * _TWO_TO_MINUS_53

    def standard_normal(self) -> float:
        """numpy's ziggurat ``random_standard_normal``, the same double for the same word."""
        ki, wi = self._ki, self._wi
        while True:
            s = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
            w = ((s >> 64) ^ (s & _MASK64)) * _TWICE >> (s >> 122)
            # Bits 0-7 pick the layer, bit 8 is the sign, bits 9-60 the magnitude.
            idx = w & 0xFF
            rabs = w >> 9 & _MASK52
            x = rabs * wi[idx]
            if w & 0x100:
                x = -x
            if rabs < ki[idx]:
                return x  # inside the layer's rectangle: 99.3% of draws
            if idx == 0:
                # The tail beyond r, by Marsaglia's exponential rejection.
                while True:
                    xx = -_ZIGGURAT_INV_R * log1p(-self.random())
                    yy = -log1p(-self.random())
                    if yy + yy > xx * xx:
                        return -(_ZIGGURAT_R + xx) if rabs >> 8 & 1 else _ZIGGURAT_R + xx
            fi = self._fi
            if (fi[idx - 1] - fi[idx]) * self.random() + fi[idx] < exp(-0.5 * x * x):
                return x  # under the density in the layer's wedge


def _seed_sequence(entropy: Iterable[int], n_words: int) -> list[int]:
    """numpy's ``SeedSequence(entropy).generate_state(n_words)``: 32-bit words.

    Each entropy integer contributes its 32-bit words, least significant
    first (0 contributes one zero word).  The words are hashed into a pool
    of four, mixed, and the pool is hashed again into the output.
    """
    words = []
    for value in entropy:
        while True:
            words.append(value & _MASK32)
            value >>= 32
            if not value:
                break
    hash_const = _SEED_INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _SEED_MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_SEED_MIX_L * x - _SEED_MIX_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_SEED_POOL)]
    for src in range(_SEED_POOL):
        for dst in range(_SEED_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_SEED_POOL:]:
        for dst in range(_SEED_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _SEED_INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % _SEED_POOL] ^ hash_const
        hash_const = hash_const * _SEED_MULT_B & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return out


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
        from . import ziggurat  # the Gaussian's tables; compiled only once a run draws

        # Hash the name so stream keys are stable across runs and platforms.
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        key = int.from_bytes(digest[:8], "little")
        # generate_state(4, uint64) pairs the words little-endian; PCG64 takes
        # the first two 64-bit words as its seed state and the last two as its
        # sequence, high word first, and seeds with pcg_setseq_128_srandom_r.
        w = _seed_sequence([self.seed, key], 8)
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        initseq = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        inc = (initseq << 1 | 1) & _MASK128
        state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        return Stream(state, inc, ziggurat)


def sample_gaussian(stream: Stream, mean_us: SimTime, sigma_us: SimTime) -> SimTime:
    """Draw a Gaussian jitter around ``mean_us``, rounded to whole microseconds.

    ``sigma_us == 0`` returns the mean exactly (no draw is consumed).
    """
    if sigma_us < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma_us}")
    if sigma_us == 0:
        return int(mean_us)
    return round(mean_us + sigma_us * stream.standard_normal())
