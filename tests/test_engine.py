"""Event loop ordering, time semantics, and seeded substream statistics."""

import numpy as np
import pytest

from loraguard.engine import (Engine, RandomStreams, SchedulingError,
                              sample_gaussian)


class TestEngine:
    def test_events_run_in_time_order(self):
        eng = Engine()
        seen = []
        eng.schedule(30, lambda: seen.append("c"))
        eng.schedule(10, lambda: seen.append("a"))
        eng.schedule(20, lambda: seen.append("b"))
        eng.run_while(lambda: True)
        assert seen == ["a", "b", "c"]
        assert eng.now == 30

    def test_same_time_events_run_in_scheduling_order(self):
        eng = Engine()
        seen = []
        for tag in "abcdef":
            eng.schedule(5, lambda t=tag: seen.append(t))
        eng.run_while(lambda: True)
        assert seen == list("abcdef")

    def test_scheduling_in_the_past_raises(self):
        eng = Engine()
        eng.schedule(10, lambda: None)
        eng.run_until(10)
        with pytest.raises(SchedulingError):
            eng.schedule(9, lambda: None)

    def test_scheduling_at_now_is_allowed(self):
        eng = Engine()
        seen = []
        eng.schedule(10, lambda: eng.schedule(10, lambda: seen.append("nested")))
        eng.run_while(lambda: True)
        assert seen == ["nested"]

    def test_run_until_processes_due_events_and_advances_clock(self):
        eng = Engine()
        seen = []
        eng.schedule(10, lambda: seen.append(10))
        eng.schedule(50, lambda: seen.append(50))
        eng.schedule(90, lambda: seen.append(90))
        eng.run_until(50)
        assert seen == [10, 50]
        assert eng.now == 50
        assert len(eng) == 1

    def test_run_until_backwards_raises(self):
        eng = Engine()
        eng.run_until(100)
        with pytest.raises(SchedulingError):
            eng.run_until(99)

    def test_run_while_stops_when_predicate_turns_false(self):
        eng = Engine()
        seen = []
        for t in range(10):
            eng.schedule(t, lambda t=t: seen.append(t))
        eng.run_while(lambda: len(seen) < 4)
        assert seen == [0, 1, 2, 3]

    def test_run_while_stops_when_the_queue_empties(self):
        eng = Engine()
        eng.schedule(7, lambda: None)
        eng.run_while(lambda: True)
        assert eng.now == 7 and len(eng) == 0


class TestRandomStreams:
    def test_same_seed_and_name_reproduce_the_sequence(self):
        a = RandomStreams(42).stream("rp:ed1")
        b = RandomStreams(42).stream("rp:ed1")
        assert np.array_equal(a.integers(0, 2**31, 64), b.integers(0, 2**31, 64))

    def test_streams_are_independent_per_name(self):
        streams = RandomStreams(42)
        a = streams.stream("rp:ed1").integers(0, 2**31, 64)
        b = streams.stream("rp:ed2").integers(0, 2**31, 64)
        assert not np.array_equal(a, b)

    def test_adding_a_consumer_does_not_perturb_others(self):
        draws_alone = RandomStreams(7).stream("capture:gw1").random(16)
        streams = RandomStreams(7)
        streams.stream("alarm:0").random(16)  # unrelated consumer
        draws_with_neighbor = streams.stream("capture:gw1").random(16)
        assert np.array_equal(draws_alone, draws_with_neighbor)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").random(16)
        b = RandomStreams(2).stream("x").random(16)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [-1, 2**63])
    def test_seed_range_is_enforced(self, bad):
        with pytest.raises(ValueError):
            RandomStreams(bad)


class TestSampleGaussian:
    def test_sigma_zero_returns_the_mean_without_consuming_draws(self):
        stream = RandomStreams(3).stream("jitter")
        reference = RandomStreams(3).stream("jitter").normal(0, 1)
        assert sample_gaussian(stream, 70_000_000, 0) == 70_000_000
        # The next draw matches an untouched stream: sigma=0 consumed nothing.
        assert stream.normal(0, 1) == reference

    def test_negative_sigma_raises(self):
        stream = RandomStreams(3).stream("jitter")
        with pytest.raises(ValueError):
            sample_gaussian(stream, 1_000, -1)

    def test_draws_are_integers_with_the_requested_moments(self):
        stream = RandomStreams(11).stream("jitter")
        mean_us, sigma_us = 70_000_000, 50_000
        draws = np.array([sample_gaussian(stream, mean_us, sigma_us)
                          for _ in range(100_000)])
        assert draws.dtype.kind == "i"
        assert abs(draws.mean() - mean_us) < 3 * sigma_us / np.sqrt(len(draws))
        assert abs(draws.std() - sigma_us) / sigma_us < 0.03

    def test_draws_are_serially_uncorrelated(self):
        stream = RandomStreams(13).stream("jitter")
        draws = np.array([sample_gaussian(stream, 70_000_000, 100_000)
                          for _ in range(100_000)], dtype=float)
        lag1 = np.corrcoef(draws[:-1], draws[1:])[0, 1]
        assert abs(lag1) < 0.01
