"""Tests for named RNG substreams."""

import numpy as np
import pytest

from repro.sim.rng import RngStreams


class TestRngStreams:
    def test_same_seed_same_name_same_draws(self):
        a = RngStreams(42).stream("x").normal(size=5)
        b = RngStreams(42).stream("x").normal(size=5)
        assert np.allclose(a, b)

    def test_different_names_independent(self):
        rng = RngStreams(42)
        a = rng.stream("a").normal(size=5)
        b = rng.stream("b").normal(size=5)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(1).stream("x").normal(size=5)
        b = RngStreams(2).stream("x").normal(size=5)
        assert not np.allclose(a, b)

    def test_stream_is_cached_not_restarted(self):
        rng = RngStreams(0)
        first = rng.stream("x").normal()
        second = rng.stream("x").normal()
        assert first != second  # continuation, not a restart

    def test_fresh_restarts_the_stream(self):
        rng = RngStreams(0)
        first = rng.stream("x").normal()
        restarted = rng.fresh("x").normal()
        assert first == restarted

    def test_creation_order_does_not_matter(self):
        r1 = RngStreams(9)
        r1.stream("a")
        x1 = r1.stream("b").normal()
        r2 = RngStreams(9)
        x2 = r2.stream("b").normal()  # "a" never created here
        assert x1 == x2

    def test_names_listed_in_creation_order(self):
        rng = RngStreams(0)
        rng.stream("b")
        rng.stream("a")
        assert rng.names() == ["b", "a"]

    def test_spawn_children_are_independent_and_deterministic(self):
        parent = RngStreams(5)
        c1 = parent.spawn(0).stream("x").normal(size=3)
        c2 = parent.spawn(1).stream("x").normal(size=3)
        c1_again = RngStreams(5).spawn(0).stream("x").normal(size=3)
        assert not np.allclose(c1, c2)
        assert np.allclose(c1, c1_again)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            RngStreams("nope")

    def test_seed_property(self):
        assert RngStreams(17).seed == 17

