"""Unit tests for deterministic named random streams."""

import pytest
from hypothesis import given, strategies as st

from repro.simkernel.rng import (RngRegistry, exponential_draw,
                                 jittered_draw)


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = RngRegistry(seed=5)
        b = RngRegistry(seed=5)
        assert ([a.stream('x').random() for __ in range(10)] ==
                [b.stream('x').random() for __ in range(10)])

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1)
        b = RngRegistry(seed=2)
        assert (a.stream('x').random() != b.stream('x').random())

    def test_streams_are_independent(self):
        """Drawing from one stream must not perturb another."""
        a = RngRegistry(seed=9)
        b = RngRegistry(seed=9)
        # Interleave an extra stream in `a` only.
        a.stream('noise').random()
        assert a.stream('x').random() == b.stream('x').random()

    def test_stream_is_cached(self):
        reg = RngRegistry(seed=0)
        assert reg.stream('s') is reg.stream('s')


class TestUniform:
    def test_uniform_in_range(self):
        reg = RngRegistry(seed=3)
        for __ in range(100):
            v = reg.uniform_ns('u', 10, 20)
            assert 10 <= v <= 20

    def test_uniform_degenerate_range(self):
        reg = RngRegistry(seed=3)
        assert reg.uniform_ns('u', 7, 7) == 7

    def test_uniform_empty_range_raises(self):
        reg = RngRegistry(seed=3)
        with pytest.raises(ValueError):
            reg.uniform_ns('u', 20, 10)


class TestExponential:
    def test_exponential_positive(self):
        reg = RngRegistry(seed=4)
        for __ in range(100):
            assert reg.exponential_ns('e', 1000) >= 1

    def test_exponential_cap(self):
        reg = RngRegistry(seed=4)
        for __ in range(200):
            assert reg.exponential_ns('e', 1000, cap_ns=1500) <= 1500

    def test_exponential_mean_roughly_right(self):
        reg = RngRegistry(seed=4)
        draws = [reg.exponential_ns('e', 10_000) for __ in range(3000)]
        mean = sum(draws) / len(draws)
        assert 8_000 < mean < 12_000

    def test_exponential_bad_mean_raises(self):
        reg = RngRegistry(seed=4)
        with pytest.raises(ValueError):
            reg.exponential_ns('e', 0)


class TestJitter:
    def test_jitter_within_fraction(self):
        reg = RngRegistry(seed=5)
        for __ in range(100):
            v = reg.jittered_ns('j', 1000, 0.1)
            assert 900 <= v <= 1100

    def test_jitter_zero_spread_returns_base(self):
        reg = RngRegistry(seed=5)
        assert reg.jittered_ns('j', 5, 0.1) == 5

    def test_jitter_bad_base_raises(self):
        reg = RngRegistry(seed=5)
        with pytest.raises(ValueError):
            reg.jittered_ns('j', 0)

    @given(st.integers(min_value=100, max_value=10**9),
           st.floats(min_value=0.0, max_value=0.5))
    def test_jitter_bounds_property(self, base, fraction):
        reg = RngRegistry(seed=11)
        v = reg.jittered_ns('p', base, fraction)
        spread = int(base * fraction)
        assert base - spread <= v <= base + spread


class TestBoundDraws:
    """A consumer that binds its stream once draws exactly what the
    named methods draw: same stream, same formula, same bits."""

    @pytest.mark.parametrize('cap_ns', [None, 1500, 1])
    def test_exponential_matches_named(self, cap_ns):
        named = RngRegistry(seed=3)
        stream = RngRegistry(seed=3).stream('e')
        for mean_ns in (1, 999, 1000, 10**7) * 50:
            assert (exponential_draw(stream, mean_ns, cap_ns)
                    == named.exponential_ns('e', mean_ns, cap_ns))

    @pytest.mark.parametrize('base_ns, fraction', [
        (2_000_000, 0.3), (1000, 0.1), (5, 0.1), (1000, 0.0)])
    def test_jitter_matches_named(self, base_ns, fraction):
        named = RngRegistry(seed=3)
        stream = RngRegistry(seed=3).stream('j')
        for __ in range(200):
            assert (jittered_draw(stream, base_ns, fraction)
                    == named.jittered_ns('j', base_ns, fraction))
        # Both sides consumed the same draws (none at all at spread 0).
        assert stream.random() == named.stream('j').random()

    def test_bound_draws_validate(self):
        stream = RngRegistry(seed=3).stream('x')
        with pytest.raises(ValueError):
            exponential_draw(stream, 0)
        with pytest.raises(ValueError):
            jittered_draw(stream, 0)
