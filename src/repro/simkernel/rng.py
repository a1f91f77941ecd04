"""Deterministic named random streams.

Every source of randomness in the simulator draws from a stream obtained
via :meth:`RngRegistry.stream`. Streams are derived from the experiment
seed and the stream name, so adding a new consumer of randomness does not
perturb the draws seen by existing consumers — runs stay reproducible and
comparable across code changes.

A hot consumer binds its stream once and draws through
:func:`exponential_draw` / :func:`jittered_draw`, the one formula of
each distribution; the named methods look the stream up per call.
"""

import random
import zlib


def exponential_draw(stream, mean_ns, cap_ns=None):
    """Draw an integer duration from Exp(mean) on ``stream``, optionally
    capped.

    A cap keeps pathological tail draws from dominating short
    simulations while preserving the distribution body.
    """
    if mean_ns <= 0:
        raise ValueError('mean must be positive, got %r' % mean_ns)
    value = int(stream.expovariate(1.0 / mean_ns))
    value = max(1, value)
    if cap_ns is not None:
        value = min(value, cap_ns)
    return value


def jittered_draw(stream, base_ns, jitter_fraction=0.1):
    """Draw ``base_ns`` +/- a uniform jitter fraction (default 10%) on
    ``stream``. A spread that rounds to 0 draws nothing."""
    if base_ns <= 0:
        raise ValueError('base must be positive, got %r' % base_ns)
    spread = int(base_ns * jitter_fraction)
    if spread == 0:
        return base_ns
    # randint(-spread, spread) without its two wrapper calls: the same
    # draw from the same stream state, so the same bits.
    return base_ns - spread + stream.randrange(2 * spread + 1)


class RngRegistry:
    """Factory of independent, deterministically seeded random streams."""

    def __init__(self, seed=0):
        self.seed = seed
        self._streams = {}

    def stream(self, name):
        """Return the :class:`random.Random` for ``name``, creating it
        (seeded from the registry seed and the name) on first use."""
        rng = self._streams.get(name)
        if rng is None:
            derived = (self.seed * 0x9E3779B97F4A7C15 +
                       zlib.crc32(name.encode('utf-8'))) & 0xFFFFFFFFFFFFFFFF
            rng = random.Random(derived)
            self._streams[name] = rng
        return rng

    def uniform_ns(self, name, low_ns, high_ns):
        """Draw an integer duration uniformly from [low_ns, high_ns]."""
        if low_ns > high_ns:
            raise ValueError('empty range [%d, %d]' % (low_ns, high_ns))
        return self.stream(name).randint(low_ns, high_ns)

    # The named draws read the stream cache inline, saving a call on
    # the workload programs' compute draws (jittered_ns).

    def exponential_ns(self, name, mean_ns, cap_ns=None):
        """:func:`exponential_draw` on the stream ``name``."""
        stream = self._streams.get(name) or self.stream(name)
        return exponential_draw(stream, mean_ns, cap_ns)

    def jittered_ns(self, name, base_ns, jitter_fraction=0.1):
        """:func:`jittered_draw` on the stream ``name``."""
        stream = self._streams.get(name) or self.stream(name)
        return jittered_draw(stream, base_ns, jitter_fraction)
