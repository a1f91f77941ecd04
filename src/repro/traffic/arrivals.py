"""Deterministic open-loop arrival processes.

Every process is a *pure function of the seed*: gaps are drawn from
dedicated named RNG streams (the :class:`~repro.simkernel.rng.
RngRegistry` discipline the fault injector established), so adding a
traffic plane to a run never perturbs the draws any existing consumer
sees, and two same-seed runs produce byte-identical arrival sequences.

A process is stateless until :meth:`ArrivalProcess.gaps` is called with
a registry; the generator it returns yields integer inter-arrival gaps
(ns, >= 1) forever. :meth:`ArrivalProcess.times` materializes the first
``n`` absolute arrival times — the determinism tests compare those
lists byte-for-byte. Each generator binds its streams once, so a gap
costs one draw, not a stream lookup by a formatted name.
"""

from ..simkernel.rng import exponential_draw
from ..simkernel.units import MS, SEC


def _gap(stream, rate_rps):
    """One exponential inter-arrival gap at ``rate_rps``, capped at ten
    means."""
    mean = max(1, int(SEC / rate_rps))
    return exponential_draw(stream, mean, mean * 10)


class ArrivalProcess:
    """Base arrival process: ``rate_rps`` mean requests per second."""

    kind = None

    def __init__(self, rate_rps, stream='traffic.arrivals'):
        if rate_rps <= 0:
            raise ValueError('rate_rps must be positive, got %r' % rate_rps)
        self.rate_rps = rate_rps
        self.stream = stream

    def gaps(self, rng):
        """Infinite generator of integer inter-arrival gaps (ns)."""
        raise NotImplementedError

    def times(self, rng, n):
        """The first ``n`` absolute arrival times (ns from t=0)."""
        out = []
        t = 0
        gen = self.gaps(rng)
        for __ in range(n):
            t += next(gen)
            out.append(t)
        return out

    def _gap_stream(self, rng):
        return rng.stream('%s.gap' % self.stream)

    def __repr__(self):
        return '<%s %.0f rps stream=%s>' % (
            type(self).__name__, self.rate_rps, self.stream)


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: exponential gaps at a constant rate."""

    kind = 'poisson'

    def gaps(self, rng):
        stream = self._gap_stream(rng)
        while True:
            yield _gap(stream, self.rate_rps)


class BurstyArrivals(ArrivalProcess):
    """MMPP-style bursty arrivals: a two-state Markov-modulated Poisson
    process alternating between a calm phase and a burst phase whose
    rate is ``burst_factor`` times higher. Phase dwell times are
    exponential with means chosen so the process spends
    ``burst_fraction`` of its time bursting and the long-run mean rate
    stays ``rate_rps``.
    """

    kind = 'bursty'

    def __init__(self, rate_rps, stream='traffic.arrivals',
                 burst_factor=4.0, burst_fraction=0.25,
                 cycle_ns=200 * MS):
        super().__init__(rate_rps, stream=stream)
        if burst_factor <= 1.0:
            raise ValueError('burst_factor must exceed 1.0')
        if not 0.0 < burst_fraction < 1.0:
            raise ValueError('burst_fraction must be in (0, 1)')
        self.burst_factor = burst_factor
        self.burst_fraction = burst_fraction
        self.cycle_ns = cycle_ns
        # Long-run mean = calm*(1-f) + burst*f with burst = factor*calm.
        self.calm_rps = rate_rps / (1.0 - burst_fraction
                                    + burst_factor * burst_fraction)
        self.burst_rps = self.calm_rps * burst_factor

    def gaps(self, rng):
        stream = self._gap_stream(rng)
        dwell_stream = rng.stream('%s.dwell' % self.stream)
        bursting = False
        dwell_left = exponential_draw(
            dwell_stream, int(self.cycle_ns * (1.0 - self.burst_fraction)))
        while True:
            rate = self.burst_rps if bursting else self.calm_rps
            gap = _gap(stream, rate)
            yield gap
            dwell_left -= gap
            if dwell_left <= 0:
                bursting = not bursting
                fraction = (self.burst_fraction if bursting
                            else 1.0 - self.burst_fraction)
                dwell_left = exponential_draw(
                    dwell_stream, max(1, int(self.cycle_ns * fraction)))


class DiurnalArrivals(ArrivalProcess):
    """Piecewise diurnal ramp: the rate steps through ``ramp``
    multipliers of ``rate_rps`` over one ``period_ns`` cycle (a whole
    day compressed to simulation scale), then repeats. Gaps within a
    segment are exponential at the segment's rate.
    """

    kind = 'diurnal'

    def __init__(self, rate_rps, stream='traffic.arrivals',
                 period_ns=800 * MS, ramp=(0.4, 0.9, 1.6, 1.1)):
        super().__init__(rate_rps, stream=stream)
        if not ramp or any(m <= 0 for m in ramp):
            raise ValueError('ramp needs positive multipliers')
        if period_ns < len(ramp):
            raise ValueError('period_ns too short for %d segments'
                             % len(ramp))
        self.period_ns = period_ns
        self.ramp = tuple(ramp)

    def rate_at(self, t_ns):
        """The instantaneous target rate at offset ``t_ns``."""
        segment_ns = self.period_ns // len(self.ramp)
        segment = (t_ns % self.period_ns) // segment_ns
        return self.rate_rps * self.ramp[min(segment, len(self.ramp) - 1)]

    def gaps(self, rng):
        stream = self._gap_stream(rng)
        t = 0
        while True:
            gap = _gap(stream, self.rate_at(t))
            t += gap
            yield gap


ARRIVALS = {
    PoissonArrivals.kind: PoissonArrivals,
    BurstyArrivals.kind: BurstyArrivals,
    DiurnalArrivals.kind: DiurnalArrivals,
}

#: The ``--arrivals`` vocabulary, in presentation order.
ARRIVAL_KINDS = tuple(ARRIVALS)


def make_arrivals(kind, rate_rps, stream='traffic.arrivals', **kwargs):
    """Build the arrival process named ``kind`` (an already-built
    process passes through unchanged)."""
    if isinstance(kind, ArrivalProcess):
        return kind
    try:
        factory = ARRIVALS[kind]
    except KeyError:
        raise ValueError('unknown arrival process %r (want one of %s)'
                         % (kind, ', '.join(ARRIVAL_KINDS)))
    return factory(rate_rps, stream=stream, **kwargs)
