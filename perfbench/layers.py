"""Per-layer attribution of simulated work and host time.

Two sources, both outside the program:

* :class:`SimulatorCensus` records every ``Simulator`` built while it is
  installed, and reads its exact totals (events fired, events scheduled,
  the tracer's always-on counters) after each run. Tracing stays off.
* :func:`attribute_profile` buckets a stdlib ``cProfile`` snapshot by
  layer: self time by the package of each function, and events by the
  package of each callback the simkernel dispatch loop
  (``Simulator.step``) calls.

Layers are the ``src/repro`` packages, in the rank order of the replint
layering pass (``tools/replint/passes/layering.py``; a test keeps the
two in step).
"""

import collections
from pathlib import PurePath

from repro.simkernel import simulation

#: The ``src/repro`` packages, lowest rank first.
LAYERS = ('obs', 'simkernel', 'metrics', 'workloads', 'hypervisor',
          'guestos', 'faults', 'core', 'experiments', 'cluster', 'traffic')

#: Bucket for host time and events outside every layer (the stdlib,
#: the benchmark itself, callbacks that are builtins).
OTHER = 'other'

#: Per-layer metric name -> tracer counter it reads.
COUNTERS = {
    'guestos.wakeups': 'guest.wakeups',
    'guestos.block_waits': 'guest.block_waits',
    'guestos.spin_waits': 'guest.spin_waits',
    'hypervisor.preemptions': 'hv.preemptions',
    'hypervisor.ple_exits': 'ple.exits',
    'core.sa_sent': 'irs.sa_sent',
    'core.migrations': 'irs.migrations',
}

_DISPATCH = ('simulation.py', 'step')
_QUEUE_POP = ('events.py', 'pop')


class SimulatorCensus:
    """Exact simulated-work totals of every run made while installed.

    Use as a context manager; call :meth:`collect` after each run (it
    releases the run's simulators) and read :attr:`events`,
    :attr:`scheduled` and :attr:`counters`. The scheduled count is the
    event queue's sequence number, which every ``schedule`` advances.
    """

    def __init__(self):
        self._new = []
        self._original_init = None
        self.reset()

    def reset(self):
        self.events = 0
        self.scheduled = 0
        self.counters = collections.Counter()

    def __enter__(self):
        census = self
        original = self._original_init = simulation.Simulator.__init__

        def recording_init(sim, *args, **kwargs):
            original(sim, *args, **kwargs)
            census._new.append(sim)

        simulation.Simulator.__init__ = recording_init
        return self

    def __exit__(self, *exc):
        simulation.Simulator.__init__ = self._original_init
        self._new.clear()

    def collect(self):
        for sim in self._new:
            self.events += sim.events_processed
            self.scheduled += sim._queue._seq
            self.counters.update(sim.trace.counters)
        self._new.clear()

    def totals(self):
        return {'events': self.events, 'scheduled': self.scheduled,
                'counters': dict(sorted(self.counters.items()))}


def layer_of(filename):
    """The layer a source file belongs to, or None outside ``repro``."""
    parts = PurePath(filename).parts
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == 'repro' and parts[i + 1] in LAYERS:
            return parts[i + 1]
    return None


def _is(func, where):
    filename, __, name = func
    return name == where[1] and filename.endswith(where[0])


def attribute_profile(stats):
    """Bucket a ``cProfile.Profile().stats`` mapping by layer.

    Returns ``{'self_s': {layer: s}, 'events': {layer: n}}`` with an
    :data:`OTHER` entry in each. Self time of a function outside every
    layer (a builtin, the stdlib) is charged to the layers of its
    callers, split by the time each caller spent in it.
    """
    self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    events = dict.fromkeys(LAYERS + (OTHER,), 0)
    for func, (__, __, tottime, __, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            self_s[layer] += tottime
        elif callers:
            for caller, edge in callers.items():
                self_s[layer_of(caller[0]) or OTHER] += edge[2]
        else:
            self_s[OTHER] += tottime
        if _is(func, _QUEUE_POP):
            continue
        for caller, edge in callers.items():
            if _is(caller, _DISPATCH) and layer_of(caller[0]) == 'simkernel':
                events[layer or OTHER] += edge[0]
    return {'self_s': self_s, 'events': events}
