"""The three bounded logs — the span recorder, the cluster event log and
the admission rejection ledger — share one ring: the newest ``N``
entries stay, in arrival order, and every eviction is counted."""

import pytest

from repro.cluster import VmRequest
from repro.cluster.admission import AdmissionController
from repro.obs.eventlog import EVENT_PLACE, EventLog
from repro.obs.spans import SpanRecorder

# name -> (make(capacity), push(ring, i, sim), retained(ring),
#          dropped(ring))
RINGS = {
    'spans': (
        lambda n: SpanRecorder(enabled=True, max_spans=n),
        lambda ring, i, sim: ring.instant(i, 'p', 't'),
        lambda ring: [span.begin_ns for span in ring.spans],
        lambda ring: ring.dropped,
    ),
    'events': (
        lambda n: EventLog(max_events=n),
        lambda ring, i, sim: ring.append(i, EVENT_PLACE, vm='vm%d' % i),
        lambda ring: [event['t'] for event in ring.events],
        lambda ring: ring.dropped,
    ),
    'rejections': (
        lambda n: AdmissionController(max_rejections=n),
        lambda ring, i, sim: ring.reject(VmRequest(str(i), workload='hogs'),
                                         sim),
        lambda ring: [int(name) for name in ring.rejections],
        lambda ring: ring.rejections_dropped,
    ),
}


@pytest.mark.parametrize('capacity', [1, 4])
@pytest.mark.parametrize('kind', sorted(RINGS))
def test_ring_keeps_newest_window_after_wrapping_twice(sim, kind, capacity):
    make, push, retained, dropped = RINGS[kind]
    ring = make(capacity)
    pushed = 3 * capacity + 2
    for i in range(pushed):
        push(ring, i, sim)
    assert retained(ring) == list(range(pushed - capacity, pushed))
    assert dropped(ring) == 2 * capacity + 2
    if kind == 'spans':
        assert (ring.registry.counter_values()['spans.dropped']
                == ring.dropped)
