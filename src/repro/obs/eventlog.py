"""Structured health event log: typed cluster lifecycle events.

The cluster layer is driven by discrete decisions — a placement, a
migration leg, a crash, a park — and the event log is their ledger: a
bounded ring of JSON-simple dicts, each ``{'t': sim_ns, 'kind': ...,
**detail}``. Unlike the span recorder (a sampling probe that may be
disabled), the event log is always on: events are low-rate control-
plane transitions, and the reports that reconstruct what happened to a
VM (``cluster-health``) must work from the log alone.

Determinism contract: events are appended in simulation order, details
are plain values (names, integers, dicts of scores), and
:meth:`EventLog.to_jsonl` serializes with sorted keys and fixed
separators — two same-seed runs produce *byte-identical* JSONL. The
chaos determinism gates in CI rely on this.

:func:`residency_timeline` is the read side: given the event stream
(live dicts or ones read back from disk), it replays one VM's
residency — placed, migrated, orphaned, recovered, parked — which is
exactly the story a post-mortem needs.
"""

import json
from collections import deque

#: Default event-ring capacity. Cluster control-plane events arrive at
#: a few hundred per simulated second, so this covers minutes of chaos.
DEFAULT_MAX_EVENTS = 16_384

# ----------------------------------------------------------------------
# Event kinds (the typed vocabulary; details vary per kind)
# ----------------------------------------------------------------------

EVENT_PLACE = 'vm.place'                 # vm, host, policy, scores
EVENT_REJECT = 'vm.reject'               # vm, reason
EVENT_ORPHANED = 'vm.orphaned'           # vm, cause[, host, flow]
EVENT_RECOVERED = 'vm.recovered'         # vm, host, attempts[, flow]
EVENT_PARKED = 'vm.parked'               # vm, attempts
EVENT_UNPARKED = 'vm.unparked'           # vm, host (the recovered host)
EVENT_MIGRATION_START = 'migration.start'    # vm, source, target, ...
EVENT_MIGRATION_DONE = 'migration.done'      # vm, source, target, flow
EVENT_MIGRATION_ABORT = 'migration.abort'    # vm, ..., rollback
EVENT_BREAKER_TRIP = 'migration.breaker_trip'  # vm, failures
EVENT_HOST_CRASH = 'host.crash'          # host, down_ns, orphans
EVENT_HOST_DEGRADE = 'host.degrade'      # host, down_ns
EVENT_HOST_RECOVER = 'host.recover'      # host
EVENT_QUARANTINE = 'host.quarantine'     # host
EVENT_REARM = 'host.rearm'               # host

#: Every cluster lifecycle kind, in taxonomy order (reports iterate
#: this, not the dict-order of whatever a run happened to emit).
CLUSTER_EVENT_KINDS = (
    EVENT_PLACE, EVENT_REJECT, EVENT_ORPHANED, EVENT_RECOVERED,
    EVENT_PARKED, EVENT_UNPARKED, EVENT_MIGRATION_START,
    EVENT_MIGRATION_DONE, EVENT_MIGRATION_ABORT, EVENT_BREAKER_TRIP,
    EVENT_HOST_CRASH, EVENT_HOST_DEGRADE, EVENT_HOST_RECOVER,
    EVENT_QUARANTINE, EVENT_REARM,
)

# Traffic-plane kinds (repro.traffic): load shedding, routing-set
# changes, and autoscaler decisions. Deterministic like the cluster
# vocabulary, but kept in their own tuple so cluster-only reports keep
# iterating exactly the lifecycle kinds they always did.
EVENT_SHED = 'traffic.shed'          # replica, dropped, queue
EVENT_REROUTE = 'traffic.reroute'    # replica, reason ('lost'/'restored')
EVENT_SCALE_UP = 'scale.up'          # vm, host, burn, replicas
EVENT_SCALE_DOWN = 'scale.down'      # vm, burn, replicas
EVENT_SCALE_REJECT = 'scale.reject'  # vm, burn (admission said no)
EVENT_VM_RETIRE = 'vm.retire'        # vm, host

TRAFFIC_EVENT_KINDS = (
    EVENT_SHED, EVENT_REROUTE, EVENT_SCALE_UP, EVENT_SCALE_DOWN,
    EVENT_SCALE_REJECT, EVENT_VM_RETIRE,
)


def _jsonl_line(event):
    """One canonical JSONL line: sorted keys, fixed separators — the
    byte-determinism contract."""
    return json.dumps(event, sort_keys=True, separators=(',', ':'))


class EventLog:
    """Bounded, ordered sink of typed events.

    Storage is the ring every bounded log here shares (the
    :class:`~repro.obs.spans.SpanRecorder` and the admission rejection
    ledger use it too): a ``deque(maxlen=max_events)``, oldest evicted
    first and counted in ``dropped``.
    Events are plain dicts so they serialize (JSONL, result summaries,
    worker pickles) without any schema machinery.
    """

    def __init__(self, max_events=DEFAULT_MAX_EVENTS):
        if max_events < 1:
            raise ValueError('max_events must be >= 1')
        self.dropped = 0
        self._ring = deque(maxlen=max_events)

    def append(self, time_ns, kind, **detail):
        """Record one event; returns the stored dict."""
        event = {'t': time_ns, 'kind': kind}
        event.update(detail)
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(event)
        return event

    @property
    def events(self):
        """Retained events, oldest first."""
        return list(self._ring)

    def counts(self):
        """``{kind: count}`` over retained events, sorted by kind."""
        out = {}
        for event in self._ring:
            out[event['kind']] = out.get(event['kind'], 0) + 1
        return dict(sorted(out.items()))

    def to_dicts(self):
        """The retained events as a plain list (for result summaries)."""
        return [dict(e) for e in self.events]

    def to_jsonl(self):
        """The canonical JSONL text (one sorted-keys line per event)."""
        lines = [_jsonl_line(e) for e in self.events]
        return '\n'.join(lines) + ('\n' if lines else '')

    def write_jsonl(self, path):
        """Serialize to ``path``; returns the number of events
        written. Byte-identical for byte-identical event streams."""
        text = self.to_jsonl()
        with open(path, 'w') as handle:
            handle.write(text)
        return len(self._ring)

    def clear(self):
        self._ring.clear()
        self.dropped = 0

    def __len__(self):
        return len(self._ring)

    def __repr__(self):
        return ('<EventLog %d events (%d dropped)>'
                % (len(self._ring), self.dropped))


def read_jsonl(path):
    """Read back a log written by :meth:`EventLog.write_jsonl`."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# ----------------------------------------------------------------------
# Residency reconstruction (the cluster-health report's core)
# ----------------------------------------------------------------------

def residency_timeline(events, vm_name):
    """Replay ``vm_name``'s residency from the event stream alone.

    Returns an ordered list of steps, each
    ``{'t': ns, 'step': ..., 'host': name-or-None}`` — the full
    place -> migrate -> crash/orphan -> recover -> park story. Works on
    live :meth:`EventLog.events` and on :func:`read_jsonl` output alike.
    """
    steps = []

    def step(event, name, host):
        steps.append({'t': event['t'], 'step': name, 'host': host})

    for event in events:
        kind = event['kind']
        if event.get('vm') != vm_name:
            continue
        if kind == EVENT_PLACE:
            step(event, 'place', event.get('host'))
        elif kind == EVENT_REJECT:
            step(event, 'reject', None)
        elif kind == EVENT_MIGRATION_START:
            step(event, 'migrate_out', event.get('source'))
        elif kind == EVENT_MIGRATION_DONE:
            step(event, 'migrate_in', event.get('target'))
        elif kind == EVENT_MIGRATION_ABORT:
            if event.get('rollback'):
                step(event, 'rollback', event.get('source'))
            else:
                step(event, 'abort', None)
        elif kind == EVENT_ORPHANED:
            step(event, 'orphaned', event.get('host'))
        elif kind == EVENT_RECOVERED:
            step(event, 'recovered', event.get('host'))
        elif kind == EVENT_PARKED:
            step(event, 'parked', None)
        elif kind == EVENT_UNPARKED:
            step(event, 'unparked', None)
    return steps


def format_residency(steps):
    """One-line rendering of a residency timeline:
    ``place@host0 -> orphaned@host0 -> recovered@host2``."""
    parts = []
    for entry in steps:
        if entry['host'] is not None:
            parts.append('%s@%s' % (entry['step'], entry['host']))
        else:
            parts.append(entry['step'])
    return ' -> '.join(parts) if parts else '(no events)'


def vm_names(events):
    """Every VM name appearing in the stream, in first-seen order."""
    seen = []
    for event in events:
        vm = event.get('vm')
        if vm is not None and vm not in seen:
            seen.append(vm)
    return seen
