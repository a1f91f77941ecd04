"""Request routing: one arrival stream spread across VM replicas.

The router is the traffic plane's view of the cluster: it holds the
set of serving replicas, knows which of them are *routable* right now
(not retired, resident on some host — a replica mid-migration or on a
crashed host reports no resident host and drops out of rotation), and
picks a target for each arrival under one of three policies that
mirror the placement policies in :mod:`repro.cluster.placement`:

``round_robin``
    Cycle through routable replicas in name order.
``least_queue``
    Send to the replica with the shortest request queue (join the
    shortest queue — the classic load-balancing baseline).
``interference``
    Prefer replicas on the least-interfered host (by
    :meth:`~repro.cluster.host.Host.interference_score`), breaking
    ties by queue depth — the traffic-plane analogue of
    interference-aware placement.

Routability changes are visible: every replica that leaves or rejoins
the rotation gets a ``traffic.reroute`` event (reason ``'lost'`` /
``'restored'``), so host crashes, migrations, and recoveries show up
in the structured event log as traffic movements, not just cluster
state transitions.
"""

from ..obs import eventlog

#: The ``--router`` vocabulary, in presentation order.
ROUTER_POLICIES = ('round_robin', 'least_queue', 'interference')


class RequestRouter:
    """Spreads arrivals across :class:`~repro.traffic.serving.
    ReplicaServer` instances, skipping unroutable ones."""

    def __init__(self, sim, cluster, policy='least_queue', events=None):
        if policy not in ROUTER_POLICIES:
            raise ValueError('unknown router policy %r (want one of %s)'
                             % (policy, ', '.join(ROUTER_POLICIES)))
        self.sim = sim
        self.cluster = cluster
        self.policy = policy
        self.events = events
        self.replicas = []
        self.routed = 0
        self.unroutable = 0
        self._rr_cursor = 0
        # The last routable list: an unchanged rotation (the common
        # case) skips the reroute bookkeeping.
        self._routable = []

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add_replica(self, replica):
        self.replicas.append(replica)
        self.replicas.sort(key=lambda r: r.name)

    def routable(self):
        """Replicas in rotation, in name order: live and resident on
        some host. A VM mid-migration or orphaned by a host crash has
        no host, so it drops out until it lands."""
        vm_hosts = self.cluster.vm_hosts
        current = [r for r in self.replicas
                   if not r.retired and r.vm in vm_hosts]
        if current != self._routable:
            self._note_reroutes(self._routable, current)
            self._routable = current
        return current

    def _note_reroutes(self, previous, current):
        was = {r.name for r in previous}
        names = {r.name for r in current}
        now = self.sim.now
        for name in sorted(was - names):
            self.sim.trace.count('traffic.reroute')
            if self.events is not None:
                self.events.append(now, eventlog.EVENT_REROUTE,
                                   replica=name, reason='lost')
        for name in sorted(names - was):
            # Initial appearance is not a reroute — only log replicas
            # coming *back* after an outage.
            if self.events is not None and was:
                self.events.append(now, eventlog.EVENT_REROUTE,
                                   replica=name, reason='restored')

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def route(self, arrived_ns):
        """Deliver one arrival to the chosen replica. Returns the
        replica that accepted it, or None when nothing was routable
        (the caller accounts the loss)."""
        candidates = self.routable()
        if not candidates:
            self.unroutable += 1
            self.sim.trace.count('traffic.unroutable')
            return None
        target = self._pick(candidates)
        self.routed += 1
        target.enqueue(arrived_ns)
        return target

    def _pick(self, candidates):
        if self.policy == 'round_robin':
            target = candidates[self._rr_cursor % len(candidates)]
            self._rr_cursor += 1
            return target
        if self.policy == 'least_queue':
            # Candidates are in name order and only a strictly shorter
            # queue wins, so equal depths go to the lowest name.
            target = candidates[0]
            best = len(target.queue.items)
            for replica in candidates:
                depth = len(replica.queue.items)
                if depth < best:
                    target = replica
                    best = depth
            return target
        # interference: least-interfered host first, then shortest
        # queue, then name for a deterministic total order.
        return min(candidates, key=lambda r: (
            self.cluster.host_of(r.vm).interference_score(),
            r.queue_depth, r.name))

    def __repr__(self):
        return '<RequestRouter %s replicas=%d routed=%d unroutable=%d>' % (
            self.policy, len(self.replicas), self.routed, self.unroutable)
