"""Admission control: capacity gating in front of placement.

A request is admissible on a host when the host's committed vCPUs
(resident plus reserved for in-flight migrations) leave room for the
request under the host's ``capacity_vcpus`` ceiling. A request no host
can take is rejected outright — the cluster never overcommits past the
declared ratio, and never queues (arrival processes in the evaluation
are open-loop; a queued VM would just shift the rejection later).
"""

from collections import deque

#: Default rejection-ledger capacity. Rejections are low-rate control-
#: plane outcomes, but an autoscaler probing a full cluster (or a chaos
#: campaign crashing hosts under load) can grind one out per check
#: period indefinitely — the ledger is a ring, like the event log, so
#: a long run cannot grow it without bound.
DEFAULT_MAX_REJECTIONS = 1024


class AdmissionController:
    """Capacity gate; also the rejection ledger.

    ``rejections`` holds the most recent ``max_rejections`` rejected
    request names (oldest first) in a ``deque(maxlen=max_rejections)``,
    the ring :class:`~repro.obs.eventlog.EventLog` also uses; older
    entries are evicted and counted in ``rejections_dropped``.
    ``rejected`` is the complete count regardless of eviction.
    """

    def __init__(self, max_rejections=DEFAULT_MAX_REJECTIONS):
        if max_rejections < 1:
            raise ValueError('max_rejections must be >= 1')
        self.admitted = 0
        self.rejected = 0
        self.rejections_dropped = 0
        self._ring = deque(maxlen=max_rejections)   # request names

    @property
    def rejections(self):
        """Retained rejected request names, oldest first."""
        return list(self._ring)

    def admissible_hosts(self, hosts, request):
        """The subset of ``hosts`` (order preserved) that are accepting
        placements (up, not quarantined) with room for ``request``."""
        return [host for host in hosts
                if host.accepting and host.has_capacity(request.n_vcpus)]

    def admit(self, request, host):
        self.admitted += 1
        host.sim.trace.count('cluster.admitted')

    def reject(self, request, sim):
        self.rejected += 1
        if len(self._ring) == self._ring.maxlen:
            self.rejections_dropped += 1
        self._ring.append(request.name)
        sim.trace.count('cluster.rejected')
