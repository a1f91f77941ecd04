"""Per-vCPU load tracking: the ``rt_avg`` estimate.

Linux's ``rt_avg``-style metric, as the paper uses it (Section 3.3):
an exponentially decayed average of how busy a virtual CPU has been,
where "busy" includes **steal time** — intervals the vCPU was runnable
but held off the pCPU by hypervisor-level contention. Folding steal in
is what lets the guest prefer uncontended vCPUs when placing work.
"""

from math import exp

from ..simkernel.units import MS

DEFAULT_TAU_NS = 20 * MS


class RtAvgTracker:
    """Decayed busy+steal fraction for one vCPU, lazily updated."""

    def __init__(self, vcpu, sim, tau_ns=DEFAULT_TAU_NS):
        self.vcpu = vcpu
        self.sim = sim
        self.tau_ns = tau_ns
        self.value = 0.0
        self._last_time = sim.now
        run, steal, __ = vcpu.snapshot_accounting(sim.now)
        self._last_run = run
        self._last_steal = steal

    def update(self):
        """Fold in everything since the last update; return the avg."""
        now = self.sim.now
        elapsed = now - self._last_time
        if elapsed <= 0:
            return self.value
        run, steal, __ = self.vcpu.snapshot_accounting(now)
        busy = (run - self._last_run) + (steal - self._last_steal)
        fraction = busy / elapsed
        decay = exp(-elapsed / self.tau_ns)
        self.value = decay * self.value + (1.0 - decay) * fraction
        self._last_time = now
        self._last_run = run
        self._last_steal = steal
        return self.value
