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
        # exp(-elapsed / tau) and 1 - that for the last elapsed seen:
        # ticks repeat the same interval, and equal inputs give equal
        # bits.
        self._decay_elapsed = None
        self._decay = 1.0
        self._gain = 0.0

    def update(self, now=None):
        """Fold in everything since the last update, up to ``now`` (by
        default the clock; never before the last update); return the
        avg."""
        if now is None:
            now = self.sim.now
        last = self._last_time
        elapsed = now - last
        if elapsed <= 0:
            return self.value
        if elapsed != self._decay_elapsed:
            self._decay_elapsed = elapsed
            self._decay = exp(-elapsed / self.tau_ns)
            self._gain = 1.0 - self._decay
        decay = self._decay
        vcpu = self.vcpu
        if vcpu.is_running and vcpu.runstate_since <= last:
            # It ran all of (last, now]: busy == elapsed, so the
            # fraction is exactly 1.0 and steal did not move. Same bits
            # as the general fold, without the snapshot.
            self.value = decay * self.value + self._gain
            self._last_run += elapsed
        else:
            run, steal, __ = vcpu.snapshot_accounting(now)
            busy = (run - self._last_run) + (steal - self._last_steal)
            self.value = decay * self.value + self._gain * (busy / elapsed)
            self._last_run = run
            self._last_steal = steal
        self._last_time = now
        return self.value

    def fold_periods(self, period, count):
        """``count`` more updates, each ``period`` after the one before,
        while the vCPU runs throughout: one fold per period, with the
        bits of :meth:`update` at each."""
        if period != self._decay_elapsed:
            self._decay_elapsed = period
            self._decay = exp(-period / self.tau_ns)
            self._gain = 1.0 - self._decay
        decay = self._decay
        gain = self._gain
        value = self.value
        for __ in range(count):
            value = decay * value + gain
        self.value = value
        span = period * count
        self._last_run += span
        self._last_time += span
