"""Migrator — the IRS load distributor (Algorithm 2, Section 3.3).

A system-wide kernel thread, woken asynchronously by the SA receiver.
For the task descheduled off a preemptee vCPU it searches the sibling
vCPUs for the best destination, probing *actual* hypervisor runstates
via ``HYPERVISOR_vcpu_op`` (preempted vCPUs still look "online" to the
guest, so the hypercall is the only truthful signal):

* an **idle** vCPU (blocked at the hypervisor with an empty runqueue)
  wins immediately — the task can run the moment the vCPU wake-boosts;
* otherwise the **running** vCPU with the smallest ``rt_avg`` load
  (which folds in steal time) is chosen;
* **runnable** (preempted) vCPUs are skipped — moving the task there
  would recreate the very problem being solved;
* with no target at all, the task is parked back on its original vCPU.

Tasks placed by the migrator carry the ``irs_tag`` that drives the
ping-pong-avoiding wakeup rule (Figure 4).

Graceful degradation (``IRSConfig.degradation_enabled``): runstate
probes may be stale or error out, and the move itself may die mid-way
(fault plane, :mod:`repro.faults`). The degradation path (a) treats an
erroring probe as "candidate unusable" instead of crashing the kernel
thread, (b) **re-validates** the chosen target's runstate immediately
before committing the move and aborts on a mismatch, and (c) *requeues*
an aborted or failed move with a small backoff, bounded by
``migrator_retries``, before falling back to parking the task home —
so a task is never stranded in migrator limbo.
"""

from ..faults.injector import HypercallFaultError
from ..guestos.task import TASK_MIGRATING
from ..obs.phases import PHASE_MIGRATE, migrate_track
from .config import IRSConfig


class Migrator:
    """Guest-side migration thread for SA-descheduled tasks."""

    def __init__(self, sim, kernel, hypercalls, config=None):
        self.sim = sim
        self.kernel = kernel
        self.hypercalls = hypercalls
        self.config = config or IRSConfig()
        self.migrations = 0
        self.fallbacks = 0
        self.aborts = 0          # moves aborted on re-validation
        self.retries = 0         # aborted/failed moves re-attempted
        self.recoveries = 0      # mid-move failures recovered home
        self._retry_counts = {}  # task -> requeue attempts so far

    def migrate(self, task, source_gcpu):
        """Move ``task`` (in migrator limbo) off ``source_gcpu``."""
        if task.state != TASK_MIGRATING:
            self._retry_counts.pop(task, None)
            self._dispose(task, source_gcpu, 'stale')
            self._end_span(task, outcome='stale')
            return None
        target = self._find_target(source_gcpu)
        if target is None:
            # No idle or running sibling: keep the task home; it runs
            # when the preempted vCPU is scheduled again.
            return self._fall_back_home(task, source_gcpu)
        if self.config.degradation_enabled:
            if not self._revalidate(target):
                # The probe that chose this target was stale: the vCPU
                # is no longer idle/running. Abort and requeue rather
                # than parking the task on a frozen vCPU.
                self.aborts += 1
                self.sim.trace.count('irs.migrator_aborts')
                return self._requeue(task, source_gcpu)
            injector = self.kernel.machine.fault_injector
            if (injector is not None
                    and injector.migration_fails(task, self.kernel)):
                # The move died mid-way; recover by requeueing.
                self.sim.trace.count('irs.migrator_failures')
                self.recoveries += 1
                self.sim.trace.count('irs.migrator_recoveries')
                return self._requeue(task, source_gcpu)
        else:
            injector = self.kernel.machine.fault_injector
            if (injector is not None
                    and injector.migration_fails(task, self.kernel)):
                # No degradation path: the task is stranded in limbo —
                # exactly the failure mode the defense exists for.
                self.sim.trace.count('irs.migrator_failures')
                self.sim.trace.count('irs.migrator_stranded')
                self._dispose(task, source_gcpu, 'stranded')
                self._end_span(task, outcome='stranded')
                return None
        self._retry_counts.pop(task, None)
        self.migrations += 1
        self.kernel.migrate_limbo_task(task, target)
        self._dispose(task, source_gcpu, 'migrated')
        self._end_span(task, outcome='migrated', target=target.name)
        return target

    def _dispose(self, task, source_gcpu, outcome):
        """Tell the source vCPU's SA protocol machine the limbo task of
        its round reached a terminal outcome."""
        proto = source_gcpu.vcpu.sa_protocol
        if proto is not None:
            proto.task_disposed(task, outcome)

    def _end_span(self, task, **detail):
        """Close the migrate-pick -> migrate-done span (opened by the
        SA receiver when it kicked us) on a terminal outcome."""
        spans = self.sim.trace.spans
        if spans.enabled:
            spans.end_phase(self.sim.now, PHASE_MIGRATE,
                            migrate_track(task.name), **detail)

    # ------------------------------------------------------------------
    # Degradation path
    # ------------------------------------------------------------------

    def _revalidate(self, target_gcpu):
        """Probe the chosen target once more right before the move;
        True when it is still a legal destination."""
        state = self._probe(target_gcpu.vcpu)
        if state is None:
            return False
        if state == 'blocked':
            return target_gcpu.is_guest_idle
        return state == 'running'

    def _requeue(self, task, source_gcpu):
        """Retry an aborted/failed move after a backoff, a bounded
        number of times; then park the task back home."""
        attempts = self._retry_counts.get(task, 0)
        if attempts < self.config.migrator_retries:
            self._retry_counts[task] = attempts + 1
            self.retries += 1
            self.sim.trace.count('irs.migrator_retries')
            self.sim.after(self.config.migrator_retry_ns,
                           self.migrate, task, source_gcpu)
            return None
        return self._fall_back_home(task, source_gcpu)

    def _fall_back_home(self, task, source_gcpu):
        self._retry_counts.pop(task, None)
        self.fallbacks += 1
        self.sim.trace.count('irs.migrator_fallbacks')
        self.kernel.migrate_limbo_task(task, source_gcpu)
        self._dispose(task, source_gcpu, 'parked_home')
        self._end_span(task, outcome='fallback')
        return source_gcpu

    def _probe(self, vcpu):
        """Runstate probe that survives injected hypercall errors
        (returns None when the probe fails and degradation is on)."""
        if not self.config.degradation_enabled:
            return self.hypercalls.vcpu_op_get_runstate(vcpu)
        try:
            return self.hypercalls.vcpu_op_get_runstate(vcpu)
        except HypercallFaultError:
            self.sim.trace.count('irs.migrator_probe_errors')
            return None

    # ------------------------------------------------------------------
    # Target search (Algorithm 2)
    # ------------------------------------------------------------------

    def _find_target(self, source_gcpu):
        """Algorithm 2 (policy 'idle_first'): first idle vCPU, else the
        least-loaded running one. The other policies are ablations of
        the design choices the paper calls out (Section 3.3)."""
        policy = self.config.migrator_policy
        candidates = []
        for gcpu in self.kernel.gcpus:
            if gcpu is source_gcpu:
                continue
            state = self._probe(gcpu.vcpu)
            if state is None:
                continue
            if state == 'blocked' and gcpu.is_guest_idle:
                if (policy == IRSConfig.POLICY_IDLE_FIRST
                        and self.config.prefer_idle_vcpu):
                    return gcpu
                candidates.append((gcpu, 0.0))
            elif state == 'running':
                candidates.append((gcpu, self._load_of(gcpu)))
            # runnable (preempted) or blocked-with-work: skip.
        if not candidates:
            return None
        if policy == IRSConfig.POLICY_RANDOM:
            rng = self.sim.rng.stream('irs.migrator.random')
            return rng.choice([gcpu for gcpu, __ in candidates])
        return min(candidates, key=lambda pair: pair[1])[0]

    def _load_of(self, gcpu):
        """Busyness under the configured policy: the paper's rt_avg
        (steal-aware) or the naive guest-only queue depth."""
        if self.config.migrator_policy == IRSConfig.POLICY_GUEST_LOAD_ONLY:
            return (gcpu.rq.nr_ready +
                    (1 if gcpu.current is not None else 0))
        return gcpu.load_metric()
