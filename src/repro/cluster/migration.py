"""Live inter-host VM migration with a deterministic dirty-state cost
model.

The model is pre-copy-shaped but collapsed to its deterministic core:
the transfer pays for the VM's declared working set plus the pages its
recent CPU activity dirtied, over a fixed-rate migration link, plus a
constant switch-over downtime. Everything is integer nanosecond
arithmetic on counters the simulation already keeps — two runs with the
same history produce byte-identical migration records.

While in flight the VM exists on *no* host: the source evicted it
(every vCPU OFFLINE, deregistered from the source scheduler) and the
target only holds a capacity reservation. Guest timers that fire during
the blackout try to wake OFFLINE vCPUs and no-op; the backlog drains at
resume, which is exactly the downtime cost the figures measure.
"""

from ..obs import eventlog
from ..obs.phases import (PHASE_CL_MIGRATE, PHASE_CL_MIGRATE_IN,
                          PHASE_CL_MIGRATE_ROLLBACK)
from ..simkernel.units import MS, SEC


class MigrationCostModel:
    """Deterministic transfer-time model.

    ``transfer = base_downtime + (working_set_mb + dirtied_mb) / link``
    where ``dirtied_mb`` is proportional to the CPU time the VM burned
    since it was last (re)placed, capped at one ``dirty_window_ns`` per
    vCPU — long-running VMs redirty the same pages, they do not dirty
    unboundedly many.
    """

    def __init__(self, base_downtime_ns=2 * MS, link_mb_per_s=10_000,
                 dirty_mb_per_cpu_s=64, dirty_window_ns=1 * SEC):
        self.base_downtime_ns = base_downtime_ns
        self.link_mb_per_s = link_mb_per_s
        self.dirty_mb_per_cpu_s = dirty_mb_per_cpu_s
        self.dirty_window_ns = dirty_window_ns

    def dirtied_mb(self, dirty_run_ns, n_vcpus):
        capped = min(dirty_run_ns, n_vcpus * self.dirty_window_ns)
        return capped * self.dirty_mb_per_cpu_s // SEC

    def transfer_ns(self, working_set_mb, dirty_run_ns, n_vcpus):
        total_mb = working_set_mb + self.dirtied_mb(dirty_run_ns, n_vcpus)
        return self.base_downtime_ns + total_mb * SEC // self.link_mb_per_s


class MigrationRecord:
    """The ledger entry for one migration (in-flight until
    ``completed_ns`` or ``aborted_ns`` is set)."""

    __slots__ = ('vm_name', 'source', 'target', 'reason', 'started_ns',
                 'transfer_ns', 'completed_ns', 'aborted_ns',
                 'abort_reason')

    def __init__(self, vm_name, source, target, reason, started_ns,
                 transfer_ns):
        self.vm_name = vm_name
        self.source = source
        self.target = target
        self.reason = reason
        self.started_ns = started_ns
        self.transfer_ns = transfer_ns
        self.completed_ns = None
        self.aborted_ns = None
        self.abort_reason = None

    def __repr__(self):
        if self.completed_ns is not None:
            state = 'done@%d' % self.completed_ns
        elif self.aborted_ns is not None:
            state = 'aborted@%d(%s)' % (self.aborted_ns, self.abort_reason)
        else:
            state = 'in-flight'
        return '<Migration %s %s->%s %s %s>' % (
            self.vm_name, self.source, self.target, self.reason, state)


class _Flight:
    """Book-keeping for one in-flight migration: the ledger record,
    both endpoints, the cancellable events that decide its fate, and
    the observability handles (the source-host trace span plus the
    flow id that stitches departure to arrival across host tracks)."""

    __slots__ = ('record', 'source', 'target', 'resume_event',
                 'abort_event', 'flow_id', 'span')

    def __init__(self, record, source, target, resume_event,
                 abort_event=None, flow_id=None, span=None):
        self.record = record
        self.source = source
        self.target = target
        self.resume_event = resume_event
        self.abort_event = abort_event
        self.flow_id = flow_id
        self.span = span


class LiveMigrationEngine:
    """Pause -> transfer -> resume, one migration per VM at a time.

    The engine owns the only code path that moves a VM between hosts,
    so the invariant the sanitizer (and the cluster tests) lean on is
    local: between ``migrate`` and ``_resume`` the VM is resident
    nowhere and runnable nowhere.

    Migrations are *abortable*: an injected ``migration_abort`` fault
    or a target-host crash triggers :meth:`abort`, which cancels the
    pending resume, releases the target's capacity reservation, and
    rolls the VM back to the source (re-registering its vCPUs and
    repointing its kernel — the same adopt path a completed migration
    uses). Aborted moves retry with exponential backoff; a per-VM
    circuit breaker stops flapping VMs from churning: after
    ``breaker_threshold`` consecutive aborts, :meth:`migrate` refuses
    the VM until ``breaker_reset_ns`` has passed, and one completed
    migration closes the breaker entirely.
    """

    def __init__(self, sim, cost_model=None, injector=None,
                 retry_backoff_ns=50 * MS, max_retry_backoff_shift=5,
                 breaker_threshold=3, breaker_reset_ns=1 * SEC):
        self.sim = sim
        self.cost_model = cost_model or MigrationCostModel()
        # Fault plane (None = every transfer completes).
        self.injector = injector
        self.retry_backoff_ns = retry_backoff_ns
        self.max_retry_backoff_shift = max_retry_backoff_shift
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_ns = breaker_reset_ns
        # Rollback fallback when the source died too: the recovery
        # controller's re-place-or-park path (set by the cluster).
        self.on_orphan = None
        # Observability plane, shared by the cluster: the health event
        # log and the flow-id allocator (None = standalone engine).
        self.events = None
        self.flow_ids = None
        self.records = []
        self.in_flight = {}          # vm -> _Flight
        # vm -> cumulative run_ns at placement / last resume; the delta
        # against this is the dirtying run time the cost model charges.
        self._run_checkpoint = {}
        self._failures = {}          # vm -> consecutive aborted attempts
        self._breaker_until = {}     # vm -> time the breaker half-opens

    def note_placed(self, vm):
        """Checkpoint a VM's run counters at (re)placement so later
        migrations only pay for CPU burned since."""
        self._run_checkpoint[vm] = self._run_ns(vm)

    def _event(self, kind, **detail):
        """Append to the shared health event log (no-op standalone)."""
        if self.events is not None:
            self.events.append(self.sim.now, kind, **detail)

    @staticmethod
    def _track(host, vm):
        """Per-VM migration trace track on ``host``'s process group."""
        return 'cluster/%s/mig:%s' % (host.name, vm.name)

    def _run_ns(self, vm):
        now = self.sim.now
        return sum(vcpu.snapshot_accounting(now)[0] for vcpu in vm.vcpus)

    # ------------------------------------------------------------------
    # Circuit breaker
    # ------------------------------------------------------------------

    def breaker_open(self, vm):
        """Is ``vm`` barred from migrating right now?"""
        until = self._breaker_until.get(vm)
        if until is None:
            return False
        if self.sim.now >= until:
            # Half-open: the next migrate() is the probe.
            del self._breaker_until[vm]
            return False
        return True

    def _record_failure(self, vm, host=None):
        count = self._failures.get(vm, 0) + 1
        self._failures[vm] = count
        if count >= self.breaker_threshold:
            self._breaker_until[vm] = self.sim.now + self.breaker_reset_ns
            self.sim.trace.count('cluster.migration_breaker_trips')
            self._event(eventlog.EVENT_BREAKER_TRIP, vm=vm.name,
                        failures=count)
            if host is not None:
                self.sim.trace.spans.instant(
                    self.sim.now, eventlog.EVENT_BREAKER_TRIP,
                    'cluster/%s/health' % host.name, vm=vm.name,
                    failures=count)
        return count

    # ------------------------------------------------------------------
    # The move itself
    # ------------------------------------------------------------------

    def migrate(self, vm, source, target, reason='rebalance'):
        """Start migrating ``vm`` from ``source`` to ``target``.

        Returns the :class:`MigrationRecord`, or ``None`` when the move
        is refused (already in flight, degenerate source==target, the
        target lacks capacity or is not accepting, or the VM's circuit
        breaker is open).
        """
        if vm in self.in_flight or source is target:
            return None
        if not target.accepting or not target.has_capacity(vm.n_vcpus):
            return None
        if self.breaker_open(vm):
            self.sim.trace.count('cluster.migration_breaker_refusals')
            return None
        dirty_run_ns = self._run_ns(vm) - self._run_checkpoint.get(vm, 0)
        transfer = self.cost_model.transfer_ns(
            getattr(vm, 'working_set_mb', 0), dirty_run_ns, vm.n_vcpus)
        record = MigrationRecord(vm.name, source.name, target.name, reason,
                                 self.sim.now, transfer)
        source.evict_vm(vm)
        target.reserved_vcpus += vm.n_vcpus
        resume = self.sim.after(transfer, self._resume, vm)
        flow_id = next(self.flow_ids) if self.flow_ids is not None else None
        span = self.sim.trace.spans.begin(
            self.sim.now, PHASE_CL_MIGRATE, self._track(source, vm),
            flow='start', flow_id=flow_id, vm=vm.name, target=target.name,
            reason=reason)
        flight = _Flight(record, source, target, resume, flow_id=flow_id,
                         span=span)
        self.in_flight[vm] = flight
        self.records.append(record)
        self.sim.trace.count('cluster.migrations')
        self._event(eventlog.EVENT_MIGRATION_START, vm=vm.name,
                    source=source.name, target=target.name, reason=reason,
                    transfer_ns=transfer, flow=flow_id)
        # The fault plane decides *at departure* whether this transfer
        # dies mid-flight (one roll per migration, deterministic).
        if (self.injector is not None
                and self.injector.migration_aborted(vm) is not None):
            point = self.injector.abort_point_ns(transfer)
            flight.abort_event = self.sim.after(point, self.abort, vm,
                                                'fault')
        return record

    def _resume(self, vm):
        flight = self.in_flight.pop(vm)
        target = flight.target
        if flight.abort_event is not None:
            flight.abort_event.cancel()
        target.reserved_vcpus -= vm.n_vcpus
        target.adopt_vm(vm)
        # Re-checkpoint: the transfer shipped the dirty pages, so the
        # next migration starts from a clean slate.
        self._run_checkpoint[vm] = self._run_ns(vm)
        flight.record.completed_ns = self.sim.now
        self._failures.pop(vm, None)
        self._breaker_until.pop(vm, None)
        self.sim.trace.count('cluster.migrations_done')
        spans = self.sim.trace.spans
        spans.end(self.sim.now, flight.span, outcome='done')
        # The arrival instant carries the flow *end*: Perfetto draws
        # the arrow from the source-host transfer slice to this point
        # on the target host's track.
        spans.instant(self.sim.now, PHASE_CL_MIGRATE_IN,
                      self._track(target, vm), flow='end',
                      flow_id=flight.flow_id, vm=vm.name,
                      source=flight.source.name)
        self._event(eventlog.EVENT_MIGRATION_DONE, vm=vm.name,
                    source=flight.source.name, target=target.name,
                    flow=flight.flow_id)

    # ------------------------------------------------------------------
    # Abort / rollback
    # ------------------------------------------------------------------

    def abort(self, vm, reason='fault', retry=True):
        """Kill the in-flight migration of ``vm`` and roll it back to
        the source: release the target reservation, re-register the
        vCPUs, repoint the kernel and hypercall facades. No-op when the
        VM is not in flight (the transfer already completed).

        When the source has crashed in the meantime the VM cannot go
        back; it is handed to :attr:`on_orphan` (the recovery
        controller) to be re-placed or parked.
        """
        flight = self.in_flight.pop(vm, None)
        if flight is None:
            return False
        flight.resume_event.cancel()
        if flight.abort_event is not None:
            flight.abort_event.cancel()
        flight.target.reserved_vcpus -= vm.n_vcpus
        flight.record.aborted_ns = self.sim.now
        flight.record.abort_reason = reason
        self.sim.trace.count('cluster.migration_aborts')
        self.sim.trace.spans.end(self.sim.now, flight.span,
                                 outcome='abort:%s' % reason)
        failures = self._record_failure(vm, host=flight.source)

        from .host import HOST_FAILED
        if flight.source.state == HOST_FAILED:
            # Nowhere to roll back to: the source died while the VM was
            # in flight. The recovery controller re-places or parks it.
            self.sim.trace.count('cluster.migration_orphans')
            self._event(eventlog.EVENT_MIGRATION_ABORT, vm=vm.name,
                        source=flight.source.name,
                        target=flight.target.name, reason=reason,
                        rollback=False, flow=flight.flow_id)
            if self.on_orphan is not None:
                self.on_orphan(vm)
            return True

        flight.source.adopt_vm(vm)
        self._run_checkpoint[vm] = self._run_ns(vm)
        self.sim.trace.count('cluster.migration_rollbacks')
        self._event(eventlog.EVENT_MIGRATION_ABORT, vm=vm.name,
                    source=flight.source.name, target=flight.target.name,
                    reason=reason, rollback=True, flow=flight.flow_id)
        # Rollback closes the flow where it started: the arrow returns
        # to the source host's track.
        self.sim.trace.spans.instant(
            self.sim.now, PHASE_CL_MIGRATE_ROLLBACK,
            self._track(flight.source, vm), flow='end',
            flow_id=flight.flow_id, vm=vm.name, reason=reason)

        if retry and not self.breaker_open(vm):
            shift = min(failures - 1, self.max_retry_backoff_shift)
            backoff = self.retry_backoff_ns << shift
            self.sim.after(backoff, self._retry, vm, flight.source,
                           flight.target, flight.record.reason)
        return True

    def _retry(self, vm, source, target, reason):
        """Backed-off re-attempt of an aborted migration. Re-validates
        the world first: the VM must still sit on the source and the
        target must still be accepting — otherwise the retry is dropped
        (the rebalance daemon will find a better move on its own)."""
        if vm in self.in_flight or vm not in source.resident_vms:
            return
        if not target.accepting or not target.has_capacity(vm.n_vcpus):
            return
        self.sim.trace.count('cluster.migration_retries')
        self.migrate(vm, source, target, reason=reason)

    def abort_targeting(self, host, reason='target_crash'):
        """Roll back every in-flight migration aimed at ``host`` (the
        target crashed mid-transfer). Retries are suppressed — the
        target is gone."""
        for vm, flight in list(self.in_flight.items()):
            if flight.target is host:
                self.abort(vm, reason=reason, retry=False)

    @property
    def completed(self):
        return [r for r in self.records if r.completed_ns is not None]

    @property
    def aborted(self):
        return [r for r in self.records if r.aborted_ns is not None]
