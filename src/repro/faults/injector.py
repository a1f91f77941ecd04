"""Composable fault specs and the injector that applies them.

Every fault decision is drawn from a dedicated named RNG stream
(``faults.<kind>.<index>``), so

* two runs with the same seed and plan inject the identical fault
  sequence (campaigns are reproducible and bisectable), and
* a run with **no** plan makes **no** draws — the existing model
  streams see exactly the sequence they saw before this package
  existed, keeping all fault-free figures bit-identical.

Fault kinds
-----------

========================  ====================================================
``virq_drop``             the vIRQ is lost (SA upcall loss when filtered to
                          ``VIRQ_SA_UPCALL``)
``virq_delay``            delivery is postponed by a uniform draw from
                          ``[delay_min_ns, delay_max_ns]``
``virq_dup``              the vIRQ is delivered twice back to back
``virq_reorder``          the vIRQ is held back and delivered *after* the
                          next vIRQ to the same vCPU (flushed after
                          ``flush_ns`` if none arrives)
``runstate_stale``        ``VCPUOP_get_runstate`` returns the previously
                          observed runstate instead of the current one
``runstate_error``        the probe raises :class:`HypercallFaultError`
``migrator_fail``         an IRS migration fails mid-move, stranding the
                          task in migrator limbo unless the degradation
                          path recovers it
``sa_ack_timeout``        the guest's SA acknowledgement is lost, so the
                          sender's grace window expires
``host_crash``            a cluster host dies outright: its VMs are orphaned
                          and the recovery controller re-places (or parks)
                          them; the host reboots empty after ``down_ns``
``host_degrade``          a cluster host's health degrades: the watchdog
                          quarantines it (no new placements, drained by the
                          rebalance daemon) until it recovers
``migration_abort``       an in-flight inter-host live migration dies
                          mid-transfer and must roll back to the source
========================  ====================================================

The host-level and migration kinds are consumed by the cluster layer
(:mod:`repro.cluster.recovery`), not by per-machine hooks: the cluster's
fault driver polls :meth:`FaultInjector.host_fault` on its tick and the
migration engine consults :meth:`FaultInjector.migration_aborted` when a
transfer starts. On a single-machine run they simply never fire.
"""

from collections import Counter


FAULT_KINDS = (
    'virq_drop',
    'virq_delay',
    'virq_dup',
    'virq_reorder',
    'runstate_stale',
    'runstate_error',
    'migrator_fail',
    'sa_ack_timeout',
    'host_crash',
    'host_degrade',
    'migration_abort',
)

_VIRQ_KINDS = ('virq_drop', 'virq_delay', 'virq_dup', 'virq_reorder')

#: Cluster-level kinds rolled by the cluster fault driver's tick.
HOST_FAULT_KINDS = ('host_crash', 'host_degrade')


class HypercallFaultError(Exception):
    """An injected hypercall failure (``runstate_error``)."""


class FaultSpec:
    """One composable fault: a kind, a firing probability, and filters.

    Specs are immutable templates; per-run firing counts live in the
    :class:`FaultInjector`, so one spec (or plan) can drive many runs.

    Args:
        kind: one of :data:`FAULT_KINDS`.
        probability: chance in [0, 1] that the fault fires at each
            matching hook crossing.
        virq: restrict vIRQ faults to one interrupt line (e.g.
            ``'VIRQ_SA_UPCALL'``); None matches every vIRQ.
        vm: restrict to VMs whose name equals (or starts with) this
            prefix; None matches every VM.
        delay_min_ns / delay_max_ns: delivery delay band for
            ``virq_delay``.
        flush_ns: how long ``virq_reorder`` may hold a vIRQ before
            force-delivering it.
        limit: at most this many firings per run; None is unlimited.
        host: restrict host faults to hosts whose name equals (or
            starts with) this prefix; None matches every host.
        down_ns: for ``host_crash``/``host_degrade``, how long the host
            stays down (or degraded) before it recovers.
    """

    __slots__ = ('kind', 'probability', 'virq', 'vm', 'delay_min_ns',
                 'delay_max_ns', 'flush_ns', 'limit', 'host', 'down_ns')

    def __init__(self, kind, probability, virq=None, vm=None,
                 delay_min_ns=10_000, delay_max_ns=200_000,
                 flush_ns=100_000, limit=None, host=None,
                 down_ns=250_000_000):
        if kind not in FAULT_KINDS:
            raise ValueError('unknown fault kind %r (want one of %s)'
                             % (kind, ', '.join(FAULT_KINDS)))
        if not 0.0 <= probability <= 1.0:
            raise ValueError('probability must be in [0, 1], got %r'
                             % probability)
        if delay_min_ns > delay_max_ns:
            raise ValueError('delay band is empty: [%d, %d]'
                             % (delay_min_ns, delay_max_ns))
        if down_ns < 1:
            raise ValueError('down_ns must be positive, got %r' % down_ns)
        self.kind = kind
        self.probability = probability
        self.virq = virq
        self.vm = vm
        self.delay_min_ns = delay_min_ns
        self.delay_max_ns = delay_max_ns
        self.flush_ns = flush_ns
        self.limit = limit
        self.host = host
        self.down_ns = down_ns

    def matches_vm(self, vm):
        return self.vm is None or vm.name.startswith(self.vm)

    def matches_host(self, host_name):
        return self.host is None or host_name.startswith(self.host)

    def matches_virq(self, virq, vcpu):
        if self.virq is not None and virq != self.virq:
            return False
        return self.matches_vm(vcpu.vm)

    def __repr__(self):
        extras = []
        if self.virq:
            extras.append('virq=%s' % self.virq)
        if self.vm:
            extras.append('vm=%s' % self.vm)
        return '<FaultSpec %s p=%.2f%s>' % (
            self.kind, self.probability,
            ' ' + ' '.join(extras) if extras else '')


class FaultInjector:
    """Applies a list of :class:`FaultSpec` at the hypervisor's fault
    hook points. Attach to a machine with :meth:`attach`; a machine
    with no injector takes the exact pre-existing code paths."""

    def __init__(self, sim, specs=()):
        self.sim = sim
        self.specs = list(specs)
        #: injections per fault kind this run.
        self.injected = Counter()
        #: SA-protocol state of the target vCPU at the moment each
        #: SA-relevant fault struck (``(kind, state)`` -> count). Kept
        #: out of :meth:`summary` so report payloads are unchanged;
        #: read it directly when analysing degraded-edge coverage.
        self.sa_states_struck = Counter()
        self._fired = Counter()          # spec index -> firings
        self._stale_runstates = {}       # vcpu -> last truthful probe
        self._held_virqs = {}            # vcpu -> [(virq, flush_event)]

    def attach(self, machine):
        """Wire this injector into ``machine``. Returns self."""
        machine.fault_injector = self
        return self

    # ------------------------------------------------------------------
    # Decision plumbing
    # ------------------------------------------------------------------

    def _roll(self, index, spec):
        """Deterministically decide whether ``spec`` fires now."""
        if spec.probability <= 0.0:
            return False
        if spec.limit is not None and self._fired[index] >= spec.limit:
            return False
        stream = self.sim.rng.stream('faults.%s.%d' % (spec.kind, index))
        if stream.random() >= spec.probability:
            return False
        self._fired[index] += 1
        return True

    def _record(self, spec):
        self.injected[spec.kind] += 1
        self.sim.trace.count('faults.%s' % spec.kind)
        self.sim.trace.count('faults.injected')

    def _record_sa_state(self, spec, vcpu):
        """Attribute an SA-relevant fault to the protocol state its
        target vCPU's round was in when the fault struck."""
        proto = getattr(vcpu, 'sa_protocol', None)
        state = proto.state if proto is not None else 'untracked'
        self.sa_states_struck[(spec.kind, state)] += 1

    # ------------------------------------------------------------------
    # Hook: vIRQ delivery (EventChannels.send_virq)
    # ------------------------------------------------------------------

    def on_virq(self, channels, vcpu, virq):
        """Deliver ``virq`` through the fault plane. At most one vIRQ
        fault applies per interrupt (first matching spec that fires)."""
        for index, spec in enumerate(self.specs):
            if spec.kind not in _VIRQ_KINDS:
                continue
            if not spec.matches_virq(virq, vcpu):
                continue
            if not self._roll(index, spec):
                continue
            self._record(spec)
            self._record_sa_state(spec, vcpu)
            if spec.kind == 'virq_drop':
                self._flush_held(channels, vcpu)
                return
            if spec.kind == 'virq_delay':
                delay = self.sim.rng.uniform_ns(
                    'faults.virq_delay.%d.jitter' % index,
                    spec.delay_min_ns, spec.delay_max_ns)
                self.sim.after(delay, channels.deliver, vcpu, virq)
                self._flush_held(channels, vcpu)
                return
            if spec.kind == 'virq_dup':
                channels.deliver(vcpu, virq)
                channels.deliver(vcpu, virq)
                self._flush_held(channels, vcpu)
                return
            # virq_reorder: hold this one back until the next vIRQ for
            # the same vCPU (or the flush timer) releases it.
            flush = self.sim.after(spec.flush_ns, self._flush_held,
                                   channels, vcpu)
            self._held_virqs.setdefault(vcpu, []).append((virq, flush))
            return
        channels.deliver(vcpu, virq)
        self._flush_held(channels, vcpu)

    def _flush_held(self, channels, vcpu):
        """Deliver every vIRQ held back for reordering on ``vcpu``."""
        held = self._held_virqs.pop(vcpu, None)
        if not held:
            return
        for virq, flush_event in held:
            flush_event.cancel()
            channels.deliver(vcpu, virq)

    # ------------------------------------------------------------------
    # Hook: runstate probes (HypercallInterface.vcpu_op_get_runstate)
    # ------------------------------------------------------------------

    def on_runstate_probe(self, vcpu, real_state):
        """Return the (possibly corrupted) probe result, or raise
        :class:`HypercallFaultError` for an erroring probe."""
        for index, spec in enumerate(self.specs):
            if spec.kind not in ('runstate_stale', 'runstate_error'):
                continue
            if not spec.matches_vm(vcpu.vm):
                continue
            if not self._roll(index, spec):
                continue
            self._record(spec)
            if spec.kind == 'runstate_error':
                raise HypercallFaultError(
                    'VCPUOP_get_runstate failed for %s' % vcpu.name)
            # Stale: report the previous observation and do NOT refresh
            # the cache, so a re-probe has a chance to see the truth.
            return self._stale_runstates.get(vcpu, real_state)
        self._stale_runstates[vcpu] = real_state
        return real_state

    # ------------------------------------------------------------------
    # Hook: migrator (core.migrator.Migrator.migrate)
    # ------------------------------------------------------------------

    def migration_fails(self, task, kernel):
        """True when the in-flight IRS migration of ``task`` dies."""
        for index, spec in enumerate(self.specs):
            if spec.kind != 'migrator_fail':
                continue
            if not spec.matches_vm(kernel.vm):
                continue
            if self._roll(index, spec):
                self._record(spec)
                self._record_sa_state(spec, task.gcpu.vcpu)
                return True
        return False

    # ------------------------------------------------------------------
    # Hook: SA acknowledgement (HypercallInterface.sched_op)
    # ------------------------------------------------------------------

    def sa_ack_lost(self, vcpu):
        """True when the guest's SA acknowledgement never reaches the
        hypervisor, leaving the grace-window timeout to fire."""
        for index, spec in enumerate(self.specs):
            if spec.kind != 'sa_ack_timeout':
                continue
            if not spec.matches_vm(vcpu.vm):
                continue
            if self._roll(index, spec):
                self._record(spec)
                self._record_sa_state(spec, vcpu)
                return True
        return False

    # ------------------------------------------------------------------
    # Hook: cluster fault driver (repro.cluster.recovery)
    # ------------------------------------------------------------------

    def host_fault(self, host_name):
        """The first firing host-level spec for ``host_name`` on this
        tick (or None). At most one host fault applies per host per
        tick; the cluster fault driver decides what it means."""
        for index, spec in enumerate(self.specs):
            if spec.kind not in HOST_FAULT_KINDS:
                continue
            if not spec.matches_host(host_name):
                continue
            if self._roll(index, spec):
                self._record(spec)
                return spec
        return None

    def migration_aborted(self, vm):
        """The firing ``migration_abort`` spec when the in-flight
        cluster migration of ``vm`` dies mid-transfer (or None)."""
        for index, spec in enumerate(self.specs):
            if spec.kind != 'migration_abort':
                continue
            if not spec.matches_vm(vm):
                continue
            if self._roll(index, spec):
                self._record(spec)
                return spec
        return None

    def abort_point_ns(self, transfer_ns):
        """Deterministic offset into a ``transfer_ns``-long migration at
        which an injected abort strikes (strictly before completion)."""
        if transfer_ns <= 1:
            return 1
        return self.sim.rng.uniform_ns(
            'faults.migration_abort.point', 1, transfer_ns - 1)

    def summary(self):
        """Injection counts per kind (plain dict, for reports)."""
        return dict(self.injected)


class FaultPlan:
    """A named, reusable collection of fault specs.

    Plans are templates: :meth:`build` creates a fresh injector per
    run, so firing counts and stale caches never leak across runs.
    """

    def __init__(self, name, specs, description=''):
        self.name = name
        self.specs = tuple(specs)
        self.description = description

    def build(self, sim):
        """Instantiate a :class:`FaultInjector` for one run."""
        return FaultInjector(sim, self.specs)

    def merged_with(self, other):
        """A plan combining this plan's specs with ``other``'s."""
        return FaultPlan('%s+%s' % (self.name, other.name),
                         self.specs + other.specs,
                         '; '.join(d for d in (self.description,
                                               other.description) if d))

    def __repr__(self):
        return '<FaultPlan %s: %d spec(s)>' % (self.name, len(self.specs))
