"""Runtime scheduler sanitizer — always-on invariant checking.

An opt-in watchdog hooked into the simulator's event loop that asserts,
at a configurable event interval, the structural invariants of the
two-level scheduler:

* a pCPU runs at most one vCPU, and a vCPU is dispatched on at most one
  pCPU ("one-vCPU-per-pCPU");
* a task is current on at most one guest CPU and queued on at most one
  runqueue, and never both at once ("one-task-per-vCPU");
* no task is lost or duplicated across migrations: every spawned task
  is exactly one of current / queued / sleeping / migrating / exited;
* the clock is monotone;
* credits are conserved within the scheduler's clip band
  ``[-credit_cap, credit_cap]``.

vCPUs that carry an SA protocol object (``vcpu.sa_protocol``, created
by the IRS sender — see ``repro.core.protocol``) get three more:

* every protocol edge taken was legal ("sa_legal_transitions" — the
  state machine records illegal attempts instead of raising);
* the per-vCPU flags agree with the protocol state: the guest is inside
  the upcall handler iff the round is SWITCHING, a NOTIFIED offer
  implies ``sa_pending``, and a completed handshake (ACKED) implies it
  was cleared ("sa_flag_consistency");
* only IRS-capable VMs ever leave the idle state ("sa_capability").

When a cluster is attached (``attach_cluster``, called by
``Cluster.__init__``), three cluster-level invariants join the list:

* a VM is resident on at most one host ("single-residency") and never
  both resident and in-flight;
* every host's ``reserved_vcpus`` equals the vCPUs of the in-flight
  migrations targeting it — aborts and rollbacks must not leak
  reservations;
* the orphan ledger: every VM the cluster admitted is exactly one of
  resident / in-flight / pending-recovery / parked. Host crashes must
  not lose VMs.

Violations are reported as structured :class:`Violation` records naming
the event whose processing broke the invariant — which is what makes
fault campaigns debuggable: the report points at the injected fault (or
the defense bug) directly, not at a corrupted end state thousands of
events later.

Usage::

    sim = Simulator(seed=0)
    sanitizer = install_sanitizer(sim, interval=1, mode='raise')
    machine = Machine(sim, n_pcpus=4)   # attaches itself automatically
    ...
    sanitizer.assert_clean()

``mode='raise'`` raises :class:`SanitizerError` at the first violation;
``mode='collect'`` accumulates them in :attr:`Sanitizer.violations` so a
test can assert on the whole report.
"""

from .simulation import SimulationError, _callback_name

_TASK_STATES = ('running', 'ready', 'sleeping', 'migrating', 'exited')
# SA protocol states with an open activation round (mirrors
# ``repro.core.protocol.SA_ACTIVE_STATES``; duck-typed by name because
# the sanitizer sits below the core layer).
_SA_ACTIVE_STATES = ('notified', 'switching', 'limbo')


class Violation:
    """One invariant violation, tied to the event that exposed it.

    ``event`` names the breaking event by its callback and firing time.
    It does not use ``repr(event)``: the checks run after the callback,
    and a timer that re-armed its own handle shows its *next* deadline
    there."""

    __slots__ = ('time', 'invariant', 'message', 'event')

    def __init__(self, time, invariant, message, event, fired_at=None):
        self.time = time
        self.invariant = invariant
        self.message = message
        if event is None:
            self.event = '<initial state>'
        elif fired_at is None:
            self.event = '%s (firing time unknown)' % _callback_name(
                event.callback)
        else:
            self.event = '%s fired at t=%d' % (_callback_name(event.callback),
                                               fired_at)

    def __repr__(self):
        return '<Violation t=%d %s: %s after %s>' % (
            self.time, self.invariant, self.message, self.event)

    def format(self):
        return ('[t=%d] invariant %r violated: %s\n'
                '        breaking event: %s'
                % (self.time, self.invariant, self.message, self.event))


class SanitizerError(SimulationError):
    """Raised in ``mode='raise'`` when an invariant check fails."""

    def __init__(self, violation):
        self.violation = violation
        super().__init__(violation.format())


class Sanitizer:
    """Event-loop-hooked invariant checker over machines and guests."""

    def __init__(self, sim, interval=1, mode='raise'):
        if interval < 1:
            raise ValueError('interval must be >= 1, got %r' % interval)
        if mode not in ('raise', 'collect'):
            raise ValueError("mode must be 'raise' or 'collect'")
        self.sim = sim
        self.interval = interval
        self.mode = mode
        self.machines = []
        self.clusters = []
        self.violations = []
        self.checks = 0
        # id(protocol) -> illegal-transition count already reported, so
        # each illegal SA edge is attributed to the first check after
        # the event that took it (not re-reported forever).
        self._sa_illegal_seen = {}
        self._countdown = interval
        self._last_now = sim.now
        # Firing time of the event the running check is attributed to.
        self._fired_at = None
        self._hook = sim.add_post_event_hook(self._on_event)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_machine(self, machine):
        """Watch ``machine`` (and, transitively, every guest kernel
        attached to its VMs). Called by ``Machine.__init__`` when the
        simulator carries a sanitizer."""
        if machine not in self.machines:
            self.machines.append(machine)

    def attach_cluster(self, cluster):
        """Watch ``cluster``'s residency, reservation, and orphan
        ledgers. Called by ``Cluster.__init__`` when the simulator
        carries a sanitizer (host machines attach themselves through
        :meth:`attach_machine` as usual)."""
        if cluster not in self.clusters:
            self.clusters.append(cluster)

    def uninstall(self):
        """Detach from the simulator's event loop."""
        self.sim.remove_post_event_hook(self._hook)
        if self.sim.sanitizer is self:
            self.sim.sanitizer = None

    # ------------------------------------------------------------------
    # Event-loop hook
    # ------------------------------------------------------------------

    def _on_event(self, event):
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.interval
        self._check(event, self.sim.now)

    def check_now(self, event=None):
        """Run every invariant immediately (also callable from tests).
        Violations name ``event``, by default the last fired one."""
        if event is None:
            event = self.sim.last_event
        # A fired handle still holds its firing time; a re-armed one
        # holds its next deadline instead.
        fired_at = event.time if event is not None and event.fired else None
        self._check(event, fired_at)

    def _check(self, event, fired_at):
        self._fired_at = fired_at
        self.checks += 1
        self._check_clock(event)
        for machine in self.machines:
            self._check_machine(machine, event)
        for cluster in self.clusters:
            self._check_cluster(cluster, event)
        self.sim.trace.count('sanitizer.checks')

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def report(self):
        """Human-readable multi-line report of every violation."""
        if not self.violations:
            return ('sanitizer: %d checks, no violations' % self.checks)
        lines = ['sanitizer: %d checks, %d violation(s)'
                 % (self.checks, len(self.violations))]
        lines.extend(v.format() for v in self.violations)
        return '\n'.join(lines)

    def assert_clean(self):
        """Raise :class:`SanitizerError` if any violation was recorded."""
        if self.violations:
            raise SanitizerError(self.violations[0])

    def _fail(self, invariant, message, event):
        violation = Violation(self.sim.now, invariant, message, event,
                              self._fired_at)
        self.violations.append(violation)
        self.sim.trace.count('sanitizer.violations')
        if self.mode == 'raise':
            raise SanitizerError(violation)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def _check_clock(self, event):
        if self.sim.now < self._last_now:
            self._fail('clock_monotonic',
                       'clock moved backwards: %d -> %d'
                       % (self._last_now, self.sim.now), event)
        self._last_now = self.sim.now

    def _check_machine(self, machine, event):
        self._check_hypervisor(machine, event)
        cap = machine.scheduler.config.credit_cap
        for vm in machine.vms:
            for vcpu in vm.vcpus:
                if not -cap <= vcpu.credits <= cap:
                    self._fail('credit_conservation',
                               '%s credits %d outside [-%d, %d]'
                               % (vcpu.name, vcpu.credits, cap, cap), event)
                proto = getattr(vcpu, 'sa_protocol', None)
                if proto is not None:
                    self._check_sa_protocol(vcpu, proto, event)
            if vm.guest is not None:
                self._check_guest(vm.guest, event)

    def _check_hypervisor(self, machine, event):
        seen = set()
        for pcpu in machine.pcpus:
            current = pcpu.current
            if current is not None:
                if not (current.is_running or pcpu.preempt_deferred):
                    self._fail('one_vcpu_per_pcpu',
                               '%s dispatched on %s but runstate is %s'
                               % (current.name, pcpu.name,
                                  current.runstate), event)
                if current in pcpu.runq:
                    self._fail('one_vcpu_per_pcpu',
                               '%s both dispatched and queued on %s'
                               % (current.name, pcpu.name), event)
                if id(current) in seen:
                    self._fail('one_vcpu_per_pcpu',
                               '%s dispatched on two pCPUs'
                               % current.name, event)
                seen.add(id(current))
            for vcpu in pcpu.runq:
                if not vcpu.is_runnable:
                    self._fail('one_vcpu_per_pcpu',
                               '%s queued on %s but runstate is %s'
                               % (vcpu.name, pcpu.name, vcpu.runstate),
                               event)
                if id(vcpu) in seen:
                    self._fail('one_vcpu_per_pcpu',
                               '%s present in two places'
                               % vcpu.name, event)
                seen.add(id(vcpu))

    def _check_sa_protocol(self, vcpu, proto, event):
        """SA state-machine invariants (repro.core.protocol), checked
        between events so intra-event multi-edge sequences (upcall ->
        deschedule -> ack in one bottom half) are allowed to settle."""
        seen = self._sa_illegal_seen.get(id(proto), 0)
        if len(proto.illegal) > seen:
            self._sa_illegal_seen[id(proto)] = len(proto.illegal)
            bad = proto.illegal[-1]
            self._fail('sa_legal_transitions',
                       '%s attempted illegal SA edge %r in state %r '
                       '(round %d)' % (vcpu.name, bad.edge, bad.state,
                                       proto.round), event)
        state = proto.state
        gcpu = vcpu.gcpu
        in_handler = gcpu is not None and gcpu.in_sa_handler
        if in_handler != (state == 'switching'):
            self._fail('sa_flag_consistency',
                       '%s in_sa_handler=%s but SA state is %r (the '
                       'upcall-handler window must coincide with '
                       'SWITCHING)' % (vcpu.name, in_handler, state), event)
        # sa_pending is the *sender's* round flag; a lost ack can keep
        # it set after the guest/migrator closed the round, so only the
        # sharp directions are checkable: an offer in flight implies
        # the flag, a completed handshake implies its absence.
        if state == 'notified' and not vcpu.sa_pending:
            self._fail('sa_flag_consistency',
                       '%s SA state is NOTIFIED but sa_pending is clear '
                       '(offer in flight without the sender flag)'
                       % vcpu.name, event)
        if state == 'acked' and vcpu.sa_pending:
            self._fail('sa_flag_consistency',
                       '%s SA state is ACKED but sa_pending is still set '
                       '(handshake completed without clearing the offer)'
                       % vcpu.name, event)
        if state != 'idle' and not vcpu.vm.irs_capable:
            self._fail('sa_capability',
                       '%s has SA state %r but %s is not IRS-capable '
                       '(activation offered to a vanilla guest)'
                       % (vcpu.name, state, vcpu.vm.name), event)

    def _check_guest(self, kernel, event):
        current_tasks = set()
        queued_tasks = set()
        for gcpu in kernel.gcpus:
            task = gcpu.current
            if task is not None:
                if task.state != 'running':
                    self._fail('one_task_per_vcpu',
                               '%s current on %s but state is %s'
                               % (task.name, gcpu.name, task.state), event)
                if id(task) in current_tasks:
                    self._fail('one_task_per_vcpu',
                               '%s current on two guest CPUs (double '
                               'dispatch)' % task.name, event)
                current_tasks.add(id(task))
            for queued in gcpu.rq.tasks():
                if queued.state != 'ready':
                    self._fail('one_task_per_vcpu',
                               '%s queued on %s but state is %s'
                               % (queued.name, gcpu.name, queued.state),
                               event)
                if id(queued) in queued_tasks:
                    self._fail('no_lost_or_dup_tasks',
                               '%s queued on two runqueues (duplicated '
                               'across migration)' % queued.name, event)
                queued_tasks.add(id(queued))
                if id(queued) in current_tasks:
                    self._fail('no_task_queued_and_running',
                               '%s both queued and running'
                               % queued.name, event)
        for task in kernel.tasks:
            if task.state not in _TASK_STATES:
                self._fail('no_lost_or_dup_tasks',
                           '%s in unknown state %r'
                           % (task.name, task.state), event)
            elif task.state == 'running' and id(task) not in current_tasks:
                self._fail('no_lost_or_dup_tasks',
                           '%s claims to run but is current nowhere (lost '
                           'across migration)' % task.name, event)
            elif task.state == 'ready' and id(task) not in queued_tasks:
                self._fail('no_lost_or_dup_tasks',
                           '%s claims ready but is queued nowhere (lost '
                           'across migration)' % task.name, event)

    def _check_cluster(self, cluster, event):
        residency = {}               # vm -> [host names]
        for host in cluster.hosts:
            for vm in host.resident_vms:
                residency.setdefault(vm, []).append(host.name)
        for vm, hosts in residency.items():
            if len(hosts) > 1:
                self._fail('single_residency',
                           '%s resident on %d hosts (%s)'
                           % (vm.name, len(hosts), ', '.join(hosts)), event)
        in_flight = cluster.migration.in_flight
        reserved = {host: 0 for host in cluster.hosts}
        for vm, flight in in_flight.items():
            if vm in residency:
                self._fail('single_residency',
                           '%s both resident on %s and in-flight to %s'
                           % (vm.name, residency[vm][0],
                              flight.target.name), event)
            if flight.target in reserved:
                reserved[flight.target] += vm.n_vcpus
        for host in cluster.hosts:
            if host.reserved_vcpus != reserved[host]:
                self._fail('no_reservation_leak',
                           '%s reserves %d vcpus but in-flight migrations '
                           'account for %d (abort/rollback leaked a '
                           'reservation)'
                           % (host.name, host.reserved_vcpus,
                              reserved[host]), event)
        recovery = cluster.recovery
        parked = set(recovery.parked)
        for vm in cluster.kernels:
            places = ((vm in residency) + (vm in in_flight)
                      + (vm in recovery.pending) + (vm in parked))
            if places == 0:
                self._fail('orphan_ledger',
                           '%s is resident nowhere, not in flight, not '
                           'pending recovery, and not parked (lost by a '
                           'crash or abort)' % vm.name, event)
            elif places > 1:
                self._fail('orphan_ledger',
                           '%s tracked in %d places at once (resident=%s '
                           'in_flight=%s pending=%s parked=%s)'
                           % (vm.name, places, vm in residency,
                              vm in in_flight, vm in recovery.pending,
                              vm in parked), event)


def install_sanitizer(sim, interval=1, mode='raise', machines=()):
    """Create a :class:`Sanitizer`, hook it into ``sim``'s event loop,
    and publish it as ``sim.sanitizer`` so machines built afterwards
    attach themselves. Machines that already exist can be passed in
    ``machines``. An already-installed sanitizer is replaced (its
    watched machines and clusters carry over). Returns the sanitizer."""
    machines = list(machines)
    clusters = []
    previous = getattr(sim, 'sanitizer', None)
    if previous is not None:
        machines.extend(m for m in previous.machines if m not in machines)
        clusters.extend(previous.clusters)
        previous.uninstall()
    sanitizer = Sanitizer(sim, interval=interval, mode=mode)
    sim.sanitizer = sanitizer
    for machine in machines:
        sanitizer.attach_machine(machine)
    for cluster in clusters:
        sanitizer.attach_cluster(cluster)
    return sanitizer
