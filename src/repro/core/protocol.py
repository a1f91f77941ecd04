"""The SA protocol as an explicit per-vCPU state machine.

The paper describes the scheduler-activation round informally
(Algorithm 1/2); this module makes it first-class. Every IRS-capable
vCPU carries a :class:`SaVcpuProtocol` whose state names exactly where
the current activation round stands::

    IDLE ──offer──> NOTIFIED ──upcall──> SWITCHING ──deschedule──> LIMBO
                                                                     │
              ┌──────────────────────────────ack─────────────────────┘
              v
            ACKED ──migrated──> MIGRATED        (next offer restarts)
              └─────parked_home────> IDLE

plus the *fault-degraded* edges the resilience plane exercises: lost
upcalls time out (``NOTIFIED -> IDLE``), lost acks leave the round in
``LIMBO`` until a retry re-enters the handler (``LIMBO -> SWITCHING``)
or the grace window expires, spurious (delayed/duplicated) upcalls open
a round from a quiescent state, and live-migration teardown cancels
from anywhere.

The four IRS components (:class:`~repro.core.sender.SaSender`,
:class:`~repro.core.receiver.SaReceiver`,
:class:`~repro.core.context_switcher.ContextSwitcher`,
:class:`~repro.core.migrator.Migrator`) key their lifecycle off these
transitions instead of ad-hoc flags; the per-vCPU ``sa_pending`` and
per-gCPU ``in_sa_handler`` booleans remain as cheap operational
mirrors whose consistency with the machine is asserted by the runtime
sanitizer (:mod:`repro.simkernel.sanitizer`).

Illegal transitions are never raised on the hot path: they are recorded
(with the offending edge) and surfaced by the sanitizer's
``sa_legal_transitions`` invariant, so a protocol bug points at the
exact event that broke the machine, not at a corrupted end state.
"""

# ---------------------------------------------------------------------
# States
# ---------------------------------------------------------------------

#: No activation round in flight (also the post-cancel/timeout state).
SA_IDLE = 'idle'
#: Offer sent; VIRQ_SA_UPCALL is travelling to the guest.
SA_NOTIFIED = 'notified'
#: Guest upcall handler (vIRQ entry + softirq bottom half) running.
SA_SWITCHING = 'switching'
#: Context switch done; the acknowledgement is in flight (and any
#: descheduled task sits in migrator limbo).
SA_LIMBO = 'limbo'
#: Hypervisor received the ack; the parked preemption completed.
SA_ACKED = 'acked'
#: The migrator placed the round's limbo task on a sibling vCPU.
SA_MIGRATED = 'migrated'

SA_STATES = (SA_IDLE, SA_NOTIFIED, SA_SWITCHING, SA_LIMBO, SA_ACKED,
             SA_MIGRATED)

#: States with no activation work outstanding: a new offer may start.
SA_QUIESCENT_STATES = (SA_IDLE, SA_ACKED, SA_MIGRATED)
#: States with an activation round actively in flight.
SA_ACTIVE_STATES = (SA_NOTIFIED, SA_SWITCHING, SA_LIMBO)

# ---------------------------------------------------------------------
# Edges
# ---------------------------------------------------------------------

EDGE_OFFER = 'offer'
EDGE_RETRY = 'retry'
EDGE_UPCALL = 'upcall'
EDGE_SPURIOUS_UPCALL = 'spurious_upcall'
EDGE_DESCHEDULE = 'deschedule'
EDGE_ACK = 'ack'
EDGE_EARLY_ACK = 'early_ack'
EDGE_LATE_ACK = 'late_ack'
EDGE_MIGRATED = 'migrated'
EDGE_PARKED_HOME = 'parked_home'
EDGE_STRANDED = 'stranded'
EDGE_STALE_TASK = 'stale_task'
EDGE_TIMEOUT = 'timeout'
EDGE_CANCEL = 'cancel'
EDGE_SPURIOUS_CLOSE = 'spurious_close'

#: Every intent edge, in protocol order. The static protocol-
#: exhaustiveness lint (``tools/replint``) checks that each
#: ``(state, edge)`` pair of ``SA_STATES x SA_EDGES`` appears in
#: exactly one of :data:`LEGAL_TRANSITIONS` /
#: :data:`ILLEGAL_TRANSITIONS` — adding an edge constant without
#: classifying all six states against it fails the build.
SA_EDGES = (
    EDGE_OFFER, EDGE_RETRY, EDGE_UPCALL, EDGE_SPURIOUS_UPCALL,
    EDGE_DESCHEDULE, EDGE_ACK, EDGE_EARLY_ACK, EDGE_LATE_ACK,
    EDGE_MIGRATED, EDGE_PARKED_HOME, EDGE_STRANDED, EDGE_STALE_TASK,
    EDGE_TIMEOUT, EDGE_CANCEL, EDGE_SPURIOUS_CLOSE,
)

#: ``(state, edge) -> new_state`` — the complete legal-transition table.
#: Everything absent from this table is an illegal transition, and is
#: *also* enumerated in :data:`ILLEGAL_TRANSITIONS` so that every pair
#: is a considered decision rather than an omission.
LEGAL_TRANSITIONS = {
    # The happy path of one activation round.
    (SA_IDLE, EDGE_OFFER): SA_NOTIFIED,
    (SA_ACKED, EDGE_OFFER): SA_NOTIFIED,
    (SA_MIGRATED, EDGE_OFFER): SA_NOTIFIED,
    (SA_NOTIFIED, EDGE_UPCALL): SA_SWITCHING,
    (SA_SWITCHING, EDGE_DESCHEDULE): SA_LIMBO,
    (SA_LIMBO, EDGE_ACK): SA_ACKED,
    (SA_ACKED, EDGE_MIGRATED): SA_MIGRATED,
    (SA_ACKED, EDGE_PARKED_HOME): SA_IDLE,
    (SA_ACKED, EDGE_STALE_TASK): SA_IDLE,

    # Degradation: upcall/ack retries with exponential backoff.
    (SA_NOTIFIED, EDGE_RETRY): SA_NOTIFIED,
    (SA_SWITCHING, EDGE_RETRY): SA_SWITCHING,
    (SA_LIMBO, EDGE_RETRY): SA_LIMBO,
    # Degradation: a retry after a lost ack re-enters the handler.
    (SA_LIMBO, EDGE_UPCALL): SA_SWITCHING,
    # Degradation: the guest blocked/yielded before the upcall landed
    # (e.g. its last task slept and the vCPU parked mid-round) — the
    # hypervisor treats the sched_op as the acknowledgement.
    (SA_NOTIFIED, EDGE_EARLY_ACK): SA_ACKED,
    (SA_SWITCHING, EDGE_EARLY_ACK): SA_ACKED,
    # Degradation: spurious (delayed / duplicated) upcall opens a round
    # from a quiescent state; it closes without a sender handshake.
    (SA_IDLE, EDGE_SPURIOUS_UPCALL): SA_SWITCHING,
    (SA_ACKED, EDGE_SPURIOUS_UPCALL): SA_SWITCHING,
    (SA_MIGRATED, EDGE_SPURIOUS_UPCALL): SA_SWITCHING,
    (SA_LIMBO, EDGE_SPURIOUS_CLOSE): SA_IDLE,
    # Degradation: the migrator disposed of the limbo task before the
    # (lost) ack was recovered, or after the round was force-closed.
    (SA_LIMBO, EDGE_MIGRATED): SA_MIGRATED,
    (SA_LIMBO, EDGE_PARKED_HOME): SA_IDLE,
    (SA_LIMBO, EDGE_STALE_TASK): SA_IDLE,
    # Degradation: a mid-move failure with no recovery path strands
    # the task in limbo; the round is over either way.
    (SA_ACKED, EDGE_STRANDED): SA_IDLE,
    (SA_LIMBO, EDGE_STRANDED): SA_IDLE,
    # Degradation: grace window exhausted (upcall or ack lost).
    (SA_NOTIFIED, EDGE_TIMEOUT): SA_IDLE,
    (SA_SWITCHING, EDGE_TIMEOUT): SA_IDLE,
    (SA_LIMBO, EDGE_TIMEOUT): SA_IDLE,
    (SA_MIGRATED, EDGE_TIMEOUT): SA_IDLE,
    # Degradation: a lost ack leaves the *sender's* round open after
    # the guest/migrator already closed it (the limbo task was disposed
    # of before the grace window expired). The sender's retries,
    # timeout, and any finally-landing acknowledgement then probe a
    # quiescent machine; they must not be illegal.
    (SA_IDLE, EDGE_RETRY): SA_IDLE,
    (SA_MIGRATED, EDGE_RETRY): SA_MIGRATED,
    (SA_IDLE, EDGE_TIMEOUT): SA_IDLE,
    (SA_IDLE, EDGE_LATE_ACK): SA_IDLE,
    (SA_ACKED, EDGE_LATE_ACK): SA_ACKED,
    (SA_MIGRATED, EDGE_LATE_ACK): SA_MIGRATED,
    # Teardown (live-migration pause / detach): void from anywhere.
    (SA_IDLE, EDGE_CANCEL): SA_IDLE,
    (SA_NOTIFIED, EDGE_CANCEL): SA_IDLE,
    (SA_SWITCHING, EDGE_CANCEL): SA_IDLE,
    (SA_LIMBO, EDGE_CANCEL): SA_IDLE,
    (SA_ACKED, EDGE_CANCEL): SA_IDLE,
    (SA_MIGRATED, EDGE_CANCEL): SA_IDLE,
}

#: The declared-illegal complement: every ``(state, edge)`` pair a
#: correct implementation must never attempt. The runtime records (not
#: raises) these via :class:`IllegalTransition`; declaring them keeps
#: the table *total* — the static lint rejects a build where a pair is
#: in neither table, so new edges cannot become "illegal by omission".
ILLEGAL_TRANSITIONS = frozenset((
    # A fresh offer requires a quiescent machine; the sender never
    # overlaps rounds on one vCPU.
    (SA_NOTIFIED, EDGE_OFFER),
    (SA_SWITCHING, EDGE_OFFER),
    (SA_LIMBO, EDGE_OFFER),
    # Retries stop once the hypervisor has the ack in hand.
    (SA_ACKED, EDGE_RETRY),
    # A (non-spurious) upcall needs an offer in flight; re-entry is
    # only legal from LIMBO (lost-ack recovery).
    (SA_IDLE, EDGE_UPCALL),
    (SA_SWITCHING, EDGE_UPCALL),
    (SA_ACKED, EDGE_UPCALL),
    (SA_MIGRATED, EDGE_UPCALL),
    # Spurious upcalls open rounds only from quiescent states; an
    # active round's upcall is the normal edge, never spurious.
    (SA_NOTIFIED, EDGE_SPURIOUS_UPCALL),
    (SA_SWITCHING, EDGE_SPURIOUS_UPCALL),
    (SA_LIMBO, EDGE_SPURIOUS_UPCALL),
    # The context switch happens exactly once, inside the handler.
    (SA_IDLE, EDGE_DESCHEDULE),
    (SA_NOTIFIED, EDGE_DESCHEDULE),
    (SA_LIMBO, EDGE_DESCHEDULE),
    (SA_ACKED, EDGE_DESCHEDULE),
    (SA_MIGRATED, EDGE_DESCHEDULE),
    # The intent methods resolve acks: sender.ack() picks the normal /
    # early / late edge itself, so the raw edges are unreachable
    # elsewhere (LIMBO is the only normal-ack state, NOTIFIED /
    # SWITCHING the only early-ack ones, quiescent the only late ones).
    (SA_IDLE, EDGE_ACK),
    (SA_NOTIFIED, EDGE_ACK),
    (SA_SWITCHING, EDGE_ACK),
    (SA_ACKED, EDGE_ACK),
    (SA_MIGRATED, EDGE_ACK),
    (SA_IDLE, EDGE_EARLY_ACK),
    (SA_LIMBO, EDGE_EARLY_ACK),
    (SA_ACKED, EDGE_EARLY_ACK),
    (SA_MIGRATED, EDGE_EARLY_ACK),
    (SA_NOTIFIED, EDGE_LATE_ACK),
    (SA_SWITCHING, EDGE_LATE_ACK),
    (SA_LIMBO, EDGE_LATE_ACK),
    # Task disposal needs a limbo task (LIMBO) or a closed handshake
    # (ACKED); a round that never descheduled has nothing to dispose.
    (SA_IDLE, EDGE_MIGRATED),
    (SA_NOTIFIED, EDGE_MIGRATED),
    (SA_SWITCHING, EDGE_MIGRATED),
    (SA_MIGRATED, EDGE_MIGRATED),
    (SA_IDLE, EDGE_PARKED_HOME),
    (SA_NOTIFIED, EDGE_PARKED_HOME),
    (SA_SWITCHING, EDGE_PARKED_HOME),
    (SA_MIGRATED, EDGE_PARKED_HOME),
    (SA_IDLE, EDGE_STRANDED),
    (SA_NOTIFIED, EDGE_STRANDED),
    (SA_SWITCHING, EDGE_STRANDED),
    (SA_MIGRATED, EDGE_STRANDED),
    (SA_IDLE, EDGE_STALE_TASK),
    (SA_NOTIFIED, EDGE_STALE_TASK),
    (SA_SWITCHING, EDGE_STALE_TASK),
    (SA_MIGRATED, EDGE_STALE_TASK),
    # The grace window is disarmed the moment the ack lands.
    (SA_ACKED, EDGE_TIMEOUT),
    # Spurious-close is the receiver finishing a spurious round it
    # opened itself; only LIMBO can hold such a round.
    (SA_IDLE, EDGE_SPURIOUS_CLOSE),
    (SA_NOTIFIED, EDGE_SPURIOUS_CLOSE),
    (SA_SWITCHING, EDGE_SPURIOUS_CLOSE),
    (SA_ACKED, EDGE_SPURIOUS_CLOSE),
    (SA_MIGRATED, EDGE_SPURIOUS_CLOSE),
))

#: The transitions of an undisturbed round. Every legal transition
#: outside this set is *degraded*: reachable only under faults, a
#: vCPU parking mid-round, or teardown.
NORMAL_TRANSITIONS = frozenset((
    (SA_IDLE, EDGE_OFFER),
    (SA_ACKED, EDGE_OFFER),
    (SA_MIGRATED, EDGE_OFFER),
    (SA_NOTIFIED, EDGE_UPCALL),
    (SA_SWITCHING, EDGE_DESCHEDULE),
    (SA_LIMBO, EDGE_ACK),
    (SA_ACKED, EDGE_MIGRATED),
    (SA_ACKED, EDGE_PARKED_HOME),
    (SA_IDLE, EDGE_CANCEL),
    (SA_ACKED, EDGE_CANCEL),
    (SA_MIGRATED, EDGE_CANCEL),
))


class IllegalTransition:
    """One recorded attempt to cross an edge the table forbids."""

    __slots__ = ('time', 'vcpu_name', 'state', 'edge')

    def __init__(self, time, vcpu_name, state, edge):
        self.time = time
        self.vcpu_name = vcpu_name
        self.state = state
        self.edge = edge

    def __repr__(self):
        return '<IllegalTransition t=%d %s: %s --%s-> ?>' % (
            self.time, self.vcpu_name, self.state, self.edge)


class SaVcpuProtocol:
    """The SA state machine of one vCPU.

    Components call the intent methods (:meth:`offer`, :meth:`upcall`,
    :meth:`deschedule`, :meth:`ack`, ...); each resolves to an edge of
    :data:`LEGAL_TRANSITIONS` based on the current state, so callers
    never hand-pick degraded edges. Edge traversals are counted in
    :attr:`edges` (and :attr:`degraded` for degraded ones); illegal
    attempts land in :attr:`illegal` without changing the state.
    """

    __slots__ = ('vcpu', 'sim', 'state', 'round', 'edges', 'degraded',
                 'illegal', 'stale_disposals', '_limbo_task', '_spurious')

    def __init__(self, vcpu, sim=None):
        self.vcpu = vcpu
        self.sim = sim if sim is not None else vcpu.sim
        self.state = SA_IDLE
        self.round = 0                # completed+current offer rounds
        self.edges = {}               # edge name -> traversal count
        self.degraded = {}            # degraded edge name -> count
        self.illegal = []             # IllegalTransition records
        self.stale_disposals = 0      # disposals for superseded rounds
        self._limbo_task = None       # task parked by the current round
        self._spurious = False        # round opened without an offer

    # ------------------------------------------------------------------
    # Core transition plumbing
    # ------------------------------------------------------------------

    def _transition(self, edge):
        key = (self.state, edge)
        new_state = LEGAL_TRANSITIONS.get(key)
        if new_state is None:
            self.illegal.append(IllegalTransition(
                self.sim.now, self.vcpu.name, self.state, edge))
            return False
        self.state = new_state
        self.edges[edge] = self.edges.get(edge, 0) + 1
        if key not in NORMAL_TRANSITIONS:
            self.degraded[edge] = self.degraded.get(edge, 0) + 1
        return True

    @property
    def is_quiescent(self):
        return self.state in SA_QUIESCENT_STATES

    # ------------------------------------------------------------------
    # Intents (called by the IRS components)
    # ------------------------------------------------------------------

    def offer(self):
        """Sender: a fresh activation offer starts a new round."""
        self.round += 1
        self._limbo_task = None
        self._spurious = False
        return self._transition(EDGE_OFFER)

    def retry(self):
        """Sender: the upcall (or its ack) is being re-sent."""
        return self._transition(EDGE_RETRY)

    def upcall(self):
        """Receiver: the guest handler is entering. Resolves to the
        normal edge, the lost-ack re-entry, or — from a quiescent
        state — a spurious round that will close without a sender
        handshake."""
        if self.state in SA_QUIESCENT_STATES:
            self._limbo_task = None
            self._spurious = True
            return self._transition(EDGE_SPURIOUS_UPCALL)
        return self._transition(EDGE_UPCALL)

    def deschedule(self, task):
        """Context switcher: the switch is done; ``task`` (or nothing)
        went into migrator limbo."""
        self._limbo_task = task
        return self._transition(EDGE_DESCHEDULE)

    def ack(self):
        """Sender: the guest's acknowledgement landed. Resolves to the
        normal LIMBO handshake, an *early* ack (the guest blocked or
        yielded before finishing the upcall — e.g. its last task slept
        and the vCPU parked mid-round), or a *late* ack (the round was
        already closed guest-side while the sender still waited)."""
        if self.state == SA_LIMBO:
            return self._transition(EDGE_ACK)
        if self.state in (SA_NOTIFIED, SA_SWITCHING):
            return self._transition(EDGE_EARLY_ACK)
        return self._transition(EDGE_LATE_ACK)

    def ack_sent(self):
        """Receiver: the guest issued its SCHEDOP answer. Rounds the
        sender will never handshake (spurious upcalls with no task to
        migrate) close here; everything else is driven by the sender
        or the migrator."""
        if (self._spurious and self.state == SA_LIMBO
                and self._limbo_task is None):
            return self._transition(EDGE_SPURIOUS_CLOSE)
        return True

    def timeout(self):
        """Sender: the grace window expired; the round is void."""
        self._limbo_task = None
        return self._transition(EDGE_TIMEOUT)

    def cancel(self):
        """Teardown (live-migration pause / VM detach)."""
        self._limbo_task = None
        self._spurious = False
        if self.state == SA_IDLE:
            return True                     # nothing in flight: no-op
        return self._transition(EDGE_CANCEL)

    def task_disposed(self, task, outcome):
        """Migrator: the limbo task of *some* round reached a terminal
        outcome ('migrated', 'parked_home', 'stranded' or 'stale').
        Only the current round's task moves the machine; disposals for
        superseded rounds are counted, not transitioned."""
        if task is None or task is not self._limbo_task:
            self.stale_disposals += 1
            return True
        self._limbo_task = None
        edge = {'migrated': EDGE_MIGRATED,
                'parked_home': EDGE_PARKED_HOME,
                'stranded': EDGE_STRANDED,
                'stale': EDGE_STALE_TASK}[outcome]
        return self._transition(edge)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def degraded_total(self):
        """Degraded-edge traversals so far (0 on an undisturbed run)."""
        return sum(self.degraded.values())

    def __repr__(self):
        return '<SaVcpuProtocol %s %s round=%d%s>' % (
            self.vcpu.name, self.state, self.round,
            ' degraded' if self.degraded else '')


def ensure_protocol(vcpu):
    """Return ``vcpu``'s protocol tracker, creating it on first use.
    The tracker lives on the vCPU (``vcpu.sa_protocol``) so the
    sanitizer and the fault plane can read it without importing this
    layer."""
    proto = vcpu.sa_protocol
    if proto is None:
        proto = SaVcpuProtocol(vcpu)
        vcpu.sa_protocol = proto
    return proto
