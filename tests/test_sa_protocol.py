"""Tests for the explicit SA protocol state machine
(:mod:`repro.core.protocol`) and its sanitizer invariants.

Three layers of coverage:

* the pure state machine: the legal-transition table is exercised
  exhaustively (every ``(state, edge)`` pair), including the guarantee
  that illegal edges are recorded without corrupting the state;
* live rounds: happy-path IRS runs traverse only normal edges, fault
  campaigns traverse the degraded ones, and a vCPU parking mid-round
  resolves through the early-ack edges — all with the runtime
  sanitizer raising on any inconsistency;
* the sanitizer itself: each of the three new SA invariants is shown
  to fire on a fabricated violation.
"""

from repro.core import IRSConfig, install_irs
from repro.core.protocol import (
    EDGE_ACK,
    EDGE_CANCEL,
    EDGE_DESCHEDULE,
    EDGE_EARLY_ACK,
    EDGE_LATE_ACK,
    EDGE_MIGRATED,
    EDGE_OFFER,
    EDGE_PARKED_HOME,
    EDGE_RETRY,
    EDGE_SPURIOUS_CLOSE,
    EDGE_SPURIOUS_UPCALL,
    EDGE_STALE_TASK,
    EDGE_STRANDED,
    EDGE_TIMEOUT,
    EDGE_UPCALL,
    LEGAL_TRANSITIONS,
    NORMAL_TRANSITIONS,
    SA_ACKED,
    SA_ACTIVE_STATES,
    SA_IDLE,
    SA_LIMBO,
    SA_NOTIFIED,
    SA_QUIESCENT_STATES,
    SA_STATES,
    SA_SWITCHING,
    SaVcpuProtocol,
)
from repro.faults import FaultPlan, FaultSpec
from repro.hypervisor.channels import VIRQ_SA_UPCALL
from repro.obs.phases import PHASE_DESCRIPTIONS, SA_STATE_PHASES
from repro.simkernel import Simulator, install_sanitizer
from repro.simkernel.units import MS, SEC
from repro.workloads import Compute

from conftest import build_machine, build_vm

ALL_EDGES = (EDGE_OFFER, EDGE_RETRY, EDGE_UPCALL, EDGE_SPURIOUS_UPCALL,
             EDGE_DESCHEDULE, EDGE_ACK, EDGE_EARLY_ACK, EDGE_LATE_ACK,
             EDGE_MIGRATED, EDGE_PARKED_HOME, EDGE_STRANDED,
             EDGE_STALE_TASK, EDGE_TIMEOUT, EDGE_CANCEL,
             EDGE_SPURIOUS_CLOSE)


class _FakeSim:
    now = 0


class _FakeVcpu:
    name = 'v-test'
    sim = _FakeSim()


def fresh_protocol(state=SA_IDLE):
    proto = SaVcpuProtocol(_FakeVcpu())
    proto.state = state
    return proto


def hog():
    while True:
        yield Compute(10 * MS)


def irs_scenario(seed=1, config=None, plan=None, sanitize=True):
    """Two-vCPU IRS guest sharing pCPU 0 with a hog VM — the standard
    LHP-provoking topology, with a raise-mode sanitizer watching the
    new SA invariants on every event."""
    sim = Simulator(seed=seed)
    sanitizer = install_sanitizer(sim) if sanitize else None
    machine = build_machine(sim, 2)
    fg_vm, kernel = build_vm(sim, machine, 'fg', n_vcpus=2, pinning=[0, 1])
    __, hk = build_vm(sim, machine, 'hog', pinning=[0])
    sender = install_irs(machine, [kernel],
                         config or IRSConfig(degradation_enabled=True))
    if plan is not None:
        plan.build(sim).attach(machine)
    kernel.spawn('w', hog(), gcpu_index=0)
    hk.spawn('hog', hog())
    machine.start()
    return sim, machine, kernel, sender, sanitizer


def run_until_sa_state(sim, vcpu, state, deadline_ns):
    """Advance the simulation one event at a time until ``vcpu``'s
    protocol sits in ``state`` between events (some windows last only
    a few microseconds). False if the deadline passes."""
    while sim.now < deadline_ns:
        if not sim.step():
            return False
        proto = vcpu.sa_protocol
        if proto is not None and proto.state == state:
            return True
    return False


# =====================================================================
# The pure state machine
# =====================================================================

class TestTransitionTable:
    def test_every_pair_exhaustively(self):
        """Legal pairs move the state exactly as the table says; every
        other pair is recorded as illegal and leaves the state alone."""
        for state in SA_STATES:
            for edge in ALL_EDGES:
                proto = fresh_protocol(state)
                ok = proto._transition(edge)
                expected = LEGAL_TRANSITIONS.get((state, edge))
                if expected is not None:
                    assert ok, (state, edge)
                    assert proto.state == expected, (state, edge)
                    assert not proto.illegal
                    assert proto.edges == {edge: 1}
                else:
                    assert not ok, (state, edge)
                    assert proto.state == state, (state, edge)
                    assert len(proto.illegal) == 1
                    bad = proto.illegal[0]
                    assert (bad.state, bad.edge) == (state, edge)
                    assert proto.edges == {}

    def test_table_is_closed_over_known_names(self):
        for (state, edge), new_state in LEGAL_TRANSITIONS.items():
            assert state in SA_STATES
            assert new_state in SA_STATES
            assert edge in ALL_EDGES

    def test_normal_transitions_are_legal(self):
        assert NORMAL_TRANSITIONS <= set(LEGAL_TRANSITIONS)

    def test_cancel_is_legal_from_everywhere(self):
        """Live-migration teardown must be able to void any round."""
        for state in SA_STATES:
            assert (state, EDGE_CANCEL) in LEGAL_TRANSITIONS

    def test_every_state_reaches_idle(self):
        """No trap states: from anywhere some edge sequence returns to
        a fresh-round IDLE (degradation can always drain)."""
        reachable = {SA_IDLE}
        changed = True
        while changed:
            changed = False
            for (state, edge), new_state in LEGAL_TRANSITIONS.items():
                if new_state in reachable and state not in reachable:
                    reachable.add(state)
                    changed = True
        assert reachable == set(SA_STATES)

    def test_degraded_counting(self):
        proto = fresh_protocol(SA_LIMBO)
        proto._transition(EDGE_UPCALL)        # lost-ack re-entry
        assert proto.degraded == {EDGE_UPCALL: 1}
        proto = fresh_protocol(SA_IDLE)
        proto._transition(EDGE_OFFER)         # happy path
        assert proto.degraded == {}
        assert proto.degraded_total() == 0


class TestIntentResolution:
    def test_offer_starts_a_round(self):
        proto = fresh_protocol()
        assert proto.offer()
        assert proto.state == SA_NOTIFIED
        assert proto.round == 1
        assert not proto.is_quiescent

    def test_upcall_from_quiescent_is_spurious(self):
        for state in SA_QUIESCENT_STATES:
            proto = fresh_protocol(state)
            assert proto.upcall()
            assert proto.state == SA_SWITCHING
            assert proto.degraded == {EDGE_SPURIOUS_UPCALL: 1}

    def test_spurious_round_closes_at_ack_send(self):
        proto = fresh_protocol()
        proto.upcall()
        proto.deschedule(None)
        assert proto.state == SA_LIMBO
        proto.ack_sent()
        assert proto.state == SA_IDLE
        assert proto.degraded.get(EDGE_SPURIOUS_CLOSE) == 1

    def test_real_round_ignores_ack_sent(self):
        proto = fresh_protocol()
        proto.offer()
        proto.upcall()
        proto.deschedule(None)
        proto.ack_sent()                     # sender will handshake
        assert proto.state == SA_LIMBO
        proto.ack()
        assert proto.state == SA_ACKED

    def test_ack_resolves_early_when_not_in_limbo(self):
        proto = fresh_protocol()
        proto.offer()
        assert proto.ack()                   # guest blocked pre-upcall
        assert proto.state == SA_ACKED
        assert proto.degraded == {EDGE_EARLY_ACK: 1}

    def test_ack_resolves_late_after_the_round_closed(self):
        for state in SA_QUIESCENT_STATES:
            proto = fresh_protocol(state)
            assert proto.ack()               # sender's round outlived us
            assert proto.state == state
            assert proto.degraded == {EDGE_LATE_ACK: 1}

    def test_task_disposal_identity(self):
        task_a, task_b = object(), object()
        proto = fresh_protocol()
        proto.offer()
        proto.upcall()
        proto.deschedule(task_a)
        proto.ack()
        # A stale disposal (superseded round's task) does not move us.
        proto.task_disposed(task_b, 'migrated')
        assert proto.state == SA_ACKED
        assert proto.stale_disposals == 1
        # The round's own task does.
        proto.task_disposed(task_a, 'migrated')
        assert proto.state == 'migrated'

    def test_cancel_from_idle_is_a_noop(self):
        proto = fresh_protocol()
        assert proto.cancel()
        assert proto.state == SA_IDLE
        assert not proto.illegal
        assert proto.edges == {}


class TestPhaseMapping:
    def test_obs_mirror_matches_protocol_states(self):
        """obs sits below core, so it mirrors the state names as
        strings; this is the test the mirror comment promises."""
        assert set(SA_STATE_PHASES) == set(SA_STATES) - {SA_IDLE}
        for phase in SA_STATE_PHASES.values():
            assert phase in PHASE_DESCRIPTIONS

    def test_sanitizer_mirror_matches_protocol_states(self):
        from repro.simkernel.sanitizer import _SA_ACTIVE_STATES
        assert tuple(_SA_ACTIVE_STATES) == tuple(SA_ACTIVE_STATES)


# =====================================================================
# Live rounds
# =====================================================================

class TestLiveRounds:
    def test_happy_path_traverses_only_normal_edges(self):
        sim, machine, kernel, sender, sanitizer = irs_scenario(seed=2)
        sim.run_until(2 * SEC)
        proto = machine.vms[0].vcpus[0].sa_protocol
        assert proto is not None
        assert proto.round > 0
        for edge in (EDGE_OFFER, EDGE_UPCALL, EDGE_DESCHEDULE, EDGE_ACK):
            assert proto.edges.get(edge, 0) > 0, edge
        assert not proto.illegal
        assert proto.degraded_total() == 0
        sanitizer.assert_clean()

    def test_lost_acks_traverse_degraded_edges(self):
        plan = FaultPlan('acks', [FaultSpec('sa_ack_timeout', 1.0, vm='fg')])
        sim, machine, kernel, sender, sanitizer = irs_scenario(
            seed=3, plan=plan)
        sim.run_until(2 * SEC)
        proto = machine.vms[0].vcpus[0].sa_protocol
        assert proto is not None
        assert not proto.illegal
        # Every ack is swallowed: rounds linger in LIMBO until a retry
        # re-enters the handler or the grace window expires.
        assert proto.degraded_total() > 0
        assert (proto.degraded.get(EDGE_RETRY, 0) > 0
                or proto.degraded.get(EDGE_TIMEOUT, 0) > 0)
        sanitizer.assert_clean()

    def test_lost_upcalls_time_out(self):
        plan = FaultPlan('drops', [FaultSpec('virq_drop', 1.0,
                                             virq=VIRQ_SA_UPCALL, vm='fg')])
        sim, machine, kernel, sender, sanitizer = irs_scenario(
            seed=4, plan=plan)
        sim.run_until(2 * SEC)
        proto = machine.vms[0].vcpus[0].sa_protocol
        assert proto is not None
        assert not proto.illegal
        assert proto.degraded.get(EDGE_TIMEOUT, 0) > 0
        assert proto.edges.get(EDGE_UPCALL, 0) == 0
        sanitizer.assert_clean()


class TestParkMidRound:
    def test_park_while_notified(self):
        """The gCPU parks while the upcall is still travelling (its only
        task blocks): the parked vCPU answers with a sched_op the sender
        treats as an early ack — never an illegal edge."""
        plan = FaultPlan('drops', [FaultSpec('virq_drop', 1.0,
                                             virq=VIRQ_SA_UPCALL, vm='fg')])
        sim, machine, kernel, sender, sanitizer = irs_scenario(
            seed=5, plan=plan)
        vcpu = machine.vms[0].vcpus[0]
        assert run_until_sa_state(sim, vcpu, SA_NOTIFIED, 2 * SEC)
        gcpu = kernel.gcpus[0]
        assert gcpu.current is not None and gcpu.rq.nr_ready == 0
        kernel._block_current(gcpu)
        sim.run_until(sim.now + 100 * MS)
        proto = vcpu.sa_protocol
        assert not proto.illegal
        assert proto.state in SA_QUIESCENT_STATES
        sanitizer.assert_clean()

    def test_park_while_limbo(self):
        """The gCPU parks mid-round with the ack lost: the round must
        drain through retry/timeout without tripping any SA invariant."""
        plan = FaultPlan('acks', [FaultSpec('sa_ack_timeout', 1.0,
                                            vm='fg')])
        sim, machine, kernel, sender, sanitizer = irs_scenario(
            seed=6, plan=plan)
        vcpu = machine.vms[0].vcpus[0]
        assert run_until_sa_state(sim, vcpu, SA_LIMBO, 2 * SEC)
        gcpu = kernel.gcpus[0]
        assert gcpu.current is None and vcpu.is_running
        kernel._go_idle(gcpu)
        sim.run_until(sim.now + 100 * MS)
        proto = vcpu.sa_protocol
        assert not proto.illegal
        assert proto.state in SA_QUIESCENT_STATES
        sanitizer.assert_clean()


# =====================================================================
# The sanitizer invariants themselves
# =====================================================================

class TestSanitizerInvariants:
    def _scenario(self):
        sim, machine, kernel, sender, __ = irs_scenario(seed=7,
                                                        sanitize=False)
        sanitizer = install_sanitizer(sim, mode='collect',
                                      machines=[machine])
        sim.run_until(500 * MS)
        vcpu = machine.vms[0].vcpus[0]
        assert vcpu.sa_protocol is not None
        sanitizer.violations.clear()
        return sim, machine, vcpu, sanitizer

    def _invariants(self, sanitizer):
        sanitizer.check_now()
        return {v.invariant for v in sanitizer.violations}

    def test_clean_run_is_clean(self):
        sim, machine, vcpu, sanitizer = self._scenario()
        assert self._invariants(sanitizer) == set()

    def test_illegal_edge_is_reported_once(self):
        sim, machine, vcpu, sanitizer = self._scenario()
        vcpu.sa_protocol._transition(EDGE_DESCHEDULE)   # illegal: no round
        assert 'sa_legal_transitions' in self._invariants(sanitizer)
        # Attributed to the first check after the edge, not re-reported.
        sanitizer.violations.clear()
        assert 'sa_legal_transitions' not in self._invariants(sanitizer)

    def test_offer_without_pending_flag_is_reported(self):
        sim, machine, vcpu, sanitizer = self._scenario()
        vcpu.sa_protocol.state = SA_NOTIFIED
        vcpu.sa_pending = False
        assert 'sa_flag_consistency' in self._invariants(sanitizer)

    def test_handshake_without_clearing_flag_is_reported(self):
        sim, machine, vcpu, sanitizer = self._scenario()
        vcpu.sa_protocol.state = SA_ACKED
        vcpu.sa_pending = True
        assert 'sa_flag_consistency' in self._invariants(sanitizer)

    def test_handler_flag_outside_switching_is_reported(self):
        sim, machine, vcpu, sanitizer = self._scenario()
        vcpu.sa_protocol.state = SA_IDLE
        vcpu.sa_pending = False
        vcpu.gcpu.in_sa_handler = True
        assert 'sa_flag_consistency' in self._invariants(sanitizer)
        vcpu.gcpu.in_sa_handler = False

    def test_round_on_vanilla_guest_is_reported(self):
        sim, machine, vcpu, sanitizer = self._scenario()
        vcpu.sa_protocol.state = SA_NOTIFIED
        vcpu.sa_pending = True
        vcpu.vm.irs_capable = False
        assert 'sa_capability' in self._invariants(sanitizer)
