"""Scheduler invariants checked over randomized scenarios.

Hypothesis drives scenario parameters; after (and during) each run the
structural invariants of the two-level scheduler must hold:

* a pCPU runs at most one vCPU, and a running vCPU is on no runqueue;
* a vCPU belongs to exactly one pCPU runqueue when runnable;
* a task is current on at most one guest CPU and queued on at most one
  runqueue, never both;
* no task is lost: every spawned task is current, queued, sleeping,
  migrating, or exited;
* CPU time is conserved: per-pCPU busy time never exceeds wall time.
"""

from hypothesis import given, settings, strategies as st

from repro.core import install_irs
from repro.experiments import apply_strategy
from repro.faults import FaultInjector, FaultSpec
from repro.simkernel import install_sanitizer
from repro.guestos.task import (
    TASK_EXITED,
    TASK_MIGRATING,
    TASK_READY,
    TASK_RUNNING,
    TASK_SLEEPING,
)
from repro.simkernel import Simulator
from repro.simkernel.units import MS, SEC, US
from repro.workloads import (
    Acquire,
    Barrier,
    BarrierWait,
    Compute,
    Mutex,
    Release,
    Sleep,
    SpinLock,
)

from conftest import build_machine, build_vm


def check_hypervisor_invariants(machine):
    seen = set()
    for pcpu in machine.pcpus:
        if pcpu.current is not None:
            assert pcpu.current.is_running or pcpu.preempt_deferred
            assert pcpu.current not in pcpu.runq
            assert pcpu.current not in seen
            seen.add(pcpu.current)
        for vcpu in pcpu.runq:
            assert vcpu.is_runnable, '%r queued but %s' % (vcpu,
                                                           vcpu.runstate)
            assert vcpu not in seen
            seen.add(vcpu)


def check_guest_invariants(kernel):
    current_tasks = set()
    queued_tasks = set()
    for gcpu in kernel.gcpus:
        if gcpu.current is not None:
            assert gcpu.current.state == TASK_RUNNING
            assert gcpu.current not in current_tasks
            current_tasks.add(gcpu.current)
        for task in gcpu.rq.tasks():
            assert task.state == TASK_READY
            assert task not in queued_tasks
            queued_tasks.add(task)
    assert not (current_tasks & queued_tasks)
    for task in kernel.tasks:
        assert task.state in (TASK_RUNNING, TASK_READY, TASK_SLEEPING,
                              TASK_MIGRATING, TASK_EXITED)
        if task.state == TASK_RUNNING:
            assert task in current_tasks
        if task.state == TASK_READY:
            assert task in queued_tasks


def check_time_conservation(machine, elapsed_ns):
    now = machine.sim.now
    for pcpu in machine.pcpus:
        assert 0 <= pcpu.snapshot_busy(now) <= elapsed_ns + 1
    for vm in machine.vms:
        run, steal, blocked = vm.total_runstate(now)
        assert run >= 0 and steal >= 0 and blocked >= 0


def build_random_scenario(seed, n_pcpus, strategy, sync_kind, n_hogs):
    sim = Simulator(seed=seed)
    machine = build_machine(sim, n_pcpus)
    fg_vm, kernel = build_vm(sim, machine, 'fg', n_vcpus=n_pcpus,
                             pinning=list(range(n_pcpus)))
    bg_kernels = []
    if n_hogs:
        __, hk = build_vm(sim, machine, 'bg', n_vcpus=n_hogs,
                          pinning=list(range(n_hogs)))
        bg_kernels.append(hk)

    if strategy == 'irs':
        install_irs(machine, [kernel])
    elif strategy in ('ple', 'relaxed_co'):
        apply_strategy(machine, strategy)

    if sync_kind == 'mutex':
        lock = Mutex()
    elif sync_kind == 'spin':
        lock = SpinLock()
    barrier = Barrier(n_pcpus, mode='block')

    def worker(i):
        for __ in range(30):
            yield Compute(1 * MS + i * 100 * US)
            if sync_kind in ('mutex', 'spin'):
                yield Acquire(lock)
                yield Compute(50 * US)
                yield Release(lock)
            elif sync_kind == 'barrier':
                yield BarrierWait(barrier)
            else:
                yield Sleep(500 * US)

    for i in range(n_pcpus):
        kernel.spawn('w%d' % i, worker(i), gcpu_index=i)
    for hk in bg_kernels:
        def hog():
            while True:
                yield Compute(7 * MS)
        for i in range(n_hogs):
            hk.spawn('hog%d' % i, hog(), gcpu_index=i)
    machine.start()
    return sim, machine, kernel


SCENARIO = st.tuples(
    st.integers(min_value=0, max_value=10_000),          # seed
    st.integers(min_value=1, max_value=4),               # pcpus
    st.sampled_from(['vanilla', 'ple', 'relaxed_co', 'irs']),
    st.sampled_from(['mutex', 'spin', 'barrier', 'sleep']),
    st.integers(min_value=0, max_value=2),               # hogs
)


@settings(max_examples=25, deadline=None)
@given(SCENARIO)
def test_invariants_hold_over_random_scenarios(params):
    seed, n_pcpus, strategy, sync_kind, n_hogs = params
    n_hogs = min(n_hogs, n_pcpus)
    sim, machine, kernel = build_random_scenario(
        seed, n_pcpus, strategy, sync_kind, n_hogs)
    for step in range(20):
        sim.run_until(sim.now + 25 * MS, max_events=2_000_000)
        check_hypervisor_invariants(machine)
        check_guest_invariants(kernel)
        check_time_conservation(machine, sim.now)


FAULTED_SCENARIO = st.tuples(
    st.integers(min_value=0, max_value=10_000),          # seed
    st.integers(min_value=2, max_value=4),               # pcpus
    st.sampled_from(['vanilla', 'irs']),
    st.sampled_from(['mutex', 'barrier', 'sleep']),
    st.integers(min_value=10, max_value=50),             # fault % rate
)


@settings(max_examples=15, deadline=None)
@given(FAULTED_SCENARIO)
def test_faulted_virqs_preserve_invariants(params):
    """Injected vIRQ drops, reorders, and duplicates never corrupt the
    scheduler's structural invariants — under VANILLA (where the fault
    plane is a no-op control: no vIRQ traffic exists) and under IRS
    (where every SA upcall crosses it). Checked both by the runtime
    sanitizer at every event and by the end-state asserts."""
    seed, n_pcpus, strategy, sync_kind, pct = params
    sim, machine, kernel = build_random_scenario(
        seed, n_pcpus, strategy, sync_kind, n_hogs=1)
    rate = pct / 100.0
    FaultInjector(sim, [FaultSpec('virq_drop', rate),
                        FaultSpec('virq_reorder', rate),
                        FaultSpec('virq_dup', rate)]).attach(machine)
    sanitizer = install_sanitizer(sim, mode='collect', machines=[machine])
    for __ in range(10):
        sim.run_until(sim.now + 25 * MS, max_events=2_000_000)
        check_hypervisor_invariants(machine)
        check_guest_invariants(kernel)
        check_time_conservation(machine, sim.now)
    assert not sanitizer.violations, sanitizer.report()


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_determinism_bitwise(seed):
    """Two runs with the same seed produce identical traces."""
    def run():
        sim, machine, kernel = build_random_scenario(
            seed, 2, 'irs', 'barrier', 1)
        sim.run_until(1 * SEC)
        return (sim.events_processed,
                tuple(sorted(sim.trace.counters.items())),
                tuple(t.cpu_ns for t in kernel.tasks))
    assert run() == run()


def test_workload_drains_and_machine_quiesces():
    """After all finite tasks exit, only housekeeping events remain and
    VM run time stops growing."""
    sim, machine, kernel = build_random_scenario(7, 2, 'vanilla',
                                                 'barrier', 0)
    sim.run_until(30 * SEC)
    assert all(t.state == TASK_EXITED for t in kernel.tasks)
    run_before = machine.vms[0].total_runstate(sim.now)[0]
    sim.run_until(sim.now + 1 * SEC)
    run_after = machine.vms[0].total_runstate(sim.now)[0]
    assert run_after == run_before
