"""Run-level measurement collection.

A :class:`RunMetrics` snapshot gathers, at the end of a simulated run,
the quantities every experiment reports: per-VM runstate breakdowns,
per-task CPU and migration counts, and the run's counters.

When a run was subjected to a fault campaign (:mod:`repro.faults`),
the snapshot also separates out the fault/degradation counters —
injections per kind, SA retries/suppressions, migrator recoveries,
sanitizer checks — under :attr:`RunMetrics.fault_counters` and
:attr:`RunMetrics.degradation_counters`.

The snapshot is a frozen copy of the run's
:class:`~repro.obs.histograms.MetricsRegistry`
(:attr:`RunMetrics.registry`), the one store every ``trace.count``,
scoped host metric and span-phase histogram writes to; all counter
views are prefix filters over it.
"""

#: Trace-counter prefixes that belong to the fault plane (injections).
FAULT_COUNTER_PREFIXES = ('faults.',)

#: Trace-counter prefixes that belong to the defense layers: the SA
#: sender's retry/watchdog path, the migrator's requeue path, the
#: cluster fault-tolerance plane (crash recovery, parked VMs, migration
#: rollbacks, quarantines), and the runtime sanitizer.
DEGRADATION_COUNTER_PREFIXES = (
    'irs.sa_retries', 'irs.sa_suppressed', 'irs.sa_dup_acks',
    'irs.sa_health_', 'irs.migrator_abort', 'irs.migrator_retr',
    'irs.migrator_fail', 'irs.migrator_recover', 'irs.migrator_probe',
    'irs.migrator_stranded', 'cluster.', 'sanitizer.',
)


class VmMetrics:
    """Aggregate accounting for one VM."""

    def __init__(self, vm, now):
        run, steal, blocked = vm.total_runstate(now)
        self.name = vm.name
        self.n_vcpus = vm.n_vcpus
        self.run_ns = run
        self.steal_ns = steal
        self.blocked_ns = blocked


class TaskMetrics:
    """Aggregate accounting for one task."""

    def __init__(self, task):
        self.name = task.name
        self.cpu_ns = task.cpu_ns
        self.migrations = task.migrations
        self.wakeups = task.wakeups
        self.started_at = task.started_at
        self.finished_at = task.finished_at


class RunMetrics:
    """End-of-run snapshot across the whole machine."""

    def __init__(self, machine, kernels, elapsed_ns):
        now = machine.sim.now
        self.elapsed_ns = elapsed_ns
        self.vms = {vm.name: VmMetrics(vm, now) for vm in machine.vms}
        self.tasks = {}
        for kernel in kernels:
            for task in kernel.tasks:
                self.tasks[task.name] = TaskMetrics(task)
        self.registry = machine.sim.trace.metrics.snapshot()
        self.counters = self.registry.counter_values()
        self.fault_counters = self.registry.counter_values(
            prefixes=FAULT_COUNTER_PREFIXES)
        self.degradation_counters = self.registry.counter_values(
            prefixes=DEGRADATION_COUNTER_PREFIXES)
        self.phase_latencies = self.registry.histogram_summaries()
