"""Tests for the balance-scheduling baseline (paper ref [30])."""

from repro.experiments import InterferenceSpec, apply_strategy, run_parallel
from repro.hypervisor import Machine, VM
from repro.metrics import TimelineRecorder
from repro.simkernel import Simulator
from repro.simkernel.units import MS, SEC
from repro.workloads import ParallelWorkload, cpu_hog, get_profile

from conftest import build_vm


class TestPlacementConstraint:
    def test_siblings_never_stack(self):
        """With balance scheduling the co-location fraction of sibling
        vCPUs drops to (near) zero even unpinned."""
        sim = Simulator(seed=1)
        machine = Machine(sim, 4)
        apply_strategy(machine, 'balance_sched')
        vm, kernel = build_vm(sim, machine, 'fg', n_vcpus=4)
        __, hk = build_vm(sim, machine, 'bg', n_vcpus=4)
        for i in range(4):
            hk.spawn('hog%d' % i, cpu_hog(10 * MS), gcpu_index=i)
        machine.start()
        workload = ParallelWorkload(sim, kernel,
                                    get_profile('streamcluster'),
                                    scale=0.2).install()
        recorder = TimelineRecorder(sim, machine, period_ns=5 * MS).start()
        while not workload.is_done and sim.now < 30 * SEC:
            sim.run_until(sim.now + 100 * MS)
        assert workload.is_done
        assert recorder.colocation_fraction(vm) < 0.05

    def test_veto_counter_tracks_interventions(self):
        result = run_parallel('streamcluster', 'balance_sched',
                              InterferenceSpec('hogs', 4), scale=0.2,
                              pinned=False)
        assert result.completed


class TestPaperCritique:
    def test_balance_sched_fixes_stacking(self):
        """Unpinned: spreading siblings recovers the pinned baseline."""
        vanilla = run_parallel('streamcluster', 'vanilla',
                               InterferenceSpec('hogs', 4), scale=0.2,
                               pinned=False)
        balanced = run_parallel('streamcluster', 'balance_sched',
                                InterferenceSpec('hogs', 4), scale=0.2,
                                pinned=False)
        assert balanced.makespan_ns <= vanilla.makespan_ns

    def test_balance_sched_does_not_fix_lhp(self):
        """Section 2.1's critique: with siblings already spread (the
        pinned-equivalent placement), LHP persists — balance scheduling
        gains nothing like IRS's improvement."""
        vanilla = run_parallel('streamcluster', 'vanilla',
                               InterferenceSpec('hogs', 1), scale=0.3,
                               pinned=False)
        balanced = run_parallel('streamcluster', 'balance_sched',
                                InterferenceSpec('hogs', 1), scale=0.3,
                                pinned=False)
        irs = run_parallel('streamcluster', 'irs',
                           InterferenceSpec('hogs', 1), scale=0.3)
        bs_gain = vanilla.makespan_ns / balanced.makespan_ns - 1
        irs_gain = vanilla.makespan_ns / irs.makespan_ns - 1
        assert irs_gain > bs_gain + 0.15
