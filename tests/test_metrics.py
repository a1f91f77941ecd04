"""Tests for the metrics layer."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics import (
    LatencyRecorder,
    RunMetrics,
    improvement_percent,
    utilization_vs_fair_share,
    weighted_speedup,
)
from repro.simkernel.units import MS, SEC
from repro.workloads import Compute

from conftest import build_machine, build_vm


class TestLatencyRecorder:
    def test_empty_recorder(self):
        rec = LatencyRecorder()
        assert rec.count == 0
        assert rec.mean() == 0.0
        assert rec.p99() == 0.0
        assert rec.max() == 0.0

    def test_single_sample(self):
        rec = LatencyRecorder()
        rec.record(500)
        assert rec.mean() == 500
        assert rec.percentile(0) == 500
        assert rec.percentile(100) == 500

    def test_percentile_interpolation(self):
        rec = LatencyRecorder()
        for v in (0, 100):
            rec.record(v)
        assert rec.percentile(50) == 50

    def test_sorted_view_invalidated_by_record(self):
        rec = LatencyRecorder()
        rec.record(100)
        assert rec.p99() == 100
        rec.record(50)                    # after a cached query
        assert rec.percentile(0) == 50
        assert rec.max() == 100

    def test_sorted_view_invalidated_by_extend_and_reset(self):
        rec = LatencyRecorder()
        rec.extend([30, 10, 20])
        assert rec.p50() == 20
        rec.extend([5])
        assert rec.percentile(0) == 5
        rec.reset()
        assert rec.count == 0
        assert rec.p99() == 0.0

    def test_cached_percentiles_match_fresh_recorder(self):
        cached = LatencyRecorder()
        for v in (9, 3, 7, 1, 5):
            cached.record(v)
            cached.p50()                  # query between every mutation
        fresh = LatencyRecorder()
        fresh.extend([9, 3, 7, 1, 5])
        for p in (0, 25, 50, 75, 99, 100):
            assert cached.percentile(p) == fresh.percentile(p)
        assert cached.summary() == fresh.summary()

    def test_p50_of_uniform(self):
        rec = LatencyRecorder()
        for v in range(101):
            rec.record(v)
        assert rec.p50() == 50
        assert rec.p99() == 99

    def test_negative_rejected(self):
        rec = LatencyRecorder()
        with pytest.raises(ValueError):
            rec.record(-1)

    def test_bad_percentile_rejected(self):
        rec = LatencyRecorder()
        rec.record(1)
        with pytest.raises(ValueError):
            rec.percentile(101)

    def test_summary_keys(self):
        rec = LatencyRecorder()
        rec.record(10)
        summary = rec.summary()
        assert set(summary) == {'count', 'mean', 'p50', 'p99', 'max'}

    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1))
    def test_percentiles_bounded_by_extremes(self, values):
        rec = LatencyRecorder()
        for v in values:
            rec.record(v)
        for p in (0, 25, 50, 75, 99, 100):
            assert min(values) <= rec.percentile(p) <= max(values)

    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=2))
    def test_percentiles_monotone(self, values):
        rec = LatencyRecorder()
        for v in values:
            rec.record(v)
        ps = [rec.percentile(p) for p in (10, 30, 50, 70, 90)]
        assert ps == sorted(ps)


class TestFairnessMetrics:
    def test_improvement_positive_when_faster(self):
        assert improvement_percent(200, 100) == 100.0

    def test_improvement_negative_when_slower(self):
        assert improvement_percent(100, 200) == -50.0

    def test_improvement_zero_at_parity(self):
        assert improvement_percent(100, 100) == 0.0

    def test_weighted_speedup(self):
        assert weighted_speedup(1.4, 1.0) == pytest.approx(120.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            improvement_percent(100, 0)


class TestUtilizationAndRunMetrics:
    def _contended(self, sim):
        machine = build_machine(sim, 1)
        vm_a, k_a = build_vm(sim, machine, 'a', pinning=[0])
        vm_b, k_b = build_vm(sim, machine, 'b', pinning=[0])

        def hog():
            while True:
                yield Compute(10 * MS)
        k_a.spawn('ha', hog())
        k_b.spawn('hb', hog())
        machine.start()
        sim.run_until(1 * SEC)
        return machine, vm_a, [k_a, k_b]

    def test_fair_share_utilization_near_one(self, sim):
        machine, vm_a, kernels = self._contended(sim)
        util = utilization_vs_fair_share(vm_a, machine, 1 * SEC)
        assert 0.9 < util < 1.1

    def test_run_metrics_snapshot(self, sim):
        machine, vm_a, kernels = self._contended(sim)
        metrics = RunMetrics(machine, kernels, 1 * SEC)
        assert set(metrics.vms) == {'a', 'b'}
        share = {name: vm.run_ns / (1 * SEC)
                 for name, vm in metrics.vms.items()}
        assert sum(share.values()) > 0.99
        assert 0.4 < share['a'] < 0.6
        assert metrics.tasks['ha'].cpu_ns > 400 * MS

    def test_task_turnaround(self, sim):
        machine = build_machine(sim, 1)
        vm, kernel = build_vm(sim, machine, 'vm', pinning=[0])
        kernel.spawn('t', iter([Compute(5 * MS)]))
        machine.start()
        sim.run_until(1 * SEC)
        metrics = RunMetrics(machine, [kernel], 1 * SEC)
        task = metrics.tasks['t']
        assert task.finished_at - task.started_at == 5 * MS

    def test_elapsed_must_be_positive(self, sim):
        machine = build_machine(sim, 1)
        vm, kernel = build_vm(sim, machine, 'vm', pinning=[0])
        with pytest.raises(ValueError):
            utilization_vs_fair_share(vm, machine, 0)
