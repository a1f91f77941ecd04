"""Tests for the experiment harness: topology, strategies, runners,
reporting."""

import pytest

from repro.experiments import (
    InterferenceSpec,
    NO_INTERFERENCE,
    apply_strategy,
    build_scenario,
    format_table,
    run_parallel,
    run_server,
)
from repro.experiments.reporting import FigureResult
from repro.simkernel.units import MS, SEC


class TestInterferenceSpec:
    def test_defaults(self):
        spec = InterferenceSpec()
        assert spec.kind == 'hogs'
        assert spec.width == 1
        assert spec.n_vms == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            InterferenceSpec(width=-1)
        with pytest.raises(ValueError):
            InterferenceSpec(n_vms=0)


class TestBuildScenario:
    def test_no_interference_shape(self):
        scenario = build_scenario()
        assert scenario.fg_vm.n_vcpus == 4
        assert len(scenario.machine.pcpus) == 4
        assert scenario.bg_kernels == []

    def test_pinning_one_to_one(self):
        scenario = build_scenario()
        for i, vcpu in enumerate(scenario.fg_vm.vcpus):
            assert vcpu.pinned_pcpu is scenario.machine.pcpus[i]

    def test_hog_interference_width(self):
        scenario = build_scenario(
            interference=InterferenceSpec('hogs', width=2))
        assert len(scenario.bg_kernels) == 1
        bg_vm = scenario.bg_kernels[0].vm
        assert bg_vm.n_vcpus == 2
        assert bg_vm.vcpus[0].pinned_pcpu is scenario.machine.pcpus[0]

    def test_stacked_interfering_vms(self):
        scenario = build_scenario(
            interference=InterferenceSpec('hogs', width=1, n_vms=3))
        assert len(scenario.bg_kernels) == 3

    def test_app_interference_installs_workload(self):
        scenario = build_scenario(
            interference=InterferenceSpec('streamcluster', width=2))
        workload = scenario.bg_workloads[0]
        assert workload.repeat
        assert len(workload.tasks) == 2

    def test_unpinned_enables_balancer(self):
        scenario = build_scenario(pinned=False)
        assert scenario.machine.hv_balancer is not None
        assert scenario.fg_vm.vcpus[0].pinned_pcpu is None


class TestApplyStrategy:
    def test_vanilla_is_noop(self):
        scenario = build_scenario()
        apply_strategy(scenario.machine, 'vanilla')
        machine = scenario.machine
        assert machine.ple is None
        assert machine.relaxed_co is None
        assert machine.sa_sender is None

    def test_each_strategy_attaches_component(self):
        for strategy, attr in (('ple', 'ple'),
                               ('relaxed_co', 'relaxed_co')):
            scenario = build_scenario()
            apply_strategy(scenario.machine, strategy)
            assert getattr(scenario.machine, attr) is not None

    def test_irs_marks_guests_capable(self):
        scenario = build_scenario()
        apply_strategy(scenario.machine, 'irs',
                       irs_kernels=[scenario.fg_kernel])
        assert scenario.fg_vm.irs_capable
        assert scenario.fg_kernel.sa_receiver is not None
        assert scenario.fg_kernel.balancer.irs_wake_rule

    def test_unknown_strategy_raises(self):
        scenario = build_scenario()
        with pytest.raises(ValueError):
            apply_strategy(scenario.machine, 'quantum')


class TestRunners:
    def test_run_parallel_completes(self):
        result = run_parallel('streamcluster', 'vanilla', NO_INTERFERENCE,
                              scale=0.05)
        assert result.completed
        assert result.makespan_ns > 0
        assert result.utilization > 0

    def test_run_parallel_interference_slows(self):
        alone = run_parallel('streamcluster', 'vanilla', NO_INTERFERENCE,
                             scale=0.1)
        contended = run_parallel('streamcluster', 'vanilla',
                                 InterferenceSpec('hogs', 1), scale=0.1)
        assert contended.makespan_ns > alone.makespan_ns * 1.3

    def test_run_parallel_reports_bg_rates(self):
        result = run_parallel('blackscholes', 'vanilla',
                              InterferenceSpec('streamcluster', 2),
                              scale=0.1)
        assert len(result.bg_rates) == 1
        assert result.bg_rates[0] > 0

    def test_run_server_specjbb(self):
        result = run_server('specjbb', 'vanilla', n_hogs=1,
                            measure_ns=500 * MS)
        assert result.throughput > 50
        assert result.latency_summary['p99'] > 0

    def test_run_server_unknown_kind(self):
        with pytest.raises(ValueError):
            run_server('memcached')

    def test_deterministic_same_seed(self):
        a = run_parallel('x264', 'irs', InterferenceSpec('hogs', 1),
                         seed=7, scale=0.05)
        b = run_parallel('x264', 'irs', InterferenceSpec('hogs', 1),
                         seed=7, scale=0.05)
        assert a.makespan_ns == b.makespan_ns

    def test_different_seeds_differ(self):
        a = run_parallel('x264', 'vanilla', InterferenceSpec('hogs', 1),
                         seed=1, scale=0.05)
        b = run_parallel('x264', 'vanilla', InterferenceSpec('hogs', 1),
                         seed=2, scale=0.05)
        assert a.makespan_ns != b.makespan_ns


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(['name', 'value'],
                             [['a', 1.5], ['longer', 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_format_table_title(self):
        table = format_table(['h'], [['x']], title='My Figure')
        assert table.startswith('My Figure\n=========')

    def test_figure_result_table(self):
        result = FigureResult('Fig X', ['a'], [['1']], notes={'k': 1})
        assert 'Fig X' in result.table()
        assert result.notes['k'] == 1
