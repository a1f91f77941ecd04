"""Tests for the cluster layer: hosts, placement policies, admission,
live migration, rebalance hysteresis, and the ClusterSpec pipeline
integration. The conftest sanitizer fixture validates scheduler
invariants after every test."""

import json

import pytest

from repro.cluster import (
    Cluster,
    Host,
    HostSpec,
    MigrationCostModel,
    RebalanceDaemon,
    VmRequest,
    make_policy,
    run_consolidation,
)
from repro.experiments import (ALL_STRATEGIES, ClusterSpec, SpecError,
                               apply_strategy, cluster_spec)
from repro.guestos import GuestKernel
from repro.hypervisor import RUNSTATE_OFFLINE, VM, Machine
from repro.simkernel import Simulator
from repro.simkernel.units import MS, SEC


def _specs(n=3, strategy='vanilla', n_pcpus=4, capacity=None):
    return [HostSpec('h%d' % i, n_pcpus=n_pcpus, strategy=strategy,
                     capacity_vcpus=capacity) for i in range(n)]


def _cluster(sim, n=3, policy='first_fit', capacity=None, rebalance=None,
             strategy='vanilla'):
    cluster = Cluster(sim, _specs(n, strategy=strategy, capacity=capacity),
                      policy=policy, rebalance=rebalance)
    cluster.start()
    return cluster


class TestHostSpec:
    def test_defaults(self):
        spec = HostSpec('h0')
        assert spec.capacity_vcpus == 8      # 2x overcommit on 4 pCPUs

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            HostSpec('h0', strategy='magic')


STRATEGY_SLOTS = ('sa_sender', 'ple', 'relaxed_co', 'hv_balancer',
                  'delay_preempt', 'fault_injector')


def test_host_wiring_matches_apply_strategy():
    """A host of each strategy carries the same components as a lone
    machine given that strategy name; the extension baselines are not
    host strategies."""
    for strategy in ALL_STRATEGIES:
        host = Host(Simulator(seed=0), HostSpec('h0', strategy=strategy), 0)
        sim = Simulator(seed=0)
        machine = Machine(sim, n_pcpus=4)
        vm = VM('vm', 2, sim)
        machine.add_vm(vm, pinning=[0, 1])
        apply_strategy(machine, strategy,
                       irs_kernels=[GuestKernel(sim, vm, machine)])
        for slot in STRATEGY_SLOTS:
            assert (type(getattr(host.machine, slot))
                    is type(getattr(machine, slot))), (strategy, slot)
    for strategy in ('delay_preempt', 'balance_sched'):
        with pytest.raises(ValueError):
            HostSpec('h0', strategy=strategy)


class TestPlacementPolicies:
    def test_first_fit_packs_low_indexes(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, policy='first_fit')
        hosts = [cluster.submit(VmRequest('vm%d' % i, n_vcpus=2,
                                          workload='hogs'))
                 for i in range(4)]
        assert [h.name for h in hosts] == ['h0', 'h0', 'h0', 'h0']

    def test_least_loaded_spreads(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, policy='least_loaded')
        hosts = [cluster.submit(VmRequest('vm%d' % i, n_vcpus=2,
                                          workload='hogs'))
                 for i in range(3)]
        assert sorted(h.name for h in hosts) == ['h0', 'h1', 'h2']

    def test_interference_aware_avoids_hot_host(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, policy='interference_aware')
        # Saturate h0 with hogs (8 vCPUs on 4 pCPUs -> heavy steal),
        # then let the monitors observe a few windows.
        for i in range(4):
            req = VmRequest('hog%d' % i, n_vcpus=2, workload='hogs')
            host = cluster.hosts[0]
            # Force-place on h0 regardless of policy.
            from repro.guestos import GuestKernel
            from repro.hypervisor import VM
            vm = VM(req.name, n_vcpus=2, sim=sim)
            vm.working_set_mb = 64
            host.place_vm(vm)
            kernel = GuestKernel(sim, vm, host.machine)
            from repro.workloads import HogWorkload
            HogWorkload(sim, kernel, count=2, name='%s.h' % req.name
                        ).install()
            cluster.migration.note_placed(vm)
        sim.run_until(300 * MS)
        assert cluster.hosts[0].interference_score() > \
            cluster.hosts[1].interference_score()
        placed = cluster.submit(VmRequest('srv', n_vcpus=2))
        assert placed.name != 'h0'

    def test_make_policy_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_policy('random')

    def test_policy_instance_passthrough(self):
        policy = make_policy('first_fit')
        assert make_policy(policy) is policy


class TestAdmission:
    def test_rejects_when_cluster_full(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=2, capacity=4)
        for i in range(4):
            assert cluster.submit(VmRequest('vm%d' % i, n_vcpus=2,
                                            workload='hogs')) is not None
        rejected = cluster.submit(VmRequest('late', n_vcpus=2,
                                            workload='hogs'))
        assert rejected is None
        assert cluster.admission.rejected == 1
        assert cluster.admission.rejections == ['late']
        assert cluster.admission.admitted == 4

    def test_rejection_ledger_is_ring_bounded(self):
        from repro.cluster.admission import AdmissionController
        sim = Simulator(seed=0)
        admission = AdmissionController(max_rejections=3)
        for i in range(5):
            admission.reject(VmRequest('vm%d' % i, workload='hogs'), sim)
        assert admission.rejected == 5
        assert admission.rejections_dropped == 2
        # Ring keeps the newest entries, in arrival order.
        assert admission.rejections == ['vm2', 'vm3', 'vm4']

    def test_rejection_ring_validates_capacity(self):
        from repro.cluster.admission import AdmissionController
        with pytest.raises(ValueError):
            AdmissionController(max_rejections=0)

    def test_capacity_counts_migration_reservations(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=2, capacity=4)
        vm_host = cluster.submit(VmRequest('vm0', n_vcpus=2,
                                           workload='hogs'))
        sim.run_until(50 * MS)
        vm = vm_host.resident_vms[0]
        target = cluster.hosts[1]
        record = cluster.migration.migrate(vm, vm_host, target)
        assert record is not None
        # Mid-flight, the target holds a reservation.
        assert target.reserved_vcpus == 2
        assert target.used_vcpus == 2
        assert not target.has_capacity(4)


class TestMigration:
    def test_cost_model_formula(self):
        model = MigrationCostModel(base_downtime_ns=2 * MS,
                                   link_mb_per_s=10_000,
                                   dirty_mb_per_cpu_s=64,
                                   dirty_window_ns=1 * SEC)
        # No dirtying: base + 100 MB / 10 GB/s = 2 ms + 10 ms.
        assert model.transfer_ns(100, 0, 2) == 2 * MS + 10 * MS
        # Half a second of run time dirties 32 MB.
        assert model.dirtied_mb(SEC // 2, 2) == 32
        # The dirty window caps the charge at n_vcpus * window.
        assert model.dirtied_mb(100 * SEC, 2) == 128

    def test_vm_never_on_two_hosts(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=2)
        source = cluster.submit(VmRequest('vm0', n_vcpus=2,
                                          workload='hogs'))
        sim.run_until(100 * MS)
        vm = source.resident_vms[0]
        target = cluster.hosts[1]
        record = cluster.migration.migrate(vm, source, target)
        assert record is not None
        # In flight: resident nowhere, every vCPU offline and detached.
        assert cluster.host_of(vm) is None
        for vcpu in vm.vcpus:
            assert vcpu.runstate == RUNSTATE_OFFLINE
            assert vcpu.pcpu is None
        sim.run_until(record.started_ns + record.transfer_ns + 1)
        assert cluster.host_of(vm) is target
        assert record.completed_ns == record.started_ns + record.transfer_ns
        # The hogs resume running on the new host.
        resumed_at = sim.now
        run_before = sum(v.snapshot_accounting(sim.now)[0]
                         for v in vm.vcpus)
        sim.run_until(resumed_at + 100 * MS)
        run_after = sum(v.snapshot_accounting(sim.now)[0]
                        for v in vm.vcpus)
        assert run_after > run_before

    def test_migrate_refuses_in_flight_and_full_target(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=3, capacity=2)
        source = cluster.submit(VmRequest('vm0', n_vcpus=2,
                                          workload='hogs'))
        blocker = cluster.submit(VmRequest('vm1', n_vcpus=2,
                                           workload='hogs'))
        sim.run_until(50 * MS)
        vm = source.resident_vms[0]
        assert cluster.migration.migrate(vm, source, source) is None
        assert cluster.migration.migrate(vm, source, blocker) is None
        target = cluster.hosts[2]
        assert cluster.migration.migrate(vm, source, target) is not None
        # Second migrate while in flight is refused.
        assert cluster.migration.migrate(vm, source, target) is None

    def test_migration_cost_accounts_dirty_run(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=2)
        source = cluster.submit(VmRequest('vm0', n_vcpus=2,
                                          workload='hogs',
                                          working_set_mb=100))
        sim.run_until(500 * MS)
        vm = source.resident_vms[0]
        record = cluster.migration.migrate(vm, source, cluster.hosts[1])
        # 2 hog vCPUs ran ~0.5 s each -> ~1 CPU-s -> ~64 MB dirty on
        # top of the 100 MB working set; transfer must exceed the
        # clean-VM cost and match the model exactly.
        model = cluster.migration.cost_model
        assert record.transfer_ns > model.transfer_ns(100, 0, 2)
        dirty_run = sum(v.snapshot_accounting(record.started_ns)[0]
                        for v in vm.vcpus)
        assert record.transfer_ns == model.transfer_ns(100, dirty_run, 2)

    def test_migration_deterministic(self):
        def run_once():
            result = run_consolidation(strategy='vanilla',
                                       placement='first_fit', seed=0,
                                       measure_ns=500 * MS)
            return json.dumps(result, sort_keys=True)
        assert run_once() == run_once()


class TestRebalanceDaemon:
    def _hot_cluster(self, daemon):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=3, rebalance=daemon)
        # 3 hog VMs packed on h0: 6 vCPUs on 4 pCPUs -> steal ~0.5.
        for i in range(3):
            cluster.submit(VmRequest('hog%d' % i, n_vcpus=2,
                                     workload='hogs'))
        return sim, cluster

    def test_trips_and_evicts_hot_host(self):
        daemon = RebalanceDaemon(high_threshold=0.3, low_threshold=0.1)
        sim, cluster = self._hot_cluster(daemon)
        sim.run_until(1 * SEC)
        assert sim.trace.counters['cluster.rebalance_trips'] >= 1
        assert len(cluster.migration.records) >= 1
        # Load ends up spread: no host holds all three VMs.
        assert max(len(h.resident_vms) for h in cluster.hosts) < 3

    def test_rearms_below_low_threshold(self):
        daemon = RebalanceDaemon(high_threshold=0.3, low_threshold=0.1)
        sim, cluster = self._hot_cluster(daemon)
        sim.run_until(2 * SEC)
        # Once spread (1 VM per host), no host steals: the trip set
        # drains and the migrations stop.
        assert not daemon.tripped
        assert sim.trace.counters['cluster.rebalance_rearms'] >= 1
        moved = len(cluster.migration.records)
        sim.run_until(3 * SEC)
        assert len(cluster.migration.records) == moved

    def test_quiet_cluster_never_trips(self):
        sim = Simulator(seed=0)
        daemon = RebalanceDaemon()
        cluster = _cluster(sim, n=3, policy='least_loaded',
                           rebalance=daemon)
        for i in range(3):
            cluster.submit(VmRequest('hog%d' % i, n_vcpus=2,
                                     workload='hogs'))
        sim.run_until(1 * SEC)
        assert sim.trace.counters['cluster.rebalance_trips'] == 0
        assert not cluster.migration.records

    def test_cooldown_limits_churn(self):
        daemon = RebalanceDaemon(high_threshold=0.05, low_threshold=0.01,
                                 min_gain=0.0, vm_cooldown_ns=10 * SEC)
        sim, cluster = self._hot_cluster(daemon)
        sim.run_until(2 * SEC)
        # Every VM can move at most once inside the cooldown horizon.
        assert len(cluster.migration.records) <= 3


class TestConsolidationScenario:
    def test_interference_aware_beats_first_fit(self):
        outcomes = {}
        for strategy in ('vanilla', 'irs'):
            for placement in ('first_fit', 'interference_aware'):
                result = run_consolidation(strategy=strategy,
                                           placement=placement, seed=0)
                outcomes[(strategy, placement)] = result
        for strategy in ('vanilla', 'irs'):
            aware = outcomes[(strategy, 'interference_aware')]
            packed = outcomes[(strategy, 'first_fit')]
            assert aware['latency']['p99'] < packed['latency']['p99']
            assert aware['migrations'] <= packed['migrations']

    def test_irs_guests_see_activations_under_contention(self):
        result = run_consolidation(strategy='irs', placement='first_fit',
                                   seed=0, measure_ns=500 * MS)
        assert result['throughput'] > 0
        assert result['latency']['count'] > 0


class TestClusterSpec:
    def test_factory_and_token(self):
        spec = cluster_spec(strategy='irs', placement='interference_aware',
                            seed=2)
        assert isinstance(spec, ClusterSpec)
        assert spec.kind == 'cluster'
        base = cluster_spec().cache_token()
        assert spec.cache_token() != base
        assert cluster_spec().cache_token() == base
        for changed in (cluster_spec(n_hosts=5),
                        cluster_spec(rebalance=False),
                        cluster_spec(placement='least_loaded')):
            assert changed.cache_token() != base

    def test_validation(self):
        with pytest.raises(SpecError):
            cluster_spec(placement='random')
        with pytest.raises(SpecError):
            cluster_spec(n_hosts=0)
        with pytest.raises(SpecError):
            # kind='cluster' on the base class (no cluster fields).
            from repro.experiments import RunSpec
            RunSpec(app='x', kind='cluster')

    def test_picklable(self):
        import pickle
        spec = cluster_spec(strategy='irs')
        assert pickle.loads(pickle.dumps(spec)) == spec
