"""Tests for cluster fault tolerance: host-crash recovery and parking,
migration rollback and the per-VM circuit breaker, quarantine draining,
the deterministic chaos campaigns, and the parallel runner's wall-clock
watchdog. The acceptance invariants live here: seeded chaos runs are
bit-identical, aborts leak no reservations, and every orphaned VM is
either re-placed or explicitly parked — never lost."""

import json
import os
import time

import pytest

from repro.cluster import (
    HOST_FAILED,
    HOST_UP,
    Cluster,
    HostSpec,
    RebalanceDaemon,
    VmRequest,
    run_consolidation,
)
from repro.experiments import cluster_spec, run_specs
from repro.experiments.executor import ParallelRunner, RunError
from repro.faults import (
    CAMPAIGNS,
    FaultPlan,
    FaultSpec,
    get_campaign,
    parse_fault_plan,
)
from repro.simkernel import Simulator, install_sanitizer
from repro.simkernel.units import MS, SEC

CLUSTER_CAMPAIGNS = ('host-flap-15', 'host-degrade-20',
                     'migration-storm-40', 'capacity-crunch-8',
                     'cluster-chaos')


def _specs(n=3, n_pcpus=4, capacity=None):
    return [HostSpec('h%d' % i, n_pcpus=n_pcpus, capacity_vcpus=capacity)
            for i in range(n)]


def _cluster(sim, n=3, capacity=None, rebalance=None, fault_plan=None,
             policy='first_fit'):
    cluster = Cluster(sim, _specs(n, capacity=capacity), policy=policy,
                      rebalance=rebalance, fault_plan=fault_plan)
    cluster.start()
    return cluster


def _hog(name, n_vcpus=2):
    return VmRequest(name, n_vcpus=n_vcpus, workload='hogs')


class TestFaultSpecs:
    def test_host_kinds_registered(self):
        spec = FaultSpec('host_crash', 0.1, host='h0', down_ns=100 * MS)
        assert spec.matches_host('h0')
        assert not spec.matches_host('h1')
        assert FaultSpec('host_degrade', 0.1).matches_host('anything')

    def test_down_ns_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultSpec('host_crash', 0.1, down_ns=0)

    def test_cluster_campaigns_resolve(self):
        for name in CLUSTER_CAMPAIGNS:
            plan = get_campaign(name)
            assert plan.specs
            assert name in CAMPAIGNS

    def test_campaign_accepts_underscores_and_parametrics(self):
        assert get_campaign('cluster_chaos').name == 'cluster-chaos'
        assert get_campaign('host_flap_30').specs[0].probability == 0.30
        merged = parse_fault_plan('host-flap-10,migration-storm-20')
        assert len(merged.specs) == 2

    def test_unknown_campaign_raises(self):
        with pytest.raises(ValueError):
            get_campaign('host-meltdown-50')


class TestHostCrashRecovery:
    def test_orphans_replaced_on_surviving_hosts(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=2)
        h0 = cluster.submit(_hog('vm0'))
        assert h0 is cluster.hosts[0]
        sim.run_until(50 * MS)
        vm = h0.resident_vms[0]
        cluster.crash_host(h0, down_ns=300 * MS)
        assert h0.state == HOST_FAILED
        assert not h0.resident_vms
        # Re-placed synchronously: capacity existed on h1.
        assert cluster.host_of(vm) is cluster.hosts[1]
        assert cluster.recovery.replaced == 1
        assert sim.trace.counters['cluster.recoveries'] == 1
        # The hogs keep running on the new host.
        before = sum(v.snapshot_accounting(sim.now)[0] for v in vm.vcpus)
        sim.run_until(sim.now + 100 * MS)
        after = sum(v.snapshot_accounting(sim.now)[0] for v in vm.vcpus)
        assert after > before

    def test_crashed_host_reboots_empty_and_accepting(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=2)
        h0 = cluster.submit(_hog('vm0'))
        sim.run_until(50 * MS)
        cluster.crash_host(h0, down_ns=200 * MS)
        assert not h0.accepting
        sim.run_until(50 * MS + 200 * MS + 1)
        assert h0.state == HOST_UP
        assert h0.accepting
        assert not h0.resident_vms
        assert h0.crashes == 1

    def test_no_capacity_parks_then_unparks_on_recovery(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=1)
        host = cluster.submit(_hog('vm0'))
        sim.run_until(50 * MS)
        vm = host.resident_vms[0]
        cluster.crash_host(host, down_ns=400 * MS)
        # max_attempts=4 with 25ms doubling backoff exhausts by 175ms.
        sim.run_until(50 * MS + 200 * MS)
        assert vm in cluster.recovery.parked
        assert cluster.recovery.parks == 1
        assert sim.trace.counters['cluster.parked'] == 1
        assert sim.trace.counters['cluster.recovery_retries'] == 3
        # The host returns; the parking lot drains back onto it.
        sim.run_until(50 * MS + 400 * MS + 1)
        assert not cluster.recovery.parked
        assert cluster.host_of(vm) is host
        assert sim.trace.counters['cluster.unparked'] == 1

    def test_crash_is_idempotent(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=2)
        h0 = cluster.submit(_hog('vm0'))
        sim.run_until(50 * MS)
        cluster.crash_host(h0)
        cluster.crash_host(h0)
        assert h0.crashes == 1
        assert sim.trace.counters['cluster.host_crashes'] == 1


class TestMigrationRollback:
    def _in_flight(self, sim, cluster):
        source = cluster.submit(_hog('vm0'))
        sim.run_until(50 * MS)
        vm = source.resident_vms[0]
        target = cluster.hosts[1]
        record = cluster.migration.migrate(vm, source, target)
        assert record is not None
        return vm, source, target, record

    def test_abort_rolls_back_to_source(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=2)
        vm, source, target, record = self._in_flight(sim, cluster)
        assert target.reserved_vcpus == 2
        assert cluster.migration.abort(vm, reason='fault', retry=False)
        assert cluster.host_of(vm) is source
        assert target.reserved_vcpus == 0
        assert record.aborted_ns == sim.now
        assert record.abort_reason == 'fault'
        assert record.completed_ns is None
        # The cancelled resume must never fire.
        sim.run_until(record.started_ns + record.transfer_ns + 1)
        assert cluster.host_of(vm) is source
        assert vm not in cluster.migration.in_flight

    def test_injected_abort_strikes_mid_transfer(self):
        sim = Simulator(seed=0)
        plan = FaultPlan('storm', [FaultSpec('migration_abort', 1.0)])
        cluster = _cluster(sim, n=2, fault_plan=plan)
        vm, source, target, record = self._in_flight(sim, cluster)
        sim.run_until(record.started_ns + record.transfer_ns + 1)
        assert record.aborted_ns is not None
        assert record.started_ns < record.aborted_ns \
            < record.started_ns + record.transfer_ns
        assert cluster.host_of(vm) is source
        assert target.reserved_vcpus == 0
        assert sim.trace.counters['cluster.migration_rollbacks'] >= 1

    def test_breaker_trips_after_repeated_aborts(self):
        sim = Simulator(seed=0)
        plan = FaultPlan('storm', [FaultSpec('migration_abort', 1.0)])
        cluster = _cluster(sim, n=2, fault_plan=plan)
        vm, source, target, __ = self._in_flight(sim, cluster)
        # Every attempt (initial + backed-off retries) aborts; after
        # breaker_threshold consecutive failures the VM is barred.
        sim.run_until(2 * SEC)
        engine = cluster.migration
        assert sim.trace.counters['cluster.migration_breaker_trips'] >= 1
        assert engine._failures[vm] >= engine.breaker_threshold
        assert cluster.host_of(vm) is source
        # While the bar window is open, migrate() refuses the VM.
        engine._breaker_until[vm] = sim.now + 1 * SEC
        assert engine.breaker_open(vm)
        assert engine.migrate(vm, source, target) is None
        assert sim.trace.counters['cluster.migration_breaker_refusals'] >= 1
        # Once it lapses, the next migrate() is the half-open probe.
        engine._breaker_until[vm] = sim.now
        assert not engine.breaker_open(vm)
        assert vm not in engine._breaker_until

    def test_completed_migration_closes_breaker(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=2)
        vm, source, target, record = self._in_flight(sim, cluster)
        cluster.migration._failures[vm] = 2
        sim.run_until(record.started_ns + record.transfer_ns + 1)
        assert record.completed_ns is not None
        assert vm not in cluster.migration._failures

    def test_target_crash_rolls_back_without_retry(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=2)
        vm, source, target, record = self._in_flight(sim, cluster)
        cluster.crash_host(target, down_ns=1 * SEC)
        assert cluster.host_of(vm) is source
        assert target.reserved_vcpus == 0
        assert record.abort_reason == 'target_crash'
        # No retry is scheduled at the dead target.
        n_records = len(cluster.migration.records)
        sim.run_until(sim.now + 500 * MS)
        assert len(cluster.migration.records) == n_records

    def test_source_crash_after_handoff_adopts_on_target(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=2)
        vm, source, target, record = self._in_flight(sim, cluster)
        # The hand-off already happened: the source dying must not kill
        # the outbound flight.
        cluster.crash_host(source, down_ns=1 * SEC)
        assert vm in cluster.migration.in_flight
        sim.run_until(record.started_ns + record.transfer_ns + 1)
        assert record.completed_ns is not None
        assert cluster.host_of(vm) is target

    def test_source_crash_then_abort_orphans_into_recovery(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=3)
        vm, source, target, record = self._in_flight(sim, cluster)
        cluster.crash_host(source, down_ns=1 * SEC)
        # Now the transfer itself dies: nowhere to roll back to, so the
        # recovery controller re-places the VM.
        assert cluster.migration.abort(vm, reason='fault')
        assert sim.trace.counters['cluster.migration_orphans'] == 1
        assert target.reserved_vcpus == 0
        assert cluster.host_of(vm) is not None
        assert cluster.host_of(vm) is not source

    def test_double_submit_rejected_without_corruption(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=2)
        first = cluster.submit(_hog('vm0'))
        assert first is not None
        again = cluster.submit(_hog('vm0'))
        assert again is None
        assert sim.trace.counters['cluster.duplicate_submits'] == 1
        assert cluster.admission.rejected == 1
        # The original VM is untouched: still resident, one kernel,
        # exactly one residency.
        assert len(cluster.kernels) == 1
        assert len(first.resident_vms) == 1
        assert sum(len(h.resident_vms) for h in cluster.hosts) == 1
        # Still rejected while the first VM is mid-migration or parked.
        vm = first.resident_vms[0]
        sim.run_until(50 * MS)
        cluster.migration.migrate(vm, first, cluster.hosts[1])
        assert cluster.submit(_hog('vm0')) is None


class TestQuarantine:
    def test_watchdog_quarantines_and_rearms(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=2)
        h0 = cluster.hosts[0]
        cluster.degrade_host(h0, down_ns=300 * MS)
        sim.run_until(100 * MS)
        assert h0.quarantined
        assert not h0.accepting
        assert sim.trace.counters['cluster.quarantines'] == 1
        # New placements route around the quarantined host.
        placed = cluster.submit(_hog('vm0'))
        assert placed is cluster.hosts[1]
        sim.run_until(500 * MS)
        assert h0.state == HOST_UP
        assert not h0.quarantined
        assert h0.accepting
        assert sim.trace.counters['cluster.quarantine_rearms'] == 1

    def test_daemon_drains_quarantined_host(self):
        sim = Simulator(seed=0)
        daemon = RebalanceDaemon()
        cluster = _cluster(sim, n=2, rebalance=daemon)
        h0 = cluster.submit(_hog('vm0'))
        assert h0 is cluster.hosts[0]
        sim.run_until(50 * MS)
        cluster.degrade_host(h0, down_ns=2 * SEC)
        sim.run_until(1 * SEC)
        assert sim.trace.counters['cluster.drain_migrations'] >= 1
        assert not h0.resident_vms
        assert cluster.host_of(cluster.hosts[1].resident_vms[0]) \
            is cluster.hosts[1]

    def test_cooldown_dict_stays_bounded(self):
        sim = Simulator(seed=0)
        daemon = RebalanceDaemon(vm_cooldown_ns=100 * MS)
        cluster = _cluster(sim, n=2, rebalance=daemon)
        cluster.submit(_hog('vm0'))
        daemon._last_moved['ghost-vm'] = sim.now
        sim.run_until(daemon.check_period_ns + daemon.vm_cooldown_ns + 1)
        # The expired entry was pruned on a later check tick.
        assert 'ghost-vm' not in daemon._last_moved


def _residency(cluster):
    return {vm: host for host in cluster.hosts for vm in host.resident_vms}


class TestVmHostMap:
    """``Cluster.host_of`` reads one vm->host map that placement,
    migration and crash recovery keep equal to the hosts'
    ``resident_vms``; the sanitizer checks that after every event."""

    def test_map_follows_migration_and_crash(self):
        sim = Simulator(seed=0)
        cluster = _cluster(sim, n=2)
        source = cluster.submit(_hog('vm0'))
        sim.run_until(50 * MS)
        vm = source.resident_vms[0]
        assert cluster.vm_hosts == _residency(cluster) == {vm: source}
        target = cluster.hosts[1]
        cluster.migration.migrate(vm, source, target)
        assert cluster.host_of(vm) is None       # in flight
        assert cluster.vm_hosts == _residency(cluster) == {}
        sim.run_until(sim.now + 1 * SEC)
        assert cluster.host_of(vm) is target
        # A crash orphans it and recovery re-homes it on the survivor.
        cluster.crash_host(target, down_ns=300 * MS)
        assert cluster.host_of(vm) is source
        assert cluster.vm_hosts == _residency(cluster)

    @pytest.mark.parametrize('corruption', ['stale', 'missing'])
    def test_sanitizer_reports_corrupted_map(self, corruption):
        sim = Simulator(seed=0)
        sanitizer = install_sanitizer(sim, mode='collect')
        cluster = _cluster(sim, n=2)
        host = cluster.submit(_hog('vm0'))
        sim.run_until(10 * MS)
        vm = host.resident_vms[0]
        sanitizer.check_now()
        assert not sanitizer.violations
        if corruption == 'stale':
            cluster.vm_hosts[vm] = cluster.hosts[1]
        else:
            del cluster.vm_hosts[vm]
        sanitizer.check_now()
        assert [v.invariant for v in sanitizer.violations] \
            == ['vm_host_map']
        assert 'vm0' in sanitizer.violations[0].message


class TestWallTimeoutWatchdog:
    def _specs(self, apps):
        return [cluster_spec(seed=i).replace(app=app)
                for i, app in enumerate(apps)]

    def test_hung_worker_retried_then_fails(self):
        runner = ParallelRunner(jobs=1, wall_timeout=0.5)
        runner._worker = _hang_worker
        spec = self._specs(['hang'])[0]
        started = time.time()
        with pytest.raises(RunError) as excinfo:
            runner.map([spec])
        assert excinfo.value.spec is spec
        assert 'wall time' in str(excinfo.value)
        # One retry: two timeout windows, not one and not three.
        assert 0.9 < time.time() - started < 10.0

    def test_timed_out_spec_retried_once_and_recovers(self, tmp_path):
        marker = str(tmp_path / 'attempted')
        runner = ParallelRunner(jobs=2, wall_timeout=2.0)
        runner._worker = _flaky_worker
        specs = self._specs([marker, 'fast'])
        outcomes = runner.map(specs)
        # First attempt hung and was killed; the retry succeeded, and
        # the batch result keeps submission order.
        assert outcomes == ['ok:%s' % marker, 'ok:fast']

    def test_prompt_workers_unaffected(self):
        runner = ParallelRunner(jobs=2, wall_timeout=30.0)
        runner._worker = _echo_worker
        specs = self._specs(['a', 'b', 'c'])
        assert runner.map(specs) == ['a', 'b', 'c']

    def test_rejects_bad_wall_timeout(self):
        with pytest.raises(ValueError):
            ParallelRunner(wall_timeout=0)


def _hang_worker(spec):
    time.sleep(600)


def _echo_worker(spec):
    return spec.app


def _flaky_worker(spec):
    """Hang on the first attempt of a marker-path spec, succeed after."""
    if spec.app != 'fast':
        if not os.path.exists(spec.app):
            with open(spec.app, 'w'):
                pass
            time.sleep(600)
    return 'ok:%s' % spec.app


@pytest.mark.chaos
class TestChaosCampaigns:
    def _run(self, faults, seed=0, placement='interference_aware'):
        result = run_consolidation(strategy='irs', placement=placement,
                                   seed=seed, measure_ns=500 * MS,
                                   faults=faults)
        return json.dumps(result, sort_keys=True)

    def test_cluster_chaos_bit_identical(self):
        assert self._run('cluster-chaos', seed=3) == \
            self._run('cluster-chaos', seed=3)

    def test_host_flap_bit_identical(self):
        assert self._run('host-flap-15', seed=1) == \
            self._run('host-flap-15', seed=1)

    def test_chaos_exercises_recovery_plane(self):
        result = run_consolidation(strategy='irs', placement='first_fit',
                                   seed=1, faults='cluster-chaos')
        counters = result['counters']
        assert result['host_crashes'] >= 1
        assert counters.get('faults.host_crash', 0) >= 1
        # Orphan episodes ended re-placed (or explicitly parked) —
        # nothing lost, and the ledger counters surfaced in the summary.
        assert result['recovered'] >= 1
        assert counters.get('cluster.recoveries', 0) == result['recovered']

    def test_every_campaign_sanitizer_clean(self, monkeypatch):
        original = Simulator.__init__

        def sanitized(self, *args, **kwargs):
            original(self, *args, **kwargs)
            install_sanitizer(self)

        monkeypatch.setattr(Simulator, '__init__', sanitized)
        for campaign in CLUSTER_CAMPAIGNS:
            result = run_consolidation(strategy='irs',
                                       placement='first_fit', seed=2,
                                       measure_ns=400 * MS,
                                       faults=campaign)
            assert result['throughput'] >= 0.0

    def test_spec_pipeline_carries_faults(self):
        spec = cluster_spec(strategy='irs', placement='first_fit', seed=0,
                            faults='host-flap-15')
        twin = cluster_spec(strategy='irs', placement='first_fit', seed=0,
                            faults='host-flap-15')
        assert spec == twin
        assert spec.cache_token() == twin.cache_token()
        assert spec != cluster_spec(strategy='irs', placement='first_fit',
                                    seed=0)
        outcome = run_specs([spec], cache=None)[0]
        assert outcome.cluster['faults'] == 'host-flap-15'
        assert outcome.cluster['counters'].get('faults.injected', 0) >= 1
