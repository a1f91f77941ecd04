"""Tests for the open-loop traffic & serving plane: arrival-process
determinism, queue-full shedding, request routing around failures,
SLO accounting, autoscaler hysteresis, and the run_traffic pipeline
integration. The conftest sanitizer fixture validates scheduler
invariants after every test."""

import gc
import json
from pathlib import Path

import pytest

from repro.cluster import Cluster, HostSpec, VmRequest
from repro.experiments import (SpecError, execute_spec, run_specs,
                               traffic_spec)
from repro.simkernel import Simulator
from repro.simkernel.rng import RngRegistry
from repro.simkernel.units import MS, SEC
from repro.traffic import (
    ARRIVAL_KINDS,
    PoissonArrivals,
    ReplicaServer,
    RequestRouter,
    SloAutoscaler,
    SloPolicy,
    SloTracker,
    TrafficService,
    make_arrivals,
    run_traffic,
)

from conftest import single_vm_machine

pytestmark = pytest.mark.traffic

# The first 200 arrival times of every process at 800 rps, seed 7,
# recorded before the gap streams were bound once per generator.
GOLDEN_ARRIVALS = Path(__file__).parent / 'golden' / \
    'arrival_times_800rps_seed7.json'


class TestArrivalDeterminism:
    @pytest.mark.parametrize('kind', ARRIVAL_KINDS)
    def test_same_seed_identical(self, kind):
        process = make_arrivals(kind, 800)
        first = process.times(RngRegistry(7), 200)
        second = process.times(RngRegistry(7), 200)
        assert first == second

    @pytest.mark.parametrize('kind', ARRIVAL_KINDS)
    def test_different_seed_differs(self, kind):
        process = make_arrivals(kind, 800)
        assert (process.times(RngRegistry(7), 200)
                != process.times(RngRegistry(8), 200))

    @pytest.mark.parametrize('kind', ARRIVAL_KINDS)
    def test_mean_rate_tracks_target(self, kind):
        times = make_arrivals(kind, 1000).times(RngRegistry(3), 3000)
        rate = len(times) / (times[-1] / SEC)
        assert 700 <= rate <= 1400

    @pytest.mark.parametrize('kind', ARRIVAL_KINDS)
    def test_times_match_golden_prefix(self, kind):
        golden = json.loads(GOLDEN_ARRIVALS.read_text())
        assert make_arrivals(kind, 800).times(RngRegistry(7), 200) \
            == golden[kind]

    def test_gaps_are_positive_ints(self):
        rng = RngRegistry(1)
        gen = make_arrivals('bursty', 500).gaps(rng)
        for __ in range(500):
            gap = next(gen)
            assert isinstance(gap, int) and gap >= 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_arrivals('tidal', 100)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            make_arrivals('poisson', 0)

    def test_diurnal_rate_follows_ramp(self):
        process = make_arrivals('diurnal', 1000, period_ns=400 * MS,
                                ramp=(0.5, 2.0))
        assert process.rate_at(0) == 500
        assert process.rate_at(250 * MS) == 2000
        assert process.rate_at(450 * MS) == 500   # wraps


class TestSloTracker:
    def _tracker(self, **kw):
        return SloTracker(SloPolicy(p99_target_ns=10 * MS,
                                    window_ns=100 * MS, **kw))

    def test_attainment_counts_sheds_as_violations(self):
        tracker = self._tracker()
        for __ in range(8):
            tracker.observe(50 * MS, 5 * MS)
        tracker.observe(50 * MS, 50 * MS)
        tracker.observe_shed(50 * MS)
        assert tracker.total == 10
        assert tracker.attainment() == pytest.approx(0.8)
        assert tracker.error_rate() == pytest.approx(0.1)

    def test_burn_rate_windows_forget_old_violations(self):
        tracker = self._tracker(attainment_target=0.9)
        for __ in range(10):
            tracker.observe(50 * MS, 50 * MS)     # all bad, early
        for i in range(10):
            tracker.observe(1 * SEC + i * MS, 1 * MS)
        # Recent 5 windows hold only good samples.
        assert tracker.burn_rate(1 * SEC + 20 * MS) == 0.0
        assert tracker.attainment() == pytest.approx(0.5)

    def test_idle_service_meets_slo(self):
        tracker = self._tracker()
        assert tracker.attainment() == 1.0
        assert tracker.meets_slo()

    def test_snapshot_publishes_gauges(self):
        from repro.obs.histograms import MetricsRegistry
        registry = MetricsRegistry()
        tracker = SloTracker(SloPolicy(), registry=registry)
        tracker.observe(0, 1 * MS)
        summary = tracker.snapshot(100 * MS)
        assert summary['requests'] == 1
        assert registry.gauges['traffic.slo.good'] == 1
        assert registry.gauges['traffic.slo.attainment_ppm'] == 1_000_000


class OpenLoopReplica:
    """One replica fed by a sim-level Poisson arrival chain: the
    arrival clock never competes with the workers for a vCPU."""

    def __init__(self, sim, kernel, rate_rps, **replica_kwargs):
        self.sim = sim
        arrivals = PoissonArrivals(rate_rps, stream='traffic.openloop')
        self.replica = ReplicaServer(sim, kernel, name='openloop',
                                     **replica_kwargs).install()
        self.injected = 0
        self._gaps = arrivals.gaps(sim.rng)
        sim.after(next(self._gaps), self._arrive)

    def _arrive(self):
        self.injected += 1
        self.replica.enqueue(self.sim.now)
        self.sim.after(next(self._gaps), self._arrive)

    @property
    def completed(self):
        return self.replica.completed

    @property
    def shed(self):
        return self.replica.shed


class TestReplicaShedding:
    def _workload(self, sim, queue_capacity, rate=4000, service_ns=5 * MS):
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=2, n_vcpus=2)
        tracker = SloTracker(SloPolicy())
        wl = OpenLoopReplica(
            sim, kernel, rate_rps=rate, service_ns=service_ns,
            queue_capacity=queue_capacity, slo=tracker, events=None)
        return wl, tracker

    def test_queue_full_sheds_and_accounts(self, sim):
        wl, tracker = self._workload(sim, queue_capacity=4)
        sim.run_until(1 * SEC)
        replica = wl.replica
        assert replica.shed > 0
        # Conservation: every injected request was accepted or shed.
        assert wl.injected == replica.enqueued + replica.shed
        assert tracker.sheds == replica.shed
        assert sim.trace.counters['traffic.shed'] == replica.shed

    def test_ample_queue_never_sheds(self, sim):
        wl, tracker = self._workload(sim, queue_capacity=10_000, rate=300,
                                     service_ns=1 * MS)
        sim.run_until(1 * SEC)
        assert wl.replica.shed == 0
        assert wl.completed > 200
        assert tracker.sheds == 0

    def test_shed_events_are_rate_limited(self, sim):
        from repro.obs.eventlog import EVENT_SHED, EventLog
        machine, vm, kernel = single_vm_machine(sim, n_pcpus=1, n_vcpus=1)
        events = EventLog()
        wl = OpenLoopReplica(
            sim, kernel, rate_rps=5000, service_ns=5 * MS,
            queue_capacity=2, events=events, shed_report_ns=100 * MS)
        sim.run_until(1 * SEC)
        shed_events = [e for e in events.to_dicts()
                       if e['kind'] == EVENT_SHED]
        assert shed_events
        assert len(shed_events) <= 11        # ~1 per 100ms window
        assert sum(e['dropped'] for e in shed_events) <= wl.shed

    def test_queueing_delay_recorded_separately(self, sim):
        wl, __ = self._workload(sim, queue_capacity=10_000, rate=900,
                                service_ns=2 * MS)
        sim.run_until(1 * SEC)
        replica = wl.replica
        assert replica.latency.count == replica.completed
        # Queue wait is recorded at dequeue; at most one in-flight
        # request per worker has a wait sample but no e2e sample yet.
        in_flight = replica.queue_wait.count - replica.completed
        assert 0 <= in_flight <= len(replica.kernel.gcpus)
        # e2e >= queueing delay for the same request stream.
        assert replica.latency.mean() >= replica.queue_wait.mean()
        hist = sim.trace.metrics.histogram('req.queue')
        assert hist.count == replica.queue_wait.count

    def test_retire_sheds_backlog(self, sim):
        wl, tracker = self._workload(sim, queue_capacity=64, rate=4000,
                                     service_ns=20 * MS)
        sim.run_until(200 * MS)
        backlog = wl.replica.queue_depth
        assert backlog > 0
        before = wl.replica.shed
        wl.replica.retire()
        assert wl.replica.shed == before + backlog
        assert wl.replica.queue_depth == 0


def _service_cluster(sim, n_hosts=3, replicas=2, **service_kw):
    specs = [HostSpec('h%d' % i, n_pcpus=4, strategy='vanilla')
             for i in range(n_hosts)]
    cluster = Cluster(sim, specs, policy='first_fit', rebalance=None)
    service = TrafficService(sim, cluster, replica_vcpus=2, **service_kw)
    cluster.start()
    deployed = []
    for __ in range(replicas):
        __, replica = service.deploy_replica(autoscaled=False)
        assert replica is not None
        deployed.append(replica)
    return cluster, service, deployed


class TestRequestRouter:
    def test_round_robin_cycles(self, sim):
        cluster, service, (r0, r1) = _service_cluster(
            sim, router_policy='round_robin')
        sim.run_until(10 * MS)
        router = service.router
        picks = [router.route(sim.now).name for __ in range(4)]
        assert picks == ['srv0', 'srv1', 'srv0', 'srv1']

    def test_least_queue_prefers_shortest(self, sim):
        cluster, service, (r0, r1) = _service_cluster(
            sim, router_policy='least_queue')
        sim.run_until(10 * MS)
        # Load srv0's queue directly; router must prefer srv1.
        for __ in range(5):
            r0.enqueue(sim.now)
        assert service.router.route(sim.now) is r1

    def test_least_queue_ties_go_to_lowest_name(self, sim):
        # Deploy order srv0..srv10, name order srv0, srv1, srv10, srv2..:
        # equal depths must go to the lowest *name*, not the first
        # deployed or the last scanned.
        cluster, service, replicas = _service_cluster(
            sim, n_hosts=6, replicas=11, router_policy='least_queue')
        sim.run_until(10 * MS)
        router = service.router
        assert [r.name for r in router.routable()][:4] \
            == ['srv0', 'srv1', 'srv10', 'srv2']
        by_name = {r.name: r for r in replicas}
        for name in ('srv0', 'srv1'):
            by_name[name].queue.items.append(sim.now)
        assert router.route(sim.now) is by_name['srv10']
        # (An idle worker took that request, so srv10's queue is still
        # empty.) With srv10 backed up too, srv2 is the lowest name at
        # depth 0.
        by_name['srv10'].queue.items.append(sim.now)
        assert router.route(sim.now) is by_name['srv2']

    def test_interference_prefers_quiet_host_then_queue(self, sim):
        cluster, service, replicas = _service_cluster(
            sim, replicas=5, router_policy='interference')
        sim.run_until(10 * MS)
        # First fit fills h0 (8 vCPUs) with srv0..srv3; srv4 lands on h1.
        busy, quiet = cluster.hosts[0], cluster.hosts[1]
        assert [cluster.host_of(r.vm) for r in replicas] \
            == [busy] * 4 + [quiet]
        scores = {host: 0.0 for host in cluster.hosts}
        for host in cluster.hosts:
            host.interference_score = lambda host=host: scores[host]
        router = service.router
        scores[busy] = 0.5
        assert router.route(sim.now) is replicas[4]
        # Equal scores: the shorter queue, then the lower name.
        scores[busy] = 0.0
        assert router.route(sim.now) is replicas[0]
        replicas[0].queue.items.append(sim.now)
        assert router.route(sim.now) is replicas[1]

    def test_unknown_policy_rejected(self, sim):
        cluster = Cluster(sim, [HostSpec('h0')], policy='first_fit',
                          rebalance=None)
        with pytest.raises(ValueError):
            RequestRouter(sim, cluster, policy='hash_ring')

    def test_retired_replica_leaves_rotation(self, sim):
        cluster, service, (r0, r1) = _service_cluster(sim)
        sim.run_until(10 * MS)
        service.router.routable()            # seed the known set
        assert service.retire_replica(r1)
        assert service.router.routable() == [r0]
        reroutes = [e for e in cluster.events.to_dicts()
                    if e['kind'] == 'traffic.reroute']
        assert [(e['replica'], e['reason']) for e in reroutes] \
            == [('srv1', 'lost')]

    def test_host_failure_reroutes_and_recovery_restores(self, sim):
        # Capacity 2 per host: one 2-vCPU replica each, no spare room,
        # so a crash parks the orphan until its host reboots.
        specs = [HostSpec('h%d' % i, n_pcpus=2, capacity_vcpus=2)
                 for i in range(2)]
        cluster = Cluster(sim, specs, policy='first_fit', rebalance=None)
        service = TrafficService(sim, cluster, replica_vcpus=2)
        cluster.start()
        __, r0 = service.deploy_replica(autoscaled=False)
        __, r1 = service.deploy_replica(autoscaled=False)
        sim.run_until(50 * MS)
        service.router.routable()
        victim_host = cluster.host_of(r1.vm)
        cluster.crash_host(victim_host, down_ns=300 * MS)
        assert cluster.host_of(r1.vm) is None
        assert service.router.routable() == [r0]
        # The host reboots; the parking lot drains back onto it.
        sim.run_until(sim.now + 500 * MS)
        assert cluster.host_of(r1.vm) is not None
        assert r1 in service.router.routable()
        reasons = [(e['replica'], e['reason'])
                   for e in cluster.events.to_dicts()
                   if e['kind'] == 'traffic.reroute']
        assert ('srv1', 'lost') in reasons
        assert ('srv1', 'restored') in reasons


class TestArrivalDispatch:
    def test_arrival_schedules_its_successor_last(self, sim):
        # The next arrival takes the last seq of every arrival dispatch,
        # above whatever route() scheduled (a woken worker), so the
        # arrivals' same-instant ties keep their order.
        cluster, service, replicas = _service_cluster(sim)
        sim.run_until(10 * MS)
        queue = sim._queue
        seen = []

        def hook(event):
            if event.callback == service._arrive:
                newest = next(e for __, seq, e in queue._heap
                              if seq == queue._seq)
                seen.append((newest.callback == service._arrive,
                             queue._seq - before[0]))
            before[0] = queue._seq

        before = [queue._seq]
        sim.add_post_event_hook(hook)
        service.start_traffic(PoissonArrivals(2000))
        sim.run_until(sim.now + 50 * MS)
        assert len(seen) > 20
        assert all(last for last, __ in seen)
        # Not vacuous: some dispatches scheduled more than the arrival.
        assert any(scheduled > 1 for __, scheduled in seen)


class _FakeCluster:
    def host_of(self, vm):
        return None


class _FakeReplica:
    def __init__(self, name):
        self.name = name
        self.vm = object()
        self.retired = False


class _ScriptedService:
    """Autoscaler harness: burn is whatever the test says it is."""

    def __init__(self, sim, policy=None):
        self.sim = sim
        self.cluster = _FakeCluster()
        self.events = None
        self.tracker = SloTracker(policy or SloPolicy())
        self.replicas = [_FakeReplica('srv0')]
        self.deploys = 0
        self.retires = 0

    def active_replicas(self):
        return [r for r in self.replicas if not r.retired]

    def deploy_replica(self):
        self.deploys += 1
        replica = _FakeReplica('srv%d' % len(self.replicas))
        self.replicas.append(replica)
        return replica.name, replica

    def pick_scaledown_victim(self):
        live = self.active_replicas()
        return live[-1] if len(live) > 1 else None

    def retire_replica(self, replica):
        self.retires += 1
        replica.retired = True
        return True

    def drive(self, now, bad):
        """Record one window's worth of observations at ``now``."""
        for __ in range(20):
            latency = 100 * MS if bad else 1 * MS
            self.tracker.observe(now, latency)


class TestAutoscalerHysteresis:
    def _run(self, sim, service, autoscaler, schedule):
        """``schedule`` maps ms -> bad?; drive burn and run to 2s."""
        for at_ms, bad in schedule:
            sim.at(at_ms * MS, service.drive, at_ms * MS, bad)
        autoscaler.bind(service)
        autoscaler.start()
        sim.run_until(2 * SEC)

    def test_load_step_scales_up_then_down_once(self, sim):
        service = _ScriptedService(sim)
        scaler = SloAutoscaler(min_replicas=1, max_replicas=4,
                               cooldown_ns=400 * MS)
        # Bad burn 0-500ms, clean from there on.
        schedule = [(t, t < 500) for t in range(50, 2000, 50)]
        self._run(sim, service, scaler, schedule)
        assert scaler.scale_ups >= 1
        assert scaler.scale_downs >= 1
        # Hysteresis: the fleet settles back at the floor, and the
        # single step never causes more than 2 up-moves.
        assert scaler.scale_ups <= 2
        assert len(service.active_replicas()) == 1

    def test_oscillating_load_is_rate_limited_by_cooldown(self, sim):
        service = _ScriptedService(sim)
        scaler = SloAutoscaler(min_replicas=1, max_replicas=8,
                               cooldown_ns=400 * MS)
        # Burn flips every 100ms — far faster than the cooldown.
        schedule = [(t, (t // 100) % 2 == 0)
                    for t in range(50, 2000, 50)]
        self._run(sim, service, scaler, schedule)
        actions = scaler.scale_ups + scaler.scale_downs
        # 2s / 400ms cooldown bounds the action rate.
        assert actions <= 6

    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            SloAutoscaler(high_burn=0.5, low_burn=1.0)
        with pytest.raises(ValueError):
            SloAutoscaler(min_replicas=0)


class TestRunTraffic:
    QUICK = dict(n_hosts=2, n_hog_vms=2, n_server_vms=2, rate_rps=1200,
                 warmup_ns=200 * MS, measure_ns=300 * MS)

    def test_deterministic_summary(self):
        first = run_traffic(strategy='irs', seed=3, **self.QUICK)
        second = run_traffic(strategy='irs', seed=3, **self.QUICK)
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))

    def test_irs_attainment_at_least_vanilla_open_loop(self):
        vanilla = run_traffic(strategy='vanilla', seed=0,
                              measure_ns=500 * MS)
        irs = run_traffic(strategy='irs', seed=0, measure_ns=500 * MS)
        assert irs['slo']['attainment'] >= vanilla['slo']['attainment']

    def test_closed_loop_mode_runs_same_topology(self):
        summary = run_traffic(strategy='vanilla', seed=0, open_loop=False,
                              **self.QUICK)
        assert summary['open_loop'] is False
        assert summary['shed'] == 0
        assert summary['slo']['requests'] > 0
        assert summary['router'] is None

    def test_autoscaler_scales_up_and_back_down_with_events(self):
        from repro.traffic.arrivals import DiurnalArrivals
        summary = run_traffic(
            strategy='irs', seed=0, autoscale=True, n_hosts=6,
            n_hog_vms=2, n_server_vms=2, rate_rps=3000,
            arrivals=DiurnalArrivals(3000, ramp=(1.4, 1.4, 0.2, 0.2),
                                     period_ns=1 * SEC),
            warmup_ns=300 * MS, measure_ns=1500 * MS)
        assert summary['autoscaler']['scale_ups'] >= 1
        assert summary['autoscaler']['scale_downs'] >= 1
        kinds = [e['kind'] for e in summary['events']]
        assert 'scale.up' in kinds
        assert 'scale.down' in kinds
        assert 'vm.retire' in kinds
        # Every scale decision is in the structured log.
        assert (kinds.count('scale.up')
                == summary['autoscaler']['scale_ups'])
        assert (kinds.count('scale.down')
                == summary['autoscaler']['scale_downs'])

    def test_bursty_arrivals_accepted(self):
        result = run_traffic(strategy='irs', seed=1, arrivals='bursty',
                             **self.QUICK)
        assert result['arrivals'] == 'bursty'
        assert result['slo']['requests'] > 0


class TestTrafficSpecPipeline:
    def test_spec_validates_vocabulary(self):
        with pytest.raises(SpecError):
            traffic_spec(arrivals='tidal')
        with pytest.raises(SpecError):
            traffic_spec(router='hash_ring')
        with pytest.raises(SpecError):
            traffic_spec(rate_rps=0)
        with pytest.raises(SpecError):
            traffic_spec(max_replicas=1, n_server_vms=4)

    def test_spec_is_frozen_and_cache_keyable(self):
        spec = traffic_spec(strategy='irs', rate_rps=2000)
        assert spec.cache_token() != traffic_spec(strategy='irs').cache_token()
        assert spec == traffic_spec(strategy='irs', rate_rps=2000)

    def test_executor_runs_traffic_spec(self):
        spec = traffic_spec(strategy='irs', seed=0, n_hosts=2,
                            n_hog_vms=2, n_server_vms=2, rate_rps=1200,
                            warmup_ns=200 * MS, measure_ns=300 * MS)
        outcome = run_specs([spec], cache=None)[0]
        assert outcome.throughput > 0
        assert outcome.cluster['slo']['requests'] > 0
        assert outcome.cluster['open_loop'] is True

    def test_executor_frees_the_run_it_returns_from(self):
        # A run's object graph is cyclic; the executor collects it, so a
        # batch's resident set does not grow with the runs it has done.
        spec = traffic_spec(seed=0, n_hosts=2, n_hog_vms=2, n_server_vms=2,
                            rate_rps=1200, warmup_ns=50 * MS,
                            measure_ns=300 * MS)
        gc.collect()
        execute_spec(spec)
        assert not [obj for obj in gc.get_objects()
                    if isinstance(obj, Simulator)]

    def test_figure_registered(self):
        from repro.experiments.figures import ALL_FIGURES
        import inspect
        assert 'traffic_slo' in ALL_FIGURES
        params = inspect.signature(ALL_FIGURES['traffic_slo']).parameters
        assert 'arrivals' in params and 'rate_rps' in params

    def test_cli_rejects_unknown_arrivals(self, capsys):
        from repro.experiments.cli import main
        with pytest.raises(SystemExit):
            main(['traffic-slo', '--arrivals', 'tidal'])
        assert 'unknown arrival process' in capsys.readouterr().err
