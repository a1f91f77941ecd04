"""Declarative run specs: the frozen description of one simulation.

A :class:`RunSpec` captures *everything* that determines a run —
workload, strategy, interference, seed, machine shape, IRS tunables,
fault campaign, observability flags — as a frozen, hashable, picklable
value. Because the simulator is bit-deterministic in its inputs
(DESIGN.md §5), a RunSpec fully determines its
:class:`RunOutcome`; that equivalence is what makes parallel execution
(:class:`~repro.experiments.executor.ParallelRunner`) and result
caching (:class:`~repro.experiments.cache.ResultCache`) provably
interchangeable with a serial in-process loop.

The JSON spec-file dialect predates RunSpec and is kept as the
user-facing surface::

    {
      "app": "streamcluster",
      "strategy": "irs",
      "seed": 3,
      "machine": {"n_pcpus": 4, "fg_vcpus": 4, "pinned": true},
      "interference": {"kind": "hogs", "width": 2, "n_vms": 1},
      "workload": {"scale": 0.5, "n_threads": 4}
    }

:func:`parse_spec` validates a dict of that shape and
:func:`spec_from_dict` lifts it into a RunSpec. Execution lives in
:mod:`repro.experiments.executor` (`run_spec` / `run_spec_file` are
re-exported from there for compatibility).
"""

import dataclasses
import json

from ..simkernel.units import MS
from .strategies import ALL_STRATEGIES, EXTENSION_STRATEGIES
from .topology import NO_INTERFERENCE, InterferenceSpec

_KNOWN_STRATEGIES = tuple(ALL_STRATEGIES) + tuple(EXTENSION_STRATEGIES)
_TOP_LEVEL_KEYS = {'app', 'strategy', 'seed', 'machine', 'interference',
                   'workload', 'name'}
_MACHINE_KEYS = {'n_pcpus', 'fg_vcpus', 'pinned'}
_INTERFERENCE_KEYS = {'kind', 'width', 'n_vms'}
_WORKLOAD_KEYS = {'scale', 'n_threads', 'timeout_s'}

#: The run kinds the executor knows how to map to harness entry points.
PARALLEL, SERVER, PROBE, CLUSTER = 'parallel', 'server', 'probe', 'cluster'
TRAFFIC = 'traffic'
RUN_KINDS = (PARALLEL, SERVER, PROBE, CLUSTER, TRAFFIC)

SERVER_KINDS = ('specjbb', 'ab')


class SpecError(ValueError):
    """A malformed experiment spec."""


def _interference_tuple(interference):
    """Normalize an :class:`InterferenceSpec` (or a raw 3-tuple) to the
    hashable ``(kind, width, n_vms)`` form RunSpec stores."""
    if isinstance(interference, InterferenceSpec):
        return (interference.kind, interference.width, interference.n_vms)
    kind, width, n_vms = interference
    return (str(kind), int(width), int(n_vms))


def _irs_tuple(irs):
    """Normalize IRSConfig keyword overrides (dict or pair-tuple) to a
    sorted, hashable ``((key, value), ...)`` tuple."""
    if irs is None:
        return None
    pairs = irs.items() if isinstance(irs, dict) else irs
    return tuple(sorted((str(k), v) for k, v in pairs))


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Frozen description of one simulation run.

    ``interference`` is ``(kind, width, n_vms)``; ``irs`` is a sorted
    tuple of ``(field, value)`` IRSConfig overrides; ``faults`` names a
    fault campaign in the :data:`repro.faults.CAMPAIGNS` dialect (the
    ``--faults`` string). ``None`` fields mean "the harness default".

    Server runs (``kind='server'``) reuse ``app`` for the server kind
    (``'specjbb'``/``'ab'``) and ``interference`` width for the hog
    count; migration probes (``kind='probe'``) use ``interference``
    n_vms for the interfering-VM count and ``trigger`` for the probe
    phase.
    """

    app: str
    strategy: str = 'vanilla'
    kind: str = PARALLEL
    interference: tuple = ('hogs', 0, 1)
    seed: int = 0
    scale: float = 1.0
    n_pcpus: int = 4
    fg_vcpus: int = 4
    pinned: bool = True
    n_threads: int = None
    timeout_ns: int = None
    profile_mode: str = None
    irs: tuple = None
    faults: str = None
    spans: bool = False
    timeline: bool = False
    # Server-only knobs (None = run_server defaults).
    warmup_ns: int = None
    measure_ns: int = None
    # Probe-only knob.
    trigger: str = 'preemption'

    def __post_init__(self):
        if self.kind not in RUN_KINDS:
            raise SpecError('unknown run kind %r (want one of %s)'
                            % (self.kind, ', '.join(RUN_KINDS)))
        if self.strategy not in _KNOWN_STRATEGIES:
            raise SpecError('unknown strategy %r (known: %s)'
                            % (self.strategy, ', '.join(_KNOWN_STRATEGIES)))
        if self.kind == SERVER and self.app not in SERVER_KINDS:
            raise SpecError("server spec app must be one of %s, got %r"
                            % (', '.join(SERVER_KINDS), self.app))
        if self.kind == CLUSTER and not hasattr(self, 'n_hosts'):
            raise SpecError("kind='cluster' requires a ClusterSpec "
                            "(use cluster_spec())")
        if self.kind == TRAFFIC and not hasattr(self, 'open_loop'):
            raise SpecError("kind='traffic' requires a TrafficSpec "
                            "(use traffic_spec())")
        inter = self.interference
        if (not isinstance(inter, tuple) or len(inter) != 3):
            raise SpecError('interference must be (kind, width, n_vms), '
                            'got %r' % (inter,))
        if inter[1] < 0 or (inter[2] < 1 and inter[1] > 0):
            raise SpecError('bad interference shape %r' % (inter,))

    @property
    def interference_spec(self):
        """The :class:`InterferenceSpec` this run installs."""
        kind, width, n_vms = self.interference
        if width == 0:
            return NO_INTERFERENCE
        return InterferenceSpec(kind, width, n_vms=max(1, n_vms))

    def replace(self, **changes):
        """A copy with ``changes`` applied (fields are frozen)."""
        return dataclasses.replace(self, **changes)

    def canonical(self):
        """JSON-friendly dict of every field, suitable for hashing and
        for humans reading cache entries."""
        return dataclasses.asdict(self)

    def cache_token(self):
        """Stable canonical string: equal specs produce equal tokens,
        and any field change produces a different one."""
        return json.dumps(self.canonical(), sort_keys=True,
                          separators=(',', ':'), default=repr)

    def describe(self):
        """Short human label for error messages and logs."""
        kind, width, n_vms = self.interference
        inter = ('none' if width == 0 else
                 '%s x%d%s' % (kind, width,
                               ('(%dvm)' % n_vms) if n_vms > 1 else ''))
        return '%s %s/%s inter=%s seed=%d' % (
            self.kind, self.app, self.strategy, inter, self.seed)


def parallel_spec(app, strategy='vanilla', interference=NO_INTERFERENCE,
                  seed=0, scale=1.0, n_pcpus=4, fg_vcpus=4, pinned=True,
                  n_threads=None, timeout_ns=None, profile_mode=None,
                  irs=None, faults=None, spans=False, timeline=False):
    """Spec for one :func:`~repro.experiments.harness.run_parallel`
    run. Mirrors its signature, but declaratively: ``profile_mode``
    replaces ad-hoc ``profile=`` objects (it is applied through
    :func:`repro.workloads.profile_variant`), ``irs`` is a dict of
    IRSConfig overrides, ``faults`` a campaign string."""
    return RunSpec(app=app, strategy=strategy, kind=PARALLEL,
                   interference=_interference_tuple(interference),
                   seed=seed, scale=scale, n_pcpus=n_pcpus,
                   fg_vcpus=fg_vcpus, pinned=pinned, n_threads=n_threads,
                   timeout_ns=timeout_ns, profile_mode=profile_mode,
                   irs=_irs_tuple(irs), faults=faults, spans=spans,
                   timeline=timeline)


def server_spec(kind, strategy='vanilla', n_hogs=1, seed=0, n_pcpus=4,
                fg_vcpus=4, warmup_ns=None, measure_ns=None, irs=None,
                faults=None, spans=False, timeline=False):
    """Spec for one :func:`~repro.experiments.harness.run_server` run
    (``kind`` is ``'specjbb'`` or ``'ab'``)."""
    interference = ('hogs', n_hogs, 1) if n_hogs > 0 else ('hogs', 0, 1)
    return RunSpec(app=kind, strategy=strategy, kind=SERVER,
                   interference=interference, seed=seed, n_pcpus=n_pcpus,
                   fg_vcpus=fg_vcpus, warmup_ns=warmup_ns,
                   measure_ns=measure_ns, irs=_irs_tuple(irs),
                   faults=faults, spans=spans, timeline=timeline)


@dataclasses.dataclass(frozen=True)
class ClusterSpec(RunSpec):
    """Frozen description of one multi-host cluster run.

    Extends :class:`RunSpec` so the executor, cache, and parallel
    runner handle cluster runs unchanged — the extra fields flow into
    ``canonical()``/``cache_token()`` through ``dataclasses.asdict``.
    Field reuse: ``n_pcpus`` is the per-host pCPU count and
    ``fg_vcpus`` the per-server-VM vCPU count; ``strategy`` is the
    hypervisor strategy every host runs (guests opt into IRS when it is
    ``'irs'``).
    """

    n_hosts: int = 4
    placement: str = 'first_fit'
    rebalance: bool = True
    n_hog_vms: int = 4
    hog_vcpus: int = 2
    n_server_vms: int = 4
    capacity_vcpus: int = None
    arrivals_per_sec: int = 400

    def __post_init__(self):
        super().__post_init__()
        from ..cluster.placement import PLACEMENT_POLICIES
        if self.placement not in PLACEMENT_POLICIES:
            raise SpecError('unknown placement %r (want one of %s)'
                            % (self.placement,
                               ', '.join(sorted(PLACEMENT_POLICIES))))
        if self.n_hosts < 1:
            raise SpecError('a cluster needs at least one host')

    def describe(self):
        return 'cluster %s/%s %dhosts seed=%d' % (
            self.placement, self.strategy, self.n_hosts, self.seed)


def cluster_spec(strategy='vanilla', placement='first_fit', seed=0,
                 n_hosts=4, n_pcpus=4, capacity_vcpus=None, n_hog_vms=4,
                 hog_vcpus=2, n_server_vms=4, server_vcpus=2,
                 arrivals_per_sec=400, rebalance=True, warmup_ns=None,
                 measure_ns=None, faults=None, spans=False):
    """Spec for one :func:`repro.cluster.run_consolidation` run.
    ``faults`` names a chaos campaign (``'cluster-chaos'``,
    ``'host-flap-15'``, ...) from :data:`repro.faults.CAMPAIGNS`;
    ``spans`` turns on the cluster trace probes (placement instants,
    migration flows, health transitions)."""
    return ClusterSpec(app='cluster-consolidation', strategy=strategy,
                       kind=CLUSTER, seed=seed, n_pcpus=n_pcpus,
                       fg_vcpus=server_vcpus, n_hosts=n_hosts,
                       placement=placement, rebalance=rebalance,
                       n_hog_vms=n_hog_vms, hog_vcpus=hog_vcpus,
                       n_server_vms=n_server_vms,
                       capacity_vcpus=capacity_vcpus,
                       arrivals_per_sec=arrivals_per_sec,
                       warmup_ns=warmup_ns, measure_ns=measure_ns,
                       faults=faults, spans=spans)


@dataclasses.dataclass(frozen=True)
class TrafficSpec(ClusterSpec):
    """Frozen description of one open-loop traffic & serving run.

    Extends :class:`ClusterSpec` (so the executor, cache, and parallel
    runner handle it unchanged) with the traffic plane's knobs. Field
    reuse follows the cluster convention: ``n_server_vms`` is the
    baseline replica count and ``fg_vcpus`` the per-replica vCPU count.
    ``arrivals`` names a process in
    :data:`repro.traffic.arrivals.ARRIVALS`; ``router`` a policy in
    :data:`repro.traffic.router.ROUTER_POLICIES`.
    """

    open_loop: bool = True
    arrivals: str = 'poisson'
    rate_rps: int = 4000
    slo_p99_ms: float = 20.0
    router: str = 'least_queue'
    autoscale: bool = False
    max_replicas: int = 8
    queue_capacity: int = 256

    def __post_init__(self):
        super().__post_init__()
        from ..traffic.arrivals import ARRIVAL_KINDS
        from ..traffic.router import ROUTER_POLICIES
        if self.arrivals not in ARRIVAL_KINDS:
            raise SpecError('unknown arrival process %r (want one of %s)'
                            % (self.arrivals, ', '.join(ARRIVAL_KINDS)))
        if self.router not in ROUTER_POLICIES:
            raise SpecError('unknown router policy %r (want one of %s)'
                            % (self.router, ', '.join(ROUTER_POLICIES)))
        if self.rate_rps <= 0:
            raise SpecError('rate_rps must be positive')
        if self.slo_p99_ms <= 0:
            raise SpecError('slo_p99_ms must be positive')
        if self.max_replicas < self.n_server_vms:
            raise SpecError('max_replicas must cover the baseline fleet')
        if self.queue_capacity < 1:
            raise SpecError('queue_capacity must be >= 1')

    def describe(self):
        return 'traffic %s/%s %s@%drps seed=%d' % (
            'open' if self.open_loop else 'closed', self.strategy,
            self.arrivals, self.rate_rps, self.seed)


def traffic_spec(strategy='vanilla', placement='first_fit', seed=0,
                 open_loop=True, arrivals='poisson', rate_rps=4000,
                 slo_p99_ms=20.0, router='least_queue', autoscale=False,
                 max_replicas=8, queue_capacity=256, n_hosts=4, n_pcpus=4,
                 capacity_vcpus=6, n_hog_vms=4, hog_vcpus=2,
                 n_server_vms=4, server_vcpus=4, rebalance=True,
                 warmup_ns=None, measure_ns=None, faults=None, spans=False):
    """Spec for one :func:`repro.traffic.run_traffic` run. Defaults
    match the ``traffic-slo`` figure's consolidated topology: one hog
    tenant paired with one 4-vCPU replica per capacity-limited host."""
    return TrafficSpec(app='traffic-slo', strategy=strategy, kind=TRAFFIC,
                       seed=seed, n_pcpus=n_pcpus, fg_vcpus=server_vcpus,
                       n_hosts=n_hosts, placement=placement,
                       rebalance=rebalance, n_hog_vms=n_hog_vms,
                       hog_vcpus=hog_vcpus, n_server_vms=n_server_vms,
                       capacity_vcpus=capacity_vcpus, open_loop=open_loop,
                       arrivals=arrivals, rate_rps=rate_rps,
                       slo_p99_ms=slo_p99_ms, router=router,
                       autoscale=autoscale, max_replicas=max_replicas,
                       queue_capacity=queue_capacity, warmup_ns=warmup_ns,
                       measure_ns=measure_ns, faults=faults, spans=spans)


def probe_spec(n_inter_vms, seed=0, trigger='preemption'):
    """Spec for one Figure 1(b) migration-latency probe."""
    interference = (('hogs', 1, n_inter_vms) if n_inter_vms > 0
                    else ('hogs', 0, 1))
    return RunSpec(app='migration-probe', strategy='vanilla', kind=PROBE,
                   interference=interference, seed=seed, trigger=trigger)


class RunOutcome:
    """Serializable result of executing one :class:`RunSpec`.

    Unlike the harness's live result objects, an outcome carries no
    simulator, machine, or workload references — only derived values —
    so it survives a trip through a worker process or the on-disk
    cache. ``metrics`` is the picklable
    :class:`~repro.metrics.collector.RunMetrics` snapshot (None for
    probes); ``sa_delay_ns`` are the SA sender's processing-delay
    samples (empty when the strategy never attached a sender).
    """

    def __init__(self, spec, makespan_ns=None, utilization=None,
                 bg_rates=(), throughput=None, latency_summary=None,
                 probe_latency_ns=None, sa_delay_ns=(), metrics=None,
                 cluster=None):
        self.spec = spec
        self.makespan_ns = makespan_ns
        self.utilization = utilization
        self.bg_rates = tuple(bg_rates)
        self.throughput = throughput
        self.latency_summary = latency_summary
        self.probe_latency_ns = probe_latency_ns
        self.sa_delay_ns = tuple(sa_delay_ns)
        self.metrics = metrics
        # Cluster and traffic runs: the summary dict the run returned
        # (placements, migration/rejection counts, merged latency).
        self.cluster = cluster

    @property
    def app(self):
        return self.spec.app

    @property
    def strategy(self):
        return self.spec.strategy

    @property
    def completed(self):
        return self.makespan_ns is not None

    def __repr__(self):
        if self.spec.kind in (SERVER, CLUSTER, TRAFFIC):
            detail = '%.0f req/s' % (self.throughput or 0.0)
        elif self.spec.kind == PROBE:
            detail = ('%.1fms' % (self.probe_latency_ns / MS)
                      if self.probe_latency_ns is not None else 'no-fire')
        else:
            detail = ('%.1fms' % (self.makespan_ns / MS)
                      if self.completed else 'TIMEOUT')
        return '<Outcome %s/%s %s>' % (self.app, self.strategy, detail)


def _check_keys(section, mapping, allowed):
    unknown = set(mapping) - allowed
    if unknown:
        raise SpecError('unknown %s keys: %s (allowed: %s)'
                        % (section, ', '.join(sorted(unknown)),
                           ', '.join(sorted(allowed))))


def parse_spec(spec):
    """Validate a JSON-dialect spec dict and normalize it to
    :func:`~repro.experiments.harness.run_parallel` kwargs. Returns
    ``(app, kwargs)``."""
    if not isinstance(spec, dict):
        raise SpecError('spec must be a dict, got %r' % type(spec).__name__)
    _check_keys('top-level', spec, _TOP_LEVEL_KEYS)
    try:
        app = spec['app']
    except KeyError:
        raise SpecError("spec needs an 'app'")
    strategy = spec.get('strategy', 'vanilla')
    if strategy not in _KNOWN_STRATEGIES:
        raise SpecError('unknown strategy %r (known: %s)'
                        % (strategy, ', '.join(_KNOWN_STRATEGIES)))

    kwargs = {'strategy': strategy, 'seed': int(spec.get('seed', 0))}

    machine = spec.get('machine', {})
    _check_keys('machine', machine, _MACHINE_KEYS)
    kwargs['n_pcpus'] = int(machine.get('n_pcpus', 4))
    kwargs['fg_vcpus'] = int(machine.get('fg_vcpus', 4))
    kwargs['pinned'] = bool(machine.get('pinned', True))

    interference = spec.get('interference')
    if interference:
        _check_keys('interference', interference, _INTERFERENCE_KEYS)
        kwargs['interference'] = InterferenceSpec(
            interference.get('kind', 'hogs'),
            int(interference.get('width', 1)),
            n_vms=int(interference.get('n_vms', 1)))
    else:
        kwargs['interference'] = NO_INTERFERENCE

    workload = spec.get('workload', {})
    _check_keys('workload', workload, _WORKLOAD_KEYS)
    kwargs['scale'] = float(workload.get('scale', 1.0))
    if 'n_threads' in workload:
        kwargs['n_threads'] = int(workload['n_threads'])
    if 'timeout_s' in workload:
        kwargs['timeout_ns'] = int(float(workload['timeout_s']) * 10**9)
    return app, kwargs


def spec_from_dict(spec):
    """Lift a JSON-dialect spec dict into a :class:`RunSpec`."""
    app, kwargs = parse_spec(spec)
    return parallel_spec(app, **kwargs)
