"""Pluggable executors: map RunSpec batches to RunOutcomes.

This is the middle stage of the experiments pipeline
(spec -> executor -> cache). :func:`execute_spec` turns one
:class:`~repro.experiments.spec.RunSpec` into a serializable
:class:`~repro.experiments.spec.RunOutcome` by dispatching to the
matching harness entry point. Two executors map batches:

* :class:`SerialExecutor` — the in-process loop, bit-identical to the
  historical per-figure loops;
* :class:`ParallelRunner` — a ``ProcessPoolExecutor`` fan-out with
  deterministic result ordering (submission order, not completion
  order) and per-run crash isolation: a failing worker raises
  :class:`RunError` naming the offending spec, and the remaining
  futures are cancelled instead of left to hang the pool.

:func:`run_specs` is the front door the figure drivers, sweeps, and the
CLI use: it deduplicates a batch, consults the
:class:`~repro.experiments.cache.ResultCache` it is given, dispatches
only the misses to the executor it is given, and reassembles outcomes
in input order. Determinism (same spec -> same outcome) is what makes
all of that invisible to callers.
"""

import concurrent.futures
import gc
import os
import time

from ..core import IRSConfig
from ..faults import parse_fault_plan
from ..workloads import get_profile, profile_variant
from .cache import METRICS, ResultCache  # noqa: F401  (ResultCache re-export)
from .harness import (
    ObservabilityConfig,
    run_migration_probe,
    run_parallel,
    run_server,
)
from .spec import (CLUSTER, PROBE, SERVER, TRAFFIC, RunOutcome,
                   spec_from_dict)


class RunError(RuntimeError):
    """A spec failed to execute. ``spec`` names the failing run so a
    crashed worker surfaces *which* configuration died rather than a
    bare pool traceback."""

    def __init__(self, spec, cause):
        super().__init__('run failed for [%s]: %s: %s'
                         % (spec.describe(), type(cause).__name__, cause))
        self.spec = spec


def _window(spec):
    """The spec's warmup/measure overrides as keyword arguments (unset
    ones are left to the runner's defaults)."""
    return {key: value for key, value in (('warmup_ns', spec.warmup_ns),
                                          ('measure_ns', spec.measure_ns))
            if value is not None}


def execute_spec(spec, observe=None):
    """Execute one spec in-process; returns its :class:`RunOutcome`.

    Everything that determines the run is taken from the spec itself
    (fault campaign text, IRS overrides, observability flags), so the
    result is identical whether this runs in the parent or a worker.
    ``observe`` (an :class:`ObservabilityConfig`) replaces the spec's
    ``spans``/``timeline`` flags and names the files to export; it
    changes what is captured, never the outcome.
    """
    METRICS.count('executor.runs')
    if observe is None and (spec.spans or spec.timeline):
        observe = ObservabilityConfig(spans=spec.spans,
                                      timeline=spec.timeline)
    fault_plan = parse_fault_plan(spec.faults) if spec.faults else None
    irs_config = IRSConfig(**dict(spec.irs)) if spec.irs else None

    if spec.kind in (CLUSTER, TRAFFIC):
        # Lazy imports: the cluster layer (and the traffic plane above
        # it) is optional for the classic single-machine pipeline and
        # pulls in the whole guest stack.
        if spec.kind == CLUSTER:
            from ..cluster.scenario import run_consolidation as run
            kwargs = dict(arrivals_per_sec=spec.arrivals_per_sec)
        else:
            from ..traffic.scenario import run_traffic as run
            kwargs = dict(
                open_loop=spec.open_loop, arrivals=spec.arrivals,
                rate_rps=spec.rate_rps, slo_p99_ms=spec.slo_p99_ms,
                router=spec.router, autoscale=spec.autoscale,
                max_replicas=spec.max_replicas,
                queue_capacity=spec.queue_capacity)
        summary = run(
            strategy=spec.strategy, placement=spec.placement,
            seed=spec.seed, n_hosts=spec.n_hosts, host_pcpus=spec.n_pcpus,
            capacity_vcpus=spec.capacity_vcpus, n_hog_vms=spec.n_hog_vms,
            hog_vcpus=spec.hog_vcpus, n_server_vms=spec.n_server_vms,
            server_vcpus=spec.fg_vcpus, rebalance=spec.rebalance,
            faults=spec.faults, observe=observe, **kwargs,
            **_window(spec))
        # A cluster run's object graph (simulator, hosts, replicas and
        # their latency samples) is held together by reference cycles,
        # so only the cyclic collector frees it. Most of it is still in
        # the young generations when the run returns: collecting them
        # now (under 1 ms against a 200 ms run) frees the graph before
        # the next run allocates, where otherwise it waits for the rare
        # full collection and a batch's resident set grows with every
        # run done.
        gc.collect(1)
        return RunOutcome(spec, throughput=summary['throughput'],
                          latency_summary=summary['latency'],
                          cluster=summary)

    if spec.kind == PROBE:
        kind, width, n_vms = spec.interference
        latency = run_migration_probe(n_vms if width else 0,
                                      seed=spec.seed, trigger=spec.trigger)
        return RunOutcome(spec, probe_latency_ns=latency)

    if spec.kind == SERVER:
        result = run_server(spec.app, spec.strategy,
                            n_hogs=spec.interference[1], seed=spec.seed,
                            n_pcpus=spec.n_pcpus, fg_vcpus=spec.fg_vcpus,
                            irs_config=irs_config, fault_plan=fault_plan,
                            observe=observe, **_window(spec))
        return RunOutcome(spec, throughput=result.throughput,
                          latency_summary=result.latency_summary,
                          metrics=result.metrics)

    kwargs = {}
    if spec.n_threads is not None:
        kwargs['n_threads'] = spec.n_threads
    if spec.timeout_ns is not None:
        kwargs['timeout_ns'] = spec.timeout_ns
    if spec.profile_mode is not None:
        kwargs['profile'] = profile_variant(get_profile(spec.app),
                                            mode=spec.profile_mode)
    result = run_parallel(spec.app, spec.strategy, spec.interference_spec,
                          seed=spec.seed, scale=spec.scale,
                          n_pcpus=spec.n_pcpus, fg_vcpus=spec.fg_vcpus,
                          pinned=spec.pinned, irs_config=irs_config,
                          fault_plan=fault_plan, observe=observe, **kwargs)
    sender = result.scenario.machine.sa_sender
    return RunOutcome(spec, makespan_ns=result.makespan_ns,
                      utilization=result.utilization,
                      bg_rates=result.bg_rates,
                      sa_delay_ns=(sender.delay_samples_ns
                                   if sender is not None else ()),
                      metrics=result.metrics)


class SerialExecutor:
    """Run a batch in-process, in order. ``observe`` (an
    :class:`ObservabilityConfig`) is handed to every run, e.g. to
    export each run's trace."""

    jobs = 1

    def __init__(self, observe=None):
        self.observe = observe

    def map(self, specs):
        outcomes = []
        for spec in specs:
            METRICS.count('executor.dispatched')
            started = time.monotonic_ns()  # replint: disable=determinism
            try:
                outcomes.append(execute_spec(spec, observe=self.observe))
            except Exception as exc:
                raise RunError(spec, exc) from exc
            finished = time.monotonic_ns()  # replint: disable=determinism
            wall_ns = finished - started
            METRICS.histogram('executor.run_wall_ns').record(wall_ns)
        return outcomes

    def __repr__(self):
        return '<SerialExecutor>'


class ParallelRunner:
    """Run a batch across worker processes.

    Results come back in submission order regardless of completion
    order, so a parallel batch is byte-identical to a serial one. A
    batch of one (or ``jobs=1``) short-circuits to the serial path —
    no pool, no pickling.

    ``wall_timeout`` (seconds, real time) arms a watchdog against hung
    workers: a spec whose result does not arrive within the window has
    its worker processes terminated and the pool rebuilt, the batch's
    uncollected specs are resubmitted, and the timed-out spec itself is
    retried **once** — a second timeout raises :class:`RunError` naming
    it. The watchdog needs real processes to kill, so an armed runner
    never short-circuits to the serial path.
    """

    def __init__(self, jobs=None, wall_timeout=None):
        if jobs is not None and jobs < 1:
            raise ValueError('jobs must be >= 1')
        if wall_timeout is not None and wall_timeout <= 0:
            raise ValueError('wall_timeout must be positive')
        self.jobs = jobs or os.cpu_count() or 1
        self.wall_timeout = wall_timeout
        # The worker entry point, swappable by tests that need a
        # controllable (e.g. deliberately hanging) workload.
        self._worker = execute_spec

    def map(self, specs):
        specs = list(specs)
        if ((self.jobs == 1 or len(specs) <= 1)
                and self.wall_timeout is None):
            return SerialExecutor().map(specs)
        workers = max(1, min(self.jobs, len(specs)))
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        try:
            futures, submitted = self._submit(pool, specs)
            outcomes = [None] * len(specs)
            retried = set()
            i = 0
            while i < len(specs):
                spec = specs[i]
                try:
                    outcomes[i] = futures[i].result(
                        timeout=self.wall_timeout)
                except concurrent.futures.TimeoutError as exc:
                    METRICS.count('executor.wall_timeouts')
                    self._kill_pool(pool)
                    if i in retried:
                        raise RunError(spec, TimeoutError(
                            'no result within %.1fs wall time (twice)'
                            % self.wall_timeout)) from exc
                    retried.add(i)
                    METRICS.count('executor.timeout_retries')
                    # Every uncollected spec's worker died with the old
                    # pool; resubmit them all (determinism makes the
                    # redone work exact, just wasted).
                    pool = concurrent.futures.ProcessPoolExecutor(
                        max_workers=workers)
                    futures[i:], submitted[i:] = self._submit(
                        pool, specs[i:])
                    continue
                except Exception as exc:
                    for pending in futures:
                        pending.cancel()
                    raise RunError(spec, exc) from exc
                finished = time.monotonic_ns()  # replint: disable=determinism
                # Wall time as seen from the parent: queue wait plus
                # the worker's run (the parent cannot see inside).
                wall_ns = finished - submitted[i]
                METRICS.histogram('executor.run_wall_ns').record(wall_ns)
                i += 1
            return outcomes
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def _submit(self, pool, specs):
        futures = []
        submitted = []
        for spec in specs:
            METRICS.count('executor.dispatched')
            now = time.monotonic_ns()  # replint: disable=determinism
            submitted.append(now)
            futures.append(pool.submit(self._worker, spec))
        return futures, submitted

    @staticmethod
    def _kill_pool(pool):
        """Terminate a pool whose worker hung: SIGTERM every worker
        process (a hung simulation never reaches a cooperative
        shutdown), then reap the executor without waiting."""
        processes = getattr(pool, '_processes', None) or {}
        for proc in list(processes.values()):
            proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)

    def __repr__(self):
        if self.wall_timeout is not None:
            return ('<ParallelRunner jobs=%d wall_timeout=%.1fs>'
                    % (self.jobs, self.wall_timeout))
        return '<ParallelRunner jobs=%d>' % self.jobs


def run_specs(specs, executor=None, cache=None):
    """Execute a batch of specs; returns outcomes in input order.

    Duplicated specs are executed once (determinism makes the shared
    outcome exact). ``executor`` maps the batch (None = in-process,
    serial); ``cache`` (a :class:`ResultCache`, None = uncached) serves
    any spec it has seen and stores the fresh outcomes.
    """
    if executor is None:
        executor = SerialExecutor()

    unique = []
    index = {}
    for spec in specs:
        if spec not in index:
            index[spec] = len(unique)
            unique.append(spec)

    outcomes = [None] * len(unique)
    misses = []
    for i, spec in enumerate(unique):
        cached = cache.load(spec) if cache is not None else None
        if cached is not None:
            outcomes[i] = cached
        else:
            misses.append(i)

    if misses:
        fresh = executor.map([unique[i] for i in misses])
        for i, outcome in zip(misses, fresh):
            outcomes[i] = outcome
            if cache is not None:
                cache.store(unique[i], outcome)

    return [outcomes[index[spec]] for spec in specs]


def run_spec(spec):
    """Execute one JSON-dialect spec dict (or a :class:`RunSpec`);
    returns its :class:`RunOutcome`."""
    if isinstance(spec, dict):
        spec = spec_from_dict(spec)
    return run_specs([spec])[0]


def run_spec_file(path, run=run_specs):
    """Run the spec (or list of specs) in a JSON file as one batch
    through ``run`` (e.g. :func:`run_specs` bound to an executor and a
    cache). Returns a list of ``(spec_dict, outcome)`` pairs."""
    import json
    with open(path) as handle:
        loaded = json.load(handle)
    spec_dicts = loaded if isinstance(loaded, list) else [loaded]
    outcomes = run([spec_from_dict(d) for d in spec_dicts])
    return list(zip(spec_dicts, outcomes))
