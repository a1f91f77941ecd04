"""Command-line entry point for the reproduction harness.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig5
    python -m repro.experiments fig6 --full
    python -m repro.experiments all --out results.txt --jobs 4
    python -m repro.experiments fig5 --no-cache
    python -m repro.experiments my_experiment.json     # declarative spec
"""

import argparse
import inspect
import os
import sys
import time

from ..faults import CAMPAIGNS, parse_fault_plan
from .cache import DEFAULT_CACHE_DIR, ResultCache, pipeline_counters
from .executor import ParallelRunner, SerialExecutor, run_spec_file, run_specs
from .figures import ALL_FIGURES
from .harness import ObservabilityConfig
from .reporting import format_table
from .strategies import ALL_STRATEGIES, EXTENSION_STRATEGIES


def _run_one(name, quick, stream, run, strategy=None, arrivals=None,
             rate_rps=None, slo_p99_ms=None):
    figure_fn = ALL_FIGURES[name]
    accepted = inspect.signature(figure_fn).parameters
    kwargs = {'quick': quick, 'run': run}
    # Axis flags apply only where the driver takes them ('all' runs
    # mixed batches, so unknown kwargs are skipped, not errors).
    for key, value in (('strategy', strategy), ('arrivals', arrivals),
                       ('rate_rps', rate_rps), ('slo_p99_ms', slo_p99_ms)):
        if value is not None and key in accepted:
            kwargs[key] = value
    # Wall-clock elapsed display for the operator; never feeds
    # simulation state.  # replint: disable=determinism
    started = time.time()
    result = figure_fn(**kwargs)
    elapsed = time.time() - started  # replint: disable=determinism
    print(result.table(), file=stream)
    for warning in getattr(result, 'warnings', ()):
        print(warning, file=stream)
    print('(%s: %d rows in %.1fs wall)' % (name, len(result.rows), elapsed),
          file=stream)
    print(file=stream)
    return result


def _run_specs(path, run):
    rows = []
    for spec, outcome in run_spec_file(path, run=run):
        rows.append([
            spec.get('name', spec['app']),
            outcome.strategy,
            ('%.1f' % (outcome.makespan_ns / 1e6)
             if outcome.completed else 'TIMEOUT'),
            '%.3f' % outcome.utilization,
        ])
    print(format_table(
        ['experiment', 'strategy', 'makespan (ms)', 'util/fair-share'],
        rows, title='Spec results: %s' % path))
    return 0


def _resolve_jobs(args, parser):
    """--jobs, falling back to the REPRO_JOBS environment variable."""
    jobs = args.jobs
    source = '--jobs'
    if jobs is None:
        env = os.environ.get('REPRO_JOBS', '').strip()
        if env:
            source = 'REPRO_JOBS'
            try:
                jobs = int(env)
            except ValueError:
                parser.error('REPRO_JOBS must be an integer, got %r' % env)
    if jobs is None:
        return 1
    if jobs < 1:
        parser.error('%s must be >= 1, got %d' % (source, jobs))
    for flag, value in (('--trace-out', args.trace_out),
                        ('--events-out', args.events_out),
                        ('--metrics-out', args.metrics_out)):
        if jobs > 1 and value:
            parser.error(
                '%s=%d cannot be combined with %s: observability rings '
                'live in each worker process, so the exported file would '
                'be empty; rerun serially (--jobs 1) to capture it'
                % (source, jobs, flag))
    return jobs


def _batch_runner(args, jobs, faults, observe):
    """The one place the flags become a batch runner: a function from a
    list of specs to their outcomes, handed to every figure driver.

    ``--faults`` fills ``faults`` on every spec that names no campaign
    of its own, so workers and cache keys see it. Exports (``observe``)
    are files written by the process that runs the simulation, and a
    cache hit would skip them, so those batches run in-process and
    uncached."""
    if observe is not None:
        executor, cache = SerialExecutor(observe=observe), None
    else:
        executor = None
        if jobs > 1 or args.wall_timeout is not None:
            executor = ParallelRunner(jobs=jobs,
                                      wall_timeout=args.wall_timeout)
        cache = ResultCache() if args.cache else None

    def run(specs):
        if faults is not None:
            specs = [spec if spec.faults is not None
                     else spec.replace(faults=faults) for spec in specs]
        return run_specs(specs, executor=executor, cache=cache)
    return run


def _list_experiments():
    """The ``list`` subcommand: every runnable figure, plus the axes
    (strategies, placement policies, fault campaigns) runs vary over."""
    from ..cluster import PLACEMENT_POLICIES

    def first_doc_line(obj):
        return (obj.__doc__ or '').strip().splitlines()[0]

    print('figures (python -m repro.experiments <name>):')
    for name, fn in ALL_FIGURES.items():
        print('  %-22s %s' % (name, first_doc_line(fn)))
    print()
    print('strategies (--strategy):')
    for name in ALL_STRATEGIES + EXTENSION_STRATEGIES:
        print('  %s' % name)
    print()
    print('cluster placement policies (cluster-consolidation):')
    for name, policy in sorted(PLACEMENT_POLICIES.items()):
        print('  %-22s %s' % (name, first_doc_line(policy)))
    print()
    print('fault campaigns (--faults):')
    for name, factory in sorted(CAMPAIGNS.items()):
        print('  %-22s %s' % (name, factory().description))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog='python -m repro.experiments',
        description='Regenerate the evaluation figures of "Scheduler '
                    'Activations for Interference-Resilient SMP Virtual '
                    'Machine Scheduling" (Middleware 2017).')
    parser.add_argument('figure', nargs='?',
                        help="figure name (e.g. fig5), 'all', 'list', or "
                             'a path to a JSON experiment spec')
    parser.add_argument('--full', action='store_true',
                        help='3 seeds at full workload scale (slow); '
                             'default is 1 seed at reduced scale')
    parser.add_argument('--quick', action='store_true',
                        help='1 seed at reduced scale (the default, '
                             'spelled out for scripts and CI steps)')
    parser.add_argument('--out', metavar='FILE',
                        help='append tables to FILE instead of stdout')
    parser.add_argument('--jobs', type=int, metavar='N',
                        help='run simulations across N worker processes '
                             '(deterministic: results are ordered and '
                             'bit-identical to --jobs 1); defaults to '
                             'the REPRO_JOBS environment variable, else 1')
    parser.add_argument('--wall-timeout', type=float, metavar='SECONDS',
                        dest='wall_timeout',
                        help='kill and retry (once) any single run whose '
                             'worker produces no result within SECONDS of '
                             'real time; a second timeout fails the batch '
                             'naming the hung spec. Implies worker '
                             'processes even with --jobs 1, so it cannot '
                             'be combined with the export flags')
    parser.add_argument('--cache', action=argparse.BooleanOptionalAction,
                        default=True,
                        help='reuse cached run results from %s, keyed by '
                             'spec + source fingerprint (default: '
                             'enabled; --no-cache forces fresh runs)'
                             % DEFAULT_CACHE_DIR)
    parser.add_argument('--trace-out', metavar='FILE', dest='trace_out',
                        help='export a Chrome trace-event JSON timeline '
                             '(open at https://ui.perfetto.dev or '
                             'chrome://tracing) to FILE; enables span '
                             'probes and timeline sampling. The file is '
                             'rewritten per run, so for multi-run figures '
                             'the last run wins. Serial only (--jobs 1)')
    parser.add_argument('--events-out', metavar='FILE', dest='events_out',
                        help='export the cluster health event log as '
                             'JSONL to FILE (cluster figures only; the '
                             'cluster-health report can be rebuilt from '
                             'this file alone). Rewritten per run, so '
                             'for multi-run figures the last run wins. '
                             'Serial only (--jobs 1)')
    parser.add_argument('--metrics-out', metavar='FILE', dest='metrics_out',
                        help='export a Prometheus-style text exposition '
                             'snapshot of the run metrics to FILE. '
                             'Rewritten per run, so for multi-run '
                             'figures the last run wins. Serial only '
                             '(--jobs 1)')
    parser.add_argument('--strategy', metavar='NAME',
                        help='scheduling strategy for drivers that take '
                             "one (e.g. sa-latency): %s"
                             % ', '.join(ALL_STRATEGIES
                                         + EXTENSION_STRATEGIES))
    parser.add_argument('--arrivals', metavar='KIND',
                        help='arrival process for the traffic-slo figure '
                             '(poisson, bursty, diurnal)')
    parser.add_argument('--rps', type=int, metavar='N', dest='rate_rps',
                        help='offered load in requests/second for the '
                             'traffic-slo figure (default 4000)')
    parser.add_argument('--slo-p99', type=float, metavar='MS',
                        dest='slo_p99_ms',
                        help='p99 latency target in milliseconds for the '
                             'traffic-slo figure (default 20)')
    parser.add_argument('--faults', metavar='CAMPAIGN',
                        help='run every experiment under a named fault '
                             "campaign (comma-separated to combine, e.g. "
                             "'sa-loss-30' or 'sa-loss-10,flaky-migrator-20'"
                             "); 'list' prints the registry")
    args = parser.parse_args(argv)

    if args.quick and args.full:
        parser.error('--quick and --full are mutually exclusive')
    if args.faults == 'list':
        for name, factory in sorted(CAMPAIGNS.items()):
            print('%-18s %s' % (name, factory().description))
        return 0
    faults = None
    if args.faults:
        try:
            if parse_fault_plan(args.faults) is not None:
                faults = args.faults
        except ValueError as exc:
            parser.error('%s; --faults=list shows the registry' % exc)
    jobs = _resolve_jobs(args, parser)
    exports = (('--trace-out', args.trace_out),
               ('--events-out', args.events_out),
               ('--metrics-out', args.metrics_out))
    for flag, path in exports:
        if not path:
            continue
        if args.wall_timeout is not None:
            parser.error(
                '--wall-timeout cannot be combined with %s: exports run '
                'in-process, where no watchdog can kill a hung run; drop '
                'one of the two' % flag)
        try:
            # Fail fast with a clean parser error (permissions, missing
            # directory) instead of a traceback after minutes of runs.
            with open(path, 'a'):
                pass
        except OSError as exc:
            parser.error('cannot write %s file: %s' % (flag, exc))
    observe = None
    if any(path for __, path in exports):
        observe = ObservabilityConfig(trace_out=args.trace_out,
                                      events_out=args.events_out,
                                      metrics_out=args.metrics_out)
    if args.strategy is not None:
        known = ALL_STRATEGIES + EXTENSION_STRATEGIES
        if args.strategy not in known:
            parser.error('unknown strategy %r (want one of %s)'
                         % (args.strategy, ', '.join(known)))
    if args.arrivals is not None:
        from ..traffic.arrivals import ARRIVAL_KINDS
        if args.arrivals not in ARRIVAL_KINDS:
            parser.error('unknown arrival process %r (want one of %s)'
                         % (args.arrivals, ', '.join(ARRIVAL_KINDS)))
    if args.rate_rps is not None and args.rate_rps < 1:
        parser.error('--rps must be >= 1, got %d' % args.rate_rps)
    if args.slo_p99_ms is not None and args.slo_p99_ms <= 0:
        parser.error('--slo-p99 must be positive, got %g'
                     % args.slo_p99_ms)
    if args.figure is None:
        parser.error('the following arguments are required: figure')
    if args.wall_timeout is not None and args.wall_timeout <= 0:
        parser.error('--wall-timeout must be positive, got %g'
                     % args.wall_timeout)

    if args.figure == 'list':
        return _list_experiments()

    run = _batch_runner(args, jobs, faults, observe)
    if args.figure.endswith('.json'):
        return _run_specs(args.figure, run)

    # Accept dashed aliases (sa-latency == sa_latency).
    figure = args.figure.replace('-', '_')
    names = list(ALL_FIGURES) if figure == 'all' else [figure]
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        parser.error('unknown figure %s; try: %s'
                     % (', '.join(unknown), ', '.join(ALL_FIGURES)))

    stream = sys.stdout
    handle = None
    if args.out:
        handle = open(args.out, 'a')
        stream = handle
    try:
        for name in names:
            _run_one(name, quick=not args.full, stream=stream, run=run,
                     strategy=args.strategy, arrivals=args.arrivals,
                     rate_rps=args.rate_rps, slo_p99_ms=args.slo_p99_ms)
        if args.cache:
            counters = pipeline_counters()
            print('(runcache: %d hits, %d misses)'
                  % (counters.get('runcache.hit', 0),
                     counters.get('runcache.miss', 0)), file=stream)
    finally:
        if handle is not None:
            handle.close()
    return 0


if __name__ == '__main__':
    sys.exit(main())
