"""Host-time benchmark of the simulator, one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload parsec-block --seed 0 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md``): ``parsec-block`` (Figure 5
quick grid), ``npb-spin`` (Figure 6 quick grid) and ``serving-open``
(open-loop serving on the consolidated cluster). Every run goes through
``run_specs`` with a benchmark-owned executor that times each
``execute_spec`` call from outside; runs are serial, uncached, fault-free
and untraced.

With ``--trace 0`` the benchmark

1. times set-up (import of every ``repro`` layer plus building the spec
   batch) in fresh interpreters, once to warm the caches and then
   :data:`SETUP_PROBES` times, and reports the calibrated median;
2. runs whole passes of the batch until ``--seconds`` have passed (at
   least one), checking every pass's outcomes (``workloads.check_pass``)
   and timing a reference chunk around every run (``calibrate``).

With ``--trace 1`` it runs the same passes, then one more pass under
``cProfile`` in fresh interpreters, and reports the per-layer metrics.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import cProfile
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / 'src'
BASELINE = HERE / 'baseline.json'

SETUP_PROBES = 7
#: Concurrent interpreters the traced pass is split across.
TRACE_PARTS = 2
#: Whole-run budget: the traced pass is given what is left of it.
RUN_BUDGET_S = 170.0
#: A run percentile is reported only with >= 10 samples beyond it.
MIN_TAIL_SAMPLES = 10

END_TO_END = {
    'wall_ref_s': 's',
    'run_p50_ref_ms': 'ms',
    'setup_s': 's',
    'peak_rss_mb': 'MB',
    'sim_events': 'count',
}


def per_layer_units():
    """Name -> unit of every ``--trace 1`` metric, grouped by layer."""
    from layers import COUNTERS, LAYERS
    units = {'simkernel.ns_per_event': 'ns', 'simkernel.scheduled': 'count',
             'simkernel.fire_ratio': 'ratio'}
    for layer in LAYERS:
        units[layer + '.events'] = 'count'
        units[layer + '.self_s'] = 's'
    units.update(dict.fromkeys(COUNTERS, 'count'))
    units.update({
        'core.sa_completed_ratio': 'ratio',
        'traffic.requests': 'count',
        'traffic.shed_ratio': 'ratio',
        'traffic.host_us_per_request': 'us',
        'experiments.overhead_s': 's',
        'trace.overhead_x': 'x',
    })
    return units


class TimedExecutor:
    """Serial executor for ``run_specs`` that times each ``execute_spec``
    call from outside. A run that raises is recorded as a ``RunError``
    and yields a ``None`` outcome, so one failure does not end a pass.

    After each run it lets ``census`` collect the run's exact counts
    and, when ``calibrate`` is set, times one reference chunk (plus one
    before the first run, so every run lies between two chunks); the
    time spent on both is kept in :attr:`aside_s`, outside the pass."""

    jobs = 1

    def __init__(self, census=None, calibrate=False):
        self.census = census
        self.calibrate = calibrate
        self.run_s = []
        self.chunk_s = []
        self.aside_s = 0.0
        self.errors = []

    def map(self, specs):
        from calibrate import timed_chunk
        from repro.experiments.executor import RunError, execute_spec
        outcomes = []
        if self.calibrate and not self.chunk_s:
            begun = time.perf_counter()
            self.chunk_s.append(timed_chunk())
            self.aside_s += time.perf_counter() - begun
        for spec in specs:
            started = time.perf_counter()
            try:
                outcome = execute_spec(spec)
            except Exception as exc:  # noqa: BLE001 - counted as a failed run
                outcome = None
                self.errors.append(str(RunError(spec, exc)))
            finished = time.perf_counter()
            self.run_s.append(finished - started)
            if self.census is not None:
                self.census.collect()
            if self.calibrate:
                self.chunk_s.append(timed_chunk())
            self.aside_s += time.perf_counter() - finished
            outcomes.append(outcome)
        return outcomes


def run_pass(specs, census=None, expected_digest=None, calibrate=False):
    """One whole pass of ``specs``; returns its timings and checks.

    ``wall_s`` is the pass's host time without the executor's time
    aside. With ``calibrate``, ``ref_run_s`` and ``wall_ref_s`` are the
    same times at the reference speed: each run scaled by the mean of
    the chunks timed right before and after it, the rest of the pass by
    the median chunk."""
    from calibrate import calibrated
    from repro.experiments.executor import run_specs
    from workloads import check_pass, digest
    executor = TimedExecutor(census, calibrate)
    started = time.perf_counter()
    outcomes = run_specs(specs, executor=executor, cache=None)
    wall_s = time.perf_counter() - started - executor.aside_s
    failed, problems, records = check_pass(outcomes, expected_digest)
    served = [o.cluster for o in outcomes if o is not None and o.cluster]
    result = {
        'wall_s': wall_s,
        'run_s': executor.run_s,
        'runs': len(specs),
        'failed': failed,
        'problems': executor.errors + problems,
        'records': records,
        'digest': digest(records),
        'requests': sum(s['injected'] for s in served),
        'shed': sum(s['shed'] for s in served),
    }
    if calibrate:
        chunks = executor.chunk_s
        ref_run_s = [calibrated(run, (before + after) / 2)
                     for run, before, after in zip(executor.run_s, chunks,
                                                   chunks[1:])]
        result['chunk_s'] = statistics.median(chunks)
        result['ref_run_s'] = ref_run_s
        result['wall_ref_s'] = sum(ref_run_s) + calibrated(
            wall_s - sum(executor.run_s), result['chunk_s'])
    return result


def use_checkout():
    """Make the checkout's ``repro`` package and the benchmark's own
    modules importable; exit with an error when there is no ``repro``."""
    if not (SRC / 'repro' / '__init__.py').is_file():
        sys.exit('perfbench: no repro package under %s' % SRC)
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def import_layers():
    """Import every ``repro`` layer (part of what set-up measures)."""
    from layers import LAYERS
    for layer in LAYERS:
        importlib.import_module('repro.' + layer)


def load_baseline(workload, seed, limit):
    """The stored default-seed record for ``workload``, when it applies
    to this run (default seed, whole batch), else None."""
    if limit or not BASELINE.is_file():
        return None
    stored = json.loads(BASELINE.read_text())
    if seed != stored['seed']:
        return None
    return stored['workloads'].get(workload)


# ----------------------------------------------------------------------
# Probes: each runs in a fresh interpreter started by the parent run.
# ----------------------------------------------------------------------

def setup_probe(args):
    """Set-up time as measured and calibrated by chunks around it."""
    from calibrate import calibrated, reference_chunk, timed_chunk
    reference_chunk()                       # untimed: warms the chunk
    before = timed_chunk()
    started = time.perf_counter()
    import_layers()
    from workloads import build_batch
    build_batch(args.workload, args.seed, args.limit)
    setup_s = time.perf_counter() - started
    after = timed_chunk()
    print(json.dumps([setup_s, calibrated(setup_s, (before + after) / 2)]))


def traced_probe(args):
    """Part ``args.part`` of the traced pass: every ``TRACE_PARTS``-th
    spec, profiled from set-up on."""
    profiler = cProfile.Profile()
    profiler.enable()
    import_layers()
    from workloads import build_batch
    specs = build_batch(args.workload, args.seed, args.limit)
    result = run_pass(specs[args.part::TRACE_PARTS])
    profiler.disable()
    profiler.create_stats()
    from layers import attribute_profile
    result.update(attribute_profile(profiler.stats))
    print(json.dumps(result))


def _probe_command(args, probe, part=None):
    command = [sys.executable, str(HERE / 'run.py'), '--probe', probe,
               '--workload', args.workload, '--seed', str(args.seed)]
    if args.limit:
        command += ['--limit', str(args.limit)]
    if part is not None:
        command += ['--part', str(part)]
    return command


def _last_json_line(probe, returncode, stdout, stderr):
    if returncode != 0:
        raise RuntimeError('%s probe failed:\n%s' % (probe, stderr))
    return json.loads(stdout.strip().splitlines()[-1])


def run_probe(args, probe, timeout):
    done = subprocess.run(_probe_command(args, probe), cwd=str(ROOT),
                          capture_output=True, text=True, timeout=timeout,
                          check=False)
    return _last_json_line(probe, done.returncode, done.stdout, done.stderr)


def run_traced(args, timeout):
    """The traced pass, split across ``TRACE_PARTS`` concurrent
    interpreters to bound its time; parts are merged back in batch
    order. ``wall_s`` is the parts' summed host time."""
    deadline = time.perf_counter() + timeout
    procs = [subprocess.Popen(_probe_command(args, 'traced', part),
                              cwd=str(ROOT), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for part in range(TRACE_PARTS)]
    try:
        parts = []
        for proc in procs:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, deadline - time.perf_counter()))
            parts.append(_last_json_line('traced', proc.returncode,
                                         stdout, stderr))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    from workloads import digest
    records = [None] * sum(p['runs'] for p in parts)
    for part, result in enumerate(parts):
        records[part::TRACE_PARTS] = result['records']
    merged = {'digest': digest(records),
              'problems': _pooled(parts, 'problems')}
    for key in ('wall_s', 'runs', 'failed'):
        merged[key] = sum(p[key] for p in parts)
    for key in ('self_s', 'events'):
        merged[key] = {layer: sum(p[key][layer] for p in parts)
                       for layer in parts[0][key]}
    return merged


# ----------------------------------------------------------------------
# The measured run.
# ----------------------------------------------------------------------

def measure_setup(args):
    """Median raw and calibrated set-up time over fresh interpreters."""
    run_probe(args, 'setup', timeout=60)   # warms the file and bytecode caches
    probes = [run_probe(args, 'setup', timeout=60)
              for __ in range(SETUP_PROBES)]
    return tuple(statistics.median(values) for values in zip(*probes))


def measure_passes(args, expected_digest):
    """Untraced, calibrated passes until ``--seconds`` have passed (at
    least one). Every pass must repeat the first one's digest and exact
    counts."""
    from layers import SimulatorCensus
    from workloads import build_batch
    specs = build_batch(args.workload, args.seed, args.limit)
    passes = []
    with SimulatorCensus() as census:
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < args.seconds:
            census.reset()
            result = run_pass(specs, census, expected_digest, calibrate=True)
            result['totals'] = census.totals()
            if passes and (result['digest'], result['totals']) != (
                    passes[0]['digest'], passes[0]['totals']):
                result['problems'].append('pass differs from the first pass')
                result['failed'] = result['runs']
            passes.append(result)
    return passes


def _median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def _pooled(passes, key):
    return [value for p in passes for value in p[key]]


def end_to_end_metrics(passes, setup):
    return {
        'wall_ref_s': _median_of(passes, 'wall_ref_s'),
        'run_p50_ref_ms': statistics.median(_pooled(passes, 'ref_run_s'))
        * 1e3,
        'setup_s': setup[1],
        'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        'sim_events': passes[0]['totals']['events'],
    }


def raw_time_lines(passes, setup):
    """Host times as measured, before calibration: printed for reading,
    not part of the JSON result (see README, "Calibration")."""
    lines = {'wall_s': (_median_of(passes, 'wall_s'), 's'),
             'run_p50_ms': (statistics.median(_pooled(passes, 'run_s'))
                            * 1e3, 'ms'),
             'chunk_ms': (_median_of(passes, 'chunk_s') * 1e3, 'ms')}
    if setup is not None:
        lines['setup_raw_s'] = (setup[0], 's')
    if passes[0]['runs'] >= MIN_TAIL_SAMPLES * 10:
        for key, name in (('run_s', 'run_p90_ms'),
                          ('ref_run_s', 'run_p90_ref_ms')):
            values = _pooled(passes, key)
            lines[name] = (statistics.quantiles(values, n=10)[-1] * 1e3,
                           'ms')
    return lines


def per_layer_metrics(passes, traced):
    from layers import COUNTERS, LAYERS
    first = passes[0]
    totals = first['totals']
    counters = totals['counters']
    requests = first['requests']
    metrics = {
        'simkernel.ns_per_event': _median_of(passes, 'wall_ref_s') * 1e9
        / totals['events'],
        'simkernel.scheduled': totals['scheduled'],
        'simkernel.fire_ratio': totals['events'] / totals['scheduled'],
    }
    for layer in LAYERS:
        metrics[layer + '.events'] = traced['events'][layer]
        metrics[layer + '.self_s'] = traced['self_s'][layer]
    for name, counter in COUNTERS.items():
        metrics[name] = counters.get(counter, 0)
    sent = counters.get('irs.sa_sent', 0)
    metrics['core.sa_completed_ratio'] = (
        counters.get('irs.context_switches', 0) / sent if sent else 0.0)
    metrics['traffic.requests'] = requests
    metrics['traffic.shed_ratio'] = (first['shed'] / requests
                                     if requests else 0.0)
    # With no requests the denominator is 1: the layer's fixed cost.
    metrics['traffic.host_us_per_request'] = (
        traced['self_s']['traffic'] * 1e6 / max(1, requests))
    metrics['experiments.overhead_s'] = statistics.median(
        p['wall_s'] - sum(p['run_s']) for p in passes)
    metrics['trace.overhead_x'] = traced['wall_s'] / _median_of(passes,
                                                                'wall_s')
    return metrics


def report(args, passes, setup, metrics, units, problems, baseline):
    print('perfbench %s seed=%d: %d pass(es) of %d runs'
          % (args.workload, args.seed, len(passes), passes[0]['runs']))
    lines = {name: (value, units[name]) for name, value in metrics.items()}
    lines.update(raw_time_lines(passes, setup))
    for name, (value, unit) in lines.items():
        print('  %-32s %18s %s' % (name, _fmt(value), unit))
    if baseline is not None:
        for name, stored in baseline['counts'].items():
            if name in metrics and metrics[name] != stored:
                print('  count %s moved: %d -> %d (%+d)'
                      % (name, stored, metrics[name], metrics[name] - stored))
    for problem in problems:
        print('  FAILED CHECK: %s' % problem)


def _fmt(value):
    return str(value) if isinstance(value, int) else '%.6g' % value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True,
                        choices=('parsec-block', 'npb-spin', 'serving-open'))
    parser.add_argument('--seed', type=int, default=0)
    parser.add_argument('--seconds', type=float, default=10.0)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--limit', type=int, default=None,
                        help='run only the first LIMIT specs of the batch '
                             '(a fast slice; the stored digest is skipped)')
    parser.add_argument('--probe', choices=('setup', 'traced'),
                        help=argparse.SUPPRESS)
    parser.add_argument('--part', type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_checkout()
    if args.probe == 'setup':
        return setup_probe(args)
    if args.probe == 'traced':
        return traced_probe(args)

    begun = time.perf_counter()
    setup = None if args.trace else measure_setup(args)
    baseline = load_baseline(args.workload, args.seed, args.limit)
    passes = measure_passes(args, baseline and baseline['digest'])
    attempted = sum(p['runs'] for p in passes)
    failed = sum(p['failed'] for p in passes)
    problems = _pooled(passes, 'problems')

    if args.trace:
        timeout = max(10.0, RUN_BUDGET_S - (time.perf_counter() - begun))
        traced = run_traced(args, timeout)
        attempted += traced['runs']
        failed += traced['failed']
        problems += traced['problems']
        if traced['digest'] != passes[0]['digest']:
            problems.append('traced outcomes differ from untraced ones')
            failed += traced['runs'] - traced['failed']
        dispatched = sum(traced['events'].values())
        if dispatched != passes[0]['totals']['events']:
            problems.append('profiled dispatches %d != events fired %d'
                            % (dispatched, passes[0]['totals']['events']))
        metrics = per_layer_metrics(passes, traced)
        units = per_layer_units()
    else:
        metrics = end_to_end_metrics(passes, setup)
        units = END_TO_END

    report(args, passes, setup, metrics, units, problems, baseline)
    print(json.dumps({
        'correct': failed == 0 and not problems,
        'attempted': attempted,
        'failed': failed,
        'metrics': {name: {'value': value, 'unit': units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
