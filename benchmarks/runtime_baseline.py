"""Timing harness for the run cache, the replint sweep, the perfbench
workloads and the end-to-end wall times.

Times each quick figure through a cold and then a warm result cache in
a fresh interpreter (the warm pass must dispatch no run) and one
replint sweep, records one default-seed ``perfbench/run.py`` pass per
workload (the calibrated ``wall_ref_s``/``run_p50_ref_ms`` record the
simulator's hot path), times the serial ``--no-cache`` quick CLI runs
of fig5 and fig6 and the tier-1 suite, and writes
``BENCH_runtimes.json`` at the repo root.

Each figure's ``cache_cold_s`` and each end-to-end time is recorded as
``{"parent": ..., "change": ..., "runs": N}``: the median of N runs
(``--rounds``, default 1) of this checkout and, with ``--parent DIR``,
of DIR, a checkout of the parent commit (made with ``git archive``),
alternating the two each round so both are measured on the same host
under the same load. Without ``--parent``, ``parent`` is null. A
figure's ``cache_warm_s`` is the median over this checkout's runs.

Not collected by pytest (no ``test_`` prefix); run directly:

    PYTHONPATH=src python benchmarks/runtime_baseline.py \
        [--parent DIR] [--rounds N]
"""

import argparse
import functools
import json
import os
import platform
import statistics
import subprocess
import sys
import time

#: Recorded figure -> its driver in ``repro.experiments.figures``.
FIGURES = {
    'fig1a': 'fig1a',
    'fig10-quick': 'fig10',
    'sa_overhead': 'sa_overhead',
    'cluster-consolidation': 'cluster_consolidation',
    'cluster-resilience': 'cluster_resilience',
    'traffic-slo': 'traffic_slo',
}

#: Run in a checkout's fresh interpreter with the driver's name as its
#: argument: one serial quick pass of the driver through a cold and
#: then a warm result cache. Prints the two host times and the runs
#: the warm pass dispatched.
_FIGURE_PASS = """
import functools, sys, tempfile, time
from repro.experiments import ResultCache, figures, pipeline_counters, run_specs
driver = getattr(figures, sys.argv[1])

def timed(cache):
    start = time.perf_counter()
    driver(quick=True, run=functools.partial(run_specs, cache=cache))
    return time.perf_counter() - start

with tempfile.TemporaryDirectory() as tmp:
    cache = ResultCache(root=tmp)
    cold = timed(cache)
    before = pipeline_counters().get('executor.dispatched', 0)
    warm = timed(cache)
    dispatched = pipeline_counters().get('executor.dispatched', 0) - before
print(cold, warm, dispatched)
"""


#: Wall-time budget for one full repro-lint sweep (all five passes over
#: ``src/repro``). The lint gates CI ahead of the test suite, so it must
#: stay a few seconds at most; breaching this is a hard error here.
REPLINT_BUDGET_S = 5.0


def measure_replint(budget_s=REPLINT_BUDGET_S):
    """Time one full ``tools.replint`` sweep — all registered passes
    over ``src/repro`` with the checked-in baseline applied — and fail
    if it exceeds the CI fail-first budget or reports active findings."""
    repo_root = os.path.join(os.path.dirname(__file__), '..')
    if os.path.abspath(repo_root) not in (os.path.abspath(p)
                                          for p in sys.path):
        sys.path.insert(0, repo_root)
    from tools.replint import run_passes

    src_root = os.path.join(repo_root, 'src')
    baseline = os.path.join(repo_root, 'tools', 'replint', 'baseline.json')
    start = time.perf_counter()
    findings, _ = run_passes(src_root, baseline_path=baseline)
    wall = time.perf_counter() - start
    active = [f for f in findings if f.active]
    if active:
        raise AssertionError(
            'replint found %d active finding(s) during benchmarking'
            % len(active))
    if wall > budget_s:
        raise AssertionError(
            'replint sweep took %.2fs, over the %.1fs budget'
            % (wall, budget_s))
    return {
        'replint_s': round(wall, 4),
        'budget_s': budget_s,
        'findings_total': len(findings),
    }


#: perfbench workloads and the end-to-end metrics recorded for each.
PERFBENCH_WORKLOADS = ('parsec-block', 'npb-spin', 'serving-open')
PERFBENCH_METRICS = ('wall_ref_s', 'run_p50_ref_ms', 'sim_events')


def measure_perfbench():
    """Run ``perfbench/run.py --seed 0 --seconds 1 --trace 0`` in this
    checkout for each workload and keep :data:`PERFBENCH_METRICS` from
    its last line (the JSON result)."""
    root = os.path.join(os.path.dirname(__file__), '..')
    results = {}
    for workload in PERFBENCH_WORKLOADS:
        out = subprocess.run(
            [sys.executable, 'perfbench/run.py', '--workload', workload,
             '--seed', '0', '--seconds', '1', '--trace', '0'],
            cwd=root, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.splitlines()[-1])
        if not result['correct'] or result['failed']:
            raise AssertionError(f'perfbench {workload}: outputs not correct')
        results[workload] = {name: round(result['metrics'][name]['value'], 4)
                             for name in PERFBENCH_METRICS}
        print(f'perfbench {workload}: {results[workload]}')
    return results


#: End-to-end wall times: name -> command run from a checkout's root.
END_TO_END = {
    'fig5_quick_s': ['-m', 'repro.experiments', 'fig5', '--quick',
                     '--no-cache', '--jobs', '1'],
    'fig6_quick_s': ['-m', 'repro.experiments', 'fig6', '--quick',
                     '--no-cache', '--jobs', '1'],
    'tier1_s': ['-m', 'pytest', '-x', '-q', '-p', 'no:cacheprovider'],
}


def _run(root, args, stdout=subprocess.DEVNULL):
    """Run ``args`` from ``root`` with its ``src`` on ``PYTHONPATH``;
    return the process (its output, with ``stdout=subprocess.PIPE``)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, 'src'))
    env.pop('REPRO_JOBS', None)
    return subprocess.run([sys.executable] + args, cwd=root, env=env,
                          check=True, stdout=stdout, text=True)


def _time_command(root, args):
    """Host seconds of one run of ``args`` from ``root``."""
    start = time.perf_counter()
    _run(root, args)
    return time.perf_counter() - start


def _paired(roots, rounds, measure_one, digits):
    """``{"parent", "change", "runs"}``: the median of ``rounds`` values
    of ``measure_one(root)`` per checkout in ``roots``, the two
    alternating in order each round (``parent`` is None when no parent
    checkout is given)."""
    values = {'change': [], 'parent': []}
    for i in range(rounds):
        order = ('parent', 'change') if i % 2 == 0 else ('change', 'parent')
        for side in order:
            if roots[side] is not None:
                values[side].append(measure_one(roots[side]))
    result = {side: round(statistics.median(v), digits) if v else None
              for side, v in values.items()}
    result['runs'] = rounds
    return result


def measure_end_to_end(roots, rounds):
    """``{name: {"parent", "change", "runs"}}`` for each
    :data:`END_TO_END` command, in host seconds."""
    results = {}
    for name, args in END_TO_END.items():
        results[name] = _paired(
            roots, rounds, functools.partial(_time_command, args=args), 2)
        print(f'{name}: {results[name]}')
    return results


def measure_figures(roots, rounds):
    """Each of :data:`FIGURES` through a cold and a warm cache, and one
    replint sweep. Raises if a warm pass dispatched a run."""
    results = {}
    for name, driver in FIGURES.items():
        warm = []

        def cold(root):
            out = _run(root, ['-c', _FIGURE_PASS, driver],
                       stdout=subprocess.PIPE).stdout
            cold_s, warm_s, dispatched = out.split()
            if int(dispatched):
                raise AssertionError(
                    f'{name}: warm cache pass dispatched {dispatched} runs')
            if root == roots['change']:
                warm.append(float(warm_s))
            return float(cold_s)
        results[name] = {'cache_cold_s': _paired(roots, rounds, cold, 4),
                         'cache_warm_s': round(statistics.median(warm), 4)}
        print(f'{name}: {results[name]}')
    results['replint'] = measure_replint()
    print(f"replint: {results['replint']}")
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument('--out', default=os.path.join(
        os.path.dirname(__file__), '..', 'BENCH_runtimes.json'))
    parser.add_argument('--parent', metavar='DIR',
                        help='a checkout of the parent commit: time the '
                             'end-to-end runs there too')
    parser.add_argument('--rounds', type=int, default=1,
                        help='end-to-end and figure runs per checkout '
                             '(median kept)')
    args = parser.parse_args(argv)
    roots = {
        'change': os.path.abspath(os.path.join(os.path.dirname(__file__),
                                               '..')),
        'parent': os.path.abspath(args.parent) if args.parent else None}
    end_to_end = measure_end_to_end(roots, args.rounds)

    payload = {
        'harness': 'benchmarks/runtime_baseline.py',
        'python': platform.python_version(),
        'cpu_count': os.cpu_count(),
        'figures': measure_figures(roots, args.rounds),
        'perfbench': measure_perfbench(),
        'end_to_end': end_to_end,
    }
    with open(args.out, 'w') as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write('\n')
    print(f'wrote {os.path.abspath(args.out)}')
    return 0


if __name__ == '__main__':
    raise SystemExit(main())
