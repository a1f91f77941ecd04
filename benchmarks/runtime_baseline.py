"""Timing harness for the run cache, the replint sweep, the perfbench
workloads and the end-to-end wall times.

Times each quick figure through a cold and then a warm result cache
(the warm pass must dispatch no run) and one replint sweep, records one
default-seed ``perfbench/run.py`` pass per workload (the calibrated
``wall_ref_s``/``run_p50_ref_ms`` record the simulator's hot path),
times the serial ``--no-cache`` quick CLI runs of fig5 and fig6 and the
tier-1 suite, and writes ``BENCH_runtimes.json`` at the repo root.

Each end-to-end time is recorded as ``{"parent": ..., "change": ...,
"runs": N}``: the median of N runs (``--rounds``, default 1) of this
checkout and, with ``--parent DIR``, of DIR, a checkout of the parent
commit (made with ``git archive``), alternating the two each round so
both are measured on the same host under the same load. Without
``--parent``, ``parent`` is null.

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
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), '..', 'src'))

from repro.experiments import (            # noqa: E402
    ResultCache,
    pipeline_counters,
    run_specs,
)
from repro.experiments.figures import (    # noqa: E402
    cluster_consolidation,
    cluster_resilience,
    fig1a,
    fig10,
    sa_overhead,
    traffic_slo,
)

FIGURES = {
    'fig1a': fig1a,
    'fig10-quick': fig10,
    'sa_overhead': sa_overhead,
    'cluster-consolidation': cluster_consolidation,
    'cluster-resilience': cluster_resilience,
    'traffic-slo': traffic_slo,
}


def _timed(driver, cache):
    """Host seconds of one serial quick ``driver`` pass through
    ``run_specs`` with the given cache."""
    run = functools.partial(run_specs, cache=cache)
    start = time.perf_counter()
    driver(quick=True, run=run)
    return round(time.perf_counter() - start, 4)


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


def _time_command(root, args):
    """Host seconds of one run of ``args`` from ``root`` with its
    ``src`` on ``PYTHONPATH``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, 'src'))
    env.pop('REPRO_JOBS', None)
    start = time.perf_counter()
    subprocess.run([sys.executable] + args, cwd=root, env=env,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_end_to_end(change, parent, rounds):
    """``{name: {"parent", "change", "runs"}}`` for each
    :data:`END_TO_END` command: the median host seconds of ``rounds``
    serial runs per checkout, the two alternating in order each round
    (``parent`` is None when no parent checkout is given)."""
    roots = {'change': change, 'parent': parent}
    results = {}
    for name, args in END_TO_END.items():
        times = {'change': [], 'parent': []}
        for i in range(rounds):
            order = ('parent', 'change') if i % 2 == 0 else (
                'change', 'parent')
            for side in order:
                if roots[side] is not None:
                    times[side].append(_time_command(roots[side], args))
        results[name] = {
            side: round(statistics.median(values), 2) if values else None
            for side, values in times.items()}
        results[name]['runs'] = rounds
        print(f'{name}: {results[name]}')
    return results


def measure():
    results = {}
    for name, driver in FIGURES.items():
        entry = {}
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(root=tmp)
            entry['cache_cold_s'] = _timed(driver, cache=cache)
            before = pipeline_counters()
            entry['cache_warm_s'] = _timed(driver, cache=cache)
            after = pipeline_counters()
            dispatched = (after.get('executor.dispatched', 0)
                          - before.get('executor.dispatched', 0))
            if dispatched:
                raise AssertionError(
                    f'{name}: warm cache pass dispatched {dispatched} runs')
        results[name] = entry
        print(f'{name}: {entry}')
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
                        help='end-to-end runs per checkout (median kept)')
    args = parser.parse_args(argv)
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), '..'))
    parent = os.path.abspath(args.parent) if args.parent else None
    end_to_end = measure_end_to_end(root, parent, args.rounds)

    payload = {
        'harness': 'benchmarks/runtime_baseline.py',
        'python': platform.python_version(),
        'cpu_count': os.cpu_count(),
        'figures': measure(),
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
