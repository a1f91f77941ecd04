"""Steadiness check: repeat the benchmark and report each metric's spread.

    python3 perfbench/steadiness.py --workload serving-open --runs 10 --sets 2

Runs ``run.py`` ``--runs`` times per set, each with another seed (seeds
``1..runs``, the same seeds in every set), in ``--sets`` back-to-back
sets. For every end-to-end metric it prints, per set, the median and
the spread (first-to-third quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives them), then the shift of
each later set's median against the first set's, and whether each
spread (``setup_s`` exempt) stays below a third of the metric's bound in
``BENCHMARK.json`` and each shift in the worse direction within it. It
also checks that ``sim_events`` of a seed is identical in every set.
``--json`` writes every raw result for later inspection.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, str(HERE / 'run.py'), '--workload', workload,
         '--seed', str(seed), '--seconds', str(seconds), '--trace', '0'],
        cwd=str(HERE.parent), capture_output=True, text=True, check=True,
        timeout=600)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True)
    parser.add_argument('--runs', type=int, default=10)
    parser.add_argument('--sets', type=int, default=2)
    parser.add_argument('--seconds', type=float, default=10.0)
    parser.add_argument('--json', type=Path, default=None)
    args = parser.parse_args(argv)

    seeds = range(1, args.runs + 1)
    sets = [[run_once(args.workload, seed, args.seconds) for seed in seeds]
            for __ in range(args.sets)]
    if args.json:
        args.json.write_text(json.dumps(sets, indent=1))

    ok = all(r['correct'] and r['failed'] == 0 for runs in sets for r in runs)
    print('%s: %d set(s) x %d seeds, all correct: %s'
          % (args.workload, args.sets, args.runs, ok))
    declared = json.loads((HERE.parent / 'BENCHMARK.json').read_text())
    for metric in declared['end_to_end']:
        name, bound = metric['name'], metric['bound']
        sign = 1 if metric['better'] == 'lower' else -1
        per_set = [[r['metrics'][name]['value'] for r in runs]
                   for runs in sets]
        medians = [statistics.median(values) for values in per_set]
        spreads = [spread(values) for values in per_set]
        shifts = [m / medians[0] - 1 for m in medians[1:]]
        steady = (name == 'setup_s' or max(spreads) < bound / 3) and all(
            sign * shift <= bound for shift in shifts)
        ok = ok and steady
        print('  %-14s bound %.2f  median %s  spread %s  shift %s  %s' % (
            name, bound, ' '.join('%.6g' % m for m in medians),
            ' '.join('%.3f' % s for s in spreads),
            ' '.join('%+.3f' % s for s in shifts) or '-',
            'steady' if steady else 'NOT STEADY'))
    events = [[r['metrics']['sim_events']['value'] for r in runs]
              for runs in sets]
    identical = all(values == events[0] for values in events)
    print('  sim_events identical per seed across sets: %s' % identical)
    return 0 if ok and identical else 1


if __name__ == '__main__':
    sys.exit(main())
