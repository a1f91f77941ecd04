"""Record the default-seed outcome digest and exact counts of every workload.

    python3 perfbench/record_baseline.py

Runs one untraced and one traced pass of each workload at the default
seed and writes ``perfbench/baseline.json``: the outcome digest that
``run.py`` checks every default-seed pass against, and ``sim_events``
plus every per-layer count, which ``run.py`` compares against so that a
later change sees its count deltas exactly. Re-record only when a change
is meant to move the model's outputs, and say so in that change.
"""

import argparse
import json
import sys

import run

DEFAULT_SEED = 0


def record(workload):
    args = argparse.Namespace(workload=workload, seed=DEFAULT_SEED,
                              seconds=0, limit=None, trace=1)
    passes = run.measure_passes(args, None)
    traced = run.run_traced(args, timeout=900)
    first = passes[0]
    if first['failed'] or traced['failed'] or traced['digest'] != first['digest']:
        raise SystemExit('%s: outputs failed the check: %s'
                         % (workload, first['problems'] + traced['problems']))
    metrics = run.per_layer_metrics(passes, traced)
    units = run.per_layer_units()
    counts = {'sim_events': first['totals']['events']}
    counts.update((name, value) for name, value in metrics.items()
                  if units[name] == 'count')
    return {'runs': first['runs'], 'digest': first['digest'],
            'counts': counts}


def main():
    run.use_checkout()
    from workloads import WORKLOADS
    stored = {'seed': DEFAULT_SEED,
              'workloads': {name: record(name) for name in WORKLOADS}}
    run.BASELINE.write_text(json.dumps(stored, indent=2) + '\n')
    print('wrote %s' % run.BASELINE)
    return 0


if __name__ == '__main__':
    sys.exit(main())
