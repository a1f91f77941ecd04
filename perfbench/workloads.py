"""The benchmark's workloads and their output check.

Each workload is one batch of :class:`~repro.experiments.spec.RunSpec`
values built from the benchmark seed, run through the public
``run_specs`` / ``execute_spec`` path. The output check works on the
:class:`~repro.experiments.spec.RunOutcome` of every run:

* a run fails on a TIMEOUT makespan, a ``RunError`` (outcome ``None``),
  or an outcome whose values break a per-run sanity rule;
* a pass's outcome digest must match the stored digest for the default
  seed (``baseline.json``), and every pass of one seed, traced or not,
  must produce the same digest. A digest mismatch fails the whole pass.
"""

import hashlib
import json

from repro.experiments.figures import (INTERFERENCE_WIDTHS, NPB_INTERFERERS,
                                       PARSEC_INTERFERERS)
from repro.experiments.spec import parallel_spec, traffic_spec
from repro.experiments.strategies import COMPARISON_STRATEGIES, IRS, VANILLA
from repro.experiments.topology import InterferenceSpec
from repro.simkernel.units import SEC
from repro.workloads import NPB, PARSEC

#: Workload scale of the quick figure grids (``figures._settings``).
QUICK_SCALE = 0.5
#: Seeds per strategy in one serving-open pass.
SERVING_SEEDS = 10
SERVING_STRATEGIES = (VANILLA, IRS)
SERVING_MEASURE_NS = 1 * SEC


def _improvement_batch(apps, interferers, seed):
    """The spec batch of a quick Figure 5/6 grid, in the figure's own
    order: per (interferer, app, width), vanilla then each strategy."""
    strategies = (VANILLA,) + tuple(COMPARISON_STRATEGIES)
    return [parallel_spec(app, strategy, InterferenceSpec(interferer, width),
                          seed=seed, scale=QUICK_SCALE)
            for interferer in interferers
            for app in apps
            for width in INTERFERENCE_WIDTHS
            for strategy in strategies]


def parsec_block(seed):
    """Figure 5 quick grid: PARSEC, blocking synchronization."""
    return _improvement_batch(list(PARSEC), PARSEC_INTERFERERS, seed)


def npb_spin(seed):
    """Figure 6 quick grid: NPB, spinning synchronization."""
    return _improvement_batch(list(NPB), NPB_INTERFERERS, seed)


def serving_open(seed):
    """Open-loop Poisson serving at 4000 rps on the 4-host consolidated
    cluster, {vanilla, irs} x ``SERVING_SEEDS`` traffic seeds."""
    first = seed * SERVING_SEEDS
    return [traffic_spec(strategy=strategy, open_loop=True, seed=run_seed,
                         measure_ns=SERVING_MEASURE_NS)
            for strategy in SERVING_STRATEGIES
            for run_seed in range(first, first + SERVING_SEEDS)]


WORKLOADS = {
    'parsec-block': parsec_block,
    'npb-spin': npb_spin,
    'serving-open': serving_open,
}


def build_batch(workload, seed, limit=None):
    """The workload's spec batch for ``seed``; ``limit`` keeps only the
    first runs (a fast slice for the benchmark's own tests)."""
    specs = WORKLOADS[workload](seed)
    return specs[:limit] if limit else specs


def outcome_record(outcome):
    """The model results of one run that the digest covers: what the
    figures print from it (makespans, utilization, serving latency and
    SLO figures). Host-side counts are not part of it."""
    if outcome is None:
        return None
    record = {'spec': outcome.spec.cache_token()}
    summary = outcome.cluster
    if summary is None:
        record.update(makespan_ns=outcome.makespan_ns,
                      utilization=outcome.utilization,
                      bg_rates=list(outcome.bg_rates))
    else:
        record.update({key: summary[key] for key in (
            'throughput', 'latency', 'queue_wait', 'slo', 'injected',
            'completed', 'shed', 'unroutable')})
    return record


def run_problem(outcome):
    """Why one run failed, or None when it passes the per-run check."""
    if outcome is None:
        return 'RunError'
    summary = outcome.cluster
    if summary is None:
        if not outcome.completed:
            return 'TIMEOUT'
        if outcome.makespan_ns <= 0 or not 0 < outcome.utilization:
            return 'non-positive makespan or utilization'
        return None
    if summary['injected'] <= 0 or summary['completed'] <= 0:
        return 'no requests served'
    if summary['latency']['count'] != summary['completed']:
        return 'latency samples do not match completed requests'
    if summary['shed'] + summary['unroutable'] > summary['injected']:
        return 'more requests refused than were sent'
    if not 0.0 <= summary['slo']['attainment'] <= 1.0:
        return 'SLO attainment outside [0, 1]'
    return None


def digest(records):
    """SHA-256 over the outcome records of a pass, in batch order."""
    text = json.dumps(records, sort_keys=True, separators=(',', ':'),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def check_pass(outcomes, expected_digest=None):
    """Check one pass. Returns ``(failed, problems, records)``.

    ``failed`` counts the runs that fail the per-run check; when
    ``expected_digest`` is given and the pass's :func:`digest` differs,
    every run of the pass counts as failed."""
    problems = []
    for outcome in outcomes:
        problem = run_problem(outcome)
        if problem is not None:
            problems.append('%s: %s' % (
                outcome.spec.describe() if outcome else 'run', problem))
    records = [outcome_record(o) for o in outcomes]
    failed = len(problems)
    if expected_digest is not None and digest(records) != expected_digest:
        problems.append('outcome digest %s != stored %s'
                        % (digest(records)[:12], expected_digest[:12]))
        failed = len(outcomes)
    return failed, problems, records
