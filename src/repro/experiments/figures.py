"""Per-figure experiment drivers.

One function per table/figure of the paper's evaluation. Each returns a
:class:`~repro.experiments.reporting.FigureResult` whose rows mirror the
series the paper plots; ``result.table()`` renders them. Absolute
numbers come from our simulated substrate, so only the *shape* (winner,
rough factors, crossovers) is expected to match the testbed results.

Every driver is two passes over the same grid: pass one builds the
figure's full batch of declarative
:class:`~repro.experiments.spec.RunSpec` values, pass two aggregates
the :class:`~repro.experiments.spec.RunOutcome` of each spec into rows.
The batch goes through the driver's ``run`` argument exactly once.
``run`` defaults to :func:`~repro.experiments.executor.run_specs`
(serial, uncached); the CLI passes ``run_specs`` bound to its executor
(``--jobs``) and result cache (``--cache``), with identical tables
either way, because a spec fully determines its outcome.

``quick=True`` (the default) runs one seed at reduced workload scale;
``quick=False`` averages several seeds at full scale.
"""

import statistics

from ..metrics.fairness import improvement_percent, weighted_speedup
from ..obs.eventlog import format_residency, residency_timeline, vm_names
from ..obs.report import drop_warnings, explain_empty, sa_latency_rows
from ..simkernel.units import MS, SEC, US
from ..workloads import NPB, PARSEC, get_profile
from .executor import run_specs
from .reporting import FigureResult
from .spec import (cluster_spec, parallel_spec, probe_spec, server_spec,
                   traffic_spec)
from .strategies import COMPARISON_STRATEGIES, IRS, VANILLA
from .topology import NO_INTERFERENCE, InterferenceSpec

# The paper's interference grids.
PARSEC_INTERFERERS = ('hogs', 'streamcluster', 'fluidanimate')
NPB_INTERFERERS = ('hogs', 'UA', 'LU')
INTERFERENCE_WIDTHS = (1, 2, 4)

# NPB subset shown in Figure 2 (blocking build, OMP passive).
FIG2_NPB = ('CG', 'MG', 'FT', 'SP', 'UA')


def _settings(quick):
    if quick:
        return {'seeds': (0,), 'scale': 0.5}
    return {'seeds': (0, 1, 2), 'scale': 1.0}


def _mean(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    return statistics.fmean(values)


def _outcomes(specs, run):
    """Execute the batch once through ``run`` (None = :func:`run_specs`,
    looked up at call time); returns the outcomes in batch order."""
    return (run or run_specs)(specs)


def _grid(cells, spec_for, seeds, run):
    """Build ``spec_for(cell, seed)`` for every cell and seed, execute
    them as one batch, and return the per-seed outcome lists in cell
    order."""
    batch = [spec_for(cell, seed) for cell in cells for seed in seeds]
    outcomes = _outcomes(batch, run)
    n = len(seeds)
    return [outcomes[i:i + n] for i in range(0, len(batch), n)]


def _versus_vanilla(cells, strategies, cfg, run, scale=None, **kwargs):
    """The grid every vanilla-relative figure shares: each ``(key, app,
    interference)`` cell runs every seed under vanilla and under each
    of ``strategies``, all in one batch. Returns ``(key, {strategy:
    outcomes})`` per cell (vanilla included), in cell order."""
    strategies = (VANILLA,) + tuple(strategies)
    scale = cfg['scale'] if scale is None else scale
    runs = iter(_grid([(app, strategy, interference)
                       for __, app, interference in cells
                       for strategy in strategies],
                      lambda run_cell, seed: parallel_spec(
                          *run_cell, seed=seed, scale=scale, **kwargs),
                      cfg['seeds'], run))
    return [(key, {strategy: next(runs) for strategy in strategies})
            for key, __, __ in cells]


def _mean_span(outcomes):
    return _mean([o.makespan_ns for o in outcomes])


def _mean_rate(outcomes):
    return _mean([_mean(o.bg_rates) for o in outcomes if o.bg_rates])


def _improvement(base, strat):
    """Percent makespan gain of ``strat`` over ``base`` (outcome lists)."""
    base_ns, strat_ns = _mean_span(base), _mean_span(strat)
    if base_ns is None or strat_ns is None or strat_ns <= 0:
        return None
    return improvement_percent(base_ns, strat_ns)


def _percent(fmt, value):
    return fmt % value if value is not None else '--'


# ======================================================================
# Figure 1 — motivation
# ======================================================================

def fig1a(quick=True, run=None):
    """Slowdown of fluidanimate (blocking), UA (spinning), raytrace
    (user-level work stealing) under one interfering VM."""
    cfg = _settings(quick)
    apps = ('fluidanimate', 'UA', 'raytrace')
    cells = [(app, VANILLA, interference) for app in apps
             for interference in (NO_INTERFERENCE,
                                  InterferenceSpec('hogs', 1))]
    runs = _grid(cells, lambda cell, seed: parallel_spec(
        *cell, seed=seed, scale=cfg['scale']), cfg['seeds'], run)

    rows = []
    notes = {}
    for app, alone_runs, inter_runs in zip(apps, runs[::2], runs[1::2]):
        alone = _mean_span(alone_runs)
        inter = _mean_span(inter_runs)
        slowdown = inter / alone if alone and inter else None
        rows.append([app, '%.0f' % (alone / MS), '%.0f' % (inter / MS),
                     '%.2fx' % slowdown if slowdown else '--'])
        notes[app] = slowdown
    return FigureResult(
        'Figure 1(a): slowdown under interference (vanilla)',
        ['app', 'alone (ms)', '1 interferer (ms)', 'slowdown'], rows, notes)


def fig1b(quick=True, trials=None, run=None):
    """Process-migration latency vs number of interfering VMs."""
    trials = trials or (10 if quick else 30)
    levels = (0, 1, 2, 3)
    runs = _grid(levels, lambda n_vms, seed: probe_spec(n_vms, seed=seed),
                 range(trials), run)

    rows = []
    notes = {}
    for n_vms, outcomes in zip(levels, runs):
        lats = [o.probe_latency_ns for o in outcomes]
        lats = [l for l in lats if l is not None]
        mean_ms = _mean(lats) / MS if lats else None
        label = 'alone' if n_vms == 0 else '%dVM' % n_vms
        rows.append([label, '%.1f' % mean_ms if mean_ms else '--'])
        notes[label] = mean_ms
    return FigureResult(
        'Figure 1(b): migration latency off a contended vCPU',
        ['interference', 'latency (ms)'], rows, notes)


# ======================================================================
# Figure 2 — utilization relative to fair share
# ======================================================================

def fig2(quick=True, run=None):
    """CPU utilization of the parallel VM relative to its fair share
    under one interfering hog (vanilla). Blocking builds throughout;
    raytrace's work stealing keeps utilization near the share."""
    cfg = _settings(quick)
    apps = [a for a in PARSEC if a != 'raytrace']
    apps += list(FIG2_NPB) + ['raytrace']

    def spec_for(app, seed):
        # NPB profiles are spinning by default; Figure 2 uses the
        # blocking build (OMP passive).
        mode = 'block' if get_profile(app).suite == 'npb' else None
        return parallel_spec(app, VANILLA, InterferenceSpec('hogs', 1),
                             seed=seed, scale=cfg['scale'],
                             profile_mode=mode)

    rows = []
    notes = {}
    for app, outcomes in zip(apps, _grid(apps, spec_for, cfg['seeds'],
                                         run)):
        value = _mean([o.utilization for o in outcomes])
        rows.append([app, '%.2f' % value])
        notes[app] = value
    return FigureResult(
        'Figure 2: CPU utilization relative to fair share (vanilla, 1 hog)',
        ['app', 'utilization/fair-share'], rows, notes)


# ======================================================================
# Figures 5 & 6 — strategy comparison grids
# ======================================================================

def _strategy_table(title, headers, cells, score, fmt, cfg, run,
                    scale=None, **kwargs):
    """One row per ``(key, app, interference)`` cell and one column per
    comparison strategy, holding ``score(vanilla outcomes, strategy
    outcomes)``. Keys are ``(interferer, app)`` or ``(interferer, app,
    width)``; a row shows its key (the width as ``N-inter``) and
    ``notes`` maps ``key + (strategy,)`` to the score."""
    rows = []
    notes = {}
    for key, per in _versus_vanilla(cells, COMPARISON_STRATEGIES, cfg, run,
                                    scale, **kwargs):
        row = list(key[:2]) + ['%d-inter' % width for width in key[2:]]
        for strategy in COMPARISON_STRATEGIES:
            value = score(per[VANILLA], per[strategy])
            row.append(_percent(fmt, value))
            notes[key + (strategy,)] = value
        rows.append(row)
    return FigureResult(title, headers + list(COMPARISON_STRATEGIES),
                        rows, notes)


def _width_cells(apps, interferers):
    return [((interferer, app, width), app,
             InterferenceSpec(interferer, width))
            for interferer in interferers for app in apps
            for width in INTERFERENCE_WIDTHS]


def fig5(quick=True, apps=None, interferers=None, run=None):
    """PARSEC improvement over vanilla (blocking synchronization)."""
    cells = _width_cells(apps or list(PARSEC),
                         interferers or PARSEC_INTERFERERS)
    return _strategy_table(
        'Figure 5: PARSEC improvement over vanilla (blocking)',
        ['interferer', 'app', 'level'], cells, _improvement, '%+.1f%%',
        _settings(quick), run)


def fig6(quick=True, apps=None, interferers=None, run=None):
    """NPB improvement over vanilla (spinning synchronization)."""
    cells = _width_cells(apps or list(NPB), interferers or NPB_INTERFERERS)
    return _strategy_table(
        'Figure 6: NPB improvement over vanilla (spinning)',
        ['interferer', 'app', 'level'], cells, _improvement, '%+.1f%%',
        _settings(quick), run)


# ======================================================================
# Figures 7 & 9 — weighted speedup
# ======================================================================

def _weighted_speedup(base, strat):
    """Mean of the foreground (makespan) and background (progress
    rate) speedups over vanilla, in percent."""
    base_span, span = _mean_span(base), _mean_span(strat)
    base_rate, rate = _mean_rate(base), _mean_rate(strat)
    if not (base_span and span and base_rate and rate and base_rate > 0):
        return None
    return weighted_speedup(base_span / span, rate / base_rate)


def fig7(quick=True, apps=None, backgrounds=('fluidanimate',
                                             'streamcluster'),
         run=None):
    """Weighted speedup of co-located PARSEC pairs (higher is better;
    100% = vanilla parity)."""
    return _strategy_table(
        'Figure 7: weighted speedup, PARSEC pairs (blocking)',
        ['background', 'app', 'level'],
        _width_cells(apps or list(PARSEC), backgrounds), _weighted_speedup,
        '%.0f%%', _settings(quick), run)


def fig9(quick=True, apps=None, backgrounds=('LU', 'UA'), run=None):
    """Weighted speedup of co-located NPB pairs."""
    return _strategy_table(
        'Figure 9: weighted speedup, NPB pairs (spinning)',
        ['background', 'app', 'level'],
        _width_cells(apps or list(NPB), backgrounds), _weighted_speedup,
        '%.0f%%', _settings(quick), run)


# ======================================================================
# Figure 8 — server throughput and latency
# ======================================================================

def fig8(quick=True, run=None):
    """SPECjbb / ab throughput and latency improvement due to IRS.

    The paper reports the average new-order latency for SPECjbb and the
    99th percentile for ab. In our substrate the SPECjbb effect lives in
    the stall tail (transactions hit by a vCPU preemption), so the p99
    is the comparable series; the mean is dominated by unstalled 5 ms
    transactions and barely moves (recorded in EXPERIMENTS.md).
    """
    measure_ns = 2 * SEC if quick else 4 * SEC
    grid = [(kind, latency_key, n_hogs)
            for kind, latency_key in (('specjbb', 'p99'), ('ab', 'p99'))
            for n_hogs in (1, 2, 3, 4)]
    runs = _grid([(kind, strategy, n_hogs) for kind, __, n_hogs in grid
                  for strategy in (VANILLA, IRS)],
                 lambda cell, seed: server_spec(*cell, seed=seed,
                                                measure_ns=measure_ns),
                 (0,), run)

    rows = []
    notes = {}
    for (kind, latency_key, n_hogs), [base], [irs] in zip(
            grid, runs[::2], runs[1::2]):
        thr_imp = ((irs.throughput / base.throughput - 1.0) * 100.0
                   if base.throughput > 0 else None)
        base_lat = base.latency_summary[latency_key]
        irs_lat = irs.latency_summary[latency_key]
        lat_imp = ((1.0 - irs_lat / base_lat) * 100.0
                   if base_lat > 0 else None)
        rows.append([kind, '%d-inter' % n_hogs,
                     _percent('%+.1f%%', thr_imp),
                     _percent('%+.1f%%', lat_imp), latency_key])
        notes[(kind, n_hogs)] = (thr_imp, lat_imp)
    return FigureResult(
        'Figure 8: server throughput / latency improvement (IRS)',
        ['server', 'level', 'throughput', 'latency', 'latency metric'],
        rows, notes)


# ======================================================================
# Figures 10 & 11 — scalability and interference depth
# ======================================================================

FIG10_APPS = ('x264', 'blackscholes', 'EP', 'MG')


def _irs_gains(cells, cfg, run, **kwargs):
    """IRS gain over vanilla per ``(key, app, interference)`` cell,
    as ``{key: gain}`` in cell order."""
    return {key: _improvement(per[VANILLA], per[IRS])
            for key, per in _versus_vanilla(cells, (IRS,), cfg, run,
                                            **kwargs)}


def fig10(quick=True, apps=FIG10_APPS, run=None):
    """IRS gain vs number of interfered vCPUs, 8-vCPU VMs over 8 pCPUs,
    for three interference types per app."""
    widths = (1, 2, 4, 8) if quick else (1, 2, 3, 4, 5, 6, 7, 8)
    lines = [(app, interferer) for app in apps
             for interferer in (NPB_INTERFERERS
                                if get_profile(app).suite == 'npb'
                                else PARSEC_INTERFERERS)]
    notes = _irs_gains([((app, interferer, width), app,
                         InterferenceSpec(interferer, width))
                        for app, interferer in lines for width in widths],
                       _settings(quick), run, n_pcpus=8, fg_vcpus=8)
    rows = [[app, interferer] + [_percent('%+.0f%%',
                                          notes[(app, interferer, width)])
                                 for width in widths]
            for app, interferer in lines]
    headers = ['app', 'interferer'] + ['%d-inter' % w for w in widths]
    return FigureResult(
        'Figure 10: IRS gain vs # of interfered vCPUs (8-vCPU VM)',
        headers, rows, notes)


def fig11(quick=True, apps=FIG10_APPS, run=None):
    """IRS gain vs the number of interfering VMs stacked per pCPU."""
    depths = (1, 2, 3)
    lines = [(app, width) for app in apps for width in INTERFERENCE_WIDTHS]
    notes = _irs_gains([((app, width, n_vms), app,
                         InterferenceSpec('hogs', width, n_vms=n_vms))
                        for app, width in lines for n_vms in depths],
                       _settings(quick), run)
    rows = [[app, '%d-inter' % width] + [_percent('%+.0f%%',
                                                  notes[(app, width, n)])
                                         for n in depths]
            for app, width in lines]
    return FigureResult(
        'Figure 11: IRS gain vs degree of contention (1-3 interfering VMs)',
        ['app', 'level', '1 VM', '2 VMs', '3 VMs'], rows, notes)


# ======================================================================
# Figures 12 & 13 — CPU stacking (unpinned vCPUs)
# ======================================================================

def _stacking_table(title, apps, interferers, quick, run):
    cfg = _settings(quick)
    cells = [((interferer, app), app, InterferenceSpec(interferer, 4))
             for interferer in interferers for app in apps]
    # Stacked runs are slow; trim work.
    return _strategy_table(title, ['interferer', 'app'], cells,
                           _improvement, '%+.0f%%', cfg, run,
                           scale=cfg['scale'] * 0.6, pinned=False)


def fig12(quick=True, apps=None, interferers=NPB_INTERFERERS,
          run=None):
    """NPB under CPU stacking (all vCPUs unpinned, 4-inter)."""
    return _stacking_table(
        'Figure 12: NPB improvement under CPU stacking (unpinned)',
        apps or list(NPB), interferers, quick, run)


def fig13(quick=True, apps=None, interferers=PARSEC_INTERFERERS,
          run=None):
    """PARSEC under CPU stacking: deceptive idleness territory."""
    return _stacking_table(
        'Figure 13: PARSEC improvement under CPU stacking (unpinned)',
        apps or list(PARSEC), interferers, quick, run)


# ======================================================================
# Section 3.1 / 5.4 — SA overhead and fairness
# ======================================================================

def sa_overhead(quick=True, run=None):
    """Profile the SA processing delay the hypervisor incurs
    (Section 3.1 reports 20-26 us)."""
    cfg = _settings(quick)
    spec = parallel_spec('streamcluster', IRS, InterferenceSpec('hogs', 2),
                         seed=cfg['seeds'][0], scale=cfg['scale'])
    samples = _outcomes([spec], run)[0].sa_delay_ns
    rows = []
    notes = {}
    if samples:
        mean_us = _mean(samples) / US
        lo_us = min(samples) / US
        hi_us = max(samples) / US
        rows.append(['SA preemption delay',
                     '%.1f' % lo_us, '%.1f' % mean_us, '%.1f' % hi_us,
                     '%d' % len(samples)])
        notes['mean_us'] = mean_us
        notes['min_us'] = lo_us
        notes['max_us'] = hi_us
        notes['count'] = len(samples)
    return FigureResult(
        'Section 3.1: SA processing delay profile',
        ['metric', 'min (us)', 'mean (us)', 'max (us)', 'samples'],
        rows, notes)


def sa_latency(quick=True, strategy=IRS, run=None):
    """Per-phase SA-protocol latency percentiles from the span probes
    (offer, vIRQ, upcall, deschedule, ack, preempt-fire, migrate)."""
    cfg = _settings(quick)
    # spans=True arms the SA-protocol probes; the CLI's --trace-out
    # hands the runs a full ObservabilityConfig instead, so the run is
    # also exported.
    spec = parallel_spec('streamcluster', strategy,
                         InterferenceSpec('hogs', 2),
                         seed=cfg['seeds'][0], scale=cfg['scale'],
                         spans=True)
    outcome = _outcomes([spec], run)[0]
    headers, rows, notes = sa_latency_rows(outcome.metrics.registry)
    title = ('Section 3.1: SA-protocol phase latency (strategy=%s)'
             % strategy)
    if not rows:
        # Explain the empty table instead of printing zeros.
        reason = explain_empty(strategy, spans_enabled=True)
        notes['empty_reason'] = reason
        rows = [['(none)', '0', '--', '--', '--', '--', reason]]
    return FigureResult(title, headers, rows, notes,
                        warnings=drop_warnings(outcome.metrics.counters))


def fairness_check(quick=True, apps=('streamcluster', 'UA'),
                   run=None):
    """Section 5.4: IRS improves the foreground VM's utilization but
    never pushes it past the fair share."""
    cfg = _settings(quick)
    grid = [(app, strategy) for app in apps
            for strategy in (VANILLA, IRS)]
    runs = _grid(grid, lambda cell, seed: parallel_spec(
        *cell, InterferenceSpec('hogs', 4), seed=seed, scale=cfg['scale']),
        cfg['seeds'][:1], run)

    rows = []
    notes = {}
    for (app, strategy), [outcome] in zip(grid, runs):
        utilization = outcome.utilization
        rows.append([app, strategy, '%.3f' % utilization])
        notes[(app, strategy)] = utilization
    return FigureResult(
        'Section 5.4: utilization vs fair share (4 hogs)',
        ['app', 'strategy', 'utilization/fair-share'], rows, notes)


def cluster_consolidation(quick=True, run=None):
    """Cluster extension: {vanilla, IRS} x {first_fit,
    interference_aware} placement on a 4-host cluster.

    Hog VMs land first, then latency-sensitive server VMs; the
    rebalance daemon live-migrates VMs off hot-spot hosts. The grid
    separates the two defenses: IRS makes guests resilient to the
    interference they get, interference-aware placement avoids handing
    it to them in the first place.
    """
    cfg = _settings(quick)
    measure_ns = 1 * SEC if quick else 2 * SEC
    grid = [(strategy, placement)
            for strategy in (VANILLA, IRS)
            for placement in ('first_fit', 'interference_aware')]
    runs = _grid(grid, lambda cell, seed: cluster_spec(
        *cell, seed=seed, measure_ns=measure_ns), cfg['seeds'], run)

    rows = []
    notes = {}
    for (strategy, placement), outs in zip(grid, runs):
        throughput = _mean([o.throughput for o in outs])
        p99_ms = _mean([o.latency_summary['p99'] for o in outs]) / MS
        migrations = _mean([o.cluster['migrations'] for o in outs])
        rejections = _mean([o.cluster['rejections'] for o in outs])
        rows.append([strategy, placement, '%.0f' % throughput,
                     '%.2f' % p99_ms, '%.1f' % migrations,
                     '%.1f' % rejections])
        notes[(strategy, placement)] = {
            'throughput': throughput, 'p99_ms': p99_ms,
            'migrations': migrations, 'rejections': rejections}
    return FigureResult(
        'Cluster extension: consolidation under placement policies'
        ' (4 hosts)',
        ['strategy', 'placement', 'req/s', 'p99 (ms)', 'migrations',
         'rejections'],
        rows, notes)


def cluster_resilience(quick=True, run=None):
    """Cluster fault-tolerance figure: how consolidation degrades under
    chaos campaigns, per placement policy.

    Rows are {no-faults, host-flap, cluster-chaos} x {first_fit,
    interference_aware} on IRS hosts. The fault-free rows are the
    baseline; the chaos rows show what the recovery controller,
    migration rollback, and quarantine plane preserve: throughput and
    tail latency degrade, but every orphaned VM is either re-placed
    (``recovered``) or explicitly parked — never lost.
    """
    cfg = _settings(quick)
    measure_ns = 1 * SEC if quick else 2 * SEC
    campaigns = (None, 'host-flap-15', 'cluster-chaos')
    placements = ('first_fit', 'interference_aware')
    grid = [(faults, placement) for faults in campaigns
            for placement in placements]
    runs = _grid(grid, lambda cell, seed: cluster_spec(
        strategy=IRS, placement=cell[1], seed=seed, measure_ns=measure_ns,
        faults=cell[0]), cfg['seeds'], run)

    rows = []
    notes = {}
    for (faults, placement), outs in zip(grid, runs):
        throughput = _mean([o.throughput for o in outs])
        p99_ms = _mean([o.latency_summary['p99'] for o in outs]) / MS
        crashes = _mean([o.cluster['host_crashes'] for o in outs])
        aborted = _mean([o.cluster['aborted_migrations'] for o in outs])
        recovered = _mean([o.cluster['recovered'] for o in outs])
        parked = _mean([o.cluster['parked'] for o in outs])
        label = faults or 'none'
        rows.append([label, placement, '%.0f' % throughput,
                     '%.2f' % p99_ms, '%.1f' % crashes, '%.1f' % aborted,
                     '%.1f' % recovered, '%.1f' % parked])
        notes[(label, placement)] = {
            'throughput': throughput, 'p99_ms': p99_ms,
            'host_crashes': crashes, 'aborted_migrations': aborted,
            'recovered': recovered, 'parked': parked}
    return FigureResult(
        'Cluster extension: resilience under chaos campaigns'
        ' (IRS hosts)',
        ['faults', 'placement', 'req/s', 'p99 (ms)', 'crashes',
         'aborts', 'recovered', 'parked'],
        rows, notes)


def cluster_health(quick=True, faults='cluster-chaos', seed=None,
                   run=None):
    """Cluster health report: each VM's residency timeline (place ->
    crash -> orphan -> re-place / park), reconstructed from the
    structured health event log of one seeded chaos run.

    This is the event log demonstrating its design goal: the table is
    built *only* from the JSONL-shaped events — no scenario counters,
    no metrics — so the same reconstruction works offline on a file
    written with ``--events-out``. ``faults=None`` shows the quiet
    baseline (every VM a single ``place`` step).
    """
    cfg = _settings(quick)
    if seed is None:
        seed = cfg['seeds'][0]
    measure_ns = 1 * SEC if quick else 2 * SEC
    spec = cluster_spec(strategy=IRS, placement='first_fit', seed=seed,
                        measure_ns=measure_ns, faults=faults, spans=True)
    summary = _outcomes([spec], run)[0].cluster
    events = summary['events']

    rows = []
    notes = {'event_counts': dict(summary['event_counts']),
             'host_crashes': summary['host_crashes'],
             'seed': seed, 'faults': faults}
    for vm in vm_names(events):
        steps = residency_timeline(events, vm)
        rows.append([vm, '%d' % len(steps), format_residency(steps)])
        notes[vm] = steps
    if not rows:
        rows = [['(none)', '0', 'no VM lifecycle events recorded']]
    return FigureResult(
        'Cluster extension: per-VM residency timelines'
        ' (faults=%s, seed=%d)' % (faults or 'none', seed),
        ['vm', 'steps', 'residency'], rows, notes,
        warnings=drop_warnings(summary['counters']))


def traffic_slo(quick=True, arrivals='poisson', rate_rps=None,
                slo_p99_ms=None, run=None):
    """Traffic extension: {vanilla, IRS} x {closed, open-loop} serving
    on a consolidated cluster (every host shares its replica with a
    batch hog tenant).

    The grid's point is measurement methodology as much as scheduling:
    closed-loop request threads self-throttle when vCPUs stall, so the
    'req/s' column overstates healthy capacity while thread-per-vCPU
    leaves no queue for IRS to drain — both closed rows miss the SLO.
    Open loop offers the same load regardless (arrivals keep coming,
    full queues shed), splitting latency into queueing + service; there
    scheduler activations move work off preempted vCPUs and IRS holds
    p99 attainment where vanilla burns through its error budget.
    """
    cfg = _settings(quick)
    measure_ns = 1 * SEC if quick else 2 * SEC
    kwargs = {}
    if rate_rps is not None:
        kwargs['rate_rps'] = rate_rps
    if slo_p99_ms is not None:
        kwargs['slo_p99_ms'] = slo_p99_ms
    grid = [(strategy, open_loop)
            for strategy in (VANILLA, IRS)
            for open_loop in (False, True)]
    runs = _grid(grid, lambda cell, seed: traffic_spec(
        strategy=cell[0], open_loop=cell[1], arrivals=arrivals, seed=seed,
        measure_ns=measure_ns, **kwargs), cfg['seeds'], run)

    rows = []
    notes = {'arrivals': arrivals}
    for (strategy, open_loop), outs in zip(grid, runs):
        loop = 'open' if open_loop else 'closed'
        throughput = _mean([o.throughput for o in outs])
        p99_ms = _mean([o.latency_summary['p99'] for o in outs]) / MS
        attainment = _mean([o.cluster['slo']['attainment'] for o in outs])
        shed = _mean([o.cluster['shed'] for o in outs])
        meets = all(o.cluster['slo']['meets_slo'] for o in outs)
        rows.append([strategy, loop, '%.0f' % throughput,
                     '%.2f' % p99_ms, '%.4f' % attainment,
                     '%.1f' % shed, 'yes' if meets else 'NO'])
        notes[(strategy, loop)] = {
            'throughput': throughput, 'p99_ms': p99_ms,
            'attainment': attainment, 'shed': shed, 'meets_slo': meets}
    return FigureResult(
        'Traffic extension: SLO attainment under consolidation'
        ' ({closed, open}-loop serving)',
        ['strategy', 'loop', 'req/s', 'p99 (ms)', 'attainment', 'shed',
         'meets SLO'],
        rows, notes)


ALL_FIGURES = {
    'fig1a': fig1a,
    'fig1b': fig1b,
    'fig2': fig2,
    'fig5': fig5,
    'fig6': fig6,
    'fig7': fig7,
    'fig8': fig8,
    'fig9': fig9,
    'fig10': fig10,
    'fig11': fig11,
    'fig12': fig12,
    'fig13': fig13,
    'sa_overhead': sa_overhead,
    'sa_latency': sa_latency,
    'fairness_check': fairness_check,
    'cluster_consolidation': cluster_consolidation,
    'cluster_resilience': cluster_resilience,
    'cluster_health': cluster_health,
    'traffic_slo': traffic_slo,
}
