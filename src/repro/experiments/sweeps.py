"""Generic parameter sweeps over the experiment harness.

A :class:`Sweep` varies one dimension of a :func:`run_parallel`
configuration — strategy, interference kind/width/depth, seed, scale,
vCPU count, IRS config — and collects makespan/utilization series with
optional vanilla-relative improvements. The per-figure drivers cover
the paper's grids; sweeps are for exploring beyond them.

Sweeps ride the same declarative pipeline as the figures: every point
is a :class:`~repro.experiments.spec.RunSpec`, and the whole sweep is
one :func:`~repro.experiments.executor.run_specs` batch. A
configuration the spec dialect cannot name — a ``profile=`` instance,
an ``irs_config=`` object — raises
:class:`~repro.experiments.spec.SpecError`; use ``profile_mode=`` and
``irs=`` instead.

Example::

    sweep = Sweep('streamcluster', base=dict(scale=0.5))
    result = sweep.over('width', [1, 2, 3, 4],
                        apply=lambda kw, w: kw.update(
                            interference=InterferenceSpec('hogs', w)))
    print(result.table())
"""

import statistics

from ..metrics.fairness import improvement_percent
from ..simkernel.units import MS
from .executor import run_specs
from .reporting import FigureResult
from .spec import SpecError, parallel_spec
from .strategies import ALL_STRATEGIES, VANILLA
from .topology import NO_INTERFERENCE

#: Run kwargs the declarative RunSpec dialect can express.
_SPEC_KWARGS = frozenset((
    'strategy', 'interference', 'scale', 'n_pcpus', 'fg_vcpus', 'pinned',
    'n_threads', 'timeout_ns', 'profile_mode', 'irs', 'faults', 'spans',
    'timeline'))


class SweepPoint:
    """One configuration's aggregated measurements."""

    def __init__(self, label, makespans_ns, utilizations):
        self.label = label
        self.makespans_ns = makespans_ns
        self.utilizations = utilizations

    @property
    def makespan_ns(self):
        done = [m for m in self.makespans_ns if m is not None]
        return statistics.fmean(done) if done else None

    @property
    def utilization(self):
        done = [u for u in self.utilizations if u is not None]
        return statistics.fmean(done) if done else None

    def improvement_over(self, other):
        if self.makespan_ns is None or other.makespan_ns is None:
            return None
        return improvement_percent(other.makespan_ns, self.makespan_ns)


class Sweep:
    """Sweeps one dimension of a parallel-workload run."""

    def __init__(self, app, base=None, seeds=(0,)):
        self.app = app
        self.base = dict(base or {})
        self.base.setdefault('interference', NO_INTERFERENCE)
        self.seeds = tuple(seeds)

    def _run_points(self, kwargs_list):
        """Per-seed outcomes of every point, as one batch."""
        for kwargs in kwargs_list:
            unknown = sorted(set(kwargs) - _SPEC_KWARGS)
            if unknown:
                raise SpecError('sweep kwarg %s has no RunSpec field'
                                % ', '.join(map(repr, unknown)))
        batch = [parallel_spec(self.app, seed=seed, **kwargs)
                 for kwargs in kwargs_list for seed in self.seeds]
        outcomes = run_specs(batch)
        n = len(self.seeds)
        return [outcomes[i:i + n] for i in range(0, len(batch), n)]

    def over(self, dimension, values, apply=None, baseline=None,
             title=None):
        """Run one configuration per value.

        ``apply(kwargs, value)`` mutates the run kwargs for each value;
        by default the value is assigned to ``kwargs[dimension]``.
        ``baseline`` names a value whose point the others are compared
        against (improvement column); defaults to the first value.
        Returns a :class:`FigureResult`.
        """
        kwargs_list = []
        for value in values:
            kwargs = dict(self.base)
            if apply is not None:
                apply(kwargs, value)
            else:
                kwargs[dimension] = value
            kwargs_list.append(kwargs)
        points = {}
        for value, results in zip(values, self._run_points(kwargs_list)):
            points[value] = SweepPoint(str(value),
                                       [r.makespan_ns for r in results],
                                       [r.utilization for r in results])

        baseline_value = values[0] if baseline is None else baseline
        base_point = points[baseline_value]
        rows = []
        notes = {}
        for value in values:
            point = points[value]
            improvement = point.improvement_over(base_point)
            rows.append([
                str(value),
                ('%.1f' % (point.makespan_ns / MS)
                 if point.makespan_ns is not None else 'TIMEOUT'),
                ('%.3f' % point.utilization
                 if point.utilization is not None else '--'),
                ('%+.1f%%' % improvement
                 if improvement is not None and value != baseline_value
                 else '--'),
            ])
            notes[value] = point
        headers = [dimension, 'makespan (ms)', 'util/fair-share',
                   'vs %s' % baseline_value]
        title = title or 'Sweep: %s over %s' % (self.app, dimension)
        return FigureResult(title, headers, rows, notes)

    def strategies(self, strategies=ALL_STRATEGIES, title=None):
        """Convenience: sweep the scheduling strategy, vanilla-based."""
        return self.over('strategy', list(strategies), baseline=VANILLA,
                         title=title)
