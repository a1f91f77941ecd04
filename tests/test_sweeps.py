"""Tests for the parameter-sweep utility."""

import pytest

from repro.core import IRSConfig
from repro.experiments import InterferenceSpec, SpecError, Sweep
from repro.experiments.sweeps import SweepPoint
from repro.workloads import get_profile


class TestSweepPoint:
    def test_aggregates(self):
        point = SweepPoint('x', [100, 200], [0.5, 0.7])
        assert point.makespan_ns == 150
        assert abs(point.utilization - 0.6) < 1e-9

    def test_timeouts_skipped(self):
        point = SweepPoint('x', [None, 200], [0.5, 0.7])
        assert point.makespan_ns == 200

    def test_all_timeouts(self):
        point = SweepPoint('x', [None], [0.1])
        assert point.makespan_ns is None
        assert point.improvement_over(SweepPoint('y', [100], [0.1])) is None

    def test_empty_point_does_not_raise(self):
        # statistics.fmean raises on empty input; an empty point must
        # degrade to None the way makespan_ns does.
        point = SweepPoint('x', [], [])
        assert point.makespan_ns is None
        assert point.utilization is None
        other = SweepPoint('y', [100], [0.5])
        assert point.improvement_over(other) is None
        assert other.improvement_over(point) is None

    def test_none_utilizations_filtered(self):
        point = SweepPoint('x', [100, 200], [None, 0.5])
        assert point.utilization == 0.5

    def test_improvement_sign(self):
        fast = SweepPoint('fast', [100], [1.0])
        slow = SweepPoint('slow', [200], [1.0])
        assert fast.improvement_over(slow) == 100.0
        assert slow.improvement_over(fast) == -50.0


class TestSweep:
    def test_strategy_sweep(self):
        sweep = Sweep('streamcluster',
                      base=dict(scale=0.15,
                                interference=InterferenceSpec('hogs', 1)))
        result = sweep.strategies(strategies=('vanilla', 'irs'))
        assert len(result.rows) == 2
        irs = result.notes['irs']
        vanilla = result.notes['vanilla']
        assert irs.improvement_over(vanilla) > 10

    def test_custom_dimension_with_apply(self):
        sweep = Sweep('blackscholes', base=dict(scale=0.1,
                                                strategy='vanilla'))

        def set_width(kwargs, width):
            kwargs['interference'] = InterferenceSpec('hogs', width)
        result = sweep.over('width', [0, 1], apply=lambda kw, w: (
            kw.update(interference=InterferenceSpec('hogs', w))
            if w else None))
        assert result.notes[1].makespan_ns > result.notes[0].makespan_ns

    def test_direct_kwarg_dimension(self):
        # Four threads on two vs four vCPUs: an embarrassingly parallel
        # app halves its makespan with the extra cores.
        sweep = Sweep('swaptions', base=dict(scale=0.1, n_threads=4))
        result = sweep.over('fg_vcpus', [2, 4])
        assert (result.notes[4].makespan_ns
                < result.notes[2].makespan_ns * 0.7)

    def test_table_renders(self):
        sweep = Sweep('swaptions', base=dict(scale=0.05))
        result = sweep.over('scale', [0.05], apply=lambda kw, s: None)
        assert 'Sweep: swaptions' in result.table()

    @pytest.mark.parametrize('kwarg, value', [
        ('profile', get_profile('swaptions')),
        ('irs_config', IRSConfig()),
    ])
    def test_kwarg_outside_spec_dialect_raises(self, kwarg, value):
        sweep = Sweep('swaptions', base=dict(scale=0.05))
        with pytest.raises(SpecError, match=kwarg):
            sweep.over(kwarg, [value])
