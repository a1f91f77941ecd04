"""Tests for declarative experiment specs."""

import json

import pytest

from repro.experiments import (RunOutcome, SpecError, cluster_spec,
                               parse_spec, run_spec, run_spec_file,
                               traffic_spec)


BASE = {
    'app': 'streamcluster',
    'strategy': 'irs',
    'seed': 1,
    'machine': {'n_pcpus': 4, 'fg_vcpus': 4, 'pinned': True},
    'interference': {'kind': 'hogs', 'width': 1},
    'workload': {'scale': 0.15},
}


class TestParsing:
    def test_minimal_spec(self):
        app, kwargs = parse_spec({'app': 'UA'})
        assert app == 'UA'
        assert kwargs['strategy'] == 'vanilla'
        assert kwargs['n_pcpus'] == 4
        assert kwargs['interference'].width == 0

    def test_full_spec(self):
        app, kwargs = parse_spec(BASE)
        assert app == 'streamcluster'
        assert kwargs['strategy'] == 'irs'
        assert kwargs['interference'].kind == 'hogs'
        assert kwargs['scale'] == 0.15

    def test_timeout_conversion(self):
        __, kwargs = parse_spec({'app': 'UA',
                                 'workload': {'timeout_s': 2.5}})
        assert kwargs['timeout_ns'] == 2_500_000_000

    def test_missing_app_rejected(self):
        with pytest.raises(SpecError):
            parse_spec({'strategy': 'irs'})

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SpecError):
            parse_spec({'app': 'UA', 'strategy': 'quantum'})

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError):
            parse_spec({'app': 'UA', 'frobnicate': 1})
        with pytest.raises(SpecError):
            parse_spec({'app': 'UA', 'machine': {'gpus': 2}})

    def test_non_dict_rejected(self):
        with pytest.raises(SpecError):
            parse_spec(['app'])


class TestExecution:
    def test_run_spec(self):
        result = run_spec(dict(BASE))
        assert result.completed
        assert result.strategy == 'irs'

    def test_run_spec_file_single(self, tmp_path):
        path = tmp_path / 'spec.json'
        path.write_text(json.dumps(dict(BASE)))
        results = run_spec_file(str(path))
        assert len(results) == 1
        assert results[0][1].completed

    def test_run_spec_file_list(self, tmp_path):
        spec_a = dict(BASE)
        spec_b = dict(BASE, strategy='vanilla')
        path = tmp_path / 'specs.json'
        path.write_text(json.dumps([spec_a, spec_b]))
        results = run_spec_file(str(path))
        assert len(results) == 2
        # The deterministic pair reproduces the IRS gain.
        irs = results[0][1].makespan_ns
        vanilla = results[1][1].makespan_ns
        assert irs < vanilla


class TestOutcomeRepr:
    @pytest.mark.parametrize('make_spec', [cluster_spec, traffic_spec])
    def test_served_runs_show_throughput(self, make_spec):
        outcome = RunOutcome(make_spec(), throughput=3990.0)
        assert repr(outcome).endswith(' 3990 req/s>')
