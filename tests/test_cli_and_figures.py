"""Tests for the CLI entry point and smoke tests of figure drivers."""

import pytest

from repro.experiments import InterferenceSpec, parallel_spec, run_specs
from repro.experiments.cli import main
from repro.experiments.figures import (
    ALL_FIGURES,
    fig1a,
    fig5,
    fairness_check,
    sa_latency,
    sa_overhead,
)
from repro.obs.exporters import load_chrome_trace, validate_chrome_trace


class TestCli:
    def test_list_prints_all_figures(self, capsys):
        assert main(['list']) == 0
        out = capsys.readouterr().out
        for name in ALL_FIGURES:
            assert name in out

    def test_run_single_figure(self, capsys):
        assert main(['fig1a']) == 0
        out = capsys.readouterr().out
        assert 'Figure 1(a)' in out
        assert 'raytrace' in out

    def test_unknown_figure_errors(self):
        with pytest.raises(SystemExit):
            main(['figZZ'])

    def test_output_to_file(self, tmp_path, capsys):
        target = tmp_path / 'out.txt'
        assert main(['sa_overhead', '--out', str(target)]) == 0
        content = target.read_text()
        assert 'SA processing delay' in content

    def test_dashed_figure_alias(self, capsys):
        assert main(['sa-latency']) == 0
        out = capsys.readouterr().out
        assert 'SA-protocol phase latency' in out
        assert 'sa.offer' in out

    def test_trace_out_writes_valid_trace(self, tmp_path, capsys):
        target = tmp_path / 'trace.json'
        assert main(['sa-latency', '--trace-out', str(target)]) == 0
        events = load_chrome_trace(str(target))
        assert events
        assert validate_chrome_trace(events) == []

    def test_trace_out_unwritable_is_clean_error(self, tmp_path, capsys):
        target = tmp_path / 'missing-dir' / 'trace.json'
        with pytest.raises(SystemExit) as excinfo:
            main(['sa-latency', '--trace-out', str(target)])
        assert excinfo.value.code == 2          # argparse error, not a
        err = capsys.readouterr().err           # traceback
        assert 'cannot write --trace-out file' in err

    def test_unknown_strategy_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(['sa-latency', '--strategy', 'bogus'])
        assert 'unknown strategy' in capsys.readouterr().err

    def test_strategy_forwarded_to_driver(self, capsys):
        assert main(['sa-latency', '--strategy', 'vanilla']) == 0
        out = capsys.readouterr().out
        assert 'never issues scheduler activations' in out


class TestCliLeavesNoState:
    """The CLI hands its flags to the runs it makes and to nothing
    else: a library batch run afterwards in the same process is the
    plain, fault-free, unexported run."""

    def test_faults_and_exports_do_not_reach_later_runs(self, tmp_path,
                                                        capsys):
        target = tmp_path / 'metrics.prom'
        assert main(['sa_overhead', '--no-cache', '--faults', 'sa-loss-30',
                     '--metrics-out', str(target)]) == 0
        exported = target.read_text()
        assert 'repro_sa_offer' in exported
        spec = parallel_spec('streamcluster', 'irs',
                             InterferenceSpec('hogs', 1), scale=0.15)
        [outcome] = run_specs([spec])
        assert outcome.spec.faults is None
        assert not any(name.startswith('faults.')
                       for name in outcome.metrics.counters)
        assert target.read_text() == exported


class TestFigureDrivers:
    """Smoke tests on small figure slices; the benchmarks exercise the
    full grids."""

    def test_fig1a_notes_structure(self):
        result = fig1a(quick=True)
        assert set(result.notes) == {'fluidanimate', 'UA', 'raytrace'}
        assert all(v > 1.0 for v in result.notes.values())

    def test_fig5_subset(self):
        result = fig5(quick=True, apps=['streamcluster'],
                      interferers=['hogs'])
        assert len(result.rows) == 3           # 1/2/4-inter
        key = ('hogs', 'streamcluster', 1, 'irs')
        assert result.notes[key] > 10

    def test_sa_overhead_notes(self):
        result = sa_overhead(quick=True)
        assert 20 <= result.notes['mean_us'] <= 26

    def test_sa_latency_band(self):
        result = sa_latency(quick=True)
        offer = result.notes['sa.offer']
        assert offer['count'] > 0
        assert 20 <= offer['p50_us'] <= 26
        assert 20 <= offer['p99_us'] <= 26

    def test_sa_latency_empty_explained(self):
        result = sa_latency(quick=True, strategy='vanilla')
        assert 'empty_reason' in result.notes
        assert len(result.rows) == 1
        assert 'vanilla' in result.notes['empty_reason']

    def test_fairness_check_notes(self):
        result = fairness_check(quick=True, apps=('streamcluster',))
        assert ('streamcluster', 'vanilla') in result.notes
        assert ('streamcluster', 'irs') in result.notes

    def test_table_renders_for_every_driver_row(self):
        result = fig1a(quick=True)
        table = result.table()
        assert table.count('\n') >= len(result.rows) + 2


class TestCliJobsAndCache:
    def test_jobs_matches_serial_output(self, tmp_path, capsys):
        assert main(['fig1a', '--no-cache']) == 0
        serial = capsys.readouterr().out
        assert main(['fig1a', '--no-cache', '--jobs', '2']) == 0
        parallel = capsys.readouterr().out
        # Strip the wall-clock line; tables must be byte-identical.
        strip = (lambda text: '\n'.join(
            l for l in text.splitlines() if not l.startswith('(fig1a:')))
        assert strip(parallel) == strip(serial)

    def test_jobs_with_trace_out_is_clean_error(self, tmp_path, capsys):
        target = tmp_path / 'trace.json'
        with pytest.raises(SystemExit) as excinfo:
            main(['sa-latency', '--jobs', '2', '--trace-out', str(target)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert 'cannot be combined with --trace-out' in err
        assert 'worker process' in err

    @pytest.mark.parametrize('flag', ['--trace-out', '--events-out',
                                      '--metrics-out'])
    def test_wall_timeout_with_export_is_clean_error(self, tmp_path,
                                                     capsys, flag):
        target = tmp_path / 'export.out'
        with pytest.raises(SystemExit) as excinfo:
            main(['fig1a', '--wall-timeout', '5', flag, str(target)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert '--wall-timeout cannot be combined with %s' % flag in err
        assert not target.exists()

    def test_jobs_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv('REPRO_JOBS', '2')
        assert main(['fig1a', '--no-cache']) == 0
        assert 'Figure 1(a)' in capsys.readouterr().out

    def test_jobs_env_conflicts_with_trace_out(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setenv('REPRO_JOBS', '2')
        target = tmp_path / 'trace.json'
        with pytest.raises(SystemExit):
            main(['sa-latency', '--trace-out', str(target)])
        err = capsys.readouterr().err
        assert 'REPRO_JOBS=2' in err

    def test_jobs_env_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv('REPRO_JOBS', 'many')
        with pytest.raises(SystemExit):
            main(['fig1a'])
        assert 'REPRO_JOBS must be an integer' in capsys.readouterr().err

    def test_jobs_zero_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(['fig1a', '--jobs', '0'])
        assert '--jobs must be >= 1' in capsys.readouterr().err

    def test_cache_populates_and_reports(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(['sa_overhead']) == 0
        out = capsys.readouterr().out
        assert 'runcache:' in out
        assert (tmp_path / '.benchmarks' / 'runcache').is_dir()
        assert main(['sa_overhead']) == 0
        assert 'SA processing delay' in capsys.readouterr().out

    def test_no_cache_skips_cache_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(['sa_overhead', '--no-cache']) == 0
        assert 'runcache:' not in capsys.readouterr().out
        assert not (tmp_path / '.benchmarks').exists()


class TestCliSpecs:
    def test_cli_runs_spec_file(self, tmp_path, capsys):
        import json
        spec = {'app': 'x264', 'strategy': 'irs',
                'interference': {'width': 1},
                'workload': {'scale': 0.1}, 'name': 'demo'}
        path = tmp_path / 'spec.json'
        path.write_text(json.dumps(spec))
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert 'demo' in out
        assert 'Spec results' in out
