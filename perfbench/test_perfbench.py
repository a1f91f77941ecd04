"""The benchmark's own tests: fast slices of every workload, the output
check, and the contract between ``run.py`` and ``BENCHMARK.json``.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402

run.use_checkout()

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.experiments import figures  # noqa: E402
from repro.experiments.executor import execute_spec  # noqa: E402

SPEC = json.loads((ROOT / 'BENCHMARK.json').read_text())


def _bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / 'perfbench' / 'run.py'),
                           *argv], cwd=str(cwd), capture_output=True,
                          text=True, timeout=300, check=False)


def _declared(section):
    return {m['name']: m['unit'] for m in SPEC[section]}


def test_benchmark_json_declares_what_run_prints():
    assert set(SPEC['workloads'][i]['name']
               for i in range(len(SPEC['workloads']))) == set(
                   workloads.WORKLOADS)
    assert _declared('end_to_end') == run.END_TO_END
    assert _declared('per_layer') == run.per_layer_units()


def test_layers_follow_the_replint_ranks():
    sys.path.insert(0, str(ROOT))
    try:
        from tools.replint.passes.layering import RANKS
    finally:
        sys.path.remove(str(ROOT))
    assert set(layers.LAYERS) == set(RANKS)
    ranks = [RANKS[layer] for layer in layers.LAYERS]
    assert ranks == sorted(ranks)


@pytest.mark.parametrize('workload', sorted(workloads.WORKLOADS))
@pytest.mark.parametrize('trace', ['0', '1'])
def test_slice_prints_every_metric_with_its_unit(workload, trace):
    done = _bench('--workload', workload, '--seed', '3', '--seconds', '0',
                  '--trace', trace, '--limit', '2')
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {'correct', 'attempted', 'failed', 'metrics'}
    assert result['correct'] is True
    assert result['failed'] == 0
    assert result['attempted'] == (4 if trace == '1' else 2)
    expected = _declared('per_layer' if trace == '1' else 'end_to_end')
    assert {name: m['unit'] for name, m in result['metrics'].items()} \
        == expected
    human = '\n'.join(lines[:-1])
    for name, unit in expected.items():
        assert name in human and unit in human


def test_default_batches_are_the_quick_figure_batches(monkeypatch):
    captured = []

    def capture(specs):
        captured.append(list(specs))
        raise LookupError('captured')

    monkeypatch.setattr(figures, 'run_specs', capture)
    for figure, workload in ((figures.fig5, 'parsec-block'),
                             (figures.fig6, 'npb-spin')):
        with pytest.raises(LookupError):
            figure(quick=True)
        assert captured.pop() == workloads.build_batch(workload, 0)
    with pytest.raises(LookupError):
        figures.traffic_slo(quick=True)
    open_loop = [s for s in captured.pop() if s.open_loop]
    assert open_loop and set(open_loop) <= set(
        workloads.build_batch('serving-open', 0))


def test_seed_makes_the_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build_batch(name, 5) == workloads.build_batch(name, 5)
        assert workloads.build_batch(name, 5) != workloads.build_batch(name, 6)


@pytest.fixture(scope='module')
def slice_outcomes():
    specs = (workloads.build_batch('parsec-block', 0, limit=2)
             + workloads.build_batch('serving-open', 0, limit=1))
    return [execute_spec(spec) for spec in specs]


def test_unperturbed_outcomes_pass(slice_outcomes):
    failed, problems, records = workloads.check_pass(slice_outcomes)
    assert (failed, problems) == (0, [])
    expected = workloads.digest(records)
    assert workloads.check_pass(slice_outcomes, expected)[:2] == (0, [])


def test_perturbed_outcome_fails_the_whole_pass(slice_outcomes):
    expected = workloads.digest(workloads.check_pass(slice_outcomes)[2])
    outcome = slice_outcomes[0]
    saved = outcome.makespan_ns
    outcome.makespan_ns = saved + 1
    try:
        failed, problems, __ = workloads.check_pass(slice_outcomes, expected)
    finally:
        outcome.makespan_ns = saved
    assert failed == len(slice_outcomes)
    assert any('digest' in problem for problem in problems)


def test_bad_runs_count_as_failed(slice_outcomes):
    outcome, served = slice_outcomes[0], slice_outcomes[-1]
    saved = outcome.makespan_ns
    outcome.makespan_ns = None
    try:
        failed, problems, __ = workloads.check_pass(
            slice_outcomes + [None])
    finally:
        outcome.makespan_ns = saved
    assert failed == 2
    assert 'TIMEOUT' in problems[0] and 'RunError' in problems[1]
    assert workloads.run_problem(served) is None
    served.cluster['latency']['count'] += 1
    try:
        assert workloads.run_problem(served) is not None
    finally:
        served.cluster['latency']['count'] -= 1


def test_stored_baseline_covers_every_workload():
    stored = json.loads(run.BASELINE.read_text())
    assert stored['seed'] == 0
    for name in workloads.WORKLOADS:
        record = stored['workloads'][name]
        assert record['runs'] == len(workloads.build_batch(name, 0))
        assert record['counts']['sim_events'] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / 'perfbench',
                    ignore=shutil.ignore_patterns('__pycache__'))
    shutil.copy(ROOT / 'BENCHMARK.json', tmp_path)
    done = _bench('--workload', 'parsec-block', '--seed', '1', '--seconds',
                  '1', '--trace', '0', cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
