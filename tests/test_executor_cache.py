"""Tests for the declarative run-spec pipeline: RunSpec hashing, the
serial/parallel executors, and the determinism-keyed result cache."""

import functools
import pickle

import pytest

from repro.experiments import (
    InterferenceSpec,
    ParallelRunner,
    ResultCache,
    RunError,
    RunSpec,
    SerialExecutor,
    SpecError,
    parallel_spec,
    pipeline_counters,
    probe_spec,
    run_specs,
    server_spec,
    spec_from_dict,
)
from repro.experiments.cache import code_fingerprint
from repro.experiments.figures import fig5, fig10


def _runner(executor=None, cache=None):
    return functools.partial(run_specs, executor=executor, cache=cache)


def _counters():
    return pipeline_counters()


def _delta(after, before, name):
    return after.get(name, 0) - before.get(name, 0)


SMALL = parallel_spec('streamcluster', 'irs', InterferenceSpec('hogs', 1),
                      scale=0.15)


class TestRunSpec:
    def test_frozen_and_hashable(self):
        spec = parallel_spec('x264', 'irs', InterferenceSpec('hogs', 2),
                             seed=3, scale=0.5)
        same = parallel_spec('x264', 'irs', InterferenceSpec('hogs', 2),
                             seed=3, scale=0.5)
        assert spec == same
        assert hash(spec) == hash(same)
        assert len({spec, same}) == 1
        with pytest.raises(Exception):
            spec.seed = 4

    def test_picklable(self):
        spec = server_spec('specjbb', 'irs', n_hogs=2)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_cache_token_changes_with_any_field(self):
        base = parallel_spec('x264', 'irs', InterferenceSpec('hogs', 2))
        assert base.cache_token() == parallel_spec(
            'x264', 'irs', InterferenceSpec('hogs', 2)).cache_token()
        for changed in (base.replace(seed=1), base.replace(scale=0.9),
                        base.replace(strategy='ple'),
                        base.replace(faults='sa-loss-10'),
                        base.replace(spans=True)):
            assert changed.cache_token() != base.cache_token()

    def test_interference_normalized(self):
        spec = parallel_spec('UA', interference=InterferenceSpec(
            'hogs', 2, n_vms=3))
        assert spec.interference == ('hogs', 2, 3)
        assert spec.interference_spec.width == 2
        assert spec.interference_spec.n_vms == 3

    def test_irs_overrides_sorted(self):
        a = parallel_spec('UA', 'irs', irs={'sa_ack_retries': 1,
                                            'migrator_retries': 0})
        b = parallel_spec('UA', 'irs', irs=(('migrator_retries', 0),
                                            ('sa_ack_retries', 1)))
        assert a == b

    def test_validation(self):
        with pytest.raises(SpecError):
            RunSpec(app='UA', kind='quantum')
        with pytest.raises(SpecError):
            RunSpec(app='UA', strategy='quantum')
        with pytest.raises(SpecError):
            RunSpec(app='memcached', kind='server')
        with pytest.raises(SpecError):
            RunSpec(app='UA', interference=('hogs', 1))

    def test_spec_from_dict(self):
        spec = spec_from_dict({
            'app': 'streamcluster', 'strategy': 'irs', 'seed': 1,
            'machine': {'n_pcpus': 4, 'fg_vcpus': 4, 'pinned': True},
            'interference': {'kind': 'hogs', 'width': 1},
            'workload': {'scale': 0.15},
        })
        assert spec.app == 'streamcluster'
        assert spec.strategy == 'irs'
        assert spec.interference == ('hogs', 1, 1)
        assert spec.scale == 0.15


class TestExecutors:
    def test_serial_matches_direct_harness(self):
        from repro.experiments import run_parallel
        direct = run_parallel('streamcluster', 'irs',
                              InterferenceSpec('hogs', 1), scale=0.15)
        outcome = run_specs([SMALL], executor=SerialExecutor(),
                            cache=None)[0]
        assert outcome.makespan_ns == direct.makespan_ns
        assert outcome.utilization == direct.utilization

    def test_deterministic_result_ordering(self):
        specs = [SMALL.replace(seed=seed) for seed in (3, 1, 2, 0)]
        outcomes = run_specs(specs, executor=ParallelRunner(jobs=4),
                             cache=None)
        assert [o.spec.seed for o in outcomes] == [3, 1, 2, 0]

    def test_parallel_matches_serial_outcomes(self):
        specs = [SMALL.replace(seed=seed) for seed in range(3)]
        serial = run_specs(specs, executor=SerialExecutor(), cache=None)
        parallel = run_specs(specs, executor=ParallelRunner(jobs=3),
                             cache=None)
        assert ([o.makespan_ns for o in serial]
                == [o.makespan_ns for o in parallel])
        assert ([o.utilization for o in serial]
                == [o.utilization for o in parallel])

    def test_duplicate_specs_run_once(self):
        before = _counters()
        outcomes = run_specs([SMALL, SMALL, SMALL], cache=None)
        after = _counters()
        assert _delta(after, before, 'executor.dispatched') == 1
        assert len(outcomes) == 3
        assert outcomes[0].makespan_ns == outcomes[2].makespan_ns

    def test_probe_and_server_kinds(self):
        probe, server = run_specs(
            [probe_spec(1, seed=0),
             server_spec('specjbb', 'vanilla', n_hogs=1,
                         measure_ns=500 * 10**6)],
            cache=None)
        assert probe.probe_latency_ns > 0
        assert server.throughput > 50
        assert server.latency_summary['p99'] > 0

    def test_crashing_worker_surfaces_failing_spec(self):
        good = SMALL
        bad = parallel_spec('no-such-benchmark', 'vanilla')
        with pytest.raises(RunError) as excinfo:
            run_specs([good, bad], executor=ParallelRunner(jobs=2),
                      cache=None)
        assert excinfo.value.spec == bad
        assert 'no-such-benchmark' in str(excinfo.value)

    def test_serial_crash_names_spec_too(self):
        bad = parallel_spec('no-such-benchmark', 'vanilla')
        with pytest.raises(RunError) as excinfo:
            run_specs([bad], executor=SerialExecutor(), cache=None)
        assert excinfo.value.spec == bad


@pytest.fixture(scope='module')
def serial_table(tmp_path_factory):
    """``serial_table(driver)`` -> ``(table, cache)``: the driver's
    quick table from a serial pass through a cold result cache, which
    that pass fills. Computed once per driver for the module, so each
    figure's serial table costs one pass."""
    computed = {}

    def compute(driver):
        if driver not in computed:
            cache = ResultCache(
                root=str(tmp_path_factory.mktemp(driver.__name__)))
            table = driver(quick=True, run=_runner(cache=cache)).table()
            computed[driver] = (table, cache)
        return computed[driver]
    return compute


class TestFigureEquivalence:
    """Acceptance: ParallelRunner and SerialExecutor produce
    byte-identical figure tables, and a cached second invocation does
    not dispatch a single simulation."""

    def test_fig5_quick_parallel_bit_identical(self, serial_table):
        serial, __ = serial_table(fig5)
        parallel = fig5(quick=True, run=_runner(ParallelRunner(jobs=4)))
        assert parallel.table() == serial

    def test_fig10_quick_parallel_bit_identical(self, serial_table):
        serial, __ = serial_table(fig10)
        parallel = fig10(quick=True, run=_runner(ParallelRunner(jobs=4)))
        assert parallel.table() == serial

    def test_fig5_quick_cached_second_run_is_free(self, serial_table):
        first, cache = serial_table(fig5)
        mid = _counters()
        second = fig5(quick=True, run=_runner(cache=cache)).table()
        after = _counters()
        assert second == first
        assert _delta(after, mid, 'executor.dispatched') == 0
        assert _delta(after, mid, 'executor.runs') == 0
        assert _delta(after, mid, 'runcache.miss') == 0
        assert _delta(after, mid, 'runcache.hit') > 0

    def test_fig10_quick_cached_second_run_is_free(self, serial_table):
        first, cache = serial_table(fig10)
        mid = _counters()
        second = fig10(quick=True, run=_runner(cache=cache)).table()
        after = _counters()
        assert second == first
        assert _delta(after, mid, 'executor.dispatched') == 0

    def test_cluster_figure_parallel_and_cache(self, tmp_path):
        from repro.experiments.figures import cluster_consolidation
        serial = cluster_consolidation(quick=True).table()
        parallel = _runner(ParallelRunner(jobs=2))
        assert cluster_consolidation(quick=True,
                                     run=parallel).table() == serial
        run = _runner(ParallelRunner(jobs=2),
                      ResultCache(root=str(tmp_path)))
        first = cluster_consolidation(quick=True, run=run).table()
        mid = _counters()
        second = cluster_consolidation(quick=True, run=run).table()
        after = _counters()
        assert second == first == serial
        assert _delta(after, mid, 'executor.dispatched') == 0


class TestResultCache:
    def test_hit_skips_simulation(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        before = _counters()
        first = run_specs([SMALL], cache=cache)[0]
        mid = _counters()
        assert _delta(mid, before, 'runcache.miss') == 1
        assert _delta(mid, before, 'executor.dispatched') == 1
        second = run_specs([SMALL], cache=cache)[0]
        after = _counters()
        assert _delta(after, mid, 'runcache.hit') == 1
        assert _delta(after, mid, 'executor.dispatched') == 0
        assert second.makespan_ns == first.makespan_ns
        assert (second.metrics.vms['fg'].run_ns
                == first.metrics.vms['fg'].run_ns)

    def test_spec_change_invalidates(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        run_specs([SMALL], cache=cache)
        before = _counters()
        run_specs([SMALL.replace(seed=5)], cache=cache)
        after = _counters()
        assert _delta(after, before, 'runcache.miss') == 1
        assert _delta(after, before, 'executor.dispatched') == 1

    def test_code_fingerprint_invalidates(self, tmp_path):
        old = ResultCache(root=str(tmp_path), fingerprint='old-code')
        run_specs([SMALL], cache=old)
        new = ResultCache(root=str(tmp_path), fingerprint='new-code')
        before = _counters()
        run_specs([SMALL], cache=new)
        after = _counters()
        assert _delta(after, before, 'runcache.miss') == 1
        assert _delta(after, before, 'executor.dispatched') == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        run_specs([SMALL], cache=cache)
        entries = list(tmp_path.glob('*.pkl'))
        assert len(entries) == 1
        entries[0].write_bytes(b'not a pickle')
        before = _counters()
        outcome = run_specs([SMALL], cache=cache)[0]
        after = _counters()
        assert _delta(after, before, 'runcache.miss') == 1
        assert outcome.completed
        # The corrupt entry was evicted and replaced by a fresh store.
        assert cache.load(SMALL) is not None

    def test_fingerprint_tracks_source(self, tmp_path):
        src = tmp_path / 'pkg'
        src.mkdir()
        (src / 'a.py').write_text('x = 1\n')
        first = code_fingerprint(str(src))
        assert code_fingerprint(str(src)) == first     # stable
        (src / 'a.py').write_text('x = 2\n')
        # Explicit roots are re-hashed every call (no stale memo): the
        # edit is observed without any cache-poking.
        assert code_fingerprint(str(src)) != first

    def test_fingerprint_covers_new_subpackages(self, tmp_path):
        # Regression: the fingerprint must cover files added in *new*
        # nested subpackages (e.g. repro/cluster/), or stale cache hits
        # would survive cluster-code edits.
        src = tmp_path / 'pkg'
        src.mkdir()
        (src / 'a.py').write_text('x = 1\n')
        base = code_fingerprint(str(src))
        sub = src / 'cluster' / 'deep'
        sub.mkdir(parents=True)
        (sub / 'placement.py').write_text('y = 1\n')
        grown = code_fingerprint(str(src))
        assert grown != base
        (sub / 'placement.py').write_text('y = 2\n')
        assert code_fingerprint(str(src)) != grown

    def test_fingerprint_ignores_pycache_and_hidden(self, tmp_path):
        src = tmp_path / 'pkg'
        src.mkdir()
        (src / 'a.py').write_text('x = 1\n')
        base = code_fingerprint(str(src))
        cache_dir = src / '__pycache__'
        cache_dir.mkdir()
        (cache_dir / 'a.cpython-311.py').write_text('junk\n')
        hidden = src / '.git'
        hidden.mkdir()
        (hidden / 'hook.py').write_text('junk\n')
        assert code_fingerprint(str(src)) == base
