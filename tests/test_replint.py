"""Tests for the repro-lint static analysis framework (``tools/replint``).

Each pass gets fixture snippets (positive and negative), plus the
framework-level contracts: suppression comments, the baseline
round-trip, JSON output, and a clean run over the real tree.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.replint import (                      # noqa: E402
    PASSES,
    apply_baseline,
    load_baseline,
    run_passes,
    write_baseline,
)

ALL_PASSES = ('determinism', 'layering', 'protocol-exhaustiveness',
              'rng-discipline', 'taxonomy-drift')


def make_tree(tmp_path, files):
    """Write ``{relpath: source}`` under a src root; returns the root."""
    src = tmp_path / 'src'
    for rel, text in files.items():
        path = src / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return src


def lint(tmp_path, files, passes):
    src = make_tree(tmp_path, files)
    findings, _ = run_passes(src, pass_names=list(passes))
    return [f for f in findings if f.active]


class TestFramework:
    def test_all_five_passes_registered(self):
        assert tuple(sorted(PASSES)) == ALL_PASSES

    def test_unknown_pass_rejected(self, tmp_path):
        make_tree(tmp_path, {'repro/obs/mod.py': 'x = 1\n'})
        try:
            run_passes(tmp_path / 'src', pass_names=['nope'])
        except ValueError as exc:
            assert 'unknown pass' in str(exc)
        else:
            raise AssertionError('expected ValueError')

    def test_findings_sorted_and_located(self, tmp_path):
        active = lint(tmp_path, {'repro/obs/mod.py': (
            'import time\n'
            'a = time.time()\n'
            'b = time.monotonic()\n')}, ['determinism'])
        assert [f.line for f in active] == [2, 3]
        assert active[0].path == 'repro/obs/mod.py'
        assert 'repro/obs/mod.py:2' in active[0].render()


class TestDeterminismPass:
    def _lint(self, tmp_path, source):
        return lint(tmp_path, {'repro/simkernel/mod.py': source},
                    ['determinism'])

    def test_wall_clock_flagged(self, tmp_path):
        active = self._lint(tmp_path, (
            'import time\n'
            'def f():\n'
            '    return time.time()\n'))
        assert len(active) == 1
        assert active[0].key == 'wallclock:time.time'

    def test_datetime_now_flagged(self, tmp_path):
        active = self._lint(tmp_path, (
            'from datetime import datetime\n'
            'stamp = datetime.now()\n'))
        assert [f.key for f in active] == ['wallclock:datetime.now']

    def test_sim_clock_clean(self, tmp_path):
        assert self._lint(tmp_path, (
            'def f(sim):\n'
            '    return sim.now\n')) == []

    def test_global_rng_flagged(self, tmp_path):
        active = self._lint(tmp_path, (
            'import random\n'
            'def f():\n'
            '    return random.randint(0, 10)\n'))
        assert any(f.key == 'global-rng:random.randint' for f in active)

    def test_min_over_set_flagged(self, tmp_path):
        active = self._lint(tmp_path, (
            'def f(names):\n'
            '    pool = set(names)\n'
            '    return min(pool)\n'))
        assert [f.key for f in active] == ['set-iteration']

    def test_min_over_sorted_set_clean(self, tmp_path):
        assert self._lint(tmp_path, (
            'def f(names):\n'
            '    pool = set(names)\n'
            '    return min(sorted(pool))\n')) == []

    def test_list_comprehension_over_set_literal_flagged(self, tmp_path):
        active = self._lint(tmp_path, (
            "def f():\n"
            "    return [n for n in {'a', 'b'}]\n"))
        assert [f.key for f in active] == ['set-iteration']

    def test_set_difference_into_list_flagged(self, tmp_path):
        active = self._lint(tmp_path, (
            'def f(a, b):\n'
            '    gone = set(a) - set(b)\n'
            '    return list(gone)\n'))
        assert [f.key for f in active] == ['set-iteration']

    def test_loop_building_list_from_set_flagged(self, tmp_path):
        active = self._lint(tmp_path, (
            'def f(items):\n'
            '    seen = set(items)\n'
            '    out = []\n'
            '    for item in seen:\n'
            '        out.append(item)\n'
            '    return out\n'))
        assert [f.key for f in active] == ['set-iteration']

    def test_membership_only_loop_clean(self, tmp_path):
        assert self._lint(tmp_path, (
            'def f(items, flags):\n'
            '    seen = set(items)\n'
            '    total = 0\n'
            '    for item in seen:\n'
            '        total += flags[item]\n'
            '    return total\n')) == []

    def test_dict_iteration_clean(self, tmp_path):
        # Dicts are insertion-ordered; only sets are hash-ordered.
        assert self._lint(tmp_path, (
            'def f(table):\n'
            '    return [v for v in table.values()]\n')) == []

    def test_sort_keyed_on_id_flagged(self, tmp_path):
        active = self._lint(tmp_path, (
            'def f(tasks):\n'
            '    return sorted(tasks, key=id)\n'))
        assert [f.key for f in active] == ['id-ordering']


class TestRngDisciplinePass:
    def test_raw_construction_flagged(self, tmp_path):
        active = lint(tmp_path, {'repro/workloads/mod.py': (
            'import random\n'
            'rng = random.Random(7)\n')}, ['rng-discipline'])
        assert {f.key for f in active} == {'import-random',
                                           'raw-random-ctor'}

    def test_from_import_construction_flagged(self, tmp_path):
        active = lint(tmp_path, {'repro/faults/mod.py': (
            'from random import Random\n'
            'rng = Random()\n')}, ['rng-discipline'])
        assert {f.key for f in active} == {'import-random',
                                           'raw-random-ctor'}

    def test_registry_module_exempt(self, tmp_path):
        assert lint(tmp_path, {'repro/simkernel/rng.py': (
            'import random\n'
            'def stream(seed):\n'
            '    return random.Random(seed)\n')}, ['rng-discipline']) == []

    def test_named_stream_usage_clean(self, tmp_path):
        assert lint(tmp_path, {'repro/faults/mod.py': (
            'def draw(sim):\n'
            "    return sim.rng.stream('faults.flip').random()\n")},
            ['rng-discipline']) == []


REGISTRY_FIXTURE = {
    'repro/obs/phases.py': (
        "PHASE_OFFER = 'sa.offer'\n"
        "PHASE_VIRQ = 'sa.virq'\n"),
    'repro/obs/eventlog.py': (
        "EVENT_PLACE = 'vm.place'\n"
        "EVENT_CRASH = 'host.crash'\n"),
    'repro/obs/histograms.py': (
        "DECLARED_METRICS = frozenset(('hv.wakes', 'irs.sa_sent'))\n"
        "DECLARED_METRIC_FAMILIES = frozenset(('placements',))\n"),
}


class TestTaxonomyDriftPass:
    def _lint(self, tmp_path, source, rel='repro/core/mod.py'):
        files = dict(REGISTRY_FIXTURE)
        files[rel] = source
        return lint(tmp_path, files, ['taxonomy-drift'])

    def test_declared_phase_clean(self, tmp_path):
        assert self._lint(tmp_path, (
            'from ..obs.phases import PHASE_OFFER\n'
            'def probe(spans, now, vcpu):\n'
            '    spans.begin(now, PHASE_OFFER, vcpu)\n')) == []

    def test_undeclared_phase_flagged(self, tmp_path):
        active = self._lint(tmp_path, (
            'def probe(spans, now, vcpu):\n'
            "    spans.begin(now, 'sa.wormhole', vcpu)\n"))
        assert [f.key for f in active] == ['phase:sa.wormhole']

    def test_phase_valued_instant_accepts_event_kinds(self, tmp_path):
        # Health markers mirror the event-kind vocabulary by design.
        assert self._lint(tmp_path, (
            'from ..obs import eventlog\n'
            'def mark(spans, now):\n'
            "    spans.instant(now, eventlog.EVENT_CRASH, 'track')\n")) == []

    def test_undeclared_event_kind_flagged(self, tmp_path):
        active = self._lint(tmp_path, (
            'def emit(log, now):\n'
            "    log.append(now, 'vm.teleported', vm='v0')\n"))
        assert [f.key for f in active] == ['kind:vm.teleported']

    def test_declared_event_kind_clean(self, tmp_path):
        assert self._lint(tmp_path, (
            'from ..obs import eventlog\n'
            'def emit(log, now):\n'
            "    log.append(now, eventlog.EVENT_PLACE, vm='v0')\n")) == []

    def test_undeclared_counter_flagged(self, tmp_path):
        active = self._lint(tmp_path, (
            'def tick(sim):\n'
            "    sim.trace.count('hv.wormholes')\n"))
        assert [f.key for f in active] == ['metric:hv.wormholes']

    def test_declared_counter_and_family_clean(self, tmp_path):
        assert self._lint(tmp_path, (
            'def tick(sim, scope):\n'
            "    sim.trace.count('hv.wakes')\n"
            "    scope.count('placements')\n")) == []

    def test_undeclared_registry_metric_flagged(self, tmp_path):
        active = self._lint(tmp_path, (
            'def snap(registry):\n'
            "    registry.set_gauge('mystery_depth', 3)\n"))
        assert [f.key for f in active] == ['metric:mystery_depth']

    def test_dynamic_names_skipped(self, tmp_path):
        assert self._lint(tmp_path, (
            'def snap(registry, name):\n'
            '    registry.count(name)\n'
            "    registry.count('host.%s.x' % name)\n")) == []

    # One positive (undeclared name flagged) and one negative (declared
    # name clean) fixture per metric write form.
    WRITE_FORMS = (
        ('tracer', "def f(self):\n    self.sim.trace.count(%r)\n"),
        ('registry', "def f(registry):\n    registry.count(%r, 2)\n"),
        ('scoped_view', "def f(self):\n    self.metrics.count(%r)\n"),
        ('pipeline_METRICS', "from .cache import METRICS\n"
                             "def f():\n    METRICS.count(%r)\n"),
        ('gauge_setter', "def f(scope):\n    scope.set_gauge(%r, 0.5)\n"),
        ('histogram', "def f(registry):\n"
                      "    registry.histogram(%r).record(1)\n"),
    )

    @pytest.mark.parametrize('form', [f for __, f in WRITE_FORMS],
                             ids=[name for name, __ in WRITE_FORMS])
    def test_every_write_form_flags_undeclared_names(self, tmp_path, form):
        active = self._lint(tmp_path, form % 'hv.wormholes')
        assert [f.key for f in active] == ['metric:hv.wormholes']

    @pytest.mark.parametrize('form', [f for __, f in WRITE_FORMS],
                             ids=[name for name, __ in WRITE_FORMS])
    def test_every_write_form_accepts_declared_names(self, tmp_path, form):
        assert self._lint(tmp_path, form % 'hv.wakes') == []
        assert self._lint(tmp_path, form % 'placements') == []

    def test_non_metric_counts_skipped(self, tmp_path):
        assert self._lint(tmp_path, (
            'import itertools\n'
            'def f(line, rows):\n'
            '    ids = itertools.count(1)\n'
            "    n = 'hv.wormholes'.count('.')\n"
            "    m = line.count('hv.wormholes')\n"
            "    return rows.count('hv.wormholes') + n + m, ids\n")) == []

    def test_local_constant_resolved(self, tmp_path):
        active = self._lint(tmp_path, (
            "MY_KIND = 'vm.undeclared'\n"
            'def emit(log, now):\n'
            '    log.append(now, MY_KIND)\n'))
        assert [f.key for f in active] == ['kind:vm.undeclared']

    def test_single_arg_append_is_not_an_event(self, tmp_path):
        assert self._lint(tmp_path, (
            'def collect(rows):\n'
            "    rows.append('vm.teleported')\n")) == []


PROTOCOL_OK = (
    "SA_A = 'a'\n"
    "SA_B = 'b'\n"
    "SA_STATES = (SA_A, SA_B)\n"
    "EDGE_GO = 'go'\n"
    "EDGE_STOP = 'stop'\n"
    "SA_EDGES = (EDGE_GO, EDGE_STOP)\n"
    'LEGAL_TRANSITIONS = {\n'
    '    (SA_A, EDGE_GO): SA_B,\n'
    '    (SA_B, EDGE_STOP): SA_A,\n'
    '}\n'
    'ILLEGAL_TRANSITIONS = frozenset((\n'
    '    (SA_A, EDGE_STOP),\n'
    '    (SA_B, EDGE_GO),\n'
    '))\n')


class TestProtocolExhaustivenessPass:
    def _lint(self, tmp_path, source):
        return lint(tmp_path, {'repro/core/protocol.py': source},
                    ['protocol-exhaustiveness'])

    def test_total_table_clean(self, tmp_path):
        assert self._lint(tmp_path, PROTOCOL_OK) == []

    def test_unclassified_pair_flagged(self, tmp_path):
        broken = PROTOCOL_OK.replace('    (SA_B, EDGE_GO),\n', '')
        active = self._lint(tmp_path, broken)
        assert [f.key for f in active] == ['unclassified:b:go']

    def test_contradiction_flagged(self, tmp_path):
        broken = PROTOCOL_OK.replace(
            '    (SA_A, EDGE_STOP),\n',
            '    (SA_A, EDGE_STOP),\n    (SA_A, EDGE_GO),\n')
        active = self._lint(tmp_path, broken)
        assert [f.key for f in active] == ['contradiction:a:go']

    def test_unlisted_edge_constant_flagged(self, tmp_path):
        broken = PROTOCOL_OK + "EDGE_WARP = 'warp'\n"
        active = self._lint(tmp_path, broken)
        # The stray edge is itself a finding, and nothing classifies
        # the states against it.
        keys = {f.key for f in active}
        assert 'unlisted-edge:warp' in keys

    def test_missing_tables_flagged(self, tmp_path):
        active = self._lint(tmp_path, "SA_STATES = ('a',)\n")
        keys = {f.key for f in active}
        assert 'missing-table:SA_EDGES' in keys
        assert 'missing-table:ILLEGAL_TRANSITIONS' in keys

    def test_real_protocol_module_is_total(self):
        findings, _ = run_passes(REPO_ROOT / 'src',
                                 pass_names=['protocol-exhaustiveness'])
        assert [f for f in findings if f.active] == []


class TestLayeringPass:
    def test_upward_import_flagged(self, tmp_path):
        active = lint(tmp_path, {'repro/simkernel/mod.py':
                                 'from repro.core import x\n'},
                      ['layering'])
        assert [f.key for f in active] == ['upward:simkernel->core']

    def test_lazy_import_clean(self, tmp_path):
        assert lint(tmp_path, {'repro/simkernel/mod.py': (
            'def build():\n'
            '    from repro.cluster import Cluster\n'
            '    return Cluster\n')}, ['layering']) == []

    def test_upward_relative_import_flagged(self, tmp_path):
        active = lint(tmp_path, {'repro/simkernel/mod.py':
                                 'from ..cluster import host\n'},
                      ['layering'])
        assert [f.key for f in active] == ['upward:simkernel->cluster']

    def test_upward_plain_import_flagged(self, tmp_path):
        active = lint(tmp_path, {'repro/simkernel/mod.py':
                                 'import repro.experiments.cli\n'},
                      ['layering'])
        assert [f.key for f in active] == ['upward:simkernel->experiments']

    def test_class_body_import_counts_as_module_level(self, tmp_path):
        active = lint(tmp_path, {'repro/simkernel/mod.py': (
            'class C:\n'
            '    from repro.core import install_irs\n')}, ['layering'])
        assert [f.key for f in active] == ['upward:simkernel->core']

    def test_downward_and_sibling_imports_clean(self, tmp_path):
        assert lint(tmp_path, {'repro/simkernel/mod.py': (
            'from repro.obs.phases import PHASE_VIRQ\n'
            'from .units import MS\n')}, ['layering']) == []

    def test_equal_rank_pair_allowed_both_ways(self, tmp_path):
        assert lint(tmp_path, {
            'repro/hypervisor/mod.py': 'from ..guestos import GuestKernel\n',
            'repro/guestos/mod.py': 'from ..hypervisor import Machine\n',
        }, ['layering']) == []

    def test_unranked_package_flagged(self, tmp_path):
        active = lint(tmp_path, {'repro/newpkg/mod.py': 'x = 1\n'},
                      ['layering'])
        assert [f.key for f in active] == ['unranked:newpkg']

    def test_upward_absolute_import_flagged(self, tmp_path):
        active = lint(tmp_path, {'repro/simkernel/mod.py': (
            'import os\n'
            'from repro.core import x\n')}, ['layering'])
        assert [(f.line, f.key) for f in active] == [
            (2, 'upward:simkernel->core')]
        assert 'upward import' in active[0].message

    def test_lazy_import_exempt(self, tmp_path):
        assert lint(tmp_path, {'repro/simkernel/mod.py': (
            'class C:\n'
            '    def build(self):\n'
            '        from repro.cluster import Cluster\n'
            '        return Cluster\n'
            'async def fetch():\n'
            '    import repro.traffic\n')}, ['layering']) == []

    def test_no_upward_imports(self):
        # Stricter than the all-pass run: nothing suppressed or baselined.
        findings, _ = run_passes(REPO_ROOT / 'src', pass_names=['layering'])
        assert [f.render() for f in findings] == []

    def test_every_package_is_ranked(self):
        from tools.replint.passes.layering import RANKS
        packages = {p.name for p in (REPO_ROOT / 'src' / 'repro').iterdir()
                    if p.is_dir() and (p / '__init__.py').exists()}
        assert packages == set(RANKS)


class TestSuppression:
    def test_same_line_suppression(self, tmp_path):
        active = lint(tmp_path, {'repro/obs/mod.py': (
            'import time\n'
            'a = time.time()  # replint: disable=determinism\n')},
            ['determinism'])
        assert active == []

    def test_standalone_line_above_suppression(self, tmp_path):
        active = lint(tmp_path, {'repro/obs/mod.py': (
            'import time\n'
            '# wall-clock on purpose  # replint: disable=determinism\n'
            'a = time.time()\n')}, ['determinism'])
        assert active == []

    def test_disable_all(self, tmp_path):
        active = lint(tmp_path, {'repro/obs/mod.py': (
            'import time\n'
            'a = time.time()  # replint: disable=all\n')},
            ['determinism'])
        assert active == []

    def test_wrong_pass_name_does_not_suppress(self, tmp_path):
        active = lint(tmp_path, {'repro/obs/mod.py': (
            'import time\n'
            'a = time.time()  # replint: disable=layering\n')},
            ['determinism'])
        assert len(active) == 1

    def test_suppressed_findings_still_reported_inactive(self, tmp_path):
        src = make_tree(tmp_path, {'repro/obs/mod.py': (
            'import time\n'
            'a = time.time()  # replint: disable=determinism\n')})
        findings, _ = run_passes(src, pass_names=['determinism'])
        assert len(findings) == 1
        assert findings[0].suppressed and not findings[0].active


class TestBaselineRoundTrip:
    FILES = {'repro/obs/mod.py': (
        'import time\n'
        'a = time.time()\n')}

    def test_round_trip(self, tmp_path):
        src = make_tree(tmp_path, self.FILES)
        findings, _ = run_passes(src, pass_names=['determinism'])
        active = [f for f in findings if f.active]
        assert len(active) == 1

        baseline = tmp_path / 'baseline.json'
        write_baseline(baseline, active)
        entries = load_baseline(baseline)
        assert len(entries) == 1 and entries[0]['why']

        findings, stale = run_passes(src, pass_names=['determinism'],
                                     baseline_path=baseline)
        assert stale == []
        assert [f for f in findings if f.active] == []
        assert findings[0].baselined

    def test_baseline_pins_by_key_not_line(self, tmp_path):
        src = make_tree(tmp_path, self.FILES)
        findings, _ = run_passes(src, pass_names=['determinism'])
        baseline = tmp_path / 'baseline.json'
        write_baseline(baseline, findings)
        # Shift the finding two lines down: still baselined.
        (src / 'repro/obs/mod.py').write_text(
            'import time\n\n\na = time.time()\n')
        findings, stale = run_passes(src, pass_names=['determinism'],
                                     baseline_path=baseline)
        assert stale == []
        assert [f for f in findings if f.active] == []

    def test_stale_entry_reported(self, tmp_path):
        src = make_tree(tmp_path, {'repro/obs/mod.py': 'a = 1\n'})
        entries = [{'pass': 'determinism', 'file': 'repro/obs/mod.py',
                    'key': 'wallclock:time.time', 'why': 'gone now'}]
        findings = []
        stale = apply_baseline(findings, entries)
        assert stale == entries

    def test_malformed_entry_rejected(self, tmp_path):
        path = tmp_path / 'baseline.json'
        path.write_text(json.dumps([{'pass': 'determinism'}]))
        try:
            load_baseline(path)
        except ValueError as exc:
            assert 'missing' in str(exc)
        else:
            raise AssertionError('expected ValueError')


class TestRealTreeAndCli:
    def test_real_tree_has_no_active_findings(self):
        findings, stale = run_passes(
            REPO_ROOT / 'src',
            baseline_path=REPO_ROOT / 'tools' / 'replint' / 'baseline.json')
        assert stale == []
        assert [f.render() for f in findings if f.active] == []

    def test_cli_json_output(self):
        proc = subprocess.run(
            [sys.executable, '-m', 'tools.replint', '--format', 'json'],
            cwd=REPO_ROOT, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert sorted(payload['passes']) == list(ALL_PASSES)
        assert payload['summary']['active'] == 0
        for finding in payload['findings']:
            assert finding['suppressed'] or finding['baselined']

    def test_cli_exits_nonzero_on_injected_finding(self, tmp_path):
        src = make_tree(tmp_path, {'repro/obs/mod.py': (
            'import random\n'
            'rng = random.Random()\n')})
        proc = subprocess.run(
            [sys.executable, '-m', 'tools.replint', '--src', str(src),
             '--no-baseline'],
            cwd=REPO_ROOT, capture_output=True, text=True)
        assert proc.returncode == 1
        assert 'repro/obs/mod.py:2' in proc.stderr

    def test_cli_list_passes(self):
        proc = subprocess.run(
            [sys.executable, '-m', 'tools.replint', '--list-passes'],
            cwd=REPO_ROOT, capture_output=True, text=True)
        assert proc.returncode == 0
        for name in ALL_PASSES:
            assert name in proc.stdout
