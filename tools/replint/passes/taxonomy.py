"""taxonomy-drift pass: emitted names must be declared in a registry.

Three vocabularies are declared in ``repro.obs`` and consumed by every
report, exporter, and CI determinism gate:

* **span phases** — the ``PHASE_*`` constants of ``obs/phases.py``;
* **event kinds** — the ``EVENT_*`` constants of ``obs/eventlog.py``;
* **metric names** — ``DECLARED_METRICS`` / ``DECLARED_METRIC_FAMILIES``
  in ``obs/histograms.py`` (full counter/gauge/histogram names, plus
  the short per-scope family names used through ``ScopedRegistry``).

A string that reaches an emission sink (``spans.begin/instant/
end_phase``, ``EventLog.append``, ``count`` on the tracer / a registry
/ a scoped view / the pipeline's ``METRICS``, ``set_gauge``,
``histogram``) without being declared is
*taxonomy drift*: the name silently falls out of every registry-driven
report — exactly how the fig5 costop metrics and the profiles.py
cross-contamination went unnoticed. The pass resolves names through
module-level constants and ``PHASE_*``/``EVENT_*`` imports; genuinely
dynamic names (format strings, variables) are outside its scope and
are skipped, not guessed at.

Histograms may also be registered under a declared span phase (span
durations feed the histogram of the same name), and span *markers*
mirroring a declared event kind are allowed (the cluster health
timeline re-emits lifecycle kinds as instants).
"""

import ast

from ..framework import Finding, call_name, module_constants, register_pass

PASS = 'taxonomy-drift'

PHASES_FILE = 'repro/obs/phases.py'
EVENTLOG_FILE = 'repro/obs/eventlog.py'
HISTOGRAMS_FILE = 'repro/obs/histograms.py'

SPAN_METHODS = frozenset(('begin', 'instant', 'end_phase'))
#: Metric writes and the number of positional arguments they take.
METRIC_WRITES = {'histogram': 1, 'set_gauge': 2}
#: Receivers whose ``.count(name)`` is a counter write (the tracer, a
#: registry, a host's scoped view, the pipeline's ``METRICS``) — unlike
#: ``str.count`` or ``itertools.count``.
COUNT_RECEIVERS = frozenset(('trace', 'registry', 'metrics', 'METRICS'))


def _registry_constants(project, rel, prefix):
    """``{name: value}`` of ``prefix``-named string constants declared
    at module level in ``rel`` (e.g. every ``PHASE_*`` of phases.py)."""
    source = project.file(rel)
    if source is None:
        return {}
    return {name: value
            for name, value in module_constants(source.tree).items()
            if name.startswith(prefix) and isinstance(value, str)}


def _declared_metrics(project):
    """The two metric-name sets declared beside the MetricsRegistry."""
    source = project.file(HISTOGRAMS_FILE)
    if source is None:
        return set(), set()
    consts = module_constants(source.tree)
    full = set(consts.get('DECLARED_METRICS') or ())
    families = set(consts.get('DECLARED_METRIC_FAMILIES') or ())
    return full, families


def _receiver(chain):
    """Last name before the method in a dotted callee: ``'trace'`` for
    ``'self.sim.trace.count'``, ``''`` for a literal's method."""
    return chain.rpartition('.')[0].rpartition('.')[2]


class _Resolver:
    """Resolve an emission-site argument to a string, through local
    module constants and the shared ``PHASE_*``/``EVENT_*`` vocabulary
    (both ``from ... import PHASE_X`` and ``eventlog.EVENT_X`` forms).
    Returns None for genuinely dynamic expressions."""

    def __init__(self, source, shared):
        self.consts = module_constants(source.tree)
        self.shared = shared          # name -> declared value

    def resolve(self, node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            value = self.consts.get(node.id, self.shared.get(node.id))
            return value if isinstance(value, str) else None
        if isinstance(node, ast.Attribute):
            value = self.shared.get(node.attr)
            return value if isinstance(value, str) else None
        return None


@register_pass(PASS, 'emitted event kinds / span phases / metric names '
                     'must be declared in the obs registries')
def run(project):
    phases = set(_registry_constants(project, PHASES_FILE,
                                     'PHASE_').values())
    kinds = set(_registry_constants(project, EVENTLOG_FILE,
                                    'EVENT_').values())
    metrics, families = _declared_metrics(project)
    if not phases and not kinds and not metrics:
        return                        # no registries in this tree
    shared = {}
    shared.update(_registry_constants(project, PHASES_FILE, 'PHASE_'))
    shared.update(_registry_constants(project, EVENTLOG_FILE, 'EVENT_'))

    metric_ok = metrics | families | phases | kinds
    span_ok = phases | kinds

    for source in project.files:
        if source.rel in (PHASES_FILE, EVENTLOG_FILE, HISTOGRAMS_FILE):
            continue
        resolver = _Resolver(source, shared)
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            method = node.func.attr
            chain = call_name(node) or ''
            if method in SPAN_METHODS and len(node.args) >= 2 \
                    and ('spans.' + method) in chain:
                value = resolver.resolve(node.args[1])
                if value is not None and value not in span_ok:
                    yield Finding(
                        PASS, source.rel, node.lineno,
                        'phase:%s' % value,
                        'span phase %r is not declared in '
                        'obs/phases.py (or as an event kind); add it '
                        'to the taxonomy' % value)
            elif method == 'append' and len(node.args) >= 2:
                value = resolver.resolve(node.args[1])
                if value is not None and value not in kinds:
                    yield Finding(
                        PASS, source.rel, node.lineno,
                        'kind:%s' % value,
                        'event kind %r is not declared in '
                        'obs/eventlog.py; add an EVENT_* constant'
                        % value)
            elif (len(node.args) == METRIC_WRITES.get(method)
                  or (method == 'count' and node.args
                      and _receiver(chain) in COUNT_RECEIVERS)):
                value = resolver.resolve(node.args[0])
                if value is not None and value not in metric_ok:
                    yield Finding(
                        PASS, source.rel, node.lineno,
                        'metric:%s' % value,
                        'metric name %r is not declared in '
                        'obs/histograms.py (DECLARED_METRICS / '
                        'DECLARED_METRIC_FAMILIES)' % value)
