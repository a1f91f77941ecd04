"""Prometheus-style text exposition of a :class:`MetricsRegistry`.

A snapshot writer, not a server: :func:`render_exposition` turns every
counter, gauge and histogram of the registry into the Prometheus text
format (one ``# TYPE`` header per family, ``_total`` suffix on
counters, histograms as count/sum/quantile summaries), and
:func:`write_exposition` drops it in a file. Per-host labelled views come from
:meth:`~repro.obs.histograms.MetricsRegistry.scoped`: every metric a
scoped view writes remembers its *family* (the unscoped name) and its
labels, so ``host.host0.placements`` and ``host.host1.placements``
render as two samples of one labelled ``placements`` family::

    # TYPE repro_placements_total counter
    repro_placements_total{host="host0"} 3
    repro_placements_total{host="host1"} 5

Output is deterministic: families sort by name, samples by label
string. Durations stay in nanoseconds (the registry's native unit).
"""

_QUANTILES = ((50, '0.5'), (90, '0.9'), (99, '0.99'))


def _sanitize(name):
    """Prometheus-legal metric name: ``[a-zA-Z_][a-zA-Z0-9_]*``."""
    cleaned = ''.join(ch if (ch.isalnum() and ch.isascii()) or ch == '_'
                      else '_' for ch in name)
    if cleaned and cleaned[0].isdigit():
        cleaned = '_' + cleaned
    return cleaned


def _labels_text(labels):
    if not labels:
        return ''
    parts = ['%s="%s"' % (_sanitize(str(key)),
                          str(value).replace('\\', r'\\').replace('"', r'\"'))
             for key, value in sorted(labels.items())]
    return '{%s}' % ','.join(parts)


def _merge_labels(labels, **extra):
    merged = dict(labels)
    merged.update(extra)
    return merged


def render_exposition(registry, namespace='repro', prefixes=None):
    """The registry as Prometheus text-format lines (one string).

    ``prefixes`` optionally restricts output to metric names starting
    with any of the given prefixes (matched against the *registry*
    name, before family folding).
    """
    # family -> (kind, [(labels, metric), ...]); families sorted at emit.
    families = {}
    for kind, store in registry.by_kind():
        for name, metric in store.items():
            if prefixes is not None and not name.startswith(tuple(prefixes)):
                continue
            meta = registry.metric_meta(name)
            family, labels = meta if meta is not None else (name, {})
            entry = families.setdefault(family, (kind, []))
            if entry[0] != kind:
                raise TypeError('family %r mixes kinds %s and %s'
                                % (family, entry[0], kind))
            entry[1].append((labels, metric))

    lines = []
    total_samples = 0
    for family in sorted(families):
        kind, samples = families[family]
        base = '%s_%s' % (_sanitize(namespace), _sanitize(family))
        samples.sort(key=lambda pair: _labels_text(pair[0]))
        if kind == 'counter':
            lines.append('# TYPE %s_total counter' % base)
            for labels, metric in samples:
                lines.append('%s_total%s %d'
                             % (base, _labels_text(labels), metric))
                total_samples += 1
        elif kind == 'gauge':
            lines.append('# TYPE %s gauge' % base)
            for labels, metric in samples:
                lines.append('%s%s %s'
                             % (base, _labels_text(labels), metric))
                total_samples += 1
        else:
            lines.append('# TYPE %s summary' % base)
            for labels, metric in samples:
                for q, quantile in _QUANTILES:
                    quantile_labels = _merge_labels(labels,
                                                    quantile=quantile)
                    lines.append('%s%s %.1f'
                                 % (base, _labels_text(quantile_labels),
                                    metric.percentile(q)))
                lines.append('%s_sum%s %d'
                             % (base, _labels_text(labels), metric.sum))
                lines.append('%s_count%s %d'
                             % (base, _labels_text(labels), metric.count))
                total_samples += 2 + len(_QUANTILES)
    text = '\n'.join(lines)
    return text + '\n' if text else ''


def write_exposition(path, registry, namespace='repro', prefixes=None):
    """Write the exposition snapshot to ``path``; returns the number of
    samples written (type headers excluded)."""
    text = render_exposition(registry, namespace=namespace,
                             prefixes=prefixes)
    with open(path, 'w') as handle:
        handle.write(text)
    return sum(1 for line in text.splitlines()
               if line and not line.startswith('#'))
