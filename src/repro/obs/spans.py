"""Low-overhead begin/end spans with nesting and bounded storage.

A span is one timed phase of a protocol (see :mod:`repro.obs.phases`)
on a named *track* (usually a vCPU). Spans on the same track nest:
``begin`` pushes onto the track's stack, ``end``/``end_phase`` pops.
Completed spans land in a bounded ring (oldest dropped first, counted)
and their durations feed the phase histogram of the same name in the
attached :class:`~repro.obs.histograms.MetricsRegistry` - so percentile
reports survive even after the ring has wrapped.

Overhead discipline: when ``enabled`` is False every entry point
returns after one attribute test, and probes sit only on SA/DP protocol
edges (never per-event paths), which is what keeps the disabled-mode
budget of ``benchmarks/test_obs_overhead.py`` comfortably under 2%.
"""

from collections import deque

from .histograms import MetricsRegistry

#: Default completed-span ring capacity.
DEFAULT_MAX_SPANS = 65_536


class Span:
    """One completed (or still-open) phase on a track."""

    __slots__ = ('phase', 'track', 'begin_ns', 'end_ns', 'depth', 'detail')

    def __init__(self, phase, track, begin_ns, depth, detail=None):
        self.phase = phase
        self.track = track
        self.begin_ns = begin_ns
        self.end_ns = None
        self.depth = depth
        self.detail = detail

    @property
    def duration_ns(self):
        if self.end_ns is None:
            return None
        return self.end_ns - self.begin_ns

    def __repr__(self):
        end = '...' if self.end_ns is None else str(self.end_ns)
        return '<Span %s@%s %d-%s>' % (self.phase, self.track,
                                       self.begin_ns, end)


class SpanRecorder:
    """Collects nested spans per track into a bounded ring."""

    def __init__(self, enabled=False, max_spans=DEFAULT_MAX_SPANS,
                 registry=None):
        if max_spans < 1:
            raise ValueError('max_spans must be >= 1')
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.dropped = 0
        self._ring = deque(maxlen=max_spans)
        self._open = {}              # track -> stack of open Spans

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def begin(self, time_ns, phase, track, **detail):
        """Open a span. Returns the handle, or None when disabled."""
        if not self.enabled:
            return None
        stack = self._open.get(track)
        if stack is None:
            stack = self._open[track] = []
        span = Span(phase, track, time_ns, len(stack), detail or None)
        stack.append(span)
        return span

    def end(self, time_ns, span, **detail):
        """Close ``span``. A None handle (disabled begin) is a no-op.

        Children still open above ``span`` on its track are closed at
        the same instant - a cross-component protocol abort (e.g. an
        offer timing out under a lost upcall) must not wedge the
        track's stack.
        """
        if not self.enabled or span is None or span.end_ns is not None:
            return
        stack = self._open.get(span.track)
        if stack is None or span not in stack:
            return
        while stack:
            top = stack.pop()
            self._finish(time_ns, top, detail if top is span else {})
            if top is span:
                break

    def end_phase(self, time_ns, phase, track, **detail):
        """Close the innermost open span of ``phase`` on ``track``.

        The decoupled form of :meth:`end` for protocol legs whose begin
        and end live in different components (sender vs receiver).
        Returns the closed span, or None if nothing matched.
        """
        if not self.enabled:
            return None
        stack = self._open.get(track)
        if not stack:
            return None
        for span in reversed(stack):
            if span.phase == phase:
                self.end(time_ns, span, **detail)
                return span
        return None

    def instant(self, time_ns, phase, track, **detail):
        """Record a zero-duration span (a point event on the track)."""
        if not self.enabled:
            return None
        stack = self._open.get(track)
        span = Span(phase, track, time_ns, len(stack) if stack else 0,
                    detail or None)
        self._finish(time_ns, span, {})
        return span

    def _finish(self, time_ns, span, detail, record=True):
        span.end_ns = time_ns
        if detail:
            span.detail = dict(span.detail or {}, **detail)
        if record:
            # Truncated spans (end-of-run flush) skip the histogram:
            # they measure the run boundary, not the protocol.
            self.registry.histogram(span.phase).record(span.duration_ns)
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
            # Mirrored into the registry so end-of-run snapshots (and
            # the sa-latency / cluster-health reports) can warn that
            # the ring saturated instead of failing silently.
            self.registry.count('spans.dropped')
        self._ring.append(span)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def spans(self):
        """Completed spans, oldest first (the retained window)."""
        return list(self._ring)

    def spans_for(self, phase=None, track=None):
        return [s for s in self.spans
                if (phase is None or s.phase == phase)
                and (track is None or s.track == track)]

    def open_spans(self):
        """Still-open spans across all tracks (outermost first)."""
        out = []
        for track in sorted(self._open):
            out.extend(self._open[track])
        return out

    def flush_open(self, time_ns):
        """Close every open span at ``time_ns`` (end-of-run truncation
        so an export never loses in-flight protocol legs)."""
        for track in sorted(self._open):
            stack = self._open[track]
            while stack:
                self._finish(time_ns, stack.pop(), {'truncated': True},
                             record=False)
        self._open.clear()

    def clear(self):
        self._ring.clear()
        self._open.clear()
        self.dropped = 0

    def __len__(self):
        return len(self._ring)

    def __repr__(self):
        return ('<SpanRecorder %s %d spans (%d dropped)>'
                % ('on' if self.enabled else 'off', len(self._ring),
                   self.dropped))
