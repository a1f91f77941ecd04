"""SLO accounting: windowed attainment and error-budget burn.

:class:`SloPolicy` declares the objective (a p99 latency target, an
attainment target, a max shed/error rate); :class:`SloTracker` folds
the live latency stream into fixed-width windows keyed by simulated
time and answers the two questions the serving plane asks:

* *attainment* — what fraction of requests met the target (shed
  requests count as violations: a dropped request is the worst latency
  of all);
* *burn rate* — how fast the error budget is being spent over the last
  few windows. Burn 1.0 means violations arrive exactly at the budgeted
  rate (``1 - attainment_target``); the autoscaler scales up above its
  high-burn threshold and back down below its low one.

The tracker is observation-driven — windows roll on the timestamps of
the ``observe`` calls, no timers — so it is exactly as deterministic as
the latency stream feeding it.
"""

from ..simkernel.units import MS


class SloPolicy:
    """The serving objective: latency target + budgets."""

    def __init__(self, p99_target_ns=20 * MS, attainment_target=0.99,
                 max_error_rate=0.01, window_ns=100 * MS):
        if p99_target_ns <= 0:
            raise ValueError('p99_target_ns must be positive')
        if not 0.0 < attainment_target < 1.0:
            raise ValueError('attainment_target must be in (0, 1)')
        if not 0.0 <= max_error_rate < 1.0:
            raise ValueError('max_error_rate must be in [0, 1)')
        if window_ns <= 0:
            raise ValueError('window_ns must be positive')
        self.p99_target_ns = p99_target_ns
        self.attainment_target = attainment_target
        self.max_error_rate = max_error_rate
        self.window_ns = window_ns

    @property
    def error_budget(self):
        """The violation fraction the attainment target tolerates."""
        return 1.0 - self.attainment_target

    def __repr__(self):
        return ('<SloPolicy p99<=%.1fms att>=%.2f err<=%.3f win=%dms>'
                % (self.p99_target_ns / MS, self.attainment_target,
                   self.max_error_rate, self.window_ns // MS))


class SloTracker:
    """Windowed SLO attainment + burn rate over a latency stream."""

    def __init__(self, policy, registry=None, max_windows=64):
        if max_windows < 1:
            raise ValueError('max_windows must be >= 1')
        self.policy = policy
        self.registry = registry
        self.max_windows = max_windows
        self.good = 0
        self.slow = 0
        self.sheds = 0
        self._windows = {}           # window start -> [good, bad]

    # ------------------------------------------------------------------
    # Write side (called by replicas and the router)
    # ------------------------------------------------------------------

    def observe(self, now, latency_ns):
        """Fold one completed request's end-to-end latency."""
        window = self._window(now)
        if latency_ns <= self.policy.p99_target_ns:
            self.good += 1
            window[0] += 1
        else:
            self.slow += 1
            window[1] += 1

    def observe_shed(self, now):
        """Fold one shed (or unroutable) request — a hard violation."""
        self.sheds += 1
        self._window(now)[1] += 1

    def _window(self, now):
        start = (now // self.policy.window_ns) * self.policy.window_ns
        window = self._windows.get(start)
        if window is None:
            window = [0, 0]
            self._windows[start] = window
            if len(self._windows) > self.max_windows:
                del self._windows[min(self._windows)]
        return window

    # ------------------------------------------------------------------
    # Read side (autoscaler, figure aggregation)
    # ------------------------------------------------------------------

    @property
    def total(self):
        return self.good + self.slow + self.sheds

    def attainment(self):
        """Overall fraction of requests meeting the target; sheds count
        against. 1.0 with no traffic (an idle service meets its SLO)."""
        total = self.total
        return self.good / total if total else 1.0

    def error_rate(self):
        """Fraction of requests shed outright."""
        total = self.total
        return self.sheds / total if total else 0.0

    def violation_rate(self, now, windows=5):
        """Violations / requests over the last ``windows`` window slots
        ending at ``now`` (empty slots contribute nothing)."""
        horizon = now - windows * self.policy.window_ns
        good = bad = 0
        for start, (window_good, window_bad) in self._windows.items():
            if start > horizon:
                good += window_good
                bad += window_bad
        total = good + bad
        return bad / total if total else 0.0

    def burn_rate(self, now, windows=5):
        """Recent violation rate in units of the error budget."""
        return self.violation_rate(now, windows) / self.policy.error_budget

    def meets_slo(self):
        """Did the whole measured stream meet the policy?"""
        return (self.attainment() >= self.policy.attainment_target
                and self.error_rate() <= self.policy.max_error_rate)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def reset(self):
        """Drop all accounting (steady-state measurement restart)."""
        self.good = 0
        self.slow = 0
        self.sheds = 0
        self._windows.clear()

    def snapshot(self, now):
        """Publish the current aggregates into the typed registry (so
        ``RunMetrics`` carries them) and return the summary dict."""
        summary = self.summary(now)
        if self.registry is not None:
            scope = self.registry.scoped('traffic.slo.')
            scope.set_gauge('good', self.good)
            scope.set_gauge('slow', self.slow)
            scope.set_gauge('shed', self.sheds)
            scope.set_gauge('attainment_ppm',
                            int(summary['attainment'] * 1_000_000))
            scope.set_gauge('burn_ppm',
                            int(min(summary['burn_rate'], 1000.0) * 1_000_000))
        return summary

    def summary(self, now):
        return {
            'requests': self.total,
            'good': self.good,
            'slow': self.slow,
            'shed': self.sheds,
            'attainment': round(self.attainment(), 6),
            'error_rate': round(self.error_rate(), 6),
            'burn_rate': round(self.burn_rate(now), 6),
            'meets_slo': self.meets_slo(),
            'p99_target_ns': self.policy.p99_target_ns,
        }

    def __repr__(self):
        return ('<SloTracker good=%d slow=%d shed=%d att=%.4f>'
                % (self.good, self.slow, self.sheds, self.attainment()))
