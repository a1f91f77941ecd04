"""Determinism-keyed on-disk result cache.

Because a :class:`~repro.experiments.spec.RunSpec` fully determines its
outcome (the simulator is bit-deterministic in its inputs), a cached
:class:`~repro.experiments.spec.RunOutcome` is indistinguishable from a
fresh one — *as long as the code that produced it is the same code*.
The cache key is therefore content-addressed twice over::

    key = sha256(spec.cache_token() + code_fingerprint())

where the code fingerprint hashes every ``.py`` file of the installed
:mod:`repro` package. Edit any source file and the whole cache
invalidates; change any spec field and only that entry misses.

Entries live under ``.benchmarks/runcache/`` as pickled envelopes (the
outcome embeds a :class:`~repro.metrics.collector.RunMetrics`, which is
not JSON-shaped). Unreadable or mismatched entries are treated as
misses and removed. Hit/miss/store counters are surfaced through a
module-level :class:`~repro.obs.histograms.MetricsRegistry`
(:data:`METRICS`) so the CLI and tests can assert on them.

Nothing outside the spec reaches a run: the fault campaign travels as
``spec.faults``, so it is part of the key. The one thing a cache hit
skips is a side effect — the files an
:class:`~repro.experiments.harness.ObservabilityConfig` exports — so
callers that export (the CLI's ``--trace-out`` family) run uncached.
"""

import hashlib
import os
import pickle

from ..obs.histograms import MetricsRegistry
from .spec import RunOutcome, RunSpec  # noqa: F401  (re-export for users)

#: Default cache directory, relative to the working directory.
DEFAULT_CACHE_DIR = os.path.join('.benchmarks', 'runcache')

#: Envelope format version; bump on incompatible layout changes.
CACHE_FORMAT = 1

#: Shared pipeline metrics: runcache.* here, executor.* from the
#: executor module. One registry so a single snapshot shows the whole
#: pipeline's counters.
METRICS = MetricsRegistry()

_fingerprint_memo = {}


def _hash_tree(root):
    """sha256 over every ``.py`` file under ``root`` (path + content),
    in a fully deterministic walk order. Hidden and ``__pycache__``
    directories are pruned — bytecode churn must not invalidate (or,
    worse, *fail* to invalidate) the cache."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames
                             if d != '__pycache__' and not d.startswith('.'))
        for filename in sorted(filenames):
            if not filename.endswith('.py'):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, 'rb') as handle:
                digest.update(hashlib.sha256(handle.read()).digest())
    return digest.hexdigest()


def code_fingerprint(package_root=None):
    """Stable hash of every ``.py`` source file under ``package_root``
    (default: the installed :mod:`repro` package), subpackages
    included — ``repro.cluster`` and anything added later is covered by
    the walk, not by an allowlist.

    Only the *default* root is memoized (the installed package does not
    change under a running process); an explicit root is re-hashed on
    every call, so tests and tools pointing at a scratch tree observe
    their own edits instead of a stale memo.
    """
    if package_root is None:
        import repro
        root = os.path.abspath(os.path.dirname(repro.__file__))
        memo = _fingerprint_memo.get(root)
        if memo is None:
            memo = _fingerprint_memo[root] = _hash_tree(root)
        return memo
    return _hash_tree(os.path.abspath(package_root))


class ResultCache:
    """Content-addressed store of RunSpec -> RunOutcome.

    ``root`` is created lazily on the first store. ``fingerprint``
    defaults to :func:`code_fingerprint`; tests pin it to exercise
    invalidation.
    """

    def __init__(self, root=DEFAULT_CACHE_DIR, fingerprint=None):
        self.root = root
        self.fingerprint = fingerprint or code_fingerprint()

    def key(self, spec):
        """Hex cache key of ``spec`` under the current code."""
        token = spec.cache_token() + '\n' + self.fingerprint
        return hashlib.sha256(token.encode()).hexdigest()

    def _path(self, key):
        return os.path.join(self.root, key + '.pkl')

    def load(self, spec):
        """The cached outcome for ``spec``, or None. Counts
        ``runcache.hit`` / ``runcache.miss``; drops corrupt entries."""
        path = self._path(self.key(spec))
        try:
            with open(path, 'rb') as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            METRICS.count('runcache.miss')
            return None
        except Exception:
            # Torn write, stale pickle protocol, garbage: a miss, and
            # the entry is gone so it cannot keep failing.
            self._evict(path)
            METRICS.count('runcache.miss')
            return None
        if (not isinstance(envelope, dict)
                or envelope.get('format') != CACHE_FORMAT
                or envelope.get('token') != spec.cache_token()):
            self._evict(path)
            METRICS.count('runcache.miss')
            return None
        METRICS.count('runcache.hit')
        return envelope['outcome']

    def store(self, spec, outcome):
        """Persist ``outcome`` under ``spec``'s key (atomic replace)."""
        os.makedirs(self.root, exist_ok=True)
        path = self._path(self.key(spec))
        envelope = {'format': CACHE_FORMAT, 'token': spec.cache_token(),
                    'outcome': outcome}
        tmp = path + '.tmp.%d' % os.getpid()
        with open(tmp, 'wb') as handle:
            pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        METRICS.count('runcache.store')

    @staticmethod
    def _evict(path):
        try:
            os.remove(path)
        except OSError:
            pass

    def __len__(self):
        try:
            return sum(1 for name in os.listdir(self.root)
                       if name.endswith('.pkl'))
        except OSError:
            return 0


def pipeline_counters():
    """Snapshot of the pipeline's counters (runcache.* and executor.*),
    for tests and the CLI summary line."""
    return METRICS.counter_values()
