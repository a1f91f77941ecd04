"""Multi-threaded server workloads (Section 5.3).

* :class:`SpecJbbWorkload` — SPECjbb2005-like: one warehouse thread per
  vCPU, closed-loop transactions with a little shared-state locking.
  Reports throughput and per-transaction ("new order") latency.
* :class:`ApacheBenchWorkload` — ab-like: many more threads than vCPUs
  (512 in the paper), short independent requests, no synchronization.
  Reports throughput and tail (p99) latency.
"""

from ..metrics.latency import LatencyRecorder
from ..simkernel.units import MS, SEC, US
from .actions import Acquire, Compute, QueueGet, QueuePut, Release, Sleep
from .sync import BoundedQueue, Mutex


class ServerWorkload:
    """Base: closed-loop request threads with latency recording."""

    def __init__(self, sim, kernel, n_threads, service_ns, jitter,
                 name='server'):
        self.sim = sim
        self.kernel = kernel
        self.n_threads = n_threads
        self.service_ns = service_ns
        self.jitter = jitter
        self.name = name
        self.latency = LatencyRecorder('%s.latency' % name)
        self.completed = 0
        self.started_at = None
        self.tasks = []

    def install(self):
        self.started_at = self.sim.now
        for i in range(self.n_threads):
            name = '%s.t%d' % (self.name, i)
            task = self.kernel.spawn(
                name, self._request_loop(name),
                gcpu_index=i % len(self.kernel.gcpus))
            self.tasks.append(task)
        return self

    def _request_loop(self, stream):
        while True:
            started = self.sim.now
            for action in self._one_request(stream):
                yield action
            self.latency.record(self.sim.now - started)
            self.completed += 1

    def _one_request(self, stream):
        yield Compute(self.sim.rng.jittered_ns(stream, self.service_ns,
                                               self.jitter))

    def throughput(self, now=None):
        """Requests per second since installation."""
        now = self.sim.now if now is None else now
        elapsed = now - self.started_at
        if elapsed <= 0:
            return 0.0
        return self.completed / (elapsed / SEC)


class SpecJbbWorkload(ServerWorkload):
    """SPECjbb2005 model: warehouses = vCPUs, ~5 ms transactions with a
    short lock-protected order-book update every transaction."""

    def __init__(self, sim, kernel, n_warehouses=None, tx_ns=5 * MS,
                 lock_hold_ns=40 * US, jitter=0.3, name='specjbb'):
        n_warehouses = n_warehouses or len(kernel.gcpus)
        super().__init__(sim, kernel, n_warehouses, tx_ns, jitter, name=name)
        self.lock_hold_ns = lock_hold_ns
        self.order_lock = Mutex('%s.orders' % name)

    def _one_request(self, stream):
        draw = self.sim.rng.jittered_ns(stream, self.service_ns, self.jitter)
        yield Compute(draw)
        yield Acquire(self.order_lock)
        yield Compute(self.lock_hold_ns)
        yield Release(self.order_lock)


class ApacheBenchWorkload(ServerWorkload):
    """Apache `ab` model: MaxClients worker threads, short independent
    requests, zero synchronization."""

    def __init__(self, sim, kernel, n_threads=512, service_ns=int(1.5 * MS),
                 jitter=0.4, name='ab'):
        super().__init__(sim, kernel, n_threads, service_ns, jitter,
                         name=name)


class OpenLoopServerWorkload:
    """Open-loop server: requests arrive on a Poisson process and queue
    for a fixed pool of worker threads.

    Unlike the closed-loop SPECjbb/ab models, latency here includes
    queueing delay, so scheduler stalls compound: one 30 ms vCPU
    preemption backs up every request that arrives behind it — the
    regime where IRS's tail-latency win is largest.
    """

    def __init__(self, sim, kernel, n_workers=None, service_ns=2 * MS,
                 arrivals_per_sec=800, jitter=0.3, queue_capacity=10_000,
                 name='openloop'):
        self.sim = sim
        self.kernel = kernel
        self.n_workers = n_workers or len(kernel.gcpus)
        self.service_ns = service_ns
        self.arrivals_per_sec = arrivals_per_sec
        self.jitter = jitter
        self.name = name
        self.queue = BoundedQueue(queue_capacity, name='%s.q' % name)
        self.latency = LatencyRecorder('%s.latency' % name)
        self.completed = 0
        self.dropped = 0
        self.started_at = None
        self.tasks = []

    def install(self):
        self.started_at = self.sim.now
        arrival = self.kernel.spawn('%s.arrivals' % self.name,
                                    self._arrival_loop(), gcpu_index=0)
        self.tasks.append(arrival)
        for i in range(self.n_workers):
            worker = self.kernel.spawn(
                '%s.w%d' % (self.name, i), self._worker_loop(i),
                gcpu_index=i % len(self.kernel.gcpus))
            self.tasks.append(worker)
        return self

    def _arrival_loop(self):
        mean_gap = int(SEC / self.arrivals_per_sec)
        while True:
            gap = self.sim.rng.exponential_ns(
                '%s.arrivals' % self.name, mean_gap, cap_ns=mean_gap * 10)
            yield Sleep(gap)
            if len(self.queue.items) >= self.queue.capacity - 1:
                self.dropped += 1
                continue
            yield QueuePut(self.queue, self.sim.now)

    def _worker_loop(self, index):
        stream = '%s.w%d' % (self.name, index)
        while True:
            arrived_at = yield QueueGet(self.queue)
            yield Compute(self.sim.rng.jittered_ns(
                stream, self.service_ns, self.jitter))
            self.latency.record(self.sim.now - arrived_at)
            self.completed += 1

    def throughput(self, now=None):
        now = self.sim.now if now is None else now
        elapsed = now - self.started_at
        if elapsed <= 0:
            return 0.0
        return self.completed / (elapsed / SEC)

    def reset_measurement(self):
        """Clear counters for steady-state measurement."""
        self.latency.reset()
        self.completed = 0
        self.dropped = 0
        self.started_at = self.sim.now
