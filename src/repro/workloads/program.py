"""Program builders: generator factories for workload thread bodies.

A program is a generator of actions. Code between ``yield`` statements
executes at action-fetch time — i.e. on the task's vCPU, at the correct
simulated instant — so closures over shared Python state model
user-level shared memory (work-stealing pools, pipeline termination
counters) faithfully.
"""

from .actions import Acquire, BarrierWait, Compute, QueueGet, QueuePut, Release

# Sentinel flowing through pipeline queues to terminate stages.
PIPELINE_STOP = object()


def _draw(sim, stream, base_ns, jitter):
    if jitter:
        return sim.rng.jittered_ns(stream, base_ns, jitter)
    return base_ns


def cpu_hog(chunk_ns):
    """Endless compute: the paper's interference micro-benchmark (a CPU
    hog with near-zero memory footprint)."""
    while True:
        yield Compute(chunk_ns)


def compute_chunks(total_ns, chunk_ns):
    """Fixed amount of compute, split into chunks (sequential batch /
    swaptions-style embarrassingly parallel share)."""
    remaining = total_ns
    while remaining > 0:
        step = min(chunk_ns, remaining)
        remaining -= step
        yield Compute(step)


def barrier_phases(sim, stream, barrier, phase_ns, phases, jitter=0.0,
                   critical=None, on_phase=None, region_barrier=None,
                   region_every=0):
    """Data-parallel loop: compute a phase, then synchronize at a
    barrier (blocking or spinning per the barrier). The dominant shape
    of PARSEC's streamcluster/blackscholes/facesim and all of NPB.

    ``critical=(mutex, hold_ns)`` adds a short lock-protected section
    each phase (e.g. reduction updates), the LHP amplifier.

    ``region_barrier``/``region_every`` model OpenMP parallel-region
    boundaries: even with ``OMP_WAIT_POLICY=active`` the runtime blocks
    between regions, so every ``region_every``-th phase crosses the
    (blocking) region barrier instead. Those occasional sleeps are what
    expose spinning workloads to hypervisor wake placement.

    Actions are never mutated by the interpreter, so the loop-invariant
    ones are built once per program.
    """
    if critical is not None:
        mutex, hold_ns = critical
        acquire, hold, release = (Acquire(mutex), Compute(hold_ns),
                                  Release(mutex))
    phase_wait = BarrierWait(barrier)
    region_wait = (BarrierWait(region_barrier)
                   if region_barrier is not None and region_every > 0
                   else None)
    for index in range(phases):
        yield Compute(_draw(sim, stream, phase_ns, jitter))
        if critical is not None:
            yield acquire
            yield hold
            yield release
        if region_wait is not None and (index + 1) % region_every == 0:
            yield region_wait
        else:
            yield phase_wait
        if on_phase is not None:
            on_phase(sim.now)


def mutex_loop(sim, stream, mutex, compute_ns, critical_ns, iterations,
               jitter=0.0, on_iteration=None):
    """Point-to-point synchronization: compute, then a lock-protected
    critical section (x264/canneal/fluidanimate-style)."""
    acquire, hold, release = (Acquire(mutex), Compute(critical_ns),
                              Release(mutex))
    for __ in range(iterations):
        yield Compute(_draw(sim, stream, compute_ns, jitter))
        yield acquire
        yield hold
        yield release
        if on_iteration is not None:
            on_iteration(sim.now)


def work_steal_worker(sim, pool, on_unit=None):
    """User-level work stealing (raytrace): grab the next unit off a
    shared pool and compute it; exit when the pool drains. Because the
    pop happens at fetch time on whichever vCPU the thread occupies,
    faster threads naturally absorb the slow ones' work."""
    while pool:
        unit_ns = pool.pop()
        yield Compute(unit_ns)
        if on_unit is not None:
            on_unit(sim.now)


def pipeline_source(sim, stream, out_queue, n_items, unit_ns, jitter,
                    done_counter, n_source_threads, next_stage_threads):
    """First pipeline stage: produce ``n_items`` work items. The last
    source thread to finish floods the next stage with stop tokens."""
    for __ in range(n_items):
        yield Compute(_draw(sim, stream, unit_ns, jitter))
        yield QueuePut(out_queue, 'item')
    done_counter[0] += 1
    if done_counter[0] == n_source_threads:
        for __ in range(next_stage_threads):
            yield QueuePut(out_queue, PIPELINE_STOP)


def pipeline_stage(sim, stream, in_queue, out_queue, unit_ns, jitter,
                   done_counter, stage_threads, next_stage_threads):
    """Middle pipeline stage: get, work, put. Stops propagate: the last
    thread of this stage to stop seeds the next stage's stops."""
    while True:
        item = yield QueueGet(in_queue)
        if item is PIPELINE_STOP:
            done_counter[0] += 1
            if done_counter[0] == stage_threads and out_queue is not None:
                for __ in range(next_stage_threads):
                    yield QueuePut(out_queue, PIPELINE_STOP)
            return
        yield Compute(_draw(sim, stream, unit_ns, jitter))
        if out_queue is not None:
            yield QueuePut(out_queue, item)


def pipeline_sink(sim, stream, in_queue, unit_ns, jitter, on_item=None):
    """Final pipeline stage: consume until stopped."""
    while True:
        item = yield QueueGet(in_queue)
        if item is PIPELINE_STOP:
            return
        yield Compute(_draw(sim, stream, unit_ns, jitter))
        if on_item is not None:
            on_item(sim.now)
