"""Workload models: actions, synchronization primitives, programs,
benchmark suites, server workloads, and interference generators."""

from . import actions
from . import sync
from .actions import (
    Acquire,
    BarrierWait,
    Compute,
    QueueGet,
    QueuePut,
    Release,
    Sleep,
)
from .hogs import HogWorkload
from .program import (
    barrier_phases,
    compute_chunks,
    cpu_hog,
    mutex_loop,
    PIPELINE_STOP,
    pipeline_sink,
    pipeline_source,
    pipeline_stage,
    work_steal_worker,
)
from .server import (
    ApacheBenchWorkload,
    OpenLoopServerWorkload,
    ServerWorkload,
    SpecJbbWorkload,
)
from .suites import (
    ALL_PROFILES,
    get_profile,
    NPB,
    ParallelWorkload,
    PARSEC,
    profile_variant,
    WorkloadProfile,
)
from .sync import Barrier, BoundedQueue, Mutex, SpinLock

__all__ = [
    'Acquire', 'actions', 'ALL_PROFILES', 'ApacheBenchWorkload',
    'Barrier', 'barrier_phases', 'BarrierWait', 'BoundedQueue',
    'Compute', 'compute_chunks', 'cpu_hog', 'get_profile', 'HogWorkload',
    'Mutex', 'mutex_loop', 'NPB', 'OpenLoopServerWorkload',
    'ParallelWorkload', 'PARSEC',
    'PIPELINE_STOP', 'pipeline_sink', 'pipeline_source', 'pipeline_stage',
    'profile_variant', 'QueueGet', 'QueuePut', 'Release', 'ServerWorkload',
    'Sleep', 'SpecJbbWorkload', 'SpinLock', 'sync', 'WorkloadProfile',
    'work_steal_worker',
]
