"""Linux-like guest kernel substrate.

Tasks, per-vCPU CFS runqueues, load tracking with steal time, guest
load balancing, timers, and the migration stopper.
"""

from .balancer import GuestBalancer
from .cfs import CfsConfig, CfsPolicy
from .gcpu import GuestCpu
from .interp import ActionInterpreter
from .kernel import GuestKernel
from .loadavg import RtAvgTracker
from .migration import MigrationRequest, MigrationStopper
from .runqueue import RunQueue
from .syncobjects import SyncEngine
from .task import (
    NICE_0_WEIGHT,
    TASK_EXITED,
    TASK_MIGRATING,
    TASK_READY,
    TASK_RUNNING,
    TASK_SLEEPING,
    Task,
)
from .timers import TickDriver, TickTimer, TimerService

__all__ = [
    'ActionInterpreter',
    'CfsConfig',
    'CfsPolicy',
    'GuestBalancer',
    'GuestCpu',
    'GuestKernel',
    'SyncEngine',
    'MigrationRequest',
    'MigrationStopper',
    'NICE_0_WEIGHT',
    'RtAvgTracker',
    'RunQueue',
    'Task',
    'TASK_EXITED',
    'TASK_MIGRATING',
    'TASK_READY',
    'TASK_RUNNING',
    'TASK_SLEEPING',
    'TickDriver',
    'TickTimer',
    'TimerService',
]
