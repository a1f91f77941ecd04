"""Xen-like hypervisor substrate.

Physical CPUs, VMs/vCPUs, the credit scheduler, event channels,
hypercalls, and the comparison strategies (PLE, relaxed co-scheduling,
VM-oblivious balancing).
"""

from .balance_sched import BalanceScheduler
from .balancer import HypervisorBalancer
from .channels import VIRQ_SA_UPCALL, VIRQ_TIMER, EventChannels
from .credit import CreditConfig, CreditScheduler
from .delayed_preempt import DelayedPreemption, install_delayed_preemption
from .hypercalls import SCHEDOP_BLOCK, SCHEDOP_YIELD, HypercallInterface
from .machine import Machine
from .pcpu import PCpu
from .ple import PleMonitor
from .relaxed_co import RelaxedCoScheduler
from .vcpu import (
    PRI_BOOST,
    PRI_OVER,
    PRI_UNDER,
    RUNSTATE_BLOCKED,
    RUNSTATE_OFFLINE,
    RUNSTATE_RUNNABLE,
    RUNSTATE_RUNNING,
    VCpu,
)
from .vm import VM

__all__ = [
    'BalanceScheduler',
    'CreditConfig',
    'CreditScheduler',
    'DelayedPreemption',
    'install_delayed_preemption',
    'EventChannels',
    'HypercallInterface',
    'HypervisorBalancer',
    'Machine',
    'PCpu',
    'PleMonitor',
    'PRI_BOOST',
    'PRI_OVER',
    'PRI_UNDER',
    'RelaxedCoScheduler',
    'RUNSTATE_BLOCKED',
    'RUNSTATE_OFFLINE',
    'RUNSTATE_RUNNABLE',
    'RUNSTATE_RUNNING',
    'SCHEDOP_BLOCK',
    'SCHEDOP_YIELD',
    'VCpu',
    'VIRQ_SA_UPCALL',
    'VIRQ_TIMER',
    'VM',
]
