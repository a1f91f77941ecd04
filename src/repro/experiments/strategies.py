"""The four scheduling strategies compared in the evaluation.

* ``vanilla`` — stock Xen credit scheduler + stock Linux guest;
* ``ple`` — pause-loop exiting enabled (HVM-style spin detection);
* ``relaxed_co`` — VMware-style relaxed co-scheduling re-implemented in
  the credit scheduler, as the authors did;
* ``irs`` — the paper's scheduler-activation approach. Only the
  *foreground* kernels get the guest-side components; background VMs run
  vanilla kernels and ignore activations (Section 5.4, footnote 1).
"""

from ..core import IRSConfig, install_irs
from ..hypervisor import (BalanceScheduler, HypervisorBalancer, PleMonitor,
                          RelaxedCoScheduler, install_delayed_preemption)

VANILLA = 'vanilla'
PLE = 'ple'
RELAXED_CO = 'relaxed_co'
IRS = 'irs'
# Extension baselines beyond the paper's evaluated set.
DELAY_PREEMPT = 'delay_preempt'
BALANCE_SCHED = 'balance_sched'

ALL_STRATEGIES = (VANILLA, PLE, RELAXED_CO, IRS)
COMPARISON_STRATEGIES = (PLE, RELAXED_CO, IRS)
EXTENSION_STRATEGIES = (DELAY_PREEMPT, BALANCE_SCHED)


def apply_strategy(machine, strategy, irs_kernels=(), irs_config=None):
    """Wire ``strategy`` into a freshly built machine: the one place a
    strategy name becomes components.

    ``irs_kernels`` are the guest kernels that implement the SA handler
    when the strategy is IRS (usually just the foreground VM's kernel),
    or that cooperate with delay-preemption.
    """
    if strategy == VANILLA:
        pass
    elif strategy == PLE:
        machine.ple = PleMonitor(machine.sim, machine)
    elif strategy == RELAXED_CO:
        machine.relaxed_co = RelaxedCoScheduler(machine.sim, machine)
    elif strategy == IRS:
        if not irs_kernels:
            raise ValueError('IRS requires at least one capable guest')
        install_irs(machine, irs_kernels, irs_config or IRSConfig())
    elif strategy == DELAY_PREEMPT:
        if not irs_kernels:
            raise ValueError('delay-preemption requires at least one '
                             'cooperating guest')
        install_delayed_preemption(machine, irs_kernels)
    elif strategy == BALANCE_SCHED:
        # Only meaningful for unpinned vCPUs (placement-based scheme).
        machine.hv_balancer = BalanceScheduler(
            machine, machine.hv_balancer or HypervisorBalancer(machine))
    else:
        raise ValueError('unknown strategy %r (want one of %s)'
                         % (strategy, ', '.join(ALL_STRATEGIES)))
