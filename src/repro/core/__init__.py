"""IRS — interference-resilient scheduling (the paper's contribution).

Wires the four components of Figure 3 into a machine and a guest:
SA sender (hypervisor), SA receiver, context switcher, and migrator
(guest). Use :func:`install_irs` for the usual case and
:func:`install_irs_guest` to opt one more guest in.
"""

from .config import IRSConfig
from .context_switcher import ContextSwitcher
from .migrator import Migrator
from .pull_irs import PullMigrator, install_pull_irs
from .receiver import SaReceiver
from .sender import SaSender


def install_irs_guest(kernel, config):
    """Give ``kernel`` the guest half of IRS: a :class:`SaReceiver`
    (with its context switcher and migrator) and the tagged-task
    wakeup preemption rule of its balancer. Returns the receiver."""
    return kernel.attach_sa_receiver(
        SaReceiver(kernel.sim, kernel, config),
        wake_rule=config.wakeup_preempt_tagged)


def install_irs(machine, kernels, config=None):
    """Enable IRS on ``machine`` for the guests in ``kernels``.

    Sets one :class:`SaSender` as the machine's ``sa_sender`` and gives
    each listed guest its half through :func:`install_irs_guest`. VMs
    whose kernels are not listed keep vanilla behaviour and simply
    never receive activations.

    Returns the sender.
    """
    config = config or IRSConfig()
    machine.sa_sender = SaSender(machine.sim, machine, config)
    for kernel in kernels:
        install_irs_guest(kernel, config)
    return machine.sa_sender


__all__ = [
    'ContextSwitcher',
    'IRSConfig',
    'install_irs',
    'install_irs_guest',
    'install_pull_irs',
    'Migrator',
    'PullMigrator',
    'SaReceiver',
    'SaSender',
]
