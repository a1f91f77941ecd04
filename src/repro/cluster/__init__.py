"""Cluster layer: multi-host simulation on one clock.

Hosts wrap :class:`~repro.hypervisor.machine.Machine` with a capacity
and a strategy wired by ``repro.experiments.strategies``; the
:class:`Cluster` coordinator routes VM requests through admission
control and a pluggable placement policy
(first-fit, least-loaded, or interference-aware scoring over per-VM
interference profiles); a :class:`LiveMigrationEngine` moves VMs
between hosts with a deterministic dirty-state cost model; and the
:class:`RebalanceDaemon` evicts VMs from hot-spot hosts with
hysteresis. The entire layer rides the one simulator event queue, so
cluster runs are exactly as reproducible as single-machine runs.

The fault-tolerance half lives in :mod:`repro.cluster.recovery`: a
:class:`RecoveryController` re-homes VMs orphaned by host crashes
(with bounded retries, backoff, and an explicit *parked* state), a
:class:`HostWatchdog` quarantines degraded hosts, and a
:class:`ClusterFaultDriver` applies ``host_crash`` / ``host_degrade``
faults from a deterministic :class:`~repro.faults.FaultPlan`.
"""

from .admission import AdmissionController
from .cluster import Cluster, RebalanceDaemon, VmRequest
from .host import (
    HOST_DEGRADED,
    HOST_FAILED,
    HOST_UP,
    Host,
    HostSpec,
)
from .migration import LiveMigrationEngine, MigrationCostModel, MigrationRecord
from .placement import (
    PLACEMENT_POLICIES,
    FirstFitPolicy,
    InterferenceAwarePolicy,
    LeastLoadedPolicy,
    PlacementPolicy,
    make_policy,
)
from .profiles import HostInterferenceMonitor, VmInterferenceProfile
from .recovery import ClusterFaultDriver, HostWatchdog, RecoveryController
from .scenario import run_consolidation

__all__ = [
    'AdmissionController',
    'Cluster',
    'ClusterFaultDriver',
    'FirstFitPolicy',
    'Host',
    'HostInterferenceMonitor',
    'HostSpec',
    'HostWatchdog',
    'HOST_DEGRADED',
    'HOST_FAILED',
    'HOST_UP',
    'RecoveryController',
    'InterferenceAwarePolicy',
    'LeastLoadedPolicy',
    'LiveMigrationEngine',
    'MigrationCostModel',
    'MigrationRecord',
    'make_policy',
    'PLACEMENT_POLICIES',
    'PlacementPolicy',
    'RebalanceDaemon',
    'run_consolidation',
    'VmInterferenceProfile',
    'VmRequest',
]
