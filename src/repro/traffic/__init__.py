"""Open-loop traffic & serving plane (rank above the cluster layer).

The evaluation's classic server workloads are closed-loop: each
request thread issues the next request only after the previous one
completes, so scheduler stalls slow the *offered load* down along with
the service — queueing delay, the component interference actually
inflates, never shows up. This package drives the cluster open-loop:

* :mod:`~repro.traffic.arrivals` — seed-pure arrival processes
  (Poisson, MMPP-style bursty, piecewise diurnal ramp);
* :mod:`~repro.traffic.serving` — per-VM bounded-queue replicas with
  separate queueing-delay and end-to-end latency accounting plus load
  shedding;
* :mod:`~repro.traffic.slo` — windowed SLO attainment and error-budget
  burn from the latency stream;
* :mod:`~repro.traffic.router` — spreads one arrival stream across VM
  replicas on multiple hosts (round-robin / least-queue /
  interference-aware), rerouting around migrations and host failures;
* :mod:`~repro.traffic.autoscaler` — an SLO-burn-driven daemon that
  adds and retires replicas through the cluster's admission +
  placement path, with hysteresis and cooldown;
* :mod:`~repro.traffic.scenario` — :func:`run_traffic`, the entry
  point the ``traffic-slo`` figure and ``TrafficSpec`` execute.
"""

from .arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    make_arrivals,
)
from .autoscaler import SloAutoscaler
from .router import ROUTER_POLICIES, RequestRouter
from .scenario import TrafficService, run_traffic
from .serving import ReplicaServer
from .slo import SloPolicy, SloTracker

__all__ = [
    'ARRIVAL_KINDS',
    'ArrivalProcess',
    'BurstyArrivals',
    'DiurnalArrivals',
    'PoissonArrivals',
    'ROUTER_POLICIES',
    'ReplicaServer',
    'RequestRouter',
    'SloAutoscaler',
    'SloPolicy',
    'SloTracker',
    'TrafficService',
    'make_arrivals',
    'run_traffic',
]
