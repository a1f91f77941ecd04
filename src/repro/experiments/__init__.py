"""Experiment harness: topologies, strategies, runners, figure drivers.

The run pipeline has three explicit stages:

* :mod:`~repro.experiments.spec` — frozen :class:`RunSpec` values that
  fully determine a run, and the serializable :class:`RunOutcome`;
* :mod:`~repro.experiments.executor` — pluggable executors
  (:class:`SerialExecutor`, :class:`ParallelRunner`) mapping spec
  batches to outcomes, fronted by :func:`run_specs`, which takes the
  executor and cache as arguments;
* :mod:`~repro.experiments.cache` — the determinism-keyed on-disk
  :class:`ResultCache` (spec + code fingerprint).
"""

from .cache import ResultCache, code_fingerprint, pipeline_counters
from .executor import (
    ParallelRunner,
    RunError,
    SerialExecutor,
    execute_spec,
    run_spec,
    run_spec_file,
    run_specs,
)
from .figures import ALL_FIGURES
from .harness import (
    ParallelRunResult,
    run_migration_probe,
    run_parallel,
    run_server,
    ServerRunResult,
)
from .reporting import FigureResult, format_table
from .spec import (
    ClusterSpec,
    RunOutcome,
    RunSpec,
    SpecError,
    cluster_spec,
    parallel_spec,
    parse_spec,
    probe_spec,
    server_spec,
    spec_from_dict,
    TrafficSpec,
    traffic_spec,
)
from .sweeps import Sweep, SweepPoint
from .strategies import (
    ALL_STRATEGIES,
    apply_strategy,
    COMPARISON_STRATEGIES,
    IRS,
    PLE,
    RELAXED_CO,
    VANILLA,
)
from .topology import (
    build_scenario,
    InterferenceSpec,
    NO_INTERFERENCE,
    Scenario,
)

__all__ = [
    'ALL_FIGURES',
    'ALL_STRATEGIES', 'apply_strategy', 'build_scenario',
    'ClusterSpec', 'cluster_spec',
    'code_fingerprint', 'COMPARISON_STRATEGIES', 'execute_spec',
    'FigureResult', 'format_table', 'InterferenceSpec', 'IRS',
    'NO_INTERFERENCE', 'ParallelRunner', 'ParallelRunResult',
    'parallel_spec', 'parse_spec', 'pipeline_counters', 'PLE',
    'probe_spec', 'RELAXED_CO', 'ResultCache', 'RunError', 'RunOutcome',
    'RunSpec', 'run_migration_probe', 'run_parallel', 'run_server',
    'run_spec', 'run_spec_file', 'run_specs', 'Scenario', 'SerialExecutor',
    'ServerRunResult', 'server_spec', 'SpecError', 'spec_from_dict', 'Sweep',
    'SweepPoint', 'TrafficSpec', 'traffic_spec', 'VANILLA',
]
