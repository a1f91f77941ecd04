"""Fairness and efficiency metrics.

Mirrors the paper's reporting:

* **utilization relative to fair share** (Figure 2) — the CPU time a VM
  actually consumed over what proportional sharing entitles it to;
* **performance improvement** (Figures 5, 6, 8, 10–13) — speed of a
  strategy relative to vanilla, as a percentage;
* **weighted speedup** (Figures 7, 9) — mean of foreground and
  background speedups, the system-efficiency measure of Section 5.4.
"""


def utilization_vs_fair_share(vm, machine, elapsed_ns):
    """CPU consumed by ``vm`` over ``elapsed_ns``, normalized to its
    fair share (1.0 = exactly the entitlement)."""
    if elapsed_ns <= 0:
        raise ValueError('elapsed must be positive')
    run_ns, __, __ = vm.total_runstate(machine.sim.now)
    share_ns = machine.fair_share_ns(vm, elapsed_ns)
    if share_ns <= 0:
        return 0.0
    return run_ns / share_ns


def improvement_percent(vanilla_time_ns, strategy_time_ns):
    """Performance improvement of a strategy over vanilla, in percent.
    Positive = faster than vanilla (paper convention)."""
    if strategy_time_ns <= 0:
        raise ValueError('strategy time must be positive')
    return (vanilla_time_ns / strategy_time_ns - 1.0) * 100.0


def weighted_speedup(foreground_speedup, background_speedup):
    """System efficiency: the (weighted) average speedup of the
    co-located applications, in percent (100 = vanilla parity)."""
    return (foreground_speedup + background_speedup) / 2.0 * 100.0
