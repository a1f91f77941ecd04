"""Guest timer services.

:class:`TimerService` backs task sleeps with hypervisor one-shot timers
(a paravirtual guest programs the hypervisor's timer and gets an
event-channel kick), so a timer can wake a task whose VM has every vCPU
blocked. The wakeup then flows through the ordinary ``wake_task`` path,
including wake balancing.

:class:`TickDriver` owns one kernel's per-gCPU machinery: the compute
quantum (the one-shot that fires when the current compute segment
drains), the work of a scheduler tick (accounting, periodic balancing,
CFS preemption), and the NOHZ idle kick. Ticks freeze with the vCPU —
when the hypervisor deschedules it, the guest's timers simply stop,
which is the semantic gap IRS exists to bridge.

:class:`TickTimer` is one machine's keyed timer. It times two streams
under one event: the guest ticks of its running gCPUs and the PLE
windows of its spinning vCPUs (``repro.hypervisor.ple``). Most of both
need no event. A *quiet* tick finds a task running, its runqueue empty
and, on a balance tick, no sibling with more than one ready task to
pull (the ticks Linux's NOHZ_FULL stops); it writes only its gCPU's
tick count and ``rt_avg``, the current task's charges and the
runqueue's ``min_vruntime``. An *in-place* exit is a PLE exit that
hands the pCPU straight back (``CreditScheduler.can_yield_in_place``);
it writes only its vCPU's and gCPU's accounting and restarts that
gCPU's ticks. Neither changes an input of the other's check, and
nothing reads what they write before the next other event. So each
tick and window is only the ``(time, seq)`` key its timer event would
have had, and the timer's one event sits at the earliest key. When it
fires, that tick or exit runs live. Then, inside ``run_until``, every
quiet tick and in-place exit before the next other event (or the
run's end) is applied at once, in closed form per gCPU or spinner,
ahead of the clock but never past that event, and before the first
tick that is not quiet or window whose exit would not stay in place;
those fire live at their own keys.

Each applied tick or exit acts as of its own instant, and each chain
draws the ``seq`` its last re-arm would have drawn, in the order of
those last events (a spinner draws its tick, then its window), so every
key keeps its place among same-instant events. Every key due at ``T``
on a chain of period ``p`` is drawn at ``T - p``, so at one instant a
key already drawn comes first (by ``seq``), then the keys of longer
periods (a tick before a window), then the chains that started later,
then by ``seq``. Outside ``run_until`` (and after ``Simulator.stop``)
every tick and window fires on its own. A machine that already shares
its simulator when its timer is built fires each tick as its own event,
as before ticks folded; its windows still fold.
"""

import math
from bisect import bisect_left, insort

from ..workloads.actions import Compute


class TimerService:
    """Arms one-shot wakeups for sleeping tasks."""

    def __init__(self, sim, kernel):
        self.sim = sim
        self.kernel = kernel
        self._armed = {}             # task -> Event

    def arm_sleep(self, task, duration_ns):
        """Wake ``task`` after ``duration_ns`` of simulated time."""
        if task in self._armed:
            raise RuntimeError('%s already has a timer armed' % task.name)
        self._armed[task] = self.sim.after(duration_ns, self._fire, task)

    def cancel(self, task):
        """Disarm a pending timer, if any."""
        event = self._armed.pop(task, None)
        if event is not None:
            event.cancel()

    def _fire(self, task):
        self._armed.pop(task, None)
        self.kernel.wake_task(task)

    @property
    def pending(self):
        """Number of armed timers."""
        return len(self._armed)


class TickDriver:
    """Quantum, scheduler-tick and NOHZ-kick machinery of one kernel."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.sim = kernel.sim
        # Bound once: the tick reads them on every firing.
        config = kernel.policy.config
        self.tick_ns = config.tick_ns
        self.balance_interval_ticks = config.balance_interval_ticks

    # ------------------------------------------------------------------
    # Compute quantum (fires when the running segment drains)
    # ------------------------------------------------------------------

    def arm_quantum(self, gcpu):
        # Re-arms the handle _on_quantum fired; a pending one is
        # cancelled first, and rearm() replaces it.
        event = gcpu.quantum_event
        if event is not None:
            event.cancel()
        gcpu.quantum_event = self.sim.rearm(
            event, gcpu.current.remaining_ns, self._on_quantum, gcpu)

    def cancel_quantum(self, gcpu):
        if gcpu.quantum_event is not None:
            gcpu.quantum_event.cancel()

    def _on_quantum(self, gcpu):
        if gcpu.run_started_at is None or not gcpu.vcpu.is_running:
            return
        kernel = self.kernel
        kernel._checkpoint(gcpu, self.sim.now)
        task = gcpu.current
        if task is not None and isinstance(task.action, Compute) \
                and task.remaining_ns <= 0:
            task.action = None
        kernel.interp.run(gcpu)

    # ------------------------------------------------------------------
    # Scheduler tick (timed by the machine's TickTimer)
    # ------------------------------------------------------------------

    def tick(self, gcpu, now=None):
        """Guest timer tick on running ``gcpu`` at ``now``, its next
        tick already re-armed: accounting, balancing, CFS preemption.
        Without ``now`` the tick is its own event (a machine whose
        :class:`TickTimer` does not fold): it re-arms itself, and a
        tick on a stopped vCPU or in the SA handler ends its chain."""
        if now is None:
            if not gcpu.vcpu.is_running or gcpu.in_sa_handler:
                return
            sim = self.sim
            sim.again(self.tick_ns)
            now = sim.now
        gcpu.tick_count += 1
        gcpu.rt.update(now)
        task = gcpu.current
        if task is None:
            return
        kernel = self.kernel
        kernel._checkpoint(gcpu, now)
        rq = gcpu.rq
        if gcpu.tick_count % self.balance_interval_ticks == 0:
            kernel.balancer.periodic_balance(gcpu, now)
            if rq._entries:
                self.nohz_kick(gcpu)
        # Mirrors the empty-queue early return of
        # CfsPolicy.should_resched_at_tick: no ready task, no resched.
        if gcpu.current is task and rq._entries \
                and kernel.policy.should_resched_at_tick(task, rq):
            kernel._preempt_current(gcpu)

    def first_live_tick(self, gcpu, first):
        """The time of ``gcpu``'s first tick, of those due at ``first``
        and each period after while no other event fires, that does more
        than :meth:`settle_ticks` does; None when every one is quiet.

        Every branch of :meth:`tick` must be decided here from state
        only other events change: a tick on a gCPU without a current
        task, with ready tasks or in the SA handler is live, and so is
        a balance tick while a sibling has more ready tasks than the
        one this gCPU runs (``GuestBalancer.find_pull_candidate``)."""
        if (gcpu.current is None or gcpu.rq._entries or gcpu.in_sa_handler
                or gcpu.run_started_at is None
                or not gcpu.vcpu.is_running):
            return first
        for sibling in self.kernel.gcpus:
            if len(sibling.rq._entries) > 1 and sibling is not gcpu:
                interval = self.balance_interval_ticks
                return first + (interval - 1 - gcpu.tick_count % interval
                                ) * self.tick_ns
        return None

    def settle_ticks(self, gcpu, first, count):
        """Apply ``count`` quiet ticks of ``gcpu``, at ``first`` and each
        period after, in closed form: the tick counts, one ``rt_avg``
        fold per tick, and the checkpoints (whole periods charged in one
        step)."""
        gcpu.tick_count += count
        rt = gcpu.rt
        rt.update(first)
        rt.fold_periods(self.tick_ns, count - 1)
        self.kernel._checkpoint_periods(gcpu, first, self.tick_ns, count)

    def nohz_kick(self, busy_gcpu):
        """NOHZ idle balancing: a busy CPU with queued work kicks one
        guest-idle sibling so it can wake up and pull (Linux's
        ``nohz_balancer_kick``). Without this, a vCPU idled by an IRS
        evacuation — or by ordinary blocking — would never reclaim
        work, because idle CPUs take no ticks."""
        kernel = self.kernel
        for gcpu in kernel.gcpus:
            if gcpu is busy_gcpu:
                continue
            if not gcpu.is_guest_idle:
                continue
            if gcpu.vcpu.is_blocked:
                self.sim.trace.count('guest.nohz_kicks')
                kernel.machine.wake_vcpu(gcpu.vcpu)
                return


def _rank(time, t0, seq, period):
    """Where the event at ``time`` of a chain of ``period``, whose held
    key is ``(t0, seq)``, fires among the keys due at ``time``, as a
    tuple that compares with the others: the held key by its ``seq``
    first; a later key is drawn at ``time - period``, after every held
    one, so a longer period comes first, then the chain that started
    later, then ``seq`` (see the module docstring)."""
    if time == t0:
        return (time, 0, seq)
    return (time, 1, time - period, -t0, seq)


class TickTimer:
    """The keyed timer of one machine (see the module docstring). Guest
    kernels call :meth:`arm` when a gCPU starts running a task,
    :meth:`restart_at` at an in-place PLE exit and :meth:`disarm` when
    it stops; the PLE monitor calls :meth:`start_window` and
    :meth:`stop_window` when a spin starts and ends.

    :attr:`keys` holds each running gCPU's next tick and :attr:`windows`
    each spinning vCPU's next PLE window, as ``[time, seq, owner, ticks,
    period]`` (``ticks`` is the gCPU's :class:`TickDriver`, None for a
    window), and :attr:`event` fires at those that run live. On a
    machine that shares its simulator when the timer is built
    (``Machine.shares_simulator``: the hosts of a cluster),
    :attr:`events` holds each gCPU's own tick event instead, and
    :attr:`keys` stays empty. Another machine's ticks are live events
    to this timer, so there a fold would almost never span two ticks of
    one gCPU, while every fired tick paid for the keys."""

    def __init__(self, machine):
        self.sim = machine.sim
        self.machine = machine
        self.keys = {}
        self.windows = {}
        # Every held key in firing order. A fresh key holds the newest
        # seq, so it goes last unless an earlier time is held. Keys are
        # lists, re-keyed in place: a tick allocates nothing.
        self._order = []
        # The timer's one Event, armed at the earliest key, and its
        # gCPU or vCPU.
        self.event = None
        self._owner = None
        # True while the event's callback runs: key changes then only
        # update the keys, and the callback re-arms the event.
        self._firing = False
        # None while ticks fold; else gCPU -> its tick Event while its
        # ticks run. Fixed here: a machine made on the simulator later
        # leaves this timer folding, as a fold never passes the next
        # live event, another machine's included.
        self.events = {} if machine.shares_simulator else None

    def arm(self, gcpu):
        """``gcpu`` runs a task: its ticks start one period from now,
        unless they already run."""
        events = self.events
        if events is not None:
            event = events.get(gcpu)
            if event is None or event.seq <= 0:
                ticks = gcpu.kernel.ticks
                events[gcpu] = self.sim.rearm(event, ticks.tick_ns,
                                              ticks.tick, gcpu)
        elif gcpu not in self.keys:
            sim = self.sim
            ticks = gcpu.kernel.ticks
            period = ticks.tick_ns
            key = self.keys[gcpu] = [sim.now + period, sim.reserve_seq(),
                                     gcpu, ticks, period]
            self._insert(key)

    def restart_at(self, gcpu, start):
        """Restart ``gcpu``'s ticks one period after ``start``, with the
        next ``seq``: what a stop and an :meth:`arm` at ``start`` would
        leave."""
        events = self.events
        if events is not None:
            event = events.get(gcpu)
            if event is not None:
                event.cancel()
            ticks = gcpu.kernel.ticks
            events[gcpu] = self.sim.rearm(
                event, start + ticks.tick_ns - self.sim.now, ticks.tick,
                gcpu)
            return
        key = self.keys.get(gcpu)
        if key is None:
            ticks = gcpu.kernel.ticks
            key = self.keys[gcpu] = [0, 0, gcpu, ticks, ticks.tick_ns]
        else:
            self._order.remove(key)
        key[0] = start + key[4]
        key[1] = self.sim.reserve_seq()
        self._insert(key)

    def disarm(self, gcpu):
        """``gcpu`` stopped running (or went idle): no more ticks."""
        events = self.events
        if events is not None:
            event = events.pop(gcpu, None)
            if event is not None:
                event.cancel()
            return
        key = self.keys.pop(gcpu, None)
        if key is not None:
            self._order.remove(key)
            if gcpu is self._owner and not self._firing:
                self._arm_first()

    def start_window(self, vcpu, window_ns):
        """``vcpu`` entered a pause loop: its PLE window is due
        ``window_ns`` from now, unless one is already held."""
        windows = self.windows
        if vcpu not in windows:
            sim = self.sim
            key = windows[vcpu] = [sim.now + window_ns, sim.reserve_seq(),
                                   vcpu, None, window_ns]
            self._insert(key)

    def stop_window(self, vcpu):
        """``vcpu``'s pause loop ended: its window goes."""
        key = self.windows.pop(vcpu, None)
        if key is not None:
            self._order.remove(key)
            if vcpu is self._owner and not self._firing:
                self._arm_first()

    def _insert(self, key):
        """Put a fresh ``key`` in order and keep the event at the
        earliest key."""
        order = self._order
        if not order or key[0] >= order[-1][0]:
            order.append(key)
        else:
            insort(order, key)
        if not self._firing and (key[2] is self._owner or order[0] is key):
            self._arm_first()

    def _arm_first(self):
        """Arm the event at the earliest key, or disarm it when no key
        is held."""
        event = self.event
        if event is not None:
            event.cancel()
        if self._order:
            time, seq, self._owner, __, __ = self._order[0]
            self.event = self.sim.at_key(time, seq, self._fire)
        else:
            self._owner = None

    def _fire(self):
        sim = self.sim
        order = self._order
        # The event fires at the earliest key, the owner's.
        key = order[0]
        owner = key[2]
        del order[0]
        ticks = key[3]
        self._firing = True
        if ticks is None:
            self._exit(key, owner)
        elif owner.vcpu.is_running and not owner.in_sa_handler:
            now = sim.now
            time = key[0] = now + key[4]
            key[1] = sim.reserve_seq()
            if not order or time >= order[-1][0]:
                order.append(key)
            else:
                insort(order, key)
            ticks.tick(owner, now)
        else:
            # The tick chain ends here; the next dispatch restarts it.
            del self.keys[owner]
        if order:
            first = order[0]
            end = sim.run_end
            # A gCPU with ready tasks ticks live (the first test of
            # TickDriver.first_live_tick): then nothing folds.
            if end is not None and (self.windows
                                    or not first[2].rq._entries):
                bound = sim.peek_key()
                if bound is None or bound[0] > end:
                    bound = (end, math.inf)
                # Without windows every key lies within one period after
                # the first, so the first gCPU has fewer than two ticks
                # before a nearer bound: settling them would cost more
                # than firing them.
                if bound[0] - first[0] >= first[4] or self.windows:
                    self._settle(bound)
                    first = order[0]
            sim.again_at(first[0], first[1])
            self._owner = first[2]
        else:
            self._owner = None
        self._firing = False

    def _exit(self, key, vcpu):
        """The PLE window at ``key`` expired on ``vcpu``: its VM-exit,
        live."""
        if not vcpu.is_running:
            del self.windows[vcpu]
            return
        # The credit scheduler performs a directed yield. No scheduler
        # activation is sent: PLE and IRS are alternative strategies,
        # and the exit is a hardware event, not a scheduler preemption
        # decision.
        sim = self.sim
        sim.trace.count('ple.exits')
        scheduler = self.machine.scheduler
        if scheduler.can_yield_in_place(vcpu):
            now = sim.now
            scheduler.yield_in_place(vcpu, now)
            key[0] = now + key[4]
            key[1] = sim.reserve_seq()
            self._insert(key)
        else:
            # The switch ends the spin, and with it the window.
            del self.windows[vcpu]
            scheduler.force_yield(vcpu)

    def _settle(self, bound):
        """Apply, in closed form per chain, every quiet tick and in-place
        exit that comes before ``bound`` (the next live key, or ``(end,
        inf)``), before the first tick that is not quiet and before the
        first window whose exit would not stay in place. The chains draw
        their next keys in the order of their last events, as their
        events would have. ``limit`` is the earliest tick, window or
        event they must come before, ranked by :func:`_rank`."""
        order = self._order
        bound_time, bound_seq = bound
        # Read before any key is re-keyed below.
        due = order[:bisect_left(order, [bound_time, bound_seq])]
        windows = self.windows
        # A key at the bound's instant that is not yet drawn draws its
        # seq after the bound's: it comes first only before a run's end.
        limit = ((bound_time, math.inf) if bound_seq == math.inf
                 else (bound_time, 0, bound_seq))
        for t0, seq, owner, ticks, period in due:
            if t0 > limit[0]:
                break
            if ticks is not None:
                live = ticks.first_live_tick(owner, t0)
                if live is not None:
                    rank = _rank(live, t0, seq, period)
                    if rank < limit:
                        limit = rank
            # An exit that would not stay in place runs live, and so
            # does one whose tick restart would come before its next
            # window.
            elif not (owner.is_running
                      and period < owner.gcpu.kernel.ticks.tick_ns
                      and self.machine.scheduler.can_yield_in_place(owner)):
                rank = (t0, 0, seq)
                if rank < limit:
                    limit = rank
        limit_time = limit[0]
        limit_rank = limit[1:]
        runs = []
        for t0, seq, owner, ticks, period in due:
            if t0 > limit_time:
                break
            count, off_grid = divmod(limit_time - t0, period)
            # On the grid, the event at ``limit_time`` ranks as _rank
            # says.
            if off_grid or ((1, limit_time - period, -t0, seq) if count
                            else (0, seq)) < limit_rank:
                count += 1
            if windows and ticks is not None:
                window = windows.get(owner.vcpu)
                if window is not None:
                    # A spinner's exits restart its ticks: only those
                    # before its first exit are its own.
                    own = max(0, (window[0] - t0 - 1) // period + 1) + (
                        t0 == window[0] and seq < window[1])
                    if own < count:
                        count = own
            if count:
                # Every key is drawn one period before it is due, in
                # order, so a run's last event ranks by its period
                # (longest first), then as _rank says.
                runs.append((t0 + (count - 1) * period, -period, -t0, seq,
                             owner, ticks, count))
        if not runs:
            return
        runs.sort()
        reserve_seq = self.sim.reserve_seq
        keys = self.keys
        for last, neg_period, neg_t0, __, owner, ticks, count in runs:
            if ticks is None:
                # Its tick restart draws the gCPU's key before the
                # window's.
                self.machine.scheduler.yield_in_place(owner, last, count,
                                                      -neg_period)
                self.sim.trace.count('ple.exits', count)
                key = windows[owner]
            else:
                ticks.settle_ticks(owner, -neg_t0, count)
                key = keys[owner]
            key[0] = last - neg_period
            key[1] = reserve_seq()
        order.sort()
