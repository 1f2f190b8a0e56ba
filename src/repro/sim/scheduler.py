"""Warp schedulers: loose round-robin and two-level active (Table 1,
Narasiman et al. [20]) — with event-driven wake/sleep readiness caching.

The golden timing model walks every owned warp each cycle and lets
``try_issue`` reject the ones that cannot issue.  Almost always the answer
is identical to the previous cycle: nothing a warp waits on (a scoreboard
release, ``lsu_free``, a barrier, a DAC queue arrival) changed.  The
scheduler therefore caches a failed walk and *sleeps*: subsequent ticks
replay the walk's observable side effects (the DAC dequeue stall counters,
which the golden walk increments every blocked cycle) without touching any
warp, until either a wake condition fires or ``lsu_free`` is reached.

Wake conditions (each clears ``_asleep``):

- ``WarpContext.release`` — a scoreboard register became ready;
- barrier release and CTA assignment (``SM.wake_all``) — the SM-wide
  changes that can unblock warps on any scheduler;
- DAC record delivery: ``PerWarpQueue`` push and AEU early-fill completion;
- ATQ space freed (affine-warp enqueue readiness);
- warps added to or removed from the scheduler;
- ``lsu_free`` — the only *time*-gated input: a blocked walk bounds its
  sleep with the ``lsu_free`` it observed, so later movement of the LSU
  horizon at worst causes a harmless early re-walk.

Every run also records why each issue slot went unused, in
``extra["stalls"]``.  A tick settles the cycle's reason: ``issued``,
``busy``, ``idle``, or why ``try_issue`` rejected the walk's head-of-line
warp (recorded at the rejection point in ``scheduler.reject``).  A reason
changes only at a tick, so cycles are run-length-accrued per reason and a
sleeping tick accrues nothing.  The tracer receives the same closed
intervals, so traced runs take this path too.

The set of *executed* cycles is decided by ``GPU.run`` and is untouched —
this cache only makes a blocked scheduler's executed cycle O(1).
"""

from __future__ import annotations

_NEVER = float("inf")


class Scheduler:
    """One of the SM's warp schedulers.

    Each scheduler owns the warp slots with ``slot % num_schedulers ==
    index`` and issues at most one warp instruction every
    ``issue_interval`` cycles (a 32-thread warp issues over 16 lanes in two
    cycles on the baseline, paper §5.1.1).

    Both policies walk the warps in rotated order.  ``two_level`` rotates
    only past the warp that issued, so issuing warps stay at the front and
    warps that stall on memory fall behind them, which concentrates issue
    bandwidth and spreads memory latency (Narasiman et al.).
    """

    def __init__(self, sm, index: int, policy: str, issue_interval: int):
        self.sm = sm
        self.index = index
        self.policy = policy
        self.issue_interval = issue_interval
        self.busy_until = 0
        self.warps: list = []              # warps owned by this scheduler
        self._rotation = 0
        # Wake/sleep state: when asleep, ticks replay ``_sleep_stalls``
        # (stat keys the cached blocked walk added) until ``_sleep_wake``
        # or an external wake.
        self._asleep = False
        self._sleep_stalls: tuple = ()
        self._sleep_wake = _NEVER
        self._walk_stalls: list | None = None
        # Issue-slot attribution: the running interval's reason, the warp
        # slot it is charged to, and its start cycle.  ``reject`` is where
        # ``try_issue`` records why it turned the current warp away.
        self.reason = "idle"
        self.slot = -1
        self._since = 0
        self.reject: str | None = None
        self.stalls: dict[str, int] = {}
        self.tracer = sm.tracer

    def wake(self) -> None:
        self._asleep = False

    def add_warp(self, warp) -> None:
        self.warps.append(warp)
        warp.sched = self
        self._asleep = False

    def remove_warp(self, warp) -> None:
        # Swap-pop instead of list.remove: retire of an N-warp scheduler is
        # O(1) shifting instead of O(N).  The resulting iteration-order
        # permutation is absorbed by the rotation (tests/test_scheduler_gpu
        # pins Stats invariance against order changes).
        warps = self.warps
        i = warps.index(warp)
        last = warps.pop()
        if last is not warp:
            warps[i] = last
        warp.sched = None
        self._asleep = False

    def note_stall(self, key: str) -> None:
        """A ``try_issue`` failure path adds a stall counter (the DAC
        dequeue stalls): record it so a sleeping tick can replay the same
        per-cycle delta the golden walk would have produced."""
        self.sm.stats.add(key)
        stalls = self._walk_stalls
        if stalls is None:
            self._walk_stalls = [key]
        else:
            stalls.append(key)

    def tick(self, now: int) -> bool:
        """Attempt one issue; returns True if an instruction issued."""
        sm = self.sm
        warps = self.warps
        if now < self.busy_until:
            if self.reason != "busy":
                self._switch("busy", -1, now)
            return False
        if not warps:
            if self.reason != "idle":
                self._switch("idle", -1, now)
            return False
        if self._asleep and now < self._sleep_wake:
            # Cached blocked walk: nothing this scheduler's warps wait on
            # has changed.  Replay the stall counters the golden walk adds
            # every blocked cycle and skip the walk itself; the recorded
            # reason still holds.
            stalls = self._sleep_stalls
            if stalls:
                stats = sm.stats
                for key in stalls:
                    stats.add(key)
            return False
        self._asleep = False
        self._walk_stalls = None
        self.reject = None
        reason = None
        slot = -1
        n = len(warps)
        rot = self._rotation % n
        for i in range(n):
            # Walk in rotated order by index arithmetic; the position must
            # be taken before issue because an exit instruction can retire
            # the CTA and remove the warp from this scheduler.
            position = rot + i
            if position >= n:
                position -= n
            warp = warps[position]
            interval = sm.try_issue(warp, now, self)
            if interval:
                # Close the running interval before ``busy_until`` moves:
                # a busy interval is charged up to the old one.
                if self.reason != "issued" or self.slot != warp.slot:
                    self._switch("issued", warp.slot, now)
                self.busy_until = now + interval
                if self.policy == "two_level":
                    # Keep issuing warps hot: rotate only past the issuer.
                    self._rotation = (position + 1) % max(1, len(self.warps))
                else:
                    self._rotation = (self._rotation + 1) \
                        % max(1, len(self.warps))
                # Issuing wakes sleepers through targeted hooks only: the
                # cross-scheduler channels are barrier release (wake_all in
                # _do_barrier), CTA retire/assign (add/remove_warp and
                # on_cta_assigned), DAC queue movement (ATQ/PerWarpQueue
                # push/pop hooks), and L1 unlocks (AEU wake).  ``lsu_free``
                # advancing needs no wake: a sleeper blocked on it bounded
                # its sleep with the value it saw, and a stale-time wake
                # just re-walks and re-sleeps.
                return True
            if reason is None:
                # The head-of-line warp is the first one ``try_issue``
                # rejected for a reason (done warps record none).
                reason = self.reject
                slot = warp.slot
        if reason is None:
            reason, slot = "idle", -1
        if reason != self.reason or slot != self.slot:
            self._switch(reason, slot, now)
        # Blocked: sleep until a wake condition, replaying the stall deltas
        # this walk produced.  ``lsu_free`` is the only *time*-gated input
        # (a memory-ready warp becomes issuable by time passing alone), so
        # it bounds the sleep; everything else wakes explicitly.
        self._asleep = True
        stalls = self._walk_stalls
        self._sleep_stalls = tuple(stalls) if stalls else ()
        lsu_free = sm.lsu_free
        self._sleep_wake = lsu_free if lsu_free > now else _NEVER
        return False

    # ---- issue-slot attribution ---------------------------------------

    def _switch(self, reason: str, slot: int, now: int) -> None:
        """Close the running interval at ``now`` and open ``(reason,
        slot)``."""
        self.close(now)
        self.reason = reason
        self.slot = slot

    def close(self, now: int) -> None:
        """Charge the cycles since the running interval opened to its
        reason (and, when tracing, to its warp slot); the interval
        restarts at ``now``."""
        since = self._since
        reason = self.reason
        busy_until = self.busy_until
        if reason == "busy" and since < busy_until < now:
            # The issue window closed before this tick: the scheduler's
            # last warp left inside it, so GPU.run's skip did not stop at
            # ``busy_until``.  The rest of the span was idle.
            self._charge("busy", since, busy_until)
            reason = "idle"
            since = busy_until
        if now > since:
            self._charge(reason, since, now)
        self._since = now

    def _charge(self, reason: str, start: int, end: int) -> None:
        stalls = self.stalls
        stalls[reason] = stalls.get(reason, 0) + end - start
        if self.tracer.enabled:
            self.tracer.slot_interval(self.sm.index, self.index, self.slot,
                                      reason, start, end)
