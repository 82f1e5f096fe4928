"""Heap-based discrete-event loop with a simulated clock.

The loop is the single source of time for the whole simulation.  Events are
callbacks scheduled at absolute simulated times in one binary heap; ties
are broken by a monotonically increasing sequence number, so execution
order is deterministic for equal timestamps.

Two kinds of heap entry share that ``(time, seq)`` order:

- ``(time, seq, event)`` from :meth:`EventLoop.call_at` /
  :meth:`EventLoop.call_after`: the :class:`Event` is a handle the caller
  can cancel (timers);
- ``(time, seq, callback, args)`` from :meth:`EventLoop.post`: a
  fire-and-forget callback with no handle and no per-event object
  (message deliveries).

The ``seq`` tie-break is unique, so heap ordering is decided entirely by
C-level tuple comparison and the third element is never compared.
Bookkeeping is O(1) per operation: :meth:`EventLoop.pending` is the heap
size minus the cancelled entries still in it, and the heap is compacted
when cancelled entries outnumber live ones, so long-running simulations
with heavy timer churn stay bounded in memory.

For observability the loop supports per-event hooks (see
:meth:`EventLoop.add_hook` and the legacy single-hook
:meth:`EventLoop.set_hook`): every ``sample_every``-th executed event is
timed with the wall clock and reported together with the loop state.
Multiple hooks with independent sampling intervals can coexist — the obs
layer samples wall time while the chaos harness checks invariants — and
with no hook installed the execution path pays a single truthiness check.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from typing import Any, Callable, List, Optional

#: below this heap size compaction is pointless (rebuild cost > scan cost)
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class LoopHook:
    """Handle for one installed per-event hook (see :meth:`EventLoop.add_hook`)."""

    __slots__ = ("callback", "every", "timed")

    def __init__(self, callback: Callable[["EventLoop", "Event", float], None],
                 every: int, timed: bool = True):
        self.callback = callback
        self.every = every
        self.timed = timed


class Event:
    """A scheduled callback.

    Events are returned by :meth:`EventLoop.call_at` / :meth:`EventLoop.call_after`
    and can be cancelled.  A cancelled event stays in the heap but is
    skipped when popped (and reclaimed wholesale when the loop compacts).
    Hooks also receive an Event for posted and inline-executed callbacks;
    those are built on demand, already done, with no loop to cancel against.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "done",
                 "phantom", "_loop")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any],
                 args: tuple, loop: Optional["EventLoop"] = None,
                 phantom: bool = False):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.done = loop is None
        self.phantom = phantom
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the callback from running.  Safe to call more than once,
        and a no-op once the event has already executed."""
        if self.cancelled or self.done:
            return
        self.cancelled = True
        self._loop._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("done" if self.done
                 else "cancelled" if self.cancelled else "pending")
        return f"<Event t={self.time:.6f} seq={self.seq} {state} {self.callback!r}>"


class EventLoop:
    """Deterministic discrete-event scheduler.

    Typical use::

        loop = EventLoop()
        loop.call_after(1.0, my_callback, arg1)
        loop.run_until(100.0)

    The clock only moves when :meth:`run`, :meth:`run_until` or :meth:`step`
    execute events; there is no wall-clock coupling.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        # (time, seq, event) and (time, seq, callback, args) entries
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self.events_executed = 0
        # cancelled entries still in the heap: pending() is O(1) and
        # compaction knows when the heap is mostly garbage
        self._cancelled = 0
        # optional instrumentation (see add_hook / set_hook)
        self._hooks: List[LoopHook] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any,
                phantom: bool = False) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``.

        A ``phantom`` event executes in time/seq order like any other but
        is *invisible to accounting*: it does not bump
        :attr:`events_executed` and skips the hooks.  The sharded engine
        uses phantoms for bookkeeping ticks that the serial oracle runs as
        part of another event, and the heartbeat pacer uses one per cohort
        while counting each beat itself (see :meth:`execute`).
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at {when} before current time {self._now}"
            )
        seq = next(self._seq)
        event = Event(when, seq, callback, args, self, phantom)
        heapq.heappush(self._heap, (when, seq, event))
        return event

    def call_after(self, delay: float, callback: Callable[..., Any], *args: Any,
                   phantom: bool = False) -> Event:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, callback, *args,
                            phantom=phantom)

    def post(self, when: float, callback: Callable[..., Any],
             *args: Any) -> None:
        """Schedule a fire-and-forget ``callback(*args)`` at time ``when``.

        Same ordering and accounting as :meth:`call_at`, but no handle: the
        heap holds the bare callback, so nothing can cancel it.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at {when} before current time {self._now}"
            )
        heapq.heappush(self._heap, (when, next(self._seq), callback, args))

    def stop(self) -> None:
        """Make the currently running :meth:`run` loop return after this event."""
        self._stopped = True

    # ------------------------------------------------------------------ #
    # cancellation bookkeeping
    # ------------------------------------------------------------------ #

    def _on_cancel(self) -> None:
        """Called by :meth:`Event.cancel`; compacts the heap when mostly garbage."""
        self._cancelled += 1
        heap = self._heap
        if self._cancelled * 2 > len(heap) and len(heap) >= _COMPACT_MIN:
            # in place: a running run_until holds a reference to the list
            heap[:] = [entry for entry in heap
                       if len(entry) == 4 or not entry[2].cancelled]
            heapq.heapify(heap)
            self._cancelled = 0

    # ------------------------------------------------------------------ #
    # instrumentation
    # ------------------------------------------------------------------ #

    def add_hook(self, hook: Callable[["EventLoop", Event, float], None],
                 sample_every: int = 1, timed: bool = True) -> LoopHook:
        """Install a per-event hook alongside any already installed.

        Every ``sample_every``-th executed event is timed and
        ``hook(loop, event, wall_seconds)`` is invoked right after its
        callback returns.  Which events are sampled depends only on the
        deterministic execution count, so a seeded run samples the same
        events every time (the wall-time *values* are of course not
        reproducible).  Timers, posted callbacks and callbacks run through
        :meth:`execute` are all counted and sampled alike.  ``timed=False``
        skips the ``perf_counter`` pair when only untimed hooks are due
        (the hook then receives ``0.0`` as the wall time) — the cheap tier
        for per-event observers like the flight recorder that want the
        event, not its cost.  Returns a handle for :meth:`remove_hook`.
        """
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        handle = LoopHook(hook, int(sample_every), timed=timed)
        self._hooks.append(handle)
        return handle

    def remove_hook(self, handle: LoopHook) -> None:
        """Uninstall one hook previously returned by :meth:`add_hook`."""
        try:
            self._hooks.remove(handle)
        except ValueError:
            pass

    def set_hook(self, hook: Callable[["EventLoop", Event, float], None],
                 sample_every: int = 1) -> None:
        """Replace every installed hook with this single one (legacy API)."""
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self._hooks = [LoopHook(hook, int(sample_every))]

    def clear_hook(self) -> None:
        """Remove all per-event hooks (back to the zero-overhead path)."""
        self._hooks = []

    def _run_hooked(self, callback: Callable[..., Any], args: tuple,
                    seq: int, event: Optional[Event]) -> None:
        """Run one counted callback with the hooks due at this count.

        ``event`` is the handle of a timer; for posted and inline callbacks
        an Event is built only when a hook is due.
        """
        count = self.events_executed
        due = [h for h in self._hooks if count % h.every == 0]
        if not due:
            callback(*args)
            return
        if any(h.timed for h in due):
            started = _time.perf_counter()
            callback(*args)
            wall = _time.perf_counter() - started
        else:
            callback(*args)
            wall = 0.0
        if event is None:
            event = Event(self._now, seq, callback, args)
        for handle in due:
            handle.callback(self, event, wall)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def _fire(self, entry: tuple) -> None:
        """Execute one popped, non-cancelled heap entry."""
        self._now = entry[0]
        if len(entry) == 4:
            callback, args, event = entry[2], entry[3], None
        else:
            event = entry[2]
            event.done = True
            callback, args = event.callback, event.args
            if event.phantom:
                callback(*args)
                return
        self.events_executed += 1
        if self._hooks:
            self._run_hooked(callback, args, entry[1], event)
        else:
            callback(*args)

    def execute(self, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` now, counted as one executed event.

        For batching: a callback that performs several logically separate
        events in one go (the heartbeat pacer's cohort) runs each through
        here, so :attr:`events_executed` and the hooks see one event per
        item exactly as if each had been popped from the heap (the hooks'
        Event carries ``seq=-1``: it never sat in the heap).
        """
        self.events_executed += 1
        if self._hooks:
            self._run_hooked(callback, args, -1, None)
        else:
            callback(*args)

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if nothing is pending."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if len(entry) == 3 and entry[2].cancelled:
                self._cancelled -= 1
                continue
            self._fire(entry)
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the heap drains, :meth:`stop` is called, or ``max_events`` fire."""
        if self._running:
            raise SimulationError("event loop is already running")
        self._running = True
        self._stopped = False
        executed = 0
        try:
            while not self._stopped:
                if max_events is not None and executed >= max_events:
                    break
                if not self.step():
                    break
                executed += 1
        finally:
            self._running = False

    def run_until(self, until: float) -> None:
        """Run events with ``time <= until``, then set the clock to ``until``."""
        if until < self._now:
            raise SimulationError(f"cannot run until {until}, already at {self._now}")
        if self._running:
            raise SimulationError("event loop is already running")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        try:
            while not self._stopped:
                if not heap or heap[0][0] > until:
                    break
                entry = pop(heap)
                if len(entry) == 4 and not self._hooks:
                    # posted delivery, the hot path: inline _fire
                    self._now = entry[0]
                    self.events_executed += 1
                    entry[2](*entry[3])
                elif len(entry) == 3 and entry[2].cancelled:
                    self._cancelled -= 1
                else:
                    self._fire(entry)
        finally:
            self._running = False
        if self._now < until:
            self._now = until

    def pending(self) -> int:
        """Number of non-cancelled events still scheduled (O(1))."""
        return len(self._heap) - self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventLoop now={self._now:.3f} pending={self.pending()}>"
