"""Unit tests for the discrete-event loop."""

import pytest

from repro.sim.events import _COMPACT_MIN, EventLoop, SimulationError


def test_clock_starts_at_zero():
    assert EventLoop().now == 0.0


def test_clock_custom_start():
    assert EventLoop(start_time=5.0).now == 5.0


def test_call_after_executes_in_time_order():
    loop = EventLoop()
    seen = []
    loop.call_after(2.0, seen.append, "b")
    loop.call_after(1.0, seen.append, "a")
    loop.call_after(3.0, seen.append, "c")
    loop.run()
    assert seen == ["a", "b", "c"]


def test_ties_break_by_scheduling_order():
    loop = EventLoop()
    seen = []
    for tag in ("first", "second", "third"):
        loop.call_at(1.0, seen.append, tag)
    loop.run()
    assert seen == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    loop = EventLoop()
    times = []
    loop.call_after(1.5, lambda: times.append(loop.now))
    loop.run()
    assert times == [1.5]


def test_cannot_schedule_in_the_past():
    loop = EventLoop()
    loop.call_after(1.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.call_at(0.5, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        EventLoop().call_after(-1.0, lambda: None)


def test_cancel_skips_callback():
    loop = EventLoop()
    seen = []
    event = loop.call_after(1.0, seen.append, "x")
    event.cancel()
    loop.run()
    assert seen == []


def test_cancel_is_idempotent():
    loop = EventLoop()
    event = loop.call_after(1.0, lambda: None)
    event.cancel()
    event.cancel()
    loop.run()


def test_run_until_stops_at_boundary():
    loop = EventLoop()
    seen = []
    loop.call_after(1.0, seen.append, 1)
    loop.call_after(5.0, seen.append, 5)
    loop.run_until(3.0)
    assert seen == [1]
    assert loop.now == 3.0
    loop.run_until(6.0)
    assert seen == [1, 5]


def test_run_until_includes_boundary_events():
    loop = EventLoop()
    seen = []
    loop.call_after(3.0, seen.append, "edge")
    loop.run_until(3.0)
    assert seen == ["edge"]


def test_run_until_backwards_rejected():
    loop = EventLoop()
    loop.run_until(5.0)
    with pytest.raises(SimulationError):
        loop.run_until(1.0)


def test_stop_from_inside_callback():
    loop = EventLoop()
    seen = []

    def stopper():
        seen.append("stop")
        loop.stop()

    loop.call_after(1.0, stopper)
    loop.call_after(2.0, seen.append, "late")
    loop.run()
    assert seen == ["stop"]
    assert loop.pending() == 1


def test_events_scheduled_during_run_execute():
    loop = EventLoop()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            loop.call_after(1.0, chain, n + 1)

    loop.call_after(0.0, chain, 1)
    loop.run()
    assert seen == [1, 2, 3]
    assert loop.now == 2.0


def test_max_events_bound():
    loop = EventLoop()
    seen = []
    for i in range(10):
        loop.call_after(float(i), seen.append, i)
    loop.run(max_events=4)
    assert seen == [0, 1, 2, 3]


def test_pending_excludes_cancelled():
    loop = EventLoop()
    keep = loop.call_after(1.0, lambda: None)
    drop = loop.call_after(2.0, lambda: None)
    drop.cancel()
    assert loop.pending() == 1
    keep.cancel()
    assert loop.pending() == 0


def test_events_executed_counter():
    loop = EventLoop()
    for i in range(5):
        loop.call_after(float(i), lambda: None)
    loop.run()
    assert loop.events_executed == 5


# --------------------------------------------------------------------- #
# heap compaction around the _COMPACT_MIN boundary
# --------------------------------------------------------------------- #


def test_no_compaction_below_min_heap_size():
    # One entry short of the floor: even with almost everything cancelled
    # the heap keeps its garbage (rebuild would cost more than the scan).
    loop = EventLoop()
    seen = []
    events = [loop.call_after(float(i + 1), seen.append, i)
              for i in range(_COMPACT_MIN - 1)]
    for event in events[:-1]:
        event.cancel()
    assert len(loop._heap) == _COMPACT_MIN - 1
    assert loop.pending() == 1
    loop.run()
    assert seen == [_COMPACT_MIN - 2]


def test_compaction_triggers_at_min_heap_size():
    # At exactly _COMPACT_MIN entries, the cancel that tips cancelled*2 over
    # the heap size rebuilds the heap: garbage gone, counter reset.
    loop = EventLoop()
    events = [loop.call_after(float(i + 1), lambda: None)
              for i in range(_COMPACT_MIN)]
    majority = _COMPACT_MIN // 2 + 1
    for event in events[:majority]:
        event.cancel()
    assert len(loop._heap) == _COMPACT_MIN - majority
    assert loop._cancelled == 0
    assert loop.pending() == _COMPACT_MIN - majority


def test_survivors_fire_in_order_after_compaction():
    loop = EventLoop()
    seen = []
    events = [loop.call_after(float(i + 1), seen.append, i)
              for i in range(_COMPACT_MIN)]
    for event in events[::2]:
        event.cancel()
    extra = events[1]
    extra.cancel()  # tips the ratio: compaction has happened by now
    loop.run()
    assert seen == [i for i in range(3, _COMPACT_MIN, 2)]


# --------------------------------------------------------------------- #
# the one heap: call_at handles and post()ed bare entries share it
# --------------------------------------------------------------------- #


def test_cancelled_far_timer_never_counts():
    loop = EventLoop()
    seen = []
    event = loop.call_after(5.0, seen.append, "far")
    event.cancel()
    assert loop.pending() == 0
    loop.run()
    assert seen == []
    assert loop.events_executed == 0


def test_cancel_from_a_callback_at_the_same_instant():
    # The first callback cancels a sibling already due at the same clock
    # reading; the cancel must still suppress it.
    loop = EventLoop()
    seen = []
    handles = {}

    def first():
        seen.append("first")
        handles["second"].cancel()
        handles["second"].cancel()  # idempotent

    loop.call_at(1.0, first)
    handles["second"] = loop.call_at(1.0, seen.append, "second")
    loop.post(1.0, seen.append, "tail")
    loop.run()
    assert seen == ["first", "tail"]
    assert loop.pending() == 0


def test_post_and_call_at_ties_break_by_seq():
    # Posted entries carry no handle but take a seq like any other, so
    # simultaneous events interleave in scheduling order.
    loop = EventLoop()
    seen = []
    loop.post(2.0, seen.append, "a")
    loop.call_at(2.0, seen.append, "b")
    loop.post(2.0, seen.append, "c")
    loop.call_at(2.0, seen.append, "d")
    loop.run_until(2.0)
    assert seen == ["a", "b", "c", "d"]
    assert loop.events_executed == 4


def test_post_returns_no_handle_and_counts_as_pending():
    loop = EventLoop()
    assert loop.post(1.0, lambda: None) is None
    loop.call_at(2.0, lambda: None).cancel()
    assert loop.pending() == 1
    loop.run()
    assert loop.pending() == 0
    assert loop.events_executed == 1


def test_post_in_the_past_is_rejected():
    loop = EventLoop()
    loop.call_after(1.0, lambda: None)
    loop.run()
    with pytest.raises(SimulationError):
        loop.post(0.5, lambda: None)


def test_compaction_keeps_posted_entries():
    # Compaction filters cancelled handles only; bare posted entries have
    # nothing to cancel and must all survive, in order.
    loop = EventLoop()
    seen = []
    timers = [loop.call_after(float(i + 1), seen.append, f"t{i}")
              for i in range(_COMPACT_MIN)]
    for i in range(8):
        loop.post(i + 0.5, seen.append, f"p{i}")
    for event in timers[:-1]:
        event.cancel()
    assert loop._cancelled < _COMPACT_MIN - 1  # compacted on the way
    assert loop.pending() == 9
    loop.run()
    assert seen == [f"p{i}" for i in range(8)] + [f"t{_COMPACT_MIN - 1}"]


def test_cancel_during_run_until_compacts_the_live_heap():
    # A callback that cancels enough timers to trigger compaction while
    # run_until is draining the same heap.
    loop = EventLoop()
    seen = []
    timers = [loop.call_at(10.0 + i, seen.append, i)
              for i in range(_COMPACT_MIN)]

    def purge():
        for event in timers[1:]:
            event.cancel()

    loop.call_at(1.0, purge)
    loop.post(5.0, seen.append, "posted")
    loop.run_until(100.0)
    assert seen == ["posted", 0]
    assert loop.pending() == 0


def test_execute_counts_one_event_per_call():
    loop = EventLoop()
    seen = []

    def batch():
        for tag in ("x", "y", "z"):
            loop.execute(seen.append, tag)

    loop.call_at(1.0, batch, phantom=True)
    loop.run()
    assert seen == ["x", "y", "z"]
    assert loop.events_executed == 3


# --------------------------------------------------------------------- #
# per-event hooks see every counted event (the live sampler and flight
# recorder must not miss posted or inline-executed callbacks)
# --------------------------------------------------------------------- #

def test_hooks_fire_for_posted_events():
    loop = EventLoop()
    hooked = []
    loop.add_hook(lambda lp, event, wall: hooked.append(
        (event.time, event.callback, event.args)))
    loop.call_at(1.0, print)
    loop.post(2.0, len, "ab")
    loop.run_until(3.0)
    assert hooked == [(1.0, print, ()), (2.0, len, ("ab",))]


def test_hooks_see_executed_events_but_not_phantoms():
    loop = EventLoop()
    hooked = []
    loop.add_hook(lambda lp, event, wall: hooked.append(event.args))
    loop.call_at(1.0, lambda: loop.execute(len, "inline"), phantom=True)
    loop.run()
    assert hooked == [("inline",)]


def test_hook_sampling_counts_across_tiers():
    # sample_every follows the global executed-event counter, so the
    # sampled subset is identical however events were scheduled.
    loop = EventLoop()
    hooked = []
    loop.add_hook(lambda lp, event, wall: hooked.append(event.time),
                  sample_every=2)
    for i in range(6):
        if i % 2 == 0:
            loop.post(float(i + 1), lambda: None)
        else:
            loop.call_at(float(i + 1), lambda: None)
    loop.run()
    # events 2, 4, 6 of the interleaved run are sampled
    assert hooked == [2.0, 4.0, 6.0]


def test_untimed_hook_gets_zero_wall_and_fires_every_event():
    loop = EventLoop()
    walls = []
    loop.add_hook(lambda lp, event, wall: walls.append(wall), timed=False)
    loop.call_at(1.0, lambda: None)
    loop.post(2.0, lambda: None)
    loop.run()
    assert walls == [0.0, 0.0]


def test_timed_and_untimed_hooks_coexist():
    # An untimed hook must not suppress the wall measurement a timed hook
    # relies on, and vice versa.
    loop = EventLoop()
    seen = {"timed": [], "untimed": []}
    loop.add_hook(lambda lp, event, wall: seen["timed"].append(wall))
    loop.add_hook(lambda lp, event, wall: seen["untimed"].append(wall),
                  timed=False)
    loop.post(1.0, lambda: None)
    loop.run()
    assert len(seen["timed"]) == 1 and seen["timed"][0] >= 0.0
    # the wall reading already paid for the timed hook is shared with the
    # untimed one (untimed means "doesn't *require* timing", not "gets 0")
    assert seen["untimed"] == seen["timed"]
