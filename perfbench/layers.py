"""Per-layer spans for the traced repetition.

The benchmark times calls into the program's public entry points from here,
without changing the program: :meth:`Spans.install` replaces each entry
point at class (or module) level with a wrapper that opens a span, and
:meth:`Spans.uninstall` puts the originals back.  A span's self time is its
duration minus the time of the spans it encloses, so a handler that calls
the scheduler which calls the pool is split three ways.

Wrapped entry points, by span name:

- ``loop``: ``EventLoop.run_until`` -- its self time is the event loop
  itself plus every callback no other span covers (message dispatch in
  ``MessageBus._deliver``, fault injection);
- ``net``: ``MessageBus.send``;
- ``<layer>.handle``: ``handle_message`` of every actor class, charged to
  the layer of :data:`ACTOR_LAYERS`;
- ``<layer>.timer``: callbacks passed to ``Actor.set_timer`` and
  ``Actor.set_periodic_timer``, charged to the owner's layer;
- ``protocol.delta``, ``protocol.full``, ``protocol.recv``: ``StreamHub``;
- ``sched.decide`` (calls that may grant) and ``sched.book``:
  ``FuxiScheduler``; ``pool.book`` and ``pool.scan``
  (``best_fit_machines``): ``FreeResourcePool``; ``health``:
  ``HealthMonitor``;
- ``telemetry``: ``FuxiCluster.sample_utilization``; ``gc``:
  ``gctune.collect_young``.

An entry point that no longer exists is skipped and listed in
``Spans.missing``, so a later refactor degrades the trace instead of
breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import FuxiCluster
from repro.cluster.network import MessageBus
from repro.core.health import HealthMonitor
from repro.core.messages import AgentHeartbeat
from repro.core.pool import FreeResourcePool
from repro.core.protocol import StreamHub
from repro.core.scheduler import FuxiScheduler
from repro.sim import gctune
from repro.sim.actor import Actor
from repro.sim.events import EventLoop

#: module defining an actor class -> the layer its work is charged to
ACTOR_LAYERS: Dict[str, str] = {
    "repro.core.master": "master",
    "repro.core.agent": "agent",
    "repro.core.appmaster": "jobmaster",
    "repro.jobs.jobmaster": "jobmaster",
    "repro.jobs.service": "jobmaster",
    "repro.jobs.worker": "worker",
    "repro._runtime": "runtime",
}

#: scheduler entry points that return the grants they made
SCHED_DECIDE = ("apply_request_delta", "return_resource",
                "schedule_all_machines", "machine_event", "enable_machine")
SCHED_BOOK = ("add_machine", "remove_machine", "disable_machine",
              "register_app", "unregister_app", "define_unit",
              "restore_allocation", "install_demand")
POOL_BOOK = ("add_machine", "remove_machine", "disable", "enable",
             "allocate", "release")
HEALTH = ("add_plugin", "record_sample", "forget")


def entry_points() -> List[Tuple[object, str, str, bool]]:
    """(owner, attribute, span name, counts productive calls)."""
    points = [(EventLoop, "run_until", "loop", False),
              (StreamHub, "send_delta", "protocol.delta", False),
              (StreamHub, "send_full", "protocol.full", False),
              (StreamHub, "on_envelope", "protocol.recv", False),
              (StreamHub, "on_ack", "protocol.recv", False),
              (FreeResourcePool, "best_fit_machines", "pool.scan", False),
              (FuxiCluster, "sample_utilization", "telemetry", False),
              (gctune, "collect_young", "gc", False)]
    points += [(FuxiScheduler, name, "sched.decide", True)
               for name in SCHED_DECIDE]
    points += [(FuxiScheduler, name, "sched.book", False)
               for name in SCHED_BOOK]
    points += [(FreeResourcePool, name, "pool.book", False)
               for name in POOL_BOOK]
    points += [(HealthMonitor, name, "health", False) for name in HEALTH]
    return points


def actor_layer(cls: type) -> Optional[str]:
    """The layer an actor class is charged to, or None if unmapped."""
    for klass in cls.__mro__:
        if klass is Actor:
            break
        layer = ACTOR_LAYERS.get(klass.__module__)
        if layer is not None:
            return layer
    return None


def actor_classes() -> List[type]:
    """Every Actor subclass in the program, its actor modules imported."""
    for module in ACTOR_LAYERS:
        importlib.import_module(module)
    found, todo = [], [Actor]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


class Acc:
    """Totals of one span name."""

    __slots__ = ("calls", "self_s", "span_s", "hits")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.span_s = 0.0
        self.hits = 0


class Spans:
    """Span accounting and the wrappers that feed it."""

    def __init__(self) -> None:
        self.accs: Dict[str, Acc] = {}
        #: child time of each open span; the bottom entry collects the
        #: time of top-level spans
        self._stack: List[float] = [0.0]
        self._saved: List[Tuple[object, str, object]] = []
        self._timer_names: Dict[type, str] = {}
        self.missing: List[str] = []

    def acc(self, name: str) -> Acc:
        acc = self.accs.get(name)
        if acc is None:
            acc = self.accs[name] = Acc()
        return acc

    def span(self, name: str, fn: Callable, productive: bool = False):
        """``fn`` wrapped in a span; ``productive`` counts truthy results."""
        acc = self.acc(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc.calls += 1
                acc.self_s += elapsed - stack.pop()
                acc.span_s += elapsed
                stack[-1] += elapsed
            if productive and result:
                acc.hits += 1
            return result
        return wrapper

    def _replace(self, owner, attr: str, wrapper) -> None:
        # vars(): an inherited attribute is restored by deleting the copy
        self._saved.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def _timer_name(self, cls: type) -> str:
        name = self._timer_names.get(cls)
        if name is None:
            name = self._timer_names[cls] = \
                f"{actor_layer(cls) or 'unmapped'}.timer"
        return name

    def install(self) -> None:
        for owner, attr, name, productive in entry_points():
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._replace(owner, attr, functools.wraps(original)(
                self.span(name, original, productive)))

        send = MessageBus.send
        heartbeats = self.acc("agent.heartbeats")

        def counted_send(bus, sender, dest, message):
            if type(message) is AgentHeartbeat:
                heartbeats.calls += 1
            return send(bus, sender, dest, message)
        self._replace(MessageBus, "send", self.span("net", counted_send))

        for cls in actor_classes():
            if "handle_message" in cls.__dict__:
                layer = actor_layer(cls) or "unmapped"
                self._replace(cls, "handle_message", self.span(
                    f"{layer}.handle", cls.__dict__["handle_message"]))

        spans = self
        for attr in ("set_timer", "set_periodic_timer"):
            def arm(actor, key, delay, callback, _arm=getattr(Actor, attr)):
                return _arm(actor, key, delay, spans.span(
                    spans._timer_name(type(actor)), callback))
            self._replace(Actor, attr, functools.wraps(getattr(Actor, attr))(arm))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def reset(self) -> None:
        """Zero every total; call at top level (no span open)."""
        for acc in self.accs.values():
            acc.calls = acc.hits = 0
            acc.self_s = acc.span_s = 0.0
        self._stack[:] = [0.0]

    def snapshot(self) -> Dict[str, object]:
        return {
            "accs": {name: [acc.calls, acc.self_s, acc.span_s, acc.hits]
                     for name, acc in sorted(self.accs.items())},
            "top_level_s": self._stack[0],
            "missing": list(self.missing),
        }
