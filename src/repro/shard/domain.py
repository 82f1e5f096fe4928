"""One shard domain: a contiguous machine slice on its own event loop.

A :class:`ShardDomain` owns everything machine-local for its slice of the
sorted machine list — FuxiAgents, their timers and heartbeat pacer, the
TaskWorker processes launched on those machines, the mutable
:class:`~repro.cluster.machine.MachineState` flags, and the machine-scoped
half of the fault plan.  Everything cluster-global (masters, scheduler,
application masters, block store) lives in the coordinator.

The domain rebuilds its world from a picklable :class:`DomainSpec` so the
same constructor serves both backends: inline (same process) and forked
worker processes.  Determinism relies on construction order mirroring the
serial engine: agents first (in sorted-machine order), then the fault
plan (in plan order), then the utilization sampler — the same relative
event-sequence order the serial heap uses to break same-instant ties.

Shard-side bookkeeping that the serial engine does *not* schedule —
utilization sampling ticks (the serial tick is a coordinator event) and
network-burst config flips (the serial fire is a coordinator event) — runs
as *phantom* events: heap-ordered and executed, but invisible to
``events_executed``, so per-domain event counts still sum to the serial
total.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.cluster.faults import (FaultEvent, FaultInjector, MACHINE_KINDS,
                                  NETWORK_BURST)
from repro.cluster.network import NetworkConfig
from repro.cluster.topology import ClusterTopology
from repro.core import messages as msg
from repro.core.agent import FuxiAgent, FuxiAgentConfig, HeartbeatPacer
from repro.jobs.worker import TaskWorker
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.shard.bus import DomainBus
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom

#: one utilization row shipped at the barrier: (sample_time, unit counts)
UtilRow = Tuple[float, Dict[object, int]]


@dataclass
class DomainSpec:
    """Everything a shard worker needs to rebuild its slice of the world."""

    index: int
    seed: int
    topology: ClusterTopology
    owned: List[str]
    network: NetworkConfig
    agent_config: FuxiAgentConfig
    trace: bool = False
    plan_events: List[FaultEvent] = field(default_factory=list)
    util_interval: Optional[float] = None
    util_start: float = 0.0


class ShardDomain:
    """The shard-side world; also the fault injector's ClusterControl."""

    def __init__(self, spec: DomainSpec):
        self.index = spec.index
        self.loop = EventLoop()
        # Private mutable copies: machine states and the network config are
        # mutated by faults/bursts, so domains must not share them with the
        # coordinator (the inline backend runs in the same process).
        self.topology = copy.deepcopy(spec.topology)
        self._owned = set(spec.owned)
        self.tracer = Tracer(clock=lambda: self.loop.now) if spec.trace \
            else NULL_TRACER
        self.bus = DomainBus(self.loop, SplitRandom(spec.seed),
                             replace(spec.network), self._is_local)
        self.agents: Dict[str, FuxiAgent] = {}
        pacer = HeartbeatPacer(self.loop)
        for machine in self.topology.machines():
            if machine in self._owned:
                self.agents[machine] = FuxiAgent(
                    self.loop, self.bus, self.topology.state(machine),
                    spec.agent_config, worker_factory=self._create_worker,
                    tracer=self.tracer, pacer=pacer)
        self.faults = FaultInjector(self)
        self._burst_depth = 0
        self._burst_baseline = (0.0, 0.0)
        for event in spec.plan_events:
            if event.kind == NETWORK_BURST:
                self.loop.call_at(event.at, self._begin_burst,
                                  event.drop_prob, event.extra_latency,
                                  max(event.duration, 0.0), phantom=True)
            elif (event.kind in MACHINE_KINDS
                  and event.machine in self._owned):
                self.faults.schedule_event(event)
        self._util_rows: List[UtilRow] = []
        self._util_interval = spec.util_interval
        if spec.util_interval is not None:
            self.loop.call_at(spec.util_start, self._util_tick, phantom=True)

    # ------------------------------------------------------------------ #
    # locality / wiring
    # ------------------------------------------------------------------ #

    def _is_local(self, dest: str) -> bool:
        if dest.startswith("agent:"):
            return dest[6:] in self._owned
        if dest.startswith("worker:"):
            return dest in self.bus._actors
        return False

    def _create_worker(self, plan: msg.WorkPlan, machine: str) -> TaskWorker:
        existing = self.bus.actor(f"worker:{plan.worker_id}")
        if existing is not None and existing.alive:
            return existing  # idempotent re-launch (matches the serial path)
        return TaskWorker(self.loop, self.bus, plan,
                          self.topology.state(machine))

    # ------------------------------------------------------------------ #
    # window execution
    # ------------------------------------------------------------------ #

    def advance(self, barrier: float, inbox: list) -> tuple:
        """Inject the window's boundary messages, run to the barrier, and
        return ``(outbox, util_rows, events_executed)``."""
        bus = self.bus
        for arrival, sender, dest, payload, counted in inbox:
            if counted:
                bus.inject(arrival, sender, dest, payload)
            else:
                bus.inject_probe(arrival, sender, dest, payload)
        self.loop.run_until(barrier)
        rows, self._util_rows = self._util_rows, []
        return bus.take_outbox(), rows, self.loop.events_executed

    def final(self) -> tuple:
        """End-of-run report: ``(trace_records, events_executed)``."""
        records = self.tracer.records() if self.tracer.enabled else []
        return records, self.loop.events_executed

    # ------------------------------------------------------------------ #
    # ClusterControl surface (machine-scoped faults only)
    # ------------------------------------------------------------------ #

    def crash_machine(self, machine: str) -> None:
        self.topology.state(machine).down = True
        for worker in self.workers_on(machine):
            worker.crash()
            self.bus.unregister(worker.name)
        agent = self.agents.get(machine)
        if agent is not None:
            agent.crash()

    def crash_workers(self, machine: str) -> None:
        for worker in self.workers_on(machine):
            worker.crash()
            self.bus.unregister(worker.name)

    def restart_machine(self, machine: str) -> None:
        state = self.topology.state(machine)
        state.reset_faults()
        agent = self.agents.get(machine)
        if agent is not None:
            agent.restart()

    def restart_agent(self, machine: str) -> None:
        agent = self.agents.get(machine)
        if agent is None:
            raise KeyError(f"unknown machine {machine!r}")
        agent.crash()
        agent.restart()

    def workers_on(self, machine: str) -> List[TaskWorker]:
        found = []
        for name, actor in list(self.bus._actors.items()):
            if (name.startswith("worker:") and actor.alive
                    and getattr(actor, "machine", None) == machine):
                found.append(actor)
        return found

    # master-scoped controls never reach a shard injector (the coordinator
    # filters the plan), but the protocol names them:

    def crash_primary_master(self) -> None:  # pragma: no cover
        raise RuntimeError("master faults belong to the coordinator")

    def restart_dead_masters(self) -> None:  # pragma: no cover
        raise RuntimeError("master faults belong to the coordinator")

    def begin_network_burst(self, drop_prob: float,
                            extra_latency: float = 0.0) -> None:
        config = self.bus.config
        if self._burst_depth == 0:
            self._burst_baseline = (config.drop_prob, config.jitter)
        self._burst_depth += 1
        config.drop_prob = max(config.drop_prob, drop_prob)
        config.jitter = max(config.jitter, extra_latency)

    def end_network_burst(self) -> None:
        if self._burst_depth == 0:
            return
        self._burst_depth -= 1
        if self._burst_depth == 0:
            config = self.bus.config
            config.drop_prob, config.jitter = self._burst_baseline

    def _begin_burst(self, drop_prob: float, extra_latency: float,
                     duration: float) -> None:
        # Phantom mirror of the coordinator's real NetworkBurst fire: the
        # end flip is armed from inside the begin flip, exactly like the
        # serial injector, so same-instant tie-break order is preserved.
        self.begin_network_burst(drop_prob, extra_latency)
        self.loop.call_after(duration, self.end_network_burst, phantom=True)

    # ------------------------------------------------------------------ #
    # utilization sampling (agent-side half of Figure 10)
    # ------------------------------------------------------------------ #

    def _util_tick(self) -> None:
        counts: Dict[object, int] = {}
        for agent in self.agents.values():
            if not agent.alive:
                continue
            for unit_key, count in agent.allocations.items():
                counts[unit_key] = counts.get(unit_key, 0) + count
        self._util_rows.append((self.loop.now, counts))
        self.loop.call_after(self._util_interval, self._util_tick,
                             phantom=True)


def shard_worker_main(conn, spec: DomainSpec,
                      ring_in=None, ring_out=None) -> None:
    """Entry point of a forked shard worker: serve GO/FINAL over the pipe.

    With shm rings attached (see ``ProcessShardHost``), window payloads are
    read from / written to the shared segments and the pipe carries only
    control tuples; without rings (or when a frame doesn't fit) the payload
    rides the pipe as before.
    """
    from repro.shard.ring import dumps_frame, loads_frame

    if ring_in is not None:
        ring_in.disown()        # parent owns the segments; never unlink here
        ring_out.disown()
    pending_out = None          # our previous reply frame, not yet released

    def decode(frame):
        if frame[0] == "raw":
            return frame[1]
        return loads_frame(ring_in.read(*frame))

    def reply(tag, result):
        # one serialization per batch: everything but the trailing event
        # count goes into a single ring frame
        nonlocal pending_out
        payload, events = result[:-1], result[-1]
        frame = None
        if ring_out is not None:
            frame = ring_out.try_write(dumps_frame(payload))
        if frame is None:
            conn.send((tag, ("raw", payload), events))
        else:
            conn.send((tag, frame, events))
            pending_out = frame

    try:
        domain = ShardDomain(spec)
        while True:
            op = conn.recv()
            # a new command means the coordinator consumed our last reply:
            # its ring bytes are free again
            if pending_out is not None:
                ring_out.consume(*pending_out)
                pending_out = None
            tag = op[0]
            if tag == "go":
                reply("done", domain.advance(op[1], decode(op[2])))
            elif tag == "final":
                reply("final", domain.final())
            else:  # "stop"
                break
    except EOFError:  # coordinator went away; nothing left to serve
        pass
    except BaseException:  # ship the traceback instead of dying silently
        import traceback
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass
