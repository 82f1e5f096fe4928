"""Fault injection: the four §5.4 scenarios plus the chaos-harness extras.

The paper's Table-3 vocabulary:

- **NodeDown** — "the machine halts unexpectedly": the machine's agent and
  every worker process on it crash; the machine stops answering.
- **PartialWorkerFailure** — "disk I/O hang or unstable network ... the
  processes thus can not be launched": the agent stays up but every worker
  launch fails and its health sample shows disk errors.
- **SlowMachine** — "we deliberately add several sleep intervals in the
  worker program": execution on the machine is stretched by a factor.
- **FuxiMasterFailure** — "we shutdown the server on which FuxiMaster runs":
  crash the primary master process; the standby takes over.

Extra kinds used by the randomized chaos schedules (`repro.chaos`):

- **AgentRestart** — bounce a machine's FuxiAgent process (workers keep
  running; §4.3.1 agent failover);
- **MachineRestart** — power the machine back on with faults cleared
  (recovery leg of NodeDown / PartialWorkerFailure / SlowMachine);
- **FuxiMasterRestart** — bring crashed FuxiMaster processes back so a
  later FuxiMasterFailure has a standby to fail over to;
- **NetworkBurst** — a window of message loss and extra delay on the bus
  (the "temporary communication failure" §3.1's idempotency rules exist
  for).

The injector only flips state and crashes actors; *detection and recovery*
are entirely the system's job (heartbeats, blacklists, backup instances).

:class:`FaultPlan` composes schedules two ways: :meth:`FaultPlan.table3`
reproduces the paper's hand-picked mix for a failure ratio, and
:meth:`FaultPlan.random` draws a randomized-but-survivable schedule from a
seeded stream (every destructive fault gets a recovery event, bounded
concurrent node loss).  Plans round-trip through compact spec strings
(:meth:`FaultPlan.to_spec` / :meth:`FaultPlan.from_spec`) so a failing
chaos run can be replayed from one command line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Protocol, Sequence

from repro.cluster.topology import ClusterTopology
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom

NODE_DOWN = "NodeDown"
PARTIAL_WORKER_FAILURE = "PartialWorkerFailure"
SLOW_MACHINE = "SlowMachine"
MASTER_FAILURE = "FuxiMasterFailure"
AGENT_RESTART = "AgentRestart"
MACHINE_RESTART = "MachineRestart"
MASTER_RESTART = "FuxiMasterRestart"
NETWORK_BURST = "NetworkBurst"

#: every kind the injector understands (spec parsing validates against this)
ALL_KINDS = (NODE_DOWN, PARTIAL_WORKER_FAILURE, SLOW_MACHINE, MASTER_FAILURE,
             AGENT_RESTART, MACHINE_RESTART, MASTER_RESTART, NETWORK_BURST)

#: kinds that target one machine
MACHINE_KINDS = (NODE_DOWN, PARTIAL_WORKER_FAILURE, SLOW_MACHINE,
                 AGENT_RESTART, MACHINE_RESTART)


class ScheduleParseError(ValueError):
    """A fault-schedule spec string could not be parsed."""


class ClusterControl(Protocol):
    """What the injector needs from the runtime (duck-typed to avoid cycles)."""

    loop: EventLoop
    topology: ClusterTopology

    def crash_machine(self, machine: str) -> None: ...
    def crash_workers(self, machine: str) -> None: ...
    def crash_primary_master(self) -> None: ...
    def restart_machine(self, machine: str) -> None: ...
    def restart_agent(self, machine: str) -> None: ...
    def restart_dead_masters(self) -> None: ...
    def begin_network_burst(self, drop_prob: float, extra_latency: float) -> None: ...
    def end_network_burst(self) -> None: ...


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    at: float
    kind: str
    machine: Optional[str] = None
    slow_factor: float = 3.0
    #: NetworkBurst only: how long the degradation window lasts
    duration: float = 0.0
    #: NetworkBurst only: probability a message is lost during the window
    drop_prob: float = 0.0
    #: NetworkBurst only: extra uniform delivery delay during the window
    extra_latency: float = 0.0

    def to_spec(self) -> str:
        """Compact one-token form, e.g. ``NodeDown@12.5:r00m001``."""
        parts = [f"{self.kind}@{_fmt_num(self.at)}"]
        if self.machine:
            parts.append(self.machine)
        if self.kind == SLOW_MACHINE and self.slow_factor != 3.0:
            parts.append(f"factor={_fmt_num(self.slow_factor)}")
        if self.kind == NETWORK_BURST:
            parts.append(f"dur={_fmt_num(self.duration)}")
            parts.append(f"drop={_fmt_num(self.drop_prob)}")
            if self.extra_latency:
                parts.append(f"delay={_fmt_num(self.extra_latency)}")
        return ":".join(parts)

    @classmethod
    def from_spec(cls, token: str) -> "FaultEvent":
        """Parse one ``kind@time[:machine][:key=value...]`` token."""
        head, _, rest = token.strip().partition(":")
        kind, at_sep, at_text = head.partition("@")
        if not at_sep:
            raise ScheduleParseError(
                f"bad fault {token!r}: expected kind@time, e.g. NodeDown@12.5")
        if kind not in ALL_KINDS:
            raise ScheduleParseError(
                f"unknown fault kind {kind!r} in {token!r} "
                f"(known: {', '.join(ALL_KINDS)})")
        try:
            at = float(at_text)
        except ValueError:
            raise ScheduleParseError(
                f"bad fault time {at_text!r} in {token!r}") from None
        machine: Optional[str] = None
        params = {}
        for part in filter(None, rest.split(":")):
            if "=" in part:
                key, _, value = part.partition("=")
                try:
                    params[key] = float(value)
                except ValueError:
                    raise ScheduleParseError(
                        f"bad parameter {part!r} in {token!r}") from None
            elif machine is None:
                machine = part
            else:
                raise ScheduleParseError(
                    f"two machines ({machine!r}, {part!r}) in {token!r}")
        if kind in MACHINE_KINDS and machine is None:
            raise ScheduleParseError(f"{kind} needs a machine in {token!r}")
        allowed = {SLOW_MACHINE: {"factor"},
                   NETWORK_BURST: {"dur", "drop", "delay"}}.get(kind, set())
        unknown = set(params) - allowed
        if unknown:
            raise ScheduleParseError(
                f"parameter(s) {sorted(unknown)} not valid for {kind} "
                f"in {token!r}")
        return cls(at=at, kind=kind, machine=machine,
                   slow_factor=params.get("factor", 3.0),
                   duration=params.get("dur", 0.0),
                   drop_prob=params.get("drop", 0.0),
                   extra_latency=params.get("delay", 0.0))


def _fmt_num(value: float) -> str:
    """Render a number compactly (drop a trailing ``.0``)."""
    if value == int(value):
        return str(int(value))
    return repr(value)


@dataclass
class FaultPlan:
    """A set of fault events, buildable from a Table-3 style ratio, from a
    randomized chaos draw, or from a spec string."""

    events: List[FaultEvent] = field(default_factory=list)

    @classmethod
    def table3(cls, machines: Sequence[str], failure_ratio: float,
               rng: SplitRandom, window: float = 300.0,
               start: float = 10.0, slow_factor: float = 3.0) -> "FaultPlan":
        """Reproduce the paper's fault mix for 5 % / 10 % ratios.

        Table 3 on 300 nodes: 5 % → 2 NodeDown + 2 PartialWorkerFailure +
        11 SlowMachine; 10 % → 2 + 4 + 23 + 1 extra (rounding) ≈ 30.  For
        other ratios the mix is scaled proportionally with the same shape
        (≈13 % node-down, ≈13 % partial, ≈74 % slow).
        """
        total = max(1, round(len(machines) * failure_ratio))
        if abs(failure_ratio - 0.05) < 1e-9 and len(machines) >= 300:
            counts = {NODE_DOWN: 2, PARTIAL_WORKER_FAILURE: 2, SLOW_MACHINE: 11}
        elif abs(failure_ratio - 0.10) < 1e-9 and len(machines) >= 300:
            counts = {NODE_DOWN: 2, PARTIAL_WORKER_FAILURE: 4, SLOW_MACHINE: 24}
        else:
            down = max(1, round(total * 0.13))
            partial = max(1, round(total * 0.13))
            counts = {
                NODE_DOWN: down,
                PARTIAL_WORKER_FAILURE: partial,
                SLOW_MACHINE: max(0, total - down - partial),
            }
        stream = rng.stream("fault-plan")
        victims = stream.sample(sorted(machines), min(sum(counts.values()),
                                                      len(machines)))
        events: List[FaultEvent] = []
        cursor = 0
        for kind in (NODE_DOWN, PARTIAL_WORKER_FAILURE, SLOW_MACHINE):
            for _ in range(counts[kind]):
                if cursor >= len(victims):
                    break
                at = start + stream.random() * window
                events.append(FaultEvent(at=at, kind=kind,
                                         machine=victims[cursor],
                                         slow_factor=slow_factor))
                cursor += 1
        events.sort(key=lambda e: e.at)
        return cls(events=events)

    @classmethod
    def random(cls, machines: Sequence[str], rng: SplitRandom,
               faults: int = 6, start: float = 5.0, window: float = 60.0,
               max_down_fraction: float = 0.34,
               recover_after: float = 15.0,
               master_failures: int = 1,
               slow_factor_max: float = 4.0,
               network_bursts: int = 1,
               burst_drop_max: float = 0.25,
               burst_duration_max: float = 8.0) -> "FaultPlan":
        """Draw a randomized but *survivable* fault schedule.

        Survivability rules (so that "eventual job termination" stays a
        checkable invariant):

        - at most ``max_down_fraction`` of the machines are ever victims of
          NodeDown / PartialWorkerFailure, and each such fault is paired
          with a MachineRestart ``recover_after`` seconds later;
        - each FuxiMasterFailure is paired with a FuxiMasterRestart, so a
          standby always exists for the next takeover;
        - network bursts are bounded in drop probability and duration (the
          retransmit machinery rides them out).

        The draw is fully determined by ``rng`` — the chaos engine derives
        it from the campaign seed, so a seed identifies a schedule.
        """
        stream = rng.stream("chaos-plan")
        names = sorted(machines)
        destructive_cap = max(1, int(len(names) * max_down_fraction))
        events: List[FaultEvent] = []
        destructive = 0
        victims: List[str] = []
        for _ in range(faults):
            at = round(start + stream.random() * window, 3)
            roll = stream.random()
            machine = names[stream.randrange(len(names))]
            if roll < 0.35 and destructive < destructive_cap:
                kind = (NODE_DOWN if stream.random() < 0.5
                        else PARTIAL_WORKER_FAILURE)
                destructive += 1
                victims.append(machine)
                events.append(FaultEvent(at=at, kind=kind, machine=machine))
                events.append(FaultEvent(at=at + recover_after,
                                         kind=MACHINE_RESTART,
                                         machine=machine))
            elif roll < 0.6:
                factor = 1.5 + stream.random() * (slow_factor_max - 1.5)
                events.append(FaultEvent(at=at, kind=SLOW_MACHINE,
                                         machine=machine,
                                         slow_factor=round(factor, 2)))
                events.append(FaultEvent(at=at + recover_after,
                                         kind=MACHINE_RESTART,
                                         machine=machine))
            else:
                events.append(FaultEvent(at=at, kind=AGENT_RESTART,
                                         machine=machine))
        for _ in range(master_failures):
            at = round(start + stream.random() * window, 3)
            events.append(FaultEvent(at=at, kind=MASTER_FAILURE))
            events.append(FaultEvent(at=at + recover_after,
                                     kind=MASTER_RESTART))
        for _ in range(network_bursts):
            at = round(start + stream.random() * window, 3)
            events.append(FaultEvent(
                at=at, kind=NETWORK_BURST,
                duration=round(1.0 + stream.random()
                               * (burst_duration_max - 1.0), 2),
                drop_prob=round(0.05 + stream.random()
                                * (burst_drop_max - 0.05), 3),
                extra_latency=round(stream.random() * 0.05, 4)))
        events.sort(key=lambda e: (e.at, e.kind, e.machine or ""))
        return cls(events=events)

    # ----------------------------- spec strings ---------------------- #

    def to_spec(self) -> str:
        """The whole plan as one ``;``-separated spec string."""
        return ";".join(event.to_spec() for event in self.events)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a spec string; raises :class:`ScheduleParseError` on junk."""
        events = [FaultEvent.from_spec(token)
                  for token in spec.split(";") if token.strip()]
        events.sort(key=lambda e: (e.at, e.kind, e.machine or ""))
        return cls(events=events)

    def shifted(self, not_before: float) -> "FaultPlan":
        """Copy with every event time clamped to ``>= not_before`` (a plan
        scheduled after warm-up must not ask for the past)."""
        return FaultPlan(events=[
            event if event.at >= not_before
            else replace(event, at=not_before)
            for event in self.events
        ])

    def with_master_failure(self, at: float) -> "FaultPlan":
        events = list(self.events) + [FaultEvent(at=at, kind=MASTER_FAILURE)]
        events.sort(key=lambda e: e.at)
        return FaultPlan(events=events)

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def machines_touched(self) -> List[str]:
        return sorted({e.machine for e in self.events if e.machine})

    def check_machines(self, known) -> None:
        """Raise ``ValueError`` listing the machines the plan names that
        ``known`` (any container of machine names) lacks.

        The injector looks a machine up only when its fault fires, so an
        unchecked typo would surface mid-run as a ``KeyError``.
        """
        unknown = [m for m in self.machines_touched() if m not in known]
        if unknown:
            raise ValueError(f"fault plan names machines the topology "
                             f"lacks: {', '.join(unknown)}")


class FaultInjector:
    """Schedules and executes fault events against a running cluster."""

    def __init__(self, control: ClusterControl):
        self.control = control
        self.injected: List[FaultEvent] = []

    def schedule(self, plan: FaultPlan) -> None:
        for event in plan.events:
            self.control.loop.call_at(event.at, self._fire, event)

    def schedule_event(self, event: FaultEvent) -> None:
        self.control.loop.call_at(event.at, self._fire, event)

    # ----------------------------- immediate forms ------------------- #

    def node_down(self, machine: str) -> None:
        self._fire(FaultEvent(self.control.loop.now, NODE_DOWN, machine))

    def partial_worker_failure(self, machine: str) -> None:
        self._fire(FaultEvent(self.control.loop.now, PARTIAL_WORKER_FAILURE, machine))

    def slow_machine(self, machine: str, factor: float = 3.0) -> None:
        self._fire(FaultEvent(self.control.loop.now, SLOW_MACHINE, machine, factor))

    def master_failure(self) -> None:
        self._fire(FaultEvent(self.control.loop.now, MASTER_FAILURE))

    # ----------------------------- execution ------------------------- #

    def _fire(self, event: FaultEvent) -> None:
        self.injected.append(event)
        if event.kind == NODE_DOWN:
            state = self.control.topology.state(event.machine)
            state.down = True
            self.control.crash_machine(event.machine)
        elif event.kind == PARTIAL_WORKER_FAILURE:
            state = self.control.topology.state(event.machine)
            state.launch_failures = True
            state.disk_errors = 10.0
            # hung disks make the running workers unresponsive too
            self.control.crash_workers(event.machine)
        elif event.kind == SLOW_MACHINE:
            state = self.control.topology.state(event.machine)
            state.slow_factor = event.slow_factor
            state.load1 = state.spec.cores * 2.0
        elif event.kind == MASTER_FAILURE:
            self.control.crash_primary_master()
        elif event.kind == AGENT_RESTART:
            state = self.control.topology.state(event.machine)
            if not state.down:
                self.control.restart_agent(event.machine)
        elif event.kind == MACHINE_RESTART:
            self.control.restart_machine(event.machine)
        elif event.kind == MASTER_RESTART:
            self.control.restart_dead_masters()
        elif event.kind == NETWORK_BURST:
            self.control.begin_network_burst(event.drop_prob,
                                             event.extra_latency)
            self.control.loop.call_after(max(event.duration, 0.0),
                                         self.control.end_network_burst)
        else:
            raise ValueError(f"unknown fault kind {event.kind!r}")
