"""ShardedCluster: the coordinator of a parallel-in-one-run simulation.

A drop-in :class:`~repro._runtime.FuxiCluster` whose agent plane is split
across N :class:`~repro.shard.domain.ShardDomain`s.  ``run_until`` becomes
a sequence of conservative time windows of width ``latency / 2``; per
window ``k`` the coordinator

1. ships GO(k) — the barrier time plus every boundary envelope routed to
   each shard so far (all of which arrive strictly *after* barrier ``k``,
   by the lookahead argument below);
2. runs its own events up to the barrier, concurrently with the shards
   when the process backend is active;
3. collects DONE(k): each shard's outbox, utilization rows, and event
   count, routes the envelopes onward, and injects coordinator-bound ones
   at their exact arrival times in ``(arrival, origin, seq)`` order.

Lookahead: every cross-domain delay is at least ``latency`` (jitter,
reorder penalties and the per-edge epsilon only add).  With window width
``W = latency / 2``, a message sent during window ``k`` — i.e. after
barrier ``k-1`` — arrives after ``barrier(k-1) + 2W = barrier(k+1)``:
collected at barrier ``k`` and shipped with GO(k+1), it reaches its domain
a full window before the earliest instant it can matter.  That slack also
swallows float rounding on barrier arithmetic.

Determinism: delivery *delays* are already domain-independent (per-edge
counter-keyed hashing, and every edge's sender lives in exactly one
domain, so edge counters advance identically to the serial run).  Equal
*arrival* collisions across edges are suppressed by the per-edge epsilon;
the injection order (arrival, origin, seq) reproduces the serial heap's
tie-break for the one systematic collision class (same-tick heartbeats),
because serial creation order there is sorted-machine order — exactly the
shard/sender order used here.  The result: grant streams, summary
digests and trace exports are byte-identical to the serial engine.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro._runtime import (FuxiCluster, _merge_utilization, _record_curves)
from repro.cluster.faults import MACHINE_KINDS, FaultPlan
from repro.cluster.network import NetworkConfig
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.shard.bus import DomainBus
from repro.shard.domain import DomainSpec
from repro.shard.hosts import make_host
from repro.sim.events import SimulationError


class MergingTracer(Tracer):
    """Coordinator tracer that folds shard-side records into one export.

    Records are merged by ``(start-or-event-time, domain rank, local id)``
    and renumbered; parent links are remapped per domain.  With no foreign
    records (every no-fault run: agents only trace restart adoption) the
    output is exactly the base tracer's — byte-identical to serial.
    """

    def __init__(self, clock):
        super().__init__(clock=clock)
        self._foreign: List[tuple] = []

    def absorb(self, rank: int, records: List[dict]) -> None:
        self._foreign.append((rank, records))

    def records(self) -> List[dict]:
        own = super().records()
        if not any(records for _, records in self._foreign):
            return own

        def when(record: dict) -> float:
            return (record["start"] if record["kind"] == "span"
                    else record["time"])

        entries = [(when(r), 0, r["id"], r) for r in own]
        for rank, records in sorted(self._foreign, key=lambda f: f[0]):
            entries.extend((when(r), rank, r["id"], r) for r in records)
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        idmap = {(rank, old): new
                 for new, (_, rank, old, _) in enumerate(entries, 1)}
        merged = []
        for _, rank, old, record in entries:
            row = dict(record)
            row["id"] = idmap[(rank, old)]
            if row.get("parent") is not None:
                row["parent"] = idmap.get((rank, row["parent"]))
            merged.append(row)
        return merged


class ShardedCluster(FuxiCluster):
    """FuxiCluster with the agent plane sharded across event-loop domains."""

    def __init__(self, topology, seed: int = 0,
                 network: Optional[NetworkConfig] = None,
                 master_config=None, agent_config=None,
                 app_master_config=None, standby_master: bool = True,
                 trace: bool = False, shards: int = 2,
                 backend: str = "auto"):
        machines = topology.machines()
        if not 1 <= shards <= len(machines):
            raise ValueError(f"shards must be in 1..{len(machines)}, "
                             f"got {shards}")
        self._shard_count = shards
        self._backend = backend
        # contiguous slices of the sorted machine list, sizes off by <= 1
        base, extra = divmod(len(machines), shards)
        self._partition: List[List[str]] = []
        self._machine_shard: Dict[str, int] = {}
        cursor = 0
        for index in range(shards):
            size = base + (1 if index < extra else 0)
            owned = machines[cursor:cursor + size]
            cursor += size
            self._partition.append(owned)
            for machine in owned:
                self._machine_shard[machine] = index
        self._host = None
        self._finalized = False
        self._queues: List[list] = [[] for _ in range(shards)]
        self._local_pending: List[tuple] = []
        self._worker_home: Dict[str, int] = {}
        self._shard_events = [0] * shards
        self._plan_events: List = []
        self._util_interval: Optional[float] = None
        self._util_start = 0.0
        self._util_master: Dict[float, tuple] = {}
        self._util_shard: Dict[float, Dict[int, dict]] = {}
        super().__init__(topology, seed=seed, network=network,
                         master_config=master_config,
                         agent_config=agent_config,
                         app_master_config=app_master_config,
                         standby_master=standby_master, trace=trace)
        self._window = self.bus.config.latency / 2.0

    # ------------------------------------------------------------------ #
    # construction seams
    # ------------------------------------------------------------------ #

    def _make_bus(self, network):
        def coordinator_local(dest: str) -> bool:
            return not (dest.startswith("agent:")
                        or dest.startswith("worker:"))
        return DomainBus(self.loop, self.rng, network, coordinator_local)

    def _make_tracer(self, trace: bool):
        return MergingTracer(clock=lambda: self.loop.now) if trace \
            else NULL_TRACER

    def _build_agents(self) -> None:
        """Coordinator builds no agents; they live in the shard domains."""

    def _check_not_started(self, what: str) -> None:
        if self._host is not None:
            raise SimulationError(
                f"{what} must be configured before the first run: the "
                f"shard domains freeze their schedules at start")

    def _ensure_started(self) -> None:
        if self._host is not None:
            return
        specs = [DomainSpec(index=index, seed=self.rng.seed,
                            topology=self.topology,
                            owned=self._partition[index],
                            network=self.bus.config,
                            agent_config=self.agent_config,
                            trace=self.tracer.enabled,
                            plan_events=list(self._plan_events),
                            util_interval=self._util_interval,
                            util_start=self._util_start)
                 for index in range(self._shard_count)]
        self._host = make_host(self._backend, specs)

    @property
    def events_total(self) -> int:
        return self.loop.events_executed + sum(self._shard_events)

    @property
    def resolved_backend(self) -> str:
        """The backend actually running ("auto" resolves at start)."""
        return self._host.name if self._host is not None else self._backend

    @property
    def shard_count(self) -> int:
        return self._shard_count

    # ------------------------------------------------------------------ #
    # windowed time control
    # ------------------------------------------------------------------ #

    def run_until(self, when: float) -> None:
        if self._finalized:
            raise SimulationError("cluster already finalized")
        loop = self.loop
        if when <= loop.now:
            loop.run_until(when)  # serial semantics for no-op / past times
            return
        self._ensure_started()
        window = self._window
        # sends made between run calls (job submissions) sit in the outbox
        self._route(self.bus.take_outbox(), origin=-1)
        cur = loop.now
        while cur < when:
            barrier = min(when, cur + window)
            self._host.go(barrier, self._drain_queues())
            loop.run_until(barrier)
            self._route(self.bus.take_outbox(), origin=-1)
            reports = self._host.collect()
            for index, (outbox, util_rows, events) in enumerate(reports):
                self._shard_events[index] = events
                self._route(outbox, origin=index)
                for tick, counts in util_rows:
                    self._util_shard.setdefault(tick, {})[index] = counts
            self._inject_pending()
            self._flush_utilization(barrier)
            cur = barrier

    def finalize(self) -> None:
        if self._finalized:
            return
        self._finalized = True
        if self._host is None:
            return
        for index, (records, events) in enumerate(self._host.finalize()):
            if events:
                self._shard_events[index] = events
            if records and self.tracer.enabled:
                self.tracer.absorb(index + 1, records)

    # ------------------------------------------------------------------ #
    # boundary-message routing
    # ------------------------------------------------------------------ #

    def _route(self, envelopes: list, origin: int) -> None:
        """File envelopes by owning domain.  ``origin`` is the producing
        domain (-1 = coordinator); worker homes are learned from sender
        names, since a worker's first message always precedes any message
        addressed to it."""
        queues = self._queues
        for arrival, sender, dest, payload, seq in envelopes:
            if origin >= 0 and sender.startswith("worker:"):
                self._worker_home[sender] = origin
            if dest.startswith("agent:"):
                shard = self._machine_shard.get(dest[6:])
                if shard is None:  # bogus machine: dead-letter locally
                    self._local_pending.append(
                        (arrival, origin, seq, sender, dest, payload))
                else:
                    queues[shard].append(
                        (arrival, origin, seq, sender, dest, payload, True))
            elif dest.startswith("worker:"):
                shard = self._worker_home.get(dest)
                if shard is not None:
                    queues[shard].append(
                        (arrival, origin, seq, sender, dest, payload, True))
                else:  # never-seen worker: phantom-probe every shard
                    for queue in queues:
                        queue.append((arrival, origin, seq, sender, dest,
                                      payload, False))
            else:
                self._local_pending.append(
                    (arrival, origin, seq, sender, dest, payload))

    def _drain_queues(self) -> List[list]:
        inboxes = []
        for index, queue in enumerate(self._queues):
            queue.sort(key=lambda entry: entry[:3])
            inboxes.append([(entry[0],) + entry[3:] for entry in queue])
            self._queues[index] = []
        return inboxes

    def _inject_pending(self) -> None:
        if not self._local_pending:
            return
        self._local_pending.sort(key=lambda entry: entry[:3])
        for arrival, _origin, _seq, sender, dest, payload \
                in self._local_pending:
            self.bus.inject(arrival, sender, dest, payload)
        self._local_pending = []

    # ------------------------------------------------------------------ #
    # split-plane configuration
    # ------------------------------------------------------------------ #

    def schedule_faults(self, plan: FaultPlan) -> None:
        """Machine-scoped faults run on the owning shard; master failures
        and the real NetworkBurst events stay here.  Shards additionally
        mirror burst windows onto their own transport as phantom flips."""
        self._check_not_started("fault plans")
        plan.check_machines(self.topology)
        coordinator_events = [event for event in plan.events
                              if event.kind not in MACHINE_KINDS]
        if coordinator_events:
            self.faults.schedule(FaultPlan(events=coordinator_events))
        self._plan_events.extend(plan.events)

    def enable_utilization_sampling(self, interval: float = 5.0) -> None:
        self._check_not_started("utilization sampling")
        self._util_interval = interval
        self._util_start = self.loop.now
        super().enable_utilization_sampling(interval)

    def _record_utilization(self) -> None:
        """Coordinator half of a sample tick: stash the master-side curves
        and a unit→resources snapshot; the agent-side FA totals arrive
        with the shard reports and the tick is recorded at the barrier."""
        res_map: Dict[object, object] = {}
        for app in self.app_masters.values():
            for unit_key, unit in app.units.items():
                res_map[unit_key] = unit.resources
        self._util_master[self.loop.now] = (self._master_utilization_half(),
                                            res_map)

    def _flush_utilization(self, barrier: float) -> None:
        if not self._util_master:
            return
        shards = self._shard_count
        ready = [tick for tick in self._util_master
                 if tick <= barrier
                 and len(self._util_shard.get(tick, ())) == shards]
        for tick in sorted(ready):
            half, res_map = self._util_master.pop(tick)
            per_shard = self._util_shard.pop(tick)
            # Merge in shard order: slices are contiguous over the sorted
            # machine list, so first-appearance order of unit keys — and
            # with it the float accumulation order inside
            # _merge_utilization — matches the serial agent iteration.
            merged: Dict[object, int] = {}
            for index in range(shards):
                for unit_key, count in per_shard[index].items():
                    merged[unit_key] = merged.get(unit_key, 0) + count
            _record_curves(self.metrics, tick,
                           _merge_utilization(half, merged, res_map))
