"""Design ablations for the three §3 mechanisms DESIGN.md calls out.

A. **Incremental protocol vs full re-assertion** — same workload schedule,
   two message-accounting policies: deltas-on-change (Fuxi §3.1) vs each
   application re-sending its complete request/holding state every
   heartbeat (the "simple iterative process that keeps asking" of §3.1).
B. **Locality tree vs global rescheduling** — per-event scheduling cost of
   Fuxi's machine-path queues vs the Hadoop-1.0 policy's global recompute,
   as a function of cluster size.
C. **Container reuse vs reclaim-on-exit** — multi-wave task execution on
   Fuxi semantics (containers kept across instances) vs YARN semantics
   (reclaim + heartbeat-paced re-allocation per task), comparing makespan
   and resource-manager message counts.

The comparators are the integrated policies of :mod:`repro.baselines`
running on the same :class:`FuxiScheduler` as Fuxi itself, so each
ablation isolates the decision rule, not the bookkeeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines import Hadoop10Policy, YarnPolicy
from repro.core.policy import SchedulerPolicy
from repro.core.request import RequestDelta
from repro.core.resources import ResourceVector
from repro.core.scheduler import FuxiScheduler
from repro.core.units import ScheduleUnit, UnitKey
from repro.experiments.harness import ExperimentReport

SLOT = ResourceVector.of(cpu=100, memory=2048)


# --------------------------------------------------------------------- #
# A. protocol ablation
# --------------------------------------------------------------------- #

@dataclass
class ProtocolAblationConfig:
    apps: int = 40
    units_per_app: int = 24
    machines: int = 40
    slots_per_machine: int = 8
    waves_per_unit: int = 3            # tasks each container runs (reuse)
    task_rounds: int = 5               # rounds one task occupies a container
    heartbeat_rounds: int = 1          # full policy re-sends every round


@dataclass
class MessageCount:
    messages: int = 0
    items: int = 0


def protocol_ablation(config: Optional[ProtocolAblationConfig] = None,
                      ) -> ExperimentReport:
    """Run one workload schedule; account messages under both policies."""
    config = config or ProtocolAblationConfig()
    scheduler = FuxiScheduler()
    for m in range(config.machines):
        scheduler.add_machine(f"m{m:03d}", f"r{m % 4}",
                              SLOT * config.slots_per_machine)
    incremental = MessageCount()
    full = MessageCount()
    # app state: unit -> remaining tasks per granted container
    remaining: Dict[UnitKey, int] = {}
    holdings: Dict[UnitKey, List[Tuple[str, int]]] = {}
    running: List[Tuple[int, UnitKey, str]] = []   # (finish_round, unit, machine)

    def account_grants(decisions) -> None:
        by_app: Dict[str, int] = {}
        for grant in decisions:
            by_app[grant.unit_key.app_id] = by_app.get(
                grant.unit_key.app_id, 0) + 1
        incremental.messages += len(by_app)
        incremental.items += sum(by_app.values())

    for a in range(config.apps):
        app_id = f"app{a:03d}"
        scheduler.register_app(app_id)
        unit = ScheduleUnit(app_id, 1, SLOT, max_count=config.units_per_app)
        scheduler.define_unit(unit)
        remaining[unit.key] = config.units_per_app * config.waves_per_unit
        # incremental: one initial request message, one item
        incremental.messages += 1
        incremental.items += 1
        decisions = scheduler.apply_request_delta(
            RequestDelta.initial(unit.key, config.units_per_app))
        account_grants(decisions)
        for grant in decisions:
            for _ in range(grant.count):
                holdings.setdefault(unit.key, []).append((grant.machine, 0))
                running.append((config.task_rounds, unit.key, grant.machine))
                remaining[unit.key] -= 1

    total_rounds = 0
    round_index = 0
    while running:
        round_index += 1
        total_rounds = round_index
        # full policy: every app still holding or wanting re-sends everything
        if round_index % config.heartbeat_rounds == 0:
            for unit_key, machines in holdings.items():
                state_items = len(machines) + 1
                full.messages += 1
                full.items += state_items
                full.messages += 1           # master's full grant reply
                full.items += len(machines)
        # completions this round
        done = [r for r in running if r[0] <= round_index]
        running = [r for r in running if r[0] > round_index]
        for _, unit_key, machine in done:
            if remaining[unit_key] > 0:
                # container reuse: next task runs in place, no message
                remaining[unit_key] -= 1
                running.append((round_index + config.task_rounds, unit_key,
                                machine))
            else:
                # return the container (incremental: one small message)
                incremental.messages += 1
                incremental.items += 1
                holdings[unit_key] = [h for h in holdings[unit_key]
                                      if h[0] != machine][: max(
                                          0, len(holdings[unit_key]) - 1)]
                decisions = scheduler.return_resource(unit_key, machine, 1)
                account_grants(decisions)

    report = ExperimentReport(
        exp_id="ablation-protocol",
        title="Incremental protocol vs per-heartbeat full re-assertion")
    report.add_comparison("messages (incremental)", 1.0,
                          float(incremental.messages), "msgs", "")
    report.add_comparison("messages (full re-send)", 1.0,
                          float(full.messages), "msgs", "")
    report.add_comparison("payload items (incremental)", 1.0,
                          float(incremental.items), "items", "")
    report.add_comparison("payload items (full re-send)", 1.0,
                          float(full.items), "items", "")
    ratio = full.items / max(incremental.items, 1)
    report.add_comparison("payload reduction", 1.0, ratio, "x",
                          "incremental is an order of magnitude leaner")
    report.notes.append(
        f"{config.apps} apps x {config.units_per_app} containers x "
        f"{config.waves_per_unit} waves over {total_rounds} rounds.")
    return report


# --------------------------------------------------------------------- #
# B. locality tree vs global rescheduling
# --------------------------------------------------------------------- #

@dataclass
class LocalityAblationConfig:
    cluster_sizes: Tuple[int, ...] = (50, 100, 200, 400)
    apps_factor: float = 0.5          # waiting apps per machine
    events: int = 200                 # release/re-request cycles measured
    slots_per_machine: int = 4


def locality_ablation(config: Optional[LocalityAblationConfig] = None,
                      ) -> ExperimentReport:
    """Per-event scheduling cost: locality tree vs global recompute."""
    config = config or LocalityAblationConfig()
    rows = []
    fuxi_times: List[float] = []
    naive_times: List[float] = []
    for machines in config.cluster_sizes:
        apps = max(2, int(machines * config.apps_factor))
        fuxi_us = _event_cost(machines, apps, config)
        naive_us = _event_cost(machines, apps, config, Hadoop10Policy())
        fuxi_times.append(fuxi_us)
        naive_times.append(naive_us)
        rows.append([machines, apps, f"{fuxi_us:.1f}", f"{naive_us:.1f}",
                     f"{naive_us / max(fuxi_us, 1e-9):.1f}x"])
    report = ExperimentReport(
        exp_id="ablation-locality",
        title="Per-event scheduling cost: locality tree vs global recompute")
    report.add_table(
        ["machines", "apps", "fuxi us/event", "global us/event", "ratio"],
        rows)
    growth_fuxi = fuxi_times[-1] / max(fuxi_times[0], 1e-9)
    growth_naive = naive_times[-1] / max(naive_times[0], 1e-9)
    size_growth = config.cluster_sizes[-1] / config.cluster_sizes[0]
    report.add_comparison("fuxi cost growth over sizes", 1.0, growth_fuxi,
                          "x", "~flat in cluster size")
    report.add_comparison("global cost growth over sizes", size_growth,
                          growth_naive, "x", "grows with cluster size")
    return report


def _event_cost(machines: int, apps: int, config: LocalityAblationConfig,
                policy: Optional[SchedulerPolicy] = None) -> float:
    """Mean wall-clock cost of one return + re-request cycle, in µs.

    Every app wants more than the cluster holds, so each returned unit is
    granted straight back to a waiting app.  Fuxi serves the one machine's
    queue path; ``global_recompute`` policies rescan every machine.
    """
    scheduler = FuxiScheduler(policy=policy)
    for m in range(machines):
        scheduler.add_machine(f"m{m:04d}", f"r{m % 8}",
                              SLOT * config.slots_per_machine)
    keys = []
    for a in range(apps):
        app_id = f"app{a:04d}"
        scheduler.register_app(app_id)
        unit = ScheduleUnit(app_id, 1, SLOT)
        scheduler.define_unit(unit)
        keys.append(unit.key)
        # saturate: everyone asks for more than exists so queues stay full
        scheduler.apply_request_delta(RequestDelta.initial(
            unit.key, 2 * machines * config.slots_per_machine // apps + 1))
    started = time.perf_counter()
    for i in range(config.events):
        unit_key = keys[i % len(keys)]
        entry = next(iter(scheduler.ledger.machines_of(unit_key)), None)
        if entry is None:
            continue
        machine, _ = entry
        scheduler.return_resource(unit_key, machine, 1)
        scheduler.apply_request_delta(RequestDelta.initial(unit_key, 1))
    return (time.perf_counter() - started) / config.events * 1e6


# --------------------------------------------------------------------- #
# C. container reuse vs reclaim-on-exit
# --------------------------------------------------------------------- #

@dataclass
class ReuseAblationConfig:
    machines: int = 20
    slots_per_machine: int = 4
    instances: int = 800
    task_seconds: float = 5.0
    heartbeat_seconds: float = 1.0


def container_reuse_ablation(config: Optional[ReuseAblationConfig] = None,
                             ) -> ExperimentReport:
    """Makespan and RM-message cost of reuse vs reclaim-on-exit."""
    config = config or ReuseAblationConfig()
    slots = config.machines * config.slots_per_machine

    # Fuxi semantics: grant all containers once, run waves back-to-back.
    waves = -(-config.instances // slots)
    fuxi_makespan = waves * config.task_seconds
    fuxi_rm_messages = 1 + config.machines + config.machines  # req+grants+returns

    # YARN semantics: every task is a fresh container, returned when the
    # task ends; the one request waits for node heartbeats to be served.
    yarn = FuxiScheduler(policy=YarnPolicy())
    for m in range(config.machines):
        yarn.add_machine(f"m{m:03d}", "r0", SLOT * config.slots_per_machine)
    yarn.register_app("app")
    unit = ScheduleUnit("app", 1, SLOT)
    yarn.define_unit(unit)
    yarn.apply_request_delta(RequestDelta.initial(unit.key,
                                                  config.instances))
    returns = 0
    clock = 0.0
    finishing: List[Tuple[float, str]] = []   # (finish time, machine)

    def launch(grants) -> None:
        for grant in grants:
            finishing.extend([(clock + config.task_seconds, grant.machine)]
                             * grant.count)

    while returns < config.instances:
        clock += config.heartbeat_seconds
        # containers that completed since the last heartbeat tick
        done_now = [f for f in finishing if f[0] <= clock]
        finishing = [f for f in finishing if f[0] > clock]
        for _, machine in done_now:
            returns += 1
            launch(yarn.return_resource(unit.key, machine, 1))
        # each node heartbeats once per interval
        for m in range(config.machines):
            launch(yarn.machine_event(f"m{m:03d}"))
    yarn_makespan = clock
    # one request message, then a grant and a return per container
    yarn_rm_messages = 1 + yarn.stats.units_granted + returns

    report = ExperimentReport(
        exp_id="ablation-reuse",
        title="Container reuse (Fuxi) vs reclaim-on-exit (YARN baseline)")
    report.add_comparison("makespan fuxi", 1.0, fuxi_makespan, "s", "")
    report.add_comparison("makespan yarn", 1.0, yarn_makespan, "s", "")
    report.add_comparison("makespan ratio yarn/fuxi", 1.0,
                          yarn_makespan / fuxi_makespan, "x",
                          "reclaim pays a heartbeat per wave")
    report.add_comparison("rm messages fuxi", 1.0, float(fuxi_rm_messages),
                          "msgs", "")
    report.add_comparison("rm messages yarn", 1.0, float(yarn_rm_messages),
                          "msgs", "per-task rescheduling traffic")
    report.add_comparison("message ratio yarn/fuxi", 1.0,
                          yarn_rm_messages / fuxi_rm_messages, "x",
                          "orders of magnitude")
    report.notes.append(
        f"{config.instances} tasks over {slots} slots "
        f"({waves} waves), {config.task_seconds}s tasks, "
        f"{config.heartbeat_seconds}s heartbeats.")
    return report
