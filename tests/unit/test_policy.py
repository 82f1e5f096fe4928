"""The SchedulerPolicy seam: registry, selection plumbing, determinism.

The contract of the PR 8 policy seam:

- policies are selected by *name* through a registry, and the name
  survives every serialization boundary (``RunSpec.to_dict/from_dict``,
  ``ClusterBuilder.to_dict``, sweep-task params);
- an unknown name fails fast with the list of registered policies;
- every registered policy is byte-identically reproducible from the
  same seed (two runs, same spec+seed, identical summary JSON);
- each comparator's defining decision rule holds on the shared
  :class:`FuxiScheduler`: YARN waits for a node heartbeat, Mesos offers
  each machine event to one framework, least-held first, and Hadoop 1.0
  places first-fit in name order and rescans the cluster on every return;
- on small hosts the sweep engine clamps workers to the cpu count and
  records a journal note instead of oversubscribing.
"""

import json
import os

import pytest

from repro.api import ClusterBuilder, RunSpec, simulate
from repro.baselines import Hadoop10Policy, MesosPolicy, YarnPolicy
from repro.core.policy import (SchedulerPolicy, create_policy,
                               known_policies, validate_policy_name)
from repro.core.request import RequestDelta
from repro.core.resources import ResourceVector
from repro.core.scheduler import FuxiScheduler
from repro.core.units import ScheduleUnit

ALL_POLICIES = ("fuxi", "yarn", "mesos", "hadoop10", "size-based",
                "fractional")

TINY = dict(racks=2, machines_per_rack=3, concurrent_jobs=4, duration=10.0)


def test_known_policies_cover_the_arena():
    assert set(ALL_POLICIES) <= set(known_policies())


def test_create_policy_round_trips_names():
    for name in ALL_POLICIES:
        policy = create_policy(name)
        assert isinstance(policy, SchedulerPolicy)
        assert policy.name == name


def test_only_fuxi_is_passthrough():
    for name in ALL_POLICIES:
        assert create_policy(name).passthrough is (name == "fuxi")


def test_unknown_policy_lists_registered_names():
    with pytest.raises(ValueError) as err:
        validate_policy_name("nope")
    message = str(err.value)
    assert "nope" in message
    for name in ALL_POLICIES:
        assert name in message


def test_runspec_rejects_unknown_policy_everywhere():
    with pytest.raises(ValueError):
        RunSpec(policy="nope")
    with pytest.raises(ValueError):
        RunSpec().replace(policy="nope")
    with pytest.raises(ValueError):
        RunSpec.from_dict({"policy": "nope"})


def test_runspec_policy_survives_dict_round_trip():
    for name in ALL_POLICIES:
        spec = RunSpec(policy=name, **TINY)
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.policy == name


def test_cluster_builder_policy_selection():
    builder = ClusterBuilder(seed=7, racks=2, machines_per_rack=3)
    assert builder.policy("yarn") is builder          # fluent
    assert builder.to_dict()["policy"] == "yarn"
    cluster = builder.build()
    assert cluster.masters[0].scheduler.policy.name == "yarn"
    with pytest.raises(ValueError):
        ClusterBuilder(seed=7, policy="nope")


@pytest.mark.parametrize("name", ALL_POLICIES)
def test_same_seed_same_policy_is_byte_identical(name):
    spec = RunSpec(policy=name, **TINY)
    first = json.dumps(simulate(spec, seed=11).summary_dict(),
                       sort_keys=True)
    second = json.dumps(simulate(spec, seed=11).summary_dict(),
                        sort_keys=True)
    assert first == second


def test_summary_records_policy_and_arena_metrics():
    spec = RunSpec(policy="yarn", racks=2, machines_per_rack=5,
                   concurrent_jobs=8, duration=30.0)
    summary = simulate(spec, seed=7).summary_dict()
    assert summary["spec"]["policy"] == "yarn"
    sched = summary["sched"]
    assert sched["policy"] == "yarn"
    assert sched["units_granted"] > 0
    assert 0.0 <= sched["locality_hit_rate"] <= 1.0
    assert set(summary["utilization"]) == {"cpu", "memory"}
    assert summary["jobs_completed"] > 0
    assert summary["job_slowdown"]["count"] == summary["jobs_completed"]
    # makespan can never beat the critical-path lower bound
    assert summary["job_slowdown"]["p50"] >= 1.0


# ------------------ comparator decision rules ----------------------- #

SLOT = ResourceVector.of(cpu=100, memory=1024)
NODE = SLOT * 4


def make_scheduler(policy, capacities=(NODE, NODE)):
    scheduler = FuxiScheduler(policy=policy)
    for i, capacity in enumerate(capacities):
        scheduler.add_machine(f"m{i}", "r0", capacity)
    return scheduler


def request(scheduler, app, count, priority=100, size=SLOT):
    """Register ``app`` with one unit shape and ask for ``count`` units."""
    scheduler.register_app(app)
    unit = ScheduleUnit(app, 1, size, priority=priority)
    scheduler.define_unit(unit)
    grants = scheduler.apply_request_delta(RequestDelta.initial(unit.key,
                                                                count))
    return unit.key, grants


def placed(grants):
    return [(g.unit_key.app_id, g.machine, g.count) for g in grants]


def offer_rounds(scheduler):
    """Machine events on every machine until no demand waits; per-app
    round of the first grant."""
    first_round = {}
    rounds = 0
    while scheduler.waiting_units_total() > 0:
        rounds += 1
        for machine in scheduler.pool.machines():
            for grant in scheduler.machine_event(machine):
                first_round.setdefault(grant.unit_key.app_id, rounds)
    return first_round


def test_yarn_nothing_granted_before_heartbeat():
    scheduler = make_scheduler(YarnPolicy())
    key, grants = request(scheduler, "app", 3)
    assert grants == []
    assert scheduler.waiting_units_total() == 3
    assert scheduler.ledger.total_units(key) == 0
    # the node heartbeat serves the global request list from m0 alone
    assert placed(scheduler.machine_event("m0")) == [("app", "m0", 3)]
    assert scheduler.waiting_units_total() == 0
    assert scheduler.pool.free("m0") == SLOT


def test_yarn_heartbeat_allocates_from_global_list():
    scheduler = make_scheduler(YarnPolicy())
    request(scheduler, "a", 2)
    request(scheduler, "b", 3)
    # one heartbeat serves the list in order until the node is full
    assert placed(scheduler.machine_event("m1")) == [("a", "m1", 2),
                                                     ("b", "m1", 2)]
    assert scheduler.waiting_units_total() == 1


def test_yarn_reclaim_on_task_completion():
    """The no-container-reuse behaviour the paper criticizes."""
    scheduler = make_scheduler(YarnPolicy(), capacities=(NODE,))
    key, _ = request(scheduler, "app", 1)
    scheduler.machine_event("m0")
    assert scheduler.return_resource(key, "m0", 1) == []
    assert scheduler.pool.free("m0") == NODE
    # the next task needs a fresh request and another heartbeat round
    assert scheduler.apply_request_delta(RequestDelta(key, 1)) == []
    assert scheduler.waiting_units_total() == 1
    assert placed(scheduler.machine_event("m0")) == [("app", "m0", 1)]


def test_yarn_unknown_container_completion_raises():
    scheduler = make_scheduler(YarnPolicy())
    key, _ = request(scheduler, "app", 1)
    with pytest.raises(ValueError):
        scheduler.return_resource(key, "m0", 1)   # nothing granted yet


def test_yarn_priority_order():
    scheduler = make_scheduler(YarnPolicy(), capacities=(NODE,))
    request(scheduler, "low", 4, priority=200)
    request(scheduler, "high", 4, priority=50)
    assert placed(scheduler.machine_event("m0")) == [("high", "m0", 4)]


def test_yarn_release_app_frees_everything():
    scheduler = make_scheduler(YarnPolicy(), capacities=(NODE,))
    request(scheduler, "app", 4)
    scheduler.machine_event("m0")
    assert scheduler.pool.free("m0").is_zero()
    scheduler.unregister_app("app")
    assert scheduler.pool.free("m0") == NODE


def test_mesos_offers_rotate_among_frameworks():
    """Each machine event is an exclusive offer to the least-held framework."""
    scheduler = make_scheduler(MesosPolicy(), capacities=(NODE,) * 3)
    assert request(scheduler, "f1", 6)[1] == []   # offers, not requests
    request(scheduler, "f2", 2)
    events = [placed(scheduler.machine_event(m)) for m in ("m0", "m1", "m2")]
    # f1 is first in line and takes all of m0; it then holds 4 units, so
    # m1 is offered to f2 (holding none) although f1 asked first — and f2
    # owns the rest of that offer; m2 goes back to f1
    assert events == [[("f1", "m0", 4)], [("f2", "m1", 2)],
                      [("f1", "m2", 2)]]


def test_mesos_demand_eventually_satisfied():
    scheduler = make_scheduler(MesosPolicy())
    key1, _ = request(scheduler, "f1", 4)
    key2, _ = request(scheduler, "f2", 4)
    assert offer_rounds(scheduler) == {"f1": 1, "f2": 1}
    assert scheduler.ledger.total_units(key1) == 4
    assert scheduler.ledger.total_units(key2) == 4


def test_mesos_waiting_time_depends_on_contention():
    """More competing frameworks -> later first allocation for the last one
    (the §1 criticism of offer-based scheduling)."""
    solo = make_scheduler(MesosPolicy(), capacities=(SLOT * 16,))
    request(solo, "solo", 4)
    crowded = make_scheduler(MesosPolicy(), capacities=(SLOT * 16,))
    for i in range(4):
        request(crowded, f"f{i}", 4)
    assert offer_rounds(solo) == {"solo": 1}
    assert max(offer_rounds(crowded).values()) == 4


def test_mesos_framework_declines_when_satisfied():
    scheduler = make_scheduler(MesosPolicy(), capacities=(NODE,))
    key, _ = request(scheduler, "f", 1)
    scheduler.machine_event("m0")
    # satisfied: later offers go unused and the space stays free
    assert scheduler.machine_event("m0") == []
    assert scheduler.ledger.total_units(key) == 1
    assert scheduler.pool.free("m0") == NODE - SLOT


def test_mesos_release_returns_resources():
    scheduler = make_scheduler(MesosPolicy(), capacities=(NODE,))
    key, _ = request(scheduler, "f", 1)
    scheduler.machine_event("m0")
    assert scheduler.pool.free("m0") == NODE - SLOT
    scheduler.return_resource(key, "m0", 1)
    assert scheduler.pool.free("m0") == NODE


def test_hadoop10_assigns_on_submit():
    """Placed on arrival, first fit in name order — not most-free first."""
    capacities = (SLOT * 2, SLOT * 4)
    _, grants = request(make_scheduler(Hadoop10Policy(), capacities),
                        "app", 2)
    assert placed(grants) == [("app", "m0", 2)]
    _, grants = request(make_scheduler(None, capacities), "app", 2)
    assert placed(grants) == [("app", "m1", 2)]   # fuxi: best fit


def test_hadoop10_release_triggers_global_pass():
    """A return on one machine recomputes the whole cluster's assignment."""
    big = SLOT * 2
    for policy, expected in ((None, []),
                             (Hadoop10Policy(), [("big", "m1", 1)])):
        scheduler = make_scheduler(policy, capacities=(SLOT,))
        small, _ = request(scheduler, "small", 1)
        request(scheduler, "big", 1, size=big)
        # m1's space is registered without a machine event serving it
        scheduler.add_machine("m1", "r0", big, schedule=False)
        # the slot freed on m0 cannot hold "big"; only a global pass
        # finds m1
        assert placed(scheduler.return_resource(small, "m0", 1)) == expected


def test_hadoop10_priority_order():
    scheduler = make_scheduler(Hadoop10Policy(), capacities=(SLOT,))
    holder, _ = request(scheduler, "holder", 1)
    request(scheduler, "low", 1, priority=200)
    request(scheduler, "high", 1, priority=10)
    assert placed(scheduler.return_resource(holder, "m0", 1)) == \
        [("high", "m0", 1)]


def test_sweep_clamps_workers_to_host_cpus(tmp_path):
    from repro.parallel import make_tasks, run_sweep

    journal = tmp_path / "sweep.jsonl"
    tasks = make_tasks("selfcheck", seeds=[1, 2, 3])
    asked = (os.cpu_count() or 1) + 7
    sweep = run_sweep(tasks, jobs=asked, journal=str(journal))
    timing = sweep.timing()
    assert timing["workers_requested"] == asked
    assert timing["workers"] <= (os.cpu_count() or 1)
    records = [json.loads(line) for line in
               journal.read_text(encoding="utf-8").splitlines()]
    notes = [r["text"] for r in records if r["record"] == "note"]
    assert any("clamped" in n for n in notes)
