"""The sharded engine (``repro.shard``): byte-identity with the serial
engine at its determinism edges — window-barrier faults, timers cancelled
across window boundaries, fault plans spanning both planes — plus the
partition/lifecycle contract of :class:`ShardedCluster`."""

import json

import pytest

from repro.api import RunSpec, simulate
from repro.cluster.faults import FaultPlan
from repro.cluster.topology import ClusterTopology
from repro.shard import InlineShardHost, ShardedCluster
from repro.shard.hosts import make_host
from repro.sim.events import SimulationError


SMALL = dict(racks=2, machines_per_rack=5, concurrent_jobs=6,
             duration=30.0, workload_scale=20, workers_cap=4, seed=11)


def _summary(spec: RunSpec) -> str:
    return json.dumps(simulate(spec).summary_dict(), sort_keys=True)


def _pair(serial_kwargs: dict, **shard_kwargs) -> None:
    """Assert the serial and sharded runs produce identical summaries."""
    serial = _summary(RunSpec(**serial_kwargs))
    sharded = _summary(RunSpec(**serial_kwargs).replace(
        shards=shard_kwargs.pop("shards", 2),
        shard_backend=shard_kwargs.pop("backend", "inline")))
    assert serial == sharded


# --------------------------- partition shape ------------------------- #

def test_partition_is_contiguous_and_balanced():
    topology = ClusterTopology.build(racks=3, machines_per_rack=4)
    cluster = ShardedCluster(topology, shards=5, backend="inline")
    machines = topology.machines()
    flat = [m for owned in cluster._partition for m in owned]
    assert flat == machines  # contiguous slices, in sorted order
    sizes = [len(owned) for owned in cluster._partition]
    assert max(sizes) - min(sizes) <= 1
    for index, owned in enumerate(cluster._partition):
        assert all(cluster._machine_shard[m] == index for m in owned)


def test_shard_count_validation():
    topology = ClusterTopology.build(racks=1, machines_per_rack=3)
    with pytest.raises(ValueError):
        ShardedCluster(topology, shards=0)
    with pytest.raises(ValueError):
        ShardedCluster(topology, shards=4)


# ----------------------- identity at the edges ----------------------- #

def test_sharded_matches_serial_no_faults():
    _pair(SMALL, shards=3)


def test_fault_exactly_on_window_barrier():
    # window width = latency/2 = 0.0005: 12.0 is an exact barrier time,
    # 12.00025 lands mid-window; both must reproduce the serial run
    for at in ("12.0", "12.00025"):
        _pair(dict(SMALL, fault_spec=f"NodeDown@{at}:r00m001"), shards=2)


def test_timers_cancelled_across_window_boundary():
    # NodeDown cancels worker timers armed thousands of windows earlier and
    # drops the agent from its heartbeat cohort; the restart then re-arms
    # them mid-run.  Exercises cancellation across window boundaries on
    # the owning shard.
    plan = ("NodeDown@10.0:r01m000;"
            "MachineRestart@18.0:r01m000;"
            "AgentRestart@22.0:r00m002")
    _pair(dict(SMALL, fault_spec=plan), shards=3)


def test_chaos_fault_plan_matches_serial():
    # every fault kind the spec grammar knows, split across both planes:
    # machine faults run on the owning shard, master faults and the
    # NetworkBurst window on the coordinator (mirrored onto shard buses)
    plan = ("NodeDown@8.0:r00m001;"
            "SlowMachine@9.0:r00m003:factor=3.0;"
            "NetworkBurst@11.0:dur=4.0:drop=0.2:delay=0.004;"
            "PartialWorkerFailure@13.0:r01m002;"
            "FuxiMasterFailure@15.0;"
            "FuxiMasterRestart@24.0")
    _pair(dict(SMALL, fault_spec=plan), shards=2)


def test_process_backend_matches_inline():
    spec = RunSpec(**SMALL).replace(duration=16.0, fault_spec=
                                    "NodeDown@9.0:r00m002")
    inline = _summary(spec.replace(shards=2, shard_backend="inline"))
    process = _summary(spec.replace(shards=2, shard_backend="process"))
    assert inline == process


def test_grant_stream_digest_matches_serial():
    spec = RunSpec(**SMALL)
    serial = simulate(spec).summary_dict()["grant_stream"]
    sharded = simulate(spec.replace(shards=3,
                                    shard_backend="inline")).summary_dict()
    assert serial == sharded["grant_stream"]
    assert any(entry["grants"] > 0 for entry in serial)


# ------------------------- lifecycle contract ------------------------ #

def _started_cluster() -> ShardedCluster:
    topology = ClusterTopology.build(racks=1, machines_per_rack=4)
    cluster = ShardedCluster(topology, shards=2, backend="inline")
    cluster.warm_up()
    cluster.run_for(0.5)
    return cluster


def test_configure_after_start_raises():
    cluster = _started_cluster()
    with pytest.raises(SimulationError):
        cluster.schedule_faults(FaultPlan.from_spec("NodeDown@5:r00m000"))
    with pytest.raises(SimulationError):
        cluster.enable_utilization_sampling(1.0)
    cluster.finalize()


def test_finalize_is_idempotent_and_final():
    cluster = _started_cluster()
    events_before = cluster.events_total
    cluster.finalize()
    cluster.finalize()  # second call is a no-op
    assert cluster.events_total >= events_before
    with pytest.raises(SimulationError):
        cluster.run_for(1.0)


def test_resolved_backend_reports_running_host():
    cluster = _started_cluster()
    assert cluster.resolved_backend == "inline"
    assert cluster.shard_count == 2
    cluster.finalize()


def test_make_host_rejects_unknown_backend():
    with pytest.raises(ValueError):
        make_host("threads", [])
    assert isinstance(make_host("inline", []), InlineShardHost)


# -------------------------- spec validation -------------------------- #

def test_runspec_shard_validation():
    with pytest.raises(ValueError):
        RunSpec(racks=1, machines_per_rack=2, shards=3).validate()
    with pytest.raises(ValueError):
        RunSpec(shards=2, live_sample=True).validate()
    with pytest.raises(ValueError):
        RunSpec(hint_fraction=1.5).validate()
    RunSpec(shards=2, hint_fraction=0.5).validate()
