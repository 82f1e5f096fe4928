"""The chaos engine: determinism, green campaigns, replay, trace capture."""

import os

from repro.chaos import ChaosConfig, run_chaos, run_with_schedule
from repro.chaos.engine import build_cluster, build_schedule
from repro.cluster.faults import FaultPlan
from repro.obs.export import load_jsonl

FAST = ChaosConfig(trace=False)


def test_same_seed_same_verdict():
    first = run_chaos(11, FAST)
    second = run_chaos(11, FAST)
    assert first.schedule.to_spec() == second.schedule.to_spec()
    assert first.sim_time == second.sim_time
    assert first.events_executed == second.events_executed
    assert first.completed == second.completed
    assert [str(v) for v in first.violations] == \
        [str(v) for v in second.violations]


def test_small_campaign_runs_green():
    for seed in range(5):
        result = run_chaos(seed, FAST)
        assert result.ok, f"seed {seed}: {result.violations[0]}"
        assert result.completed == result.app_ids
        assert result.schedule.events  # faults actually ran


def test_schedule_derivation_is_pure():
    cluster = build_cluster(9, FAST)
    machines = cluster.topology.machines()
    assert (build_schedule(9, FAST, machines).to_spec()
            == build_schedule(9, FAST, machines).to_spec())
    assert (build_schedule(9, FAST, machines).to_spec()
            != build_schedule(10, FAST, machines).to_spec())


def test_run_with_schedule_replays_a_seeds_schedule():
    campaign = run_chaos(2, FAST)
    replay = run_with_schedule(
        2, FaultPlan.from_spec(campaign.schedule.to_spec()), FAST)
    assert replay.ok == campaign.ok
    assert replay.sim_time == campaign.sim_time
    assert replay.events_executed == campaign.events_executed


def test_empty_schedule_is_a_plain_run():
    result = run_with_schedule(4, FaultPlan(events=[]), FAST)
    assert result.ok
    assert result.completed == result.app_ids


def test_submissions_survive_missing_primary():
    # A master kill at t≈4 lands right in the submit window; submissions
    # must retry, not crash the event loop.
    plan = FaultPlan.from_spec("FuxiMasterFailure@4;FuxiMasterFailure@8.5;"
                               "FuxiMasterRestart@10")
    result = run_with_schedule(6, plan, FAST)
    assert result.ok
    assert result.completed == result.app_ids


def test_violation_stops_the_run_and_dumps_trace(tmp_path, monkeypatch):
    from repro.core.scheduler import FuxiScheduler

    def buggy(self, unit_key, machine, count):
        self.ledger.set_count(unit_key, machine, count)
        return count

    monkeypatch.setattr(FuxiScheduler, "restore_allocation", buggy)
    config = ChaosConfig(trace=True, trace_dir=str(tmp_path))
    plan = FaultPlan.from_spec("FuxiMasterFailure@12")
    result = run_with_schedule(3, plan, config)
    assert not result.ok
    assert result.violations[0].invariant == "resource-conservation"
    # the loop stopped at the violation, not at the timeout
    assert result.sim_time < config.timeout
    assert result.trace_path and os.path.exists(result.trace_path)
    records = load_jsonl(result.trace_path)
    header = records[0]
    assert header["kind"] == "violation"
    assert header["invariant"] == "resource-conservation"
    assert header["schedule"] == plan.to_spec()
    assert len(records) > 1  # the actual trace rides along


def test_summary_mentions_verdict():
    result = run_chaos(0, FAST)
    assert "OK" in result.summary()
    assert f"seed={result.seed}" in result.summary()


def test_regression_transient_capacity_dip_does_not_strand_grants():
    """Shrunk from a real campaign failure (seed 2, 2x3 topology).

    The AM's first work plan raced ahead of the master->agent grant delta
    (rejected "insufficient-resource"), the AM returned + re-requested, and
    the return's -1 delta landed at the agent *after* the re-grant's worker
    was adopted — a transient capacity dip that killed the worker as
    "capacity-revoked" with no master-side revocation behind it.  Without
    holdings/worker reconciliation the AM then held a workerless container
    forever and the job never terminated.
    """
    plan = FaultPlan.from_spec(
        "AgentRestart@9.717:r01m000;"
        "NetworkBurst@11.602:dur=4.23:drop=0.125:delay=0.0137")
    config = ChaosConfig(racks=2, machines_per_rack=3, jobs=3, trace=False,
                         timeout=200.0)
    result = run_with_schedule(2, plan, config)
    assert result.ok, result.violations
    assert sorted(result.completed) == sorted(result.app_ids)
