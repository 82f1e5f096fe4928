"""Integration: structured tracing across the simulated cluster.

Covers the observability acceptance criteria: a master failover produces a
complete span timeline, scheduling decisions carry locality levels, the
JSONL export is byte-identical for identical seeded runs, and tracing off
leaves no telemetry behind.
"""

from repro.obs.export import dumps_trace, load_jsonl
from repro.obs.summary import summarize_trace
from repro.obs.tracer import NullTracer, Tracer
from repro.workloads.synthetic import mapreduce_job
from tests.conftest import make_cluster


def traced_cluster(**kwargs):
    return make_cluster(trace=True, **kwargs)


def test_tracing_off_by_default():
    cluster = make_cluster()
    assert isinstance(cluster.tracer, NullTracer)
    assert cluster.tracer.records() == []
    assert cluster.loop._hooks == []


def test_traced_cluster_collects_decision_spans():
    cluster = traced_cluster()
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=8, reducers=2, map_duration=2.0, reduce_duration=1.0,
        workers_per_task=4))
    assert cluster.run_until_complete([app], timeout=300)
    assert isinstance(cluster.tracer, Tracer)
    decisions = cluster.tracer.spans("sched.decision")
    assert decisions
    kinds = {span.attributes.get("kind") for span in decisions}
    assert "request" in kinds
    granted = sum(span.attributes.get("machine", 0)
                  + span.attributes.get("rack", 0)
                  + span.attributes.get("cluster", 0)
                  for span in decisions)
    assert granted > 0


def test_master_failover_produces_expected_span_sequence():
    cluster = traced_cluster()
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=12, reducers=2, map_duration=20.0, reduce_duration=2.0,
        workers_per_task=6))
    cluster.run_for(6)
    crash_time = cluster.loop.now
    cluster.crash_primary_master()
    cluster.run_for(10)

    failovers = cluster.tracer.spans("master.failover")
    # initial takeover by master-0 plus the post-crash takeover by master-1
    assert len(failovers) >= 2
    takeover = next(s for s in failovers if s.start >= crash_time)
    assert takeover.finished
    assert takeover.attributes["master"] == "fuxi-master-1"
    assert takeover.attributes["machines"] == len(cluster.agents)
    window = cluster.master_config.recovery_window
    assert takeover.duration == window

    # every agent re-reported its allocations inside the recovery window
    reports = [e for e in cluster.tracer.events("master.agent_report")
               if e.parent_id == takeover.span_id]
    reported_machines = {e.attributes["machine"] for e in reports}
    assert reported_machines == set(cluster.agents)
    assert all(takeover.start <= e.time <= takeover.end for e in reports)

    # the AM re-sent its state too
    app_reports = [e for e in cluster.tracer.events("master.app_report")
                   if e.parent_id == takeover.span_id]
    assert any(e.attributes["app"] == app for e in app_reports)


def test_summary_reports_failover_timeline_and_locality():
    cluster = traced_cluster()
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=8, reducers=2, map_duration=15.0, reduce_duration=2.0,
        workers_per_task=4))
    cluster.run_for(5)
    cluster.crash_primary_master()
    cluster.run_for(10)

    summary = summarize_trace(cluster.tracer.records())
    assert summary.decision_count > 0
    assert sum(summary.locality_counts.values()) > 0
    complete = [t for t in summary.failovers if t.complete]
    assert len(complete) >= 2
    post_crash = complete[-1]
    assert post_crash.events, "timeline must include recovery events"
    assert app is not None


def test_agent_restart_records_adoption_span():
    cluster = traced_cluster()
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=8, reducers=2, map_duration=30.0, reduce_duration=2.0,
        workers_per_task=4))
    cluster.run_for(6)
    busy = [m for m in cluster.topology.machines()
            if cluster.workers_on(m)]
    assert busy
    cluster.restart_agent(busy[0])
    cluster.run_for(2)
    adoptions = cluster.tracer.spans("agent.adopt")
    assert any(s.attributes["machine"] == busy[0]
               and s.attributes.get("workers", 0) > 0 for s in adoptions)
    assert app is not None


def test_jsonl_export_byte_identical_across_same_seed_runs(tmp_path):
    def run_once():
        cluster = traced_cluster(seed=11)
        app = cluster.submit_job(mapreduce_job(
            "wc", mappers=6, reducers=2, map_duration=5.0,
            reduce_duration=1.0, workers_per_task=3))
        cluster.run_for(8)
        cluster.crash_primary_master()
        cluster.run_for(12)
        assert app is not None
        return dumps_trace(cluster.tracer)

    first = run_once()
    second = run_once()
    assert first, "traced run must produce records"
    assert first == second

    path = tmp_path / "trace.jsonl"
    path.write_text(first, encoding="utf-8")
    records = load_jsonl(str(path))
    assert records and records[0]["id"] == 1


def test_traced_run_samples_loop_metrics():
    cluster = traced_cluster()
    cluster.run_for(30)
    assert cluster.metrics.counter("sim.events_sampled") > 0
    assert cluster.metrics.histogram("sim.callback_ms").count > 0
    assert len(cluster.metrics.series("sim.queue_depth")) > 0


def test_job_retry_emits_trace_event():
    cluster = traced_cluster()
    app = cluster.submit_job(mapreduce_job(
        "wc", mappers=6, reducers=2, map_duration=10.0, reduce_duration=2.0,
        workers_per_task=4))
    cluster.run_for(5)
    machines = [m for m in cluster.topology.machines()
                if cluster.workers_on(m)]
    assert machines
    cluster.crash_workers(machines[0])
    assert cluster.run_until_complete([app], timeout=600)
    names = {e.name for e in cluster.tracer.events()}
    assert "job.instance_retry" in names or "job.container_replace" in names
