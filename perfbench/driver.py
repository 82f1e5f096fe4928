"""One repetition of a benchmark workload, in its own process.

Usage (``run.py`` starts this; run it by hand to debug one repetition)::

    python3 perfbench/driver.py --workload paper-5k --seed 1 --window 10 \\
        [--traced]

It builds the cluster through the public ``ClusterBuilder`` API, drives the
closed loop the way ``repro.api.simulate`` does (2 s slices, ``deferred_gc``,
``collect_young`` and ``reap_job`` per slice), checks the final cluster, and
prints one JSON object on its last stdout line.

``simulate()`` itself is not used: a closed-loop replacement that lands in
the lease gap after a master failure makes it raise ``RuntimeError: no
primary FuxiMaster``.  The client here instead finds no primary, counts the
refusal, and retries at the next slice.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.api import ClusterBuilder, RunResult, RunSpec  # noqa: E402
from repro.chaos.invariants import InvariantChecker  # noqa: E402
from repro.cluster.faults import FaultPlan  # noqa: E402
from repro.core.agent import FuxiAgentConfig  # noqa: E402
from repro.jobs.dag import critical_path_length  # noqa: E402
from repro.sim import gctune  # noqa: E402
from repro.workloads.synthetic import (SyntheticWorkload,  # noqa: E402
                                       SyntheticWorkloadConfig,
                                       ensure_input_files)

from workloads import (SLICE, WARM_UP, WORKLOADS, Workload,  # noqa: E402
                       fault_spec, unknown_machines)

#: Figure-10 sampling period; 1 s gives every window ten or more samples
UTILIZATION_INTERVAL = 1.0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (q in 0..100) of unsorted values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_spec(workload: Workload, seed: int, window: float) -> RunSpec:
    """The run as a ``RunSpec`` (``paper`` mix, ``fuxi`` policy);
    ``summary_dict`` echoes it."""
    return RunSpec(racks=workload.racks,
                   machines_per_rack=workload.machines_per_rack,
                   concurrent_jobs=workload.jobs,
                   duration=workload.ramp + window, seed=seed,
                   utilization_sample_interval=UTILIZATION_INTERVAL)


def build(workload: Workload, seed: int, window: float,
          plan: Optional[str] = None):
    """Cluster build plus warm-up, wired as ``simulate`` wires it.

    ``plan`` overrides the workload's fault plan.  A plan that names a
    machine the topology lacks raises ``ValueError`` before the simulation
    starts.  Returns ``(cluster, spec, build_s, warmup_s)``.
    """
    spec = run_spec(workload, seed, window)
    started = time.perf_counter()
    cluster = (ClusterBuilder(racks=spec.racks,
                              machines_per_rack=spec.machines_per_rack,
                              machine_cpu=spec.machine_cpu,
                              machine_memory=spec.machine_memory,
                              seed=seed,
                              agent_config=FuxiAgentConfig(
                                  worker_start_delay=spec.worker_start_delay))
               .build(warm_up=False))
    built = time.perf_counter()
    machines = cluster.topology.machines()
    if plan is None:
        plan = fault_spec(workload, seed, window, machines)
    if plan:
        unknown = unknown_machines(plan, machines)
        if unknown:
            raise ValueError(f"fault plan names machines the "
                             f"{len(machines)}-machine topology lacks: "
                             f"{', '.join(unknown)}")
        spec = spec.replace(fault_spec=plan)
        cluster.schedule_faults(FaultPlan.from_spec(plan))
    cluster.enable_utilization_sampling(spec.utilization_sample_interval)
    cluster.warm_up(WARM_UP)
    return cluster, spec, built - started, time.perf_counter() - built


class ClosedLoopClient:
    """Holds the job population: every finished job is reaped and replaced.

    A submission made while no primary master exists is refused; it stays
    pending and is retried at the next slice.
    """

    def __init__(self, cluster, spec: RunSpec, task_mean_s: float):
        self.cluster = cluster
        self.spec = spec
        self.source = SyntheticWorkload(
            SyntheticWorkloadConfig(concurrent_jobs=spec.concurrent_jobs,
                                    scale=spec.workload_scale,
                                    workers_cap=spec.workers_cap,
                                    mix=spec.workload_mix,
                                    hint_fraction=spec.hint_fraction,
                                    mean_duration=task_mean_s),
            cluster.rng)
        self.result = RunResult(cluster=cluster, spec=spec)
        self.pending = spec.concurrent_jobs
        self.attempts = 0
        self.refused = 0
        self.ideals: Dict[str, float] = {}
        self._seen = 0
        #: app ids finished inside the measured window
        self.window_jobs: List[str] = []
        self.in_window = False

    def submit_pending(self) -> None:
        cluster = self.cluster
        while self.pending:
            self.attempts += 1
            if cluster.primary_master is None:
                self.refused += 1
                return
            job = self.source.next_job()
            ensure_input_files(cluster.blockstore, job)
            app_id = cluster.submit_job(job, description_overrides={
                "am_start_delay": self.spec.am_start_delay})
            self.result.submitted.append(app_id)
            self.ideals[app_id] = critical_path_length(job)
            self.pending -= 1

    def run_slice(self) -> None:
        cluster = self.cluster
        cluster.run_for(SLICE)
        results = cluster.job_results
        for app_id in list(itertools.islice(results, self._seen, None)):
            self._seen += 1
            self.result.jobs_completed += 1
            ideal = self.ideals.pop(app_id, 0.0)
            if self.in_window:
                self.window_jobs.append(app_id)
                if ideal > 0:
                    self.result.slowdowns.append(
                        results[app_id].makespan / ideal)
            cluster.reap_job(app_id)
            self.pending += 1
        self.submit_pending()
        gctune.collect_young()


class Window:
    """Counters read at the window's edges, for per-window deltas.

    Scheduler statistics restart from zero when a standby master takes
    over, so every scheduler seen at a slice boundary is kept with its
    reading at the window start (zero if it appeared later).
    """

    def __init__(self, cluster):
        self.cluster = cluster
        self.events0 = cluster.loop.events_executed
        bus = cluster.bus
        self.bus0 = (bus.messages_sent, bus.messages_delivered,
                     bus.messages_dropped)
        self.gen2_0 = gc.get_stats()[2]["collections"]
        self.schedulers: Dict[int, tuple] = {}
        self.observe(at_start=True)

    def observe(self, at_start: bool = False) -> None:
        for master in self.cluster.masters:
            scheduler = master.scheduler
            if scheduler is None or id(scheduler) in self.schedulers:
                continue
            stats = scheduler.stats
            base = ((stats.units_granted, stats.machine_local + stats.rack_local)
                    if at_start else (0, 0))
            self.schedulers[id(scheduler)] = (scheduler, base)

    def granted(self) -> tuple:
        """(units granted, of which machine- or rack-local) in the window."""
        units = local = 0
        for scheduler, (units0, local0) in self.schedulers.values():
            stats = scheduler.stats
            units += stats.units_granted - units0
            local += stats.machine_local + stats.rack_local - local0
        return units, local

    def bus_delta(self) -> tuple:
        bus = self.cluster.bus
        now = (bus.messages_sent, bus.messages_delivered, bus.messages_dropped)
        return tuple(b - a for a, b in zip(self.bus0, now))


def window_utilization(cluster, start: float) -> float:
    """Mean planned/total memory over the window's Figure-10 samples."""
    total = cluster.metrics.series("util.Memory.FM_total").points
    planned = cluster.metrics.series("util.Memory.FM_planned").points
    shares = [p / t for (when, t), (_, p) in zip(total, planned)
              if when >= start and t > 0]
    return sum(shares) / len(shares) if shares else 0.0


def job_overheads(cluster, app_ids: List[str]) -> Dict[str, float]:
    """Table-2 overheads and instance counters over the window's jobs."""
    am_start, worker_start, instance = [], [], []
    failed_instances = finished = backups = 0
    for app_id in app_ids:
        result = cluster.job_results[app_id]
        am_start.append(result.jobmaster_start_overhead)
        worker_start.extend(result.worker_start_overheads)
        instance.extend(result.instance_overheads)
        failed_instances += result.instances_failed
        finished += result.instances_finished
        backups += result.backups_launched
    return {
        "jobs.am_start_sim_s_p50": percentile(am_start, 50.0),
        "jobs.worker_start_sim_s_p50": percentile(worker_start, 50.0),
        "jobs.instance_overhead_sim_s_p50": percentile(instance, 50.0),
        "jobs.instances_failed": failed_instances,
        "jobs.backup_ratio": backups / finished if finished else 0.0,
    }


def digest_of(summary: dict) -> str:
    blob = json.dumps(summary, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run(workload: Workload, seed: int, window: float,
        tracer=None) -> Dict[str, object]:
    """One repetition; ``tracer`` (a ``layers.Spans``) is installed already."""
    # Extra set-ups are timed and discarded, so setup_s is a median of
    # several builds without another run of the workload.
    setup_samples = []
    for _ in range(workload.extra_setups):
        started = time.perf_counter()
        build(workload, seed, window)
        setup_samples.append(time.perf_counter() - started)
        gc.collect()

    started = time.perf_counter()
    cluster, spec, build_s, warmup_s = build(workload, seed, window)
    setup_samples.append(time.perf_counter() - started)
    setup_rss = peak_rss_mb()

    client = ClosedLoopClient(cluster, spec, workload.task_mean_s)
    client.submit_pending()
    start = workload.window_start()
    end = start + window
    with gctune.deferred_gc(spec.gc_isolation):
        while cluster.loop.now < start - 1e-9:
            client.run_slice()
        marks = Window(cluster)
        client.in_window = True
        if tracer is not None:
            tracer.reset()
        wall0 = time.perf_counter()
        while cluster.loop.now < end - 1e-9:
            client.run_slice()
            marks.observe()
        wall = time.perf_counter() - wall0
        gen2 = gc.get_stats()[2]["collections"] - marks.gen2_0
        if tracer is not None:
            traced = tracer.snapshot()
    client.in_window = False

    # ---- checks, outside the timed window ---------------------------- #
    violations = [str(v) for v in InvariantChecker().check_step(cluster)]
    result = client.result
    summary = result.summary_dict()
    units, local = marks.granted()
    sched_ms = [value for when, value
                in cluster.metrics.series("fm.schedule_ms").points
                if when >= start]
    events = cluster.loop.events_executed - marks.events0
    sent, delivered, dropped = marks.bus_delta()
    out: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "window_sim_s": window,
        "window_wall_s": wall,
        "setup_s": setup_samples,
        "build_s": build_s,
        "warmup_s": warmup_s,
        "setup_rss_mb": setup_rss,
        "peak_rss_mb": peak_rss_mb(),
        "sched_ms": sched_ms,
        "sim": {
            "jobs_completed": len(client.window_jobs),
            "slowdown_p50": percentile(result.slowdowns, 50.0),
            "slowdown_p95": percentile(result.slowdowns, 95.0),
            "locality_hit_rate": local / units if units else 0.0,
            "mem_util": window_utilization(cluster, start),
            **job_overheads(cluster, client.window_jobs),
            "units_granted": units,
            "events": events,
            "sent": sent,
            "delivered": delivered,
            "dropped": dropped,
        },
        "attempts": client.attempts,
        "refused": client.refused,
        "pending": client.pending,
        "failed_jobs": sum(not job.success
                           for job in cluster.job_results.values()),
        "violations": violations,
        "fault_spec": spec.fault_spec,
        "gen2_collections": gen2,
        "grant_stream": summary["grant_stream"],
        "summary_digest": digest_of(summary),
    }
    if tracer is not None:
        out["spans"] = traced
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--window", type=float, required=True,
                        help="measured window in simulated seconds")
    parser.add_argument("--traced", action="store_true",
                        help="install the per-layer spans (layers.py)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.traced:
        from layers import Spans
        tracer = Spans()
        tracer.install()
    try:
        out = run(workload, args.seed, args.window, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    status = main()
    # Skip interpreter teardown: freeing a 15k-machine cluster object by
    # object takes seconds, and the process is done with it.
    os._exit(status)
