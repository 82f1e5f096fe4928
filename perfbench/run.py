"""The simulator's benchmark: one command, three closed-loop workloads.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper-5k --seed 1 --seconds 20 \\
        --trace 0

Each run makes two repetitions of the workload, each in its own process
(``driver.py``): one process with one thread, the serial engine and the
default kernel backend.  Both repetitions use the given seed, so they must
agree exactly; that is the determinism check.

- ``--trace 0`` times both repetitions and reports the end-to-end metrics:
  host-time medians over the repetitions, scheduling latency percentiles
  over the pooled ``fm.schedule_ms`` samples of both windows, and the
  simulated metrics, which must be equal in both.
- ``--trace 1`` runs one plain repetition and one with the per-layer spans
  of ``layers.py`` installed, checks that the spans changed nothing (equal
  grant digests and summary), and reports the per-layer metrics.

The output is a run manifest, a table of every metric with its unit, the
grant-stream digests, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check is
printed with ``correct: false`` and no metrics, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from workloads import WORKLOADS  # noqa: E402

REPS = 2
#: every repetition must have ended this many seconds after the run began
RUN_DEADLINE = 170.0

#: end-to-end metrics of a --trace 0 run, in output order
END_TO_END = (
    ("setup_s", "s"),
    ("sim_s_per_s", "sim-s/s"),
    ("peak_rss_mb", "MB"),
    ("jobs_completed", "jobs"),
    ("slowdown_p50", "ratio"),
    ("slowdown_p95", "ratio"),
    ("mem_util", "ratio"),
)
#: simulated end-to-end metrics: equal across repetitions of one seed
SIMULATED = ("jobs_completed", "slowdown_p50", "slowdown_p95", "mem_util")


# ---------------------------------------------------------------------- #
# manifest
# ---------------------------------------------------------------------- #

def host_calib(iterations: int = 2_000_000) -> float:
    """Seconds for a fixed pure-Python loop: provenance, not a metric."""
    started = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) & 0xFFFF
    return time.perf_counter() - started


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over ``src/**/*.py``, names and contents, in path order."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def manifest(seed: int) -> Dict[str, object]:
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        from repro import kernels
        backend = kernels.resolve(None)
    except ImportError:
        backend = None
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": backend,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "host_calib_s": round(host_calib(), 4),
    }


# ---------------------------------------------------------------------- #
# repetitions
# ---------------------------------------------------------------------- #

class CheckFailed(Exception):
    pass


def repetition(workload: str, seed: int, window: float, traced: bool,
               timeout: float) -> Dict[str, object]:
    """Run ``driver.py`` in a fresh process and return its JSON result."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("FUXI_KERNELS", None)  # the default backend, whatever the shell
    command = [sys.executable, str(HERE / "driver.py"),
               "--workload", workload, "--seed", str(seed),
               "--window", str(window)] + (["--traced"] if traced else [])
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"repetition did not end within {RUN_DEADLINE:g} s "
                          f"of the run's start")
    if proc.returncode != 0:
        raise CheckFailed(f"repetition exited {proc.returncode}:\n"
                          + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_rep(rep: Dict[str, object]) -> List[str]:
    """Problems in one repetition's own outputs."""
    problems = [f"invariant: {v}" for v in rep["violations"]]
    if rep["failed_jobs"]:
        problems.append(f"{rep['failed_jobs']} jobs failed")
    if rep["pending"]:
        problems.append(f"{rep['pending']} submissions never accepted")
    if not rep["sim"]["jobs_completed"]:
        problems.append("no job finished inside the window")
    return problems


def check_same(reps: List[Dict[str, object]]) -> List[str]:
    """Problems in the agreement of repetitions of one seed."""
    first = reps[0]
    problems = []
    for rep in reps[1:]:
        for key in ("grant_stream", "summary_digest", "sim", "attempts",
                    "refused"):
            if rep[key] != first[key]:
                problems.append(f"repetitions disagree on {key}: "
                                f"{first[key]!r} != {rep[key]!r}")
    return problems


def end_to_end(reps: List[Dict[str, object]]) -> Dict[str, float]:
    """The gated metrics: host-time medians over the repetitions."""
    sim = reps[0]["sim"]
    return {
        "setup_s": statistics.median(s for rep in reps for s in rep["setup_s"]),
        "sim_s_per_s": statistics.median(rep["window_sim_s"]
                                         / rep["window_wall_s"]
                                         for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        **{name: sim[name] for name in SIMULATED},
    }


def ungated(reps: List[Dict[str, object]]) -> Dict[str, Tuple[float, str]]:
    """End-to-end figures whose spread over seeds is too wide to gate
    (see README): scheduling latency over the pooled windows of ``reps``,
    locality and the failure share."""
    sched_us = [ms * 1000.0 for rep in reps for ms in rep["sched_ms"]]
    return {
        "sched_us_p50": (statistics.median(sched_us), "us"),
        "sched_us_p99": (statistics.quantiles(sched_us, n=100,
                                              method="inclusive")[98], "us"),
        "sched_n": (len(sched_us), "count"),
        "locality_hit_rate": (reps[0]["sim"]["locality_hit_rate"], "ratio"),
        "fail_share": (fail_share(reps[0]), "ratio"),
    }


def per_layer(plain: Dict[str, object],
              traced: Dict[str, object]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the traced repetition's window, plus the
    ungated end-to-end figures of the plain one."""
    spans = traced["spans"]
    accs = {name: dict(zip(("calls", "self_s", "span_s", "hits"), values))
            for name, values in spans["accs"].items()}

    def get(name: str, field: str) -> float:
        return accs.get(name, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    sim = traced["sim"]
    wall = traced["window_wall_s"]
    deltas, fulls = get("protocol.delta", "calls"), get("protocol.full", "calls")
    decide = get("sched.decide", "calls")
    out: Dict[str, Tuple[float, str]] = {
        **ungated([plain]),
        "loop.events": (sim["events"], "count"),
        "loop.self_s": (get("loop", "self_s"), "s"),
        "loop.us_per_event": (ratio(get("loop", "self_s") * 1e6,
                                    sim["events"]), "us"),
        "net.sent": (sim["sent"], "count"),
        "net.delivered": (sim["delivered"], "count"),
        "net.dropped": (sim["dropped"], "count"),
        "net.self_s": (get("net", "self_s"), "s"),
        "net.us_per_send": (ratio(get("net", "self_s") * 1e6,
                                  get("net", "calls")), "us"),
        "master.handled": (get("master.handle", "calls"), "count"),
        "master.self_s": (get("master.handle", "self_s"), "s"),
        "master.timer_s": (get("master.timer", "self_s"), "s"),
        "health.self_s": (get("health", "self_s"), "s"),
        "protocol.deltas": (deltas, "count"),
        "protocol.full_syncs": (fulls, "count"),
        "protocol.full_sync_ratio": (ratio(fulls, deltas + fulls), "ratio"),
        "protocol.self_s": (sum(get(f"protocol.{kind}", "self_s")
                                for kind in ("delta", "full", "recv")), "s"),
        "sched.calls": (decide, "count"),
        "sched.self_s": (get("sched.decide", "self_s")
                         + get("sched.book", "self_s"), "s"),
        "sched.us_per_call": (ratio(get("sched.decide", "span_s") * 1e6,
                                    decide), "us"),
        "sched.productive_ratio": (ratio(get("sched.decide", "hits"),
                                         decide), "ratio"),
        "sched.units_granted": (sim["units_granted"], "count"),
        "pool.calls": (get("pool.book", "calls") + get("pool.scan", "calls"),
                       "count"),
        "pool.scans": (get("pool.scan", "calls"), "count"),
        "pool.self_s": (get("pool.book", "self_s")
                        + get("pool.scan", "self_s"), "s"),
        "agent.handled": (get("agent.handle", "calls"), "count"),
        "agent.heartbeats": (get("agent.heartbeats", "calls"), "count"),
        "agent.self_s": (get("agent.handle", "self_s"), "s"),
        "agent.timer_s": (get("agent.timer", "self_s"), "s"),
        "jobmaster.handled": (get("jobmaster.handle", "calls"), "count"),
        "jobmaster.self_s": (get("jobmaster.handle", "self_s"), "s"),
        "jobmaster.timer_s": (get("jobmaster.timer", "self_s"), "s"),
        "jobs.am_start_sim_s_p50": (sim["jobs.am_start_sim_s_p50"], "sim-s"),
        "jobs.worker_start_sim_s_p50": (sim["jobs.worker_start_sim_s_p50"],
                                        "sim-s"),
        "jobs.instance_overhead_sim_s_p50": (
            sim["jobs.instance_overhead_sim_s_p50"], "sim-s"),
        "jobs.instances_failed": (sim["jobs.instances_failed"], "count"),
        "jobs.backup_ratio": (sim["jobs.backup_ratio"], "ratio"),
        "worker.handled": (get("worker.handle", "calls"), "count"),
        "worker.self_s": (get("worker.handle", "self_s"), "s"),
        "worker.timer_s": (get("worker.timer", "self_s"), "s"),
        "runtime.self_s": (get("runtime.handle", "self_s")
                           + get("runtime.timer", "self_s"), "s"),
        "setup.build_s": (plain["build_s"], "s"),
        "setup.warmup_s": (plain["warmup_s"], "s"),
        "setup.rss_mb": (plain["setup_rss_mb"], "MB"),
        "telemetry.self_s": (get("telemetry", "self_s"), "s"),
        "gc.self_s": (get("gc", "self_s"), "s"),
        "gc.gen2_collections": (traced["gen2_collections"], "count"),
        "trace.overhead": (ratio(wall, plain["window_wall_s"]), "ratio"),
        "trace.unattributed_share": (ratio(wall - spans["top_level_s"], wall),
                                     "ratio"),
    }
    return out


# ---------------------------------------------------------------------- #
# output
# ---------------------------------------------------------------------- #

def fail_share(rep: Dict[str, object]) -> float:
    """Failed jobs + refused submissions + violations over attempts."""
    bad = rep["failed_jobs"] + rep["refused"] + len(rep["violations"])
    return bad / rep["attempts"]


def emit(correct: bool, reps: List[Dict[str, object]],
         metrics: Dict[str, Tuple[float, str]]) -> None:
    attempted = reps[0]["attempts"] if reps else 1
    failed = (reps[0]["failed_jobs"] + reps[0]["pending"]
              + len(reps[0]["violations"])) if reps else 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed if correct else max(1, failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fuxi simulator benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no program source at {SRC / 'repro'}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE
    workload = WORKLOADS[args.workload]
    window = workload.window(args.seconds)
    print("manifest " + json.dumps(manifest(args.seed), sort_keys=True))
    print(f"workload {workload.name}: {workload.machines} machines, "
          f"{workload.jobs} jobs, ramp {workload.ramp:g} sim-s, window "
          f"{window:g} sim-s, {REPS} repetitions -- {workload.why}")

    reps: List[Dict[str, object]] = []
    try:
        for index in range(REPS):
            reps.append(repetition(workload.name, args.seed, window,
                                   traced=bool(args.trace) and index == 1,
                                   timeout=deadline - time.monotonic()))
        problems = [p for rep in reps for p in check_rep(rep)]
        problems += check_same(reps)
    except CheckFailed as exc:
        problems = [str(exc)]

    for index, rep in enumerate(reps):
        digests = " ".join(f"{g['master']}={g['digest']}/{g['grants']}"
                           for g in rep["grant_stream"])
        print(f"rep {index}{' traced' if 'spans' in rep else ''}: grants "
              f"{digests} summary={rep['summary_digest']} "
              f"faults={rep['fault_spec'] or 'none'}")
    if problems:
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        emit(False, reps, {})
        return 1

    if args.trace:
        metrics = shown = per_layer(reps[0], reps[1])
        missing = reps[1]["spans"]["missing"]
        if missing:
            print("entry points not found: " + ", ".join(missing))
    else:
        units = dict(END_TO_END)
        metrics = {name: (value, units[name])
                   for name, value in end_to_end(reps).items()}
        shown = dict(metrics, **ungated(reps))
    for name, (value, unit) in shown.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    emit(True, reps, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
