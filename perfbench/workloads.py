"""The benchmark's workloads: cluster shape, job population and fault plan.

Every workload is a closed loop in the paper's §5.2 sense ("we keep 1,000
jobs concurrently running"): each finished job is replaced by the next job
of the synthetic mix.  A run has three phases in simulated time:

- set-up: build the cluster and warm it up (master election, registration
  of every agent) -- timed as ``setup_s``;
- ramp: submit the whole population and let it reach a steady mix of
  starting, running and finishing jobs -- not measured;
- window: the measured steady state.

The window length in simulated seconds is ``seconds * window_per_s``,
rounded to the 2 s drive slice, where ``seconds`` is the benchmark's
``--seconds``.  It is fixed by the arguments alone, never by the host, so
the simulated metrics repeat exactly for one seed.  ``window_per_s`` is set
so that at ``--seconds 20`` a whole run (set-ups, ramps and windows of both
repetitions, and the checks) takes 25-55 s on a 2-cpu host with
python 3.11.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

#: simulated seconds per drive slice, as in ``repro.api.simulate``
SLICE = 2.0
#: simulated warm-up before the first submission (``FuxiCluster.warm_up``)
WARM_UP = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    racks: int
    machines_per_rack: int
    jobs: int
    #: simulated seconds between the first submission and the window
    ramp: float
    #: simulated seconds of window per second of ``--seconds``
    window_per_s: float
    #: extra cluster builds per repetition, timed for ``setup_s`` only
    extra_setups: int = 0
    faults: bool = False
    #: mean map-task duration in simulated seconds (the mix default is 6)
    task_mean_s: float = 6.0
    why: str = ""

    @property
    def machines(self) -> int:
        return self.racks * self.machines_per_rack

    def window(self, seconds: float) -> float:
        """Simulated window length for a run of ``seconds``."""
        slices = round(seconds * self.window_per_s / SLICE)
        return SLICE * max(1, slices)

    def window_start(self) -> float:
        return WARM_UP + self.ramp


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "paper-5k", racks=100, machines_per_rack=50, jobs=1000, ramp=6.0,
        window_per_s=0.5,
        why="the paper's own setting (5,000 machines, 1,000 jobs): "
            "Figure 9 scheduling time; substrate and GC gains show here"),
    Workload(
        "saturated-200", racks=10, machines_per_rack=20, jobs=300, ramp=16.0,
        window_per_s=1.5, extra_setups=2,
        why="memory ~99% planned, deep locality queues: scheduler, pool and "
            "job-master gains show here, agent-plane gains barely"),
    Workload(
        "failover-15k", racks=150, machines_per_rack=100, jobs=200,
        ramp=4.0, window_per_s=0.7, faults=True, task_mean_s=2.0,
        why="3x paper scale with repeated master failover and node loss: "
            "full-state rebuild, agent plane, set-up time and memory"),
)}


# ---------------------------------------------------------------------- #
# fault plans
# ---------------------------------------------------------------------- #

#: one failover cycle: master crash, node loss, and both recoveries.  The
#: restart comes after the 4 s lease gap, so the standby has taken over and
#: the restarted master rejoins as the next standby.
CYCLE = 8.0


def fault_spec(workload: Workload, seed: int, window: float,
               machines: Sequence[str]) -> str:
    """The workload's fault plan as a ``FaultPlan`` spec string.

    Repeats ``FuxiMasterFailure -> FuxiMasterRestart`` and ``NodeDown ->
    MachineRestart`` every :data:`CYCLE` simulated seconds of the window.
    The failed machines are drawn from ``seed``.  The last restart lands at
    least 0.5 s before the window ends, and the standby has taken over by
    then, so the window's last slice submits every refused job.
    """
    if not workload.faults:
        return ""
    draw = random.Random(seed)
    start = workload.window_start()
    tokens = []
    at = start + 0.5
    while at + 5.0 <= start + window - 0.5:
        machine = draw.choice(machines)
        tokens += [f"FuxiMasterFailure@{at:g}",
                   f"NodeDown@{at + 1.0:g}:{machine}",
                   f"FuxiMasterRestart@{at + 5.0:g}",
                   f"MachineRestart@{at + 5.0:g}:{machine}"]
        at += CYCLE
    return ";".join(tokens)


def unknown_machines(spec: str, machines: Sequence[str]) -> List[str]:
    """Machine names in a fault spec that the topology does not have.

    ``FaultInjector`` looks machines up only when a fault fires, so a typo
    surfaces mid-run as a ``KeyError``; the benchmark checks up front.
    """
    from repro.cluster.faults import FaultPlan
    known = set(machines)
    return sorted({event.machine for event in FaultPlan.from_spec(spec).events
                   if event.machine and event.machine not in known})
