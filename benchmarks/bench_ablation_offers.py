"""Ablation D: offer-based (Mesos) vs request-based (Fuxi) allocation.

§1's criticism: "Mesos master offers free resources in turn among
frameworks, the waiting time for each framework to acquire desired
resources highly depends upon the resource offering order and other
frameworks' scheduling efficiency."  We measure time-to-full-allocation for
the *last-served* tenant as tenant count grows: offer rounds serialize
tenants, the request-based scheduler serves everyone in one pass.  Both
sides run on :class:`FuxiScheduler`; the Mesos side uses the integrated
``MesosPolicy``, where one offer round is a heartbeat event on every
machine and each event is an exclusive offer to one framework.
"""

from repro.baselines import MesosPolicy
from repro.core.request import RequestDelta
from repro.core.resources import ResourceVector
from repro.core.scheduler import FuxiScheduler
from repro.core.units import ScheduleUnit
from repro.experiments.harness import ExperimentReport

SLOT = ResourceVector.of(cpu=100, memory=2048)
# fewer nodes than tenants: each offer round can serve at most MACHINES
# frameworks, which is exactly the §1 serialization
MACHINES = 2
SLOTS_PER_MACHINE = 24
DEMAND = 8   # per tenant


def mesos_rounds(tenants: int) -> int:
    """Offer rounds until the last framework gets its first allocation."""
    scheduler = FuxiScheduler(policy=MesosPolicy())
    for i in range(MACHINES):
        scheduler.add_machine(f"m{i}", "r0", SLOT * SLOTS_PER_MACHINE)
    for i in range(tenants):
        app = f"f{i}"
        scheduler.register_app(app)
        unit = ScheduleUnit(app, 1, SLOT)
        scheduler.define_unit(unit)
        # offer-based: a request is never placed on arrival
        assert not scheduler.apply_request_delta(
            RequestDelta.initial(unit.key, DEMAND))
    first_round = {}
    rounds = 0
    while scheduler.waiting_units_total() > 0:
        rounds += 1
        for machine in scheduler.pool.machines():
            for grant in scheduler.machine_event(machine):
                first_round.setdefault(grant.unit_key.app_id, rounds)
    return max(first_round.values())


def fuxi_rounds(tenants: int) -> int:
    """Fuxi serves every request the moment it arrives: always one pass."""
    scheduler = FuxiScheduler()
    for i in range(MACHINES):
        scheduler.add_machine(f"m{i}", "r0", SLOT * SLOTS_PER_MACHINE)
    for i in range(tenants):
        app = f"f{i}"
        scheduler.register_app(app)
        unit = ScheduleUnit(app, 1, SLOT)
        scheduler.define_unit(unit)
        decisions = scheduler.apply_request_delta(
            RequestDelta.initial(unit.key, DEMAND))
        if sum(g.count for g in decisions if g.count > 0) < DEMAND:
            return 0   # capacity exhausted; not this bench's regime
    return 1


def _experiment():
    report = ExperimentReport(
        exp_id="ablation-offers",
        title="Offer-based (Mesos) vs request-based (Fuxi) allocation latency")
    rows = []
    last_mesos = 0
    for tenants in (1, 2, 4, 6):
        mesos = mesos_rounds(tenants)
        fuxi = fuxi_rounds(tenants)
        last_mesos = mesos
        rows.append([tenants, mesos, fuxi])
    report.add_table(
        ["tenants", "mesos rounds to last allocation",
         "fuxi passes to last allocation"], rows)
    report.add_comparison("mesos rounds at 6 tenants", 1.0,
                          float(last_mesos), "rounds",
                          "grows with tenant count")
    report.add_comparison("fuxi passes at 6 tenants", 1.0,
                          float(fuxi_rounds(6)), "passes",
                          "independent of tenant count")
    return report


def test_ablation_offer_vs_request(benchmark, publish):
    report = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    publish(report)
    assert report.comparison("fuxi passes at 6 tenants").measured == 1.0
    assert report.comparison("mesos rounds at 6 tenants").measured > 1.0
