"""Unit tests for machines, topology, network, lock service and block store."""

import pytest

from repro.cluster.blockstore import BlockStore
from repro.cluster.lockservice import LockService
from repro.cluster.machine import MachineSpec, MachineState
from repro.cluster.network import MessageBus, NetworkConfig
from repro.cluster.topology import ClusterTopology
from repro.core.resources import ResourceVector
from repro.sim.actor import Actor
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom


# ------------------------------ machines ----------------------------- #

def test_testbed_spec_matches_paper():
    spec = MachineSpec.testbed("m1", "r1")
    assert spec.capacity.cpu == 1200          # 2 x 6 cores
    assert spec.capacity.memory == 96 * 1024  # 96 GB
    assert spec.disks == 12


def test_health_sample_reflects_faults():
    state = MachineState(spec=MachineSpec.testbed("m1", "r1"))
    state.disk_errors = 7.0
    state.load1 = 24.0
    sample = state.health_sample()
    assert sample["disk_errors"] == 7.0
    assert sample["load1"] == 24.0


def test_reset_faults():
    state = MachineState(spec=MachineSpec.testbed("m1", "r1"))
    state.down = True
    state.slow_factor = 3.0
    state.launch_failures = True
    state.reset_faults()
    assert not state.down
    assert state.slow_factor == 1.0
    assert not state.launch_failures


# ------------------------------ topology ----------------------------- #

def test_build_regular_topology():
    topology = ClusterTopology.build(3, 4)
    assert len(topology) == 12
    assert len(topology.racks()) == 3
    assert topology.rack_of("r01m002") == "rack01"
    assert topology.machines_in_rack("rack02") == [
        "r02m000", "r02m001", "r02m002", "r02m003"]


def test_custom_capacity():
    capacity = ResourceVector.of(cpu=100, memory=1000)
    topology = ClusterTopology.build(1, 2, capacity=capacity)
    assert topology.spec("r00m000").capacity == capacity
    assert topology.total_capacity() == capacity * 2


def test_duplicate_machine_rejected():
    topology = ClusterTopology("t")
    topology.add_machine(MachineSpec.testbed("m1", "r1"))
    with pytest.raises(ValueError):
        topology.add_machine(MachineSpec.testbed("m1", "r1"))


def test_machine_rack_map():
    topology = ClusterTopology.build(2, 1)
    assert topology.machine_rack_map() == {"r00m000": "rack00",
                                           "r01m000": "rack01"}


# ------------------------------ network ------------------------------ #

class Sink(Actor):
    def __init__(self, loop, name, bus):
        super().__init__(loop, name, bus)
        self.got = []

    def handle_message(self, sender, message):
        self.got.append(message)


def test_network_drop_probability():
    loop = EventLoop()
    bus = MessageBus(loop, SplitRandom(1), NetworkConfig(drop_prob=1.0))
    sink = Sink(loop, "sink", bus)
    src = Sink(loop, "src", bus)
    for i in range(10):
        src.send("sink", i)
    loop.run()
    assert sink.got == []
    assert bus.messages_dropped == 10


def test_network_duplication():
    loop = EventLoop()
    bus = MessageBus(loop, SplitRandom(1), NetworkConfig(duplicate_prob=1.0))
    sink = Sink(loop, "sink", bus)
    src = Sink(loop, "src", bus)
    src.send("sink", "x")
    loop.run()
    assert sink.got == ["x", "x"]
    assert bus.messages_duplicated == 1


def test_alias_routing():
    loop = EventLoop()
    bus = MessageBus(loop, SplitRandom(1), NetworkConfig())
    a = Sink(loop, "master-0", bus)
    b = Sink(loop, "master-1", bus)
    src = Sink(loop, "src", bus)
    bus.set_alias("master", "master-0")
    src.send("master", 1)
    loop.run()
    bus.set_alias("master", "master-1")
    src.send("master", 2)
    loop.run()
    assert a.got == [1]
    assert b.got == [2]


def test_unknown_destination_counted_as_dropped():
    loop = EventLoop()
    bus = MessageBus(loop, SplitRandom(1), NetworkConfig())
    src = Sink(loop, "src", bus)
    src.send("ghost", "boo")
    loop.run()
    assert bus.messages_dropped == 1


#: every pathology on at once, with probabilities that exercise each branch
LOSSY = dict(drop_prob=0.2, duplicate_prob=0.3, reorder_prob=0.4,
             jitter=0.002, reorder_jitter=0.01)


def test_edge_delays_ignore_traffic_on_other_edges():
    alone = MessageBus(EventLoop(), SplitRandom(5), NetworkConfig(**LOSSY))
    mixed = MessageBus(EventLoop(), SplitRandom(5), NetworkConfig(**LOSSY))
    expected = [alone.plan_delays("a", "b") for _ in range(200)]
    seen = []
    for n in range(200):
        for k in range(n % 4):
            mixed.plan_delays("a", f"other-{k}")
            mixed.plan_delays(f"other-{k}", "b")
            mixed.plan_delays("b", "a")
        seen.append(mixed.plan_delays("a", "b"))
    assert seen == expected
    # the lossy config really took every branch
    assert None in expected
    assert any(d is not None and len(d) == 2 for d in expected)


def test_different_edges_do_not_tie_on_delivery_time():
    loop = EventLoop()
    loop.run_until(123.456)
    bus = MessageBus(loop, SplitRandom(9),
                     NetworkConfig(jitter=0.0, reorder_prob=0.0))
    names = [f"agent:r{r:02d}m{m:03d}" for r in range(5) for m in range(40)]
    names += ["fuxi-master-0", "fuxi-master-1", "cluster-svc"]
    arrivals = {}
    for sender in names:
        for dest in ("fuxi-master-0", "fuxi-master-1", names[7]):
            if sender != dest:
                (delay,) = bus.plan_delays(sender, dest)
                arrivals[(sender, dest)] = loop.now + delay
    assert len(set(arrivals.values())) == len(arrivals)


@pytest.mark.parametrize("config", [NetworkConfig(),
                                    NetworkConfig(jitter=0.0)])
def test_inlined_send_matches_plan_delays(config):
    """The default-transport fast path in ``send`` consumes the edge's
    counter slot and jitter draw exactly as ``plan_delays`` does."""
    loop = EventLoop()
    bus = MessageBus(loop, SplitRandom(3), config)
    Sink(loop, "b", bus)
    Sink(loop, "c", bus)
    planner = MessageBus(EventLoop(), SplitRandom(3),
                         NetworkConfig(**vars(config)))
    arrivals = []
    bus._deliver = lambda sender, dest, message: arrivals.append(
        (loop.now, sender, dest, message))
    expected = []
    for n in range(50):
        dest = "b" if n % 3 else "c"
        bus.send("a", dest, n)
        (delay,) = planner.plan_delays("a", dest)
        expected.append((loop.now + delay, "a", dest, n))
        loop.run_until(loop.now + 0.0007)
    loop.run()
    assert sorted(arrivals) == sorted(expected)
    assert bus._edges[("a", "b")][2] == planner._edges[("a", "b")][2]
    assert bus._edges[("a", "c")][2] == planner._edges[("a", "c")][2]


# ------------------------------ lock service ------------------------- #

def test_lock_mutual_exclusion():
    loop = EventLoop()
    locks = LockService(loop, default_lease=10.0)
    assert locks.try_acquire("L", "a")
    assert not locks.try_acquire("L", "b")
    assert locks.holder("L") == "a"


def test_reacquire_renews_own_lock():
    loop = EventLoop()
    locks = LockService(loop, default_lease=10.0)
    assert locks.try_acquire("L", "a")
    assert locks.try_acquire("L", "a")


def test_lease_expires_without_renewal():
    loop = EventLoop()
    locks = LockService(loop, default_lease=5.0)
    locks.try_acquire("L", "a")
    loop.run_until(4.0)
    assert locks.holder("L") == "a"
    loop.run_until(6.0)
    assert locks.holder("L") is None


def test_renewal_extends_lease():
    loop = EventLoop()
    locks = LockService(loop, default_lease=5.0)
    locks.try_acquire("L", "a")
    loop.run_until(4.0)
    assert locks.renew("L", "a")
    loop.run_until(8.0)
    assert locks.holder("L") == "a"


def test_renew_fails_after_loss():
    loop = EventLoop()
    locks = LockService(loop, default_lease=2.0)
    locks.try_acquire("L", "a")
    loop.run_until(3.0)
    assert not locks.renew("L", "a")


def test_watch_fires_on_expiry():
    loop = EventLoop()
    locks = LockService(loop, default_lease=2.0)
    locks.try_acquire("L", "a")
    fired = []
    locks.watch("L", lambda: fired.append(loop.now))
    loop.run_until(5.0)
    assert fired and fired[0] >= 2.0


def test_watch_on_free_lock_fires_immediately():
    loop = EventLoop()
    locks = LockService(loop)
    fired = []
    locks.watch("L", lambda: fired.append(True))
    loop.run_until(0.1)
    assert fired == [True]


def test_release():
    loop = EventLoop()
    locks = LockService(loop)
    locks.try_acquire("L", "a")
    assert not locks.release("L", "b")
    assert locks.release("L", "a")
    assert locks.try_acquire("L", "b")


# ------------------------------ block store -------------------------- #

def make_store(replication=3):
    topology = ClusterTopology.build(2, 3)
    return BlockStore(topology.machines(), topology.machine_rack_map(),
                      replication=replication, block_size_mb=100.0,
                      rng=SplitRandom(5))


def test_file_split_into_blocks():
    store = make_store()
    blocks = store.create_file("/data/in", 250.0)
    assert [b.size_mb for b in blocks] == [100.0, 100.0, 50.0]
    assert store.file_size_mb("/data/in") == 250.0


def test_replication_and_rack_diversity():
    store = make_store()
    store.create_file("/f", 1000.0)
    for block in store.blocks("/f"):
        assert len(block.replicas) == 3
        assert len(set(block.replicas)) == 3
        racks = {store._rack_of[r] for r in block.replicas}
        assert len(racks) >= 2     # second replica off-rack


def test_duplicate_file_rejected():
    store = make_store()
    store.create_file("/f", 10.0)
    with pytest.raises(ValueError):
        store.create_file("/f", 10.0)


def test_missing_file_raises():
    with pytest.raises(FileNotFoundError):
        make_store().blocks("/ghost")


def test_locality_hints_count_blocks():
    store = make_store()
    store.create_file("/f", 500.0)
    machine_hints, rack_hints = store.locality_hints("/f")
    assert sum(machine_hints.values()) == 5
    assert sum(rack_hints.values()) == 5


def test_drop_machine_removes_replicas():
    store = make_store()
    store.create_file("/f", 1000.0)
    victim = store.blocks("/f")[0].replicas[0]
    store.drop_machine(victim)
    for block in store.blocks("/f"):
        if len(block.replicas) == 3:
            assert victim not in block.replicas


def test_invalid_file_size():
    with pytest.raises(ValueError):
        make_store().create_file("/f", 0.0)
