"""The metrics registry is the single collector: the master's counters,
series and histograms all land in one ``MetricsRegistry``."""

from repro.cluster.lockservice import LockService
from repro.cluster.network import MessageBus, NetworkConfig
from repro.core.checkpoint import CheckpointStore
from repro.core.master import FuxiMaster
from repro.obs.metrics import MetricsRegistry
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom


def test_registry_is_a_collector():
    loop = EventLoop()
    bus = MessageBus(loop, SplitRandom(0), NetworkConfig())
    master = FuxiMaster(loop, bus, "fuxi-master-0", LockService(loop),
                        CheckpointStore())
    registry = master.metrics
    assert isinstance(registry, MetricsRegistry)
    registry.increment("a")
    registry.record("s", 1.0, 2.0)
    registry.histogram("lat").record(5.0)
    assert registry.counter("a") == 1.0
    assert registry.series("s").values() == [2.0]
    assert registry.histogram("lat").count == 1
