"""Sharded execution of one simulation across many event-loop domains.

``repro.shard`` partitions a :class:`~repro._runtime.FuxiCluster` by
*machine*: each shard domain owns a contiguous slice of the sorted machine
list — the agents, worker processes, timers and health state of those
machines — and advances them on its own event loop, optionally in a
separate OS process.  The master pair, scheduler, application masters and
block store stay in the coordinator.

Synchronisation is conservative: the minimum cross-domain message delay is
the network's base ``latency``, so with a window width of ``latency / 2``
any message *sent* during window ``k`` *arrives* strictly after barrier
``k+1``.  The coordinator can therefore run its own window concurrently
with the shards and still ship every boundary message a full window before
its arrival time.  Boundary messages are injected in deterministic
``(arrival, origin, seq)`` order, and the per-edge counter-keyed transport
randomness (:mod:`repro.cluster.network`) guarantees the delays themselves
match the serial engine draw-for-draw — which is what makes a ``--shards
N`` run reproduce the serial grant stream, summary digests and trace
export byte-for-byte.
"""

from repro.shard.coordinator import ShardedCluster
from repro.shard.domain import DomainSpec, ShardDomain
from repro.shard.hosts import InlineShardHost, ProcessShardHost

__all__ = ["ShardedCluster", "ShardDomain", "DomainSpec",
           "InlineShardHost", "ProcessShardHost"]
