"""Simulated datacenter substrate.

Stands in for the physical testbed of the paper's evaluation: machines with
multi-dimensional capacities arranged in racks, a message transport with
latency and (optional) duplication/reordering, a lease-based lock service
(the Apsara lock stand-in used for FuxiMaster hot-standby election), a block
placement map (the Pangu stand-in that yields locality hints) and a fault
injector implementing the four §5.4 scenarios.  Metrics live in
:mod:`repro.obs.metrics`.
"""

from repro.cluster.machine import MachineSpec, MachineState
from repro.cluster.topology import ClusterTopology
from repro.cluster.network import MessageBus, NetworkConfig
from repro.cluster.lockservice import LockService
from repro.cluster.blockstore import BlockStore
from repro.cluster.faults import FaultInjector, FaultPlan

__all__ = [
    "MachineSpec",
    "MachineState",
    "ClusterTopology",
    "MessageBus",
    "NetworkConfig",
    "LockService",
    "BlockStore",
    "FaultInjector",
    "FaultPlan",
]
