"""Simulated message transport between actors.

Delivers messages with configurable latency and, when enabled, probabilistic
duplication and reordering — the two transport pathologies the incremental
protocol (paper §3.1) must survive: "we must ensure the idempotency of the
handling of duplicated delta messages, which could happen as a result of
temporary communication failure."

Messages to crashed actors (or to unknown addresses — e.g. an agent on a
machine that was powered off) are silently dropped, exactly like the real
failures look to peers.  Aliases support logical addressing: everyone sends
to ``"fuxi-master"`` and the elected primary points the alias at itself.

Randomness is **edge-keyed**: every (sender, dest) pair owns an independent
counter-indexed hash stream, so the drop/jitter/duplicate draws of the n-th
message on an edge are a pure function of ``(seed, sender, dest, n)`` — not
of how sends on *other* edges interleave with it.  A change that adds,
removes or reorders traffic on one edge therefore leaves every other edge's
delays alone: a replayed fault schedule and a fuzz-shrunk one (fewer faults,
so different traffic) keep the timing of the edges they do not touch.

Each edge additionally adds a fixed sub-microsecond epsilon (derived from
the edge key, bounded by ``~1e-6`` simulated seconds) to every delivery
delay.  Two messages sent at the same instant on *different* edges
therefore arrive at the same float timestamp only if their edge keys share
the low 22 bits, so their delivery order almost never falls back to the
heap's global insertion sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.actor import Actor
from repro.sim.events import EventLoop
from repro.sim.rng import SplitRandom

_M64 = (1 << 64) - 1

#: 2**-53: maps the top 53 bits of a 64-bit hash onto [0, 1)
_TO_UNIT = 1.0 / (1 << 53)

#: per-edge delay epsilon quantum; max epsilon = 0x3FFFFF * 2**-42 ~ 1e-6 s.
#: The quantum stays well above the float ulp at sim times of a few hundred
#: seconds (ulp(512) = 2**-44), so distinct epsilons survive the addition
#: onto the send timestamp instead of collapsing to the same float.
_EPS_QUANTUM = 2.0 ** -42


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a strong, cheap 64-bit bijective hash."""
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _M64
    return x ^ (x >> 31)


@dataclass
class NetworkConfig:
    """Transport behaviour knobs.

    Attributes:
        latency: base one-way delivery latency in seconds.
        jitter: extra uniform random latency in [0, jitter].
        duplicate_prob: probability a message is delivered twice.
        reorder_jitter: extra random latency occasionally applied to model
            reordering (applied with probability ``reorder_prob``).
        drop_prob: probability a message is silently lost.
    """

    latency: float = 0.001
    jitter: float = 0.0005
    duplicate_prob: float = 0.0
    reorder_prob: float = 0.0
    reorder_jitter: float = 0.01
    drop_prob: float = 0.0


class MessageBus:
    """Registry of actors plus the delivery machinery."""

    def __init__(self, loop: EventLoop, rng: Optional[SplitRandom] = None,
                 config: Optional[NetworkConfig] = None):
        self.loop = loop
        self.config = config or NetworkConfig()
        self._net_seed = (rng or SplitRandom(0)).child_seed("network")
        # (sender, dest) -> [edge_key, epsilon, next_message_index]
        self._edges: Dict[Tuple[str, str], list] = {}
        self._name_hashes: Dict[str, int] = {}
        self._actors: Dict[str, Actor] = {}
        self._aliases: Dict[str, str] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0

    # --------------------------------------------------------------- #
    # registry
    # --------------------------------------------------------------- #

    def register(self, actor: Actor) -> None:
        self._actors[actor.name] = actor

    def unregister(self, name: str) -> None:
        self._actors.pop(name, None)

    def set_alias(self, alias: str, target: str) -> None:
        self._aliases[alias] = target

    def resolve(self, name: str) -> str:
        return self._aliases.get(name, name)

    def actor(self, name: str) -> Optional[Actor]:
        return self._actors.get(self.resolve(name))

    # --------------------------------------------------------------- #
    # edge-keyed randomness
    # --------------------------------------------------------------- #

    def _edge(self, sender: str, dest: str) -> list:
        state = self._edges.get((sender, dest))
        if state is None:
            key = _mix64(self._net_seed
                         ^ _mix64(self._name_hash(sender)
                                  ^ _mix64(self._name_hash(dest))))
            state = [key, ((key & 0x3FFFFF) + 1) * _EPS_QUANTUM, 0]
            self._edges[(sender, dest)] = state
        return state

    def _name_hash(self, name: str) -> int:
        """:func:`hash_str` of an address, memoised: every agent opens
        edges to both masters, so each name is hashed once, not per edge."""
        value = self._name_hashes.get(name)
        if value is None:
            value = self._name_hashes[name] = hash_str(name)
        return value

    def plan_delays(self, sender: str, dest: str) -> Optional[List[float]]:
        """Delivery delays for the next message on this edge.

        Returns ``None`` when the message is dropped, otherwise one delay
        per delivery (two entries when the transport duplicates).  Consumes
        exactly one edge-counter slot; the result is a pure function of
        ``(seed, sender, dest, message_index, config)``.
        """
        state = self._edge(sender, dest)
        key, epsilon, index = state
        state[2] = index + 1
        base = key ^ (index << 3)
        config = self.config
        if config.drop_prob and _draw(base, 0) < config.drop_prob:
            return None
        delays = [self._one_delay(config, base, epsilon, 2)]
        if config.duplicate_prob and _draw(base, 1) < config.duplicate_prob:
            delays.append(self._one_delay(config, base, epsilon, 5))
        return delays

    def _one_delay(self, config: NetworkConfig, base: int, epsilon: float,
                   slot: int) -> float:
        delay = config.latency + epsilon
        if config.jitter:
            delay += _draw(base, slot) * config.jitter
        if (config.reorder_prob
                and _draw(base, slot + 1) < config.reorder_prob):
            delay += _draw(base, slot + 2) * config.reorder_jitter
        return delay

    # --------------------------------------------------------------- #
    # delivery
    # --------------------------------------------------------------- #

    def send(self, sender: str, dest: str, message: Any) -> None:
        config = self.config
        if config.drop_prob or config.duplicate_prob or config.reorder_prob:
            self._send_planned(sender, dest, message)
            return
        # Default transport, inlined: plan_delays' single delay with the
        # same per-edge counter slot and the same jitter draw.
        self.messages_sent += 1
        state = self._edges.get((sender, dest))
        if state is None:
            state = self._edge(sender, dest)
        index = state[2]
        state[2] = index + 1
        delay = config.latency + state[1]
        if config.jitter:
            delay += ((_mix64(state[0] ^ (index << 3) ^ 2) >> 11) * _TO_UNIT
                      * config.jitter)
        loop = self.loop
        loop.post(loop.now + delay, self._deliver, sender, dest, message)

    def _send_planned(self, sender: str, dest: str, message: Any) -> None:
        """The general send: drops, duplicates and reordering via
        :meth:`plan_delays`."""
        self.messages_sent += 1
        delays = self.plan_delays(sender, dest)
        if delays is None:
            self.messages_dropped += 1
            return
        if len(delays) > 1:
            self.messages_duplicated += 1
        loop = self.loop
        for delay in delays:
            loop.post(loop.now + delay, self._deliver, sender, dest, message)

    def _deliver(self, sender: str, dest: str, message: Any) -> None:
        actor = self._actors.get(self._aliases.get(dest, dest))
        if actor is None or not actor.alive:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        actor.deliver(sender, message)


def _draw(base: int, slot: int) -> float:
    """The slot-th uniform [0,1) draw of one message's randomness."""
    return (_mix64(base ^ slot) >> 11) * _TO_UNIT


def hash_str(text: str) -> int:
    """Process-stable 64-bit hash of a string (``hash()`` is salted)."""
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc = (acc ^ byte) * 0x100000001B3 & _M64
    return acc
