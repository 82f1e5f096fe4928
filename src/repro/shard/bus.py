"""Domain-aware message bus: local deliveries stay on the heap, remote
sends become boundary envelopes.

A :class:`DomainBus` is a :class:`~repro.cluster.network.MessageBus` whose
routing step classifies the destination.  Local destinations follow the
normal path — a delivery event on this domain's loop, with the delay the
per-edge hash stream produced.  Remote destinations append an *envelope*
to the outbox instead; the coordinator collects outboxes at every window
barrier and re-injects each envelope on the owning domain at its exact
arrival time, so the receiving heap sees the identical delivery event the
serial engine would have scheduled.

Envelopes are plain tuples ``(arrival, sender, dest, payload, seq)`` —
cheap to pickle across the shard process boundary.  ``seq`` is the
domain-local send order, the tiebreaker for the (rare, epsilon-guarded)
case of two envelopes carrying the same arrival timestamp.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from repro.cluster.network import MessageBus

#: (arrival_time, sender, dest, payload, send_seq)
Envelope = Tuple[float, str, str, Any, int]


class DomainBus(MessageBus):
    """MessageBus that exports non-local deliveries as boundary envelopes."""

    #: every send is routed, so remote deliveries can leave as envelopes
    send = MessageBus._send_planned

    def __init__(self, loop, rng, config,
                 is_local: Callable[[str], bool]):
        super().__init__(loop, rng, config)
        self._is_local = is_local
        self.outbox: List[Envelope] = []
        self._out_seq = 0

    def _route(self, sender: str, dest: str, message: Any,
               delay: float) -> None:
        if self._is_local(dest):
            MessageBus._route(self, sender, dest, message, delay)
        else:
            self._out_seq += 1
            self.outbox.append((self.loop.now + delay, sender, dest,
                                message, self._out_seq))

    def take_outbox(self) -> List[Envelope]:
        out, self.outbox = self.outbox, []
        return out

    # ------------------------------------------------------------------ #
    # barrier-time injection
    # ------------------------------------------------------------------ #

    def inject(self, arrival: float, sender: str, dest: str,
               payload: Any) -> None:
        """Schedule one boundary delivery at its exact arrival time.

        This is the counted twin of the delivery event the serial engine
        created at send time: one injected envelope == one executed event,
        which keeps ``events_executed`` parity between the two engines.
        """
        self.loop.post(arrival, self._deliver, sender, dest, payload)

    def inject_probe(self, arrival: float, sender: str, dest: str,
                     payload: Any) -> None:
        """Deliver-if-present fallback for destinations of unknown domain.

        Used only for ``worker:`` addresses the coordinator has never seen
        send (so their home shard is unknown): every shard gets a *phantom*
        probe that delivers only when the actor actually lives here.
        Phantoms stay outside event accounting, so the broadcast does not
        disturb the count parity the real injection path maintains.
        """
        self.loop.call_at(arrival, self._probe, sender, dest, payload,
                          phantom=True)

    def _probe(self, sender: str, dest: str, payload: Any) -> None:
        actor = self._actors.get(self.resolve(dest))
        if actor is not None and actor.alive:
            self.messages_delivered += 1
            actor.deliver(sender, payload)
