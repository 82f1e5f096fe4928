"""Shard execution backends: same-process (inline) and forked workers.

Both backends expose the same three-call window protocol the coordinator
drives:

- ``go(barrier, inboxes)``  — open window ``k``: hand every shard its
  boundary messages and the barrier time.  With the process backend the
  shards start computing immediately, concurrently with the coordinator's
  own window.
- ``collect()``             — block until every shard reports DONE for the
  open window; returns per-shard ``(outbox, util_rows, events_executed)``.
- ``finalize()``            — end of run: per-shard ``(trace_records,
  events_executed)``; the process backend also joins its workers.

The inline host runs each shard's window lazily inside ``collect()`` —
sequentially, in shard order — and produces *bit-identical* results to the
process host, because domains are fully independent between barriers.  It
is the debuggable reference backend (and the only one with cross-domain
stack traces); the process host is the one that actually buys wall-clock
parallelism.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Optional

from repro.shard import ring as ring_mod
from repro.shard.domain import DomainSpec, ShardDomain, shard_worker_main


class ShardHostError(RuntimeError):
    """A shard worker failed; carries the remote traceback when available."""


class InlineShardHost:
    """All domains in the coordinator process; windows run at collect()."""

    parallel = False
    name = "inline"

    def __init__(self, specs: List[DomainSpec]):
        self.domains = [ShardDomain(spec) for spec in specs]
        self._pending: Optional[tuple] = None

    def go(self, barrier: float, inboxes: List[list]) -> None:
        self._pending = (barrier, inboxes)

    def collect(self) -> List[tuple]:
        barrier, inboxes = self._pending
        self._pending = None
        return [domain.advance(barrier, inbox)
                for domain, inbox in zip(self.domains, inboxes)]

    def finalize(self) -> List[tuple]:
        return [domain.final() for domain in self.domains]


class ProcessShardHost:
    """One forked worker per shard; window payloads ride shared memory.

    ``fork`` is required (and asserted): the DomainSpec — which embeds the
    topology — travels by address-space inheritance.  Each worker link gets
    a pair of framed shm rings (:mod:`repro.shard.ring`), created before
    the fork so both sides share the mapping.  Envelope batches are pickled
    **once** per window into a ring frame; the pipes carry only small
    ``(offset, length)`` control tuples, which removes the per-window
    chunked-pipe copy of the payload.  A frame that does not fit falls back
    to sending the raw bytes through the pipe, so sizing is a performance
    knob, never a correctness one.
    """

    parallel = True
    name = "process"

    def __init__(self, specs: List[DomainSpec],
                 ring_capacity: int = ring_mod.DEFAULT_CAPACITY):
        ctx = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        self._rings_in = []    # coordinator -> worker payloads (we produce)
        self._rings_out = []   # worker -> coordinator payloads (peer produces)
        self._pending_in: List[Optional[tuple]] = []
        for spec in specs:
            try:
                ring_in = ring_mod.ShmRing(capacity=ring_capacity)
                ring_out = ring_mod.ShmRing(capacity=ring_capacity)
            except OSError:  # pragma: no cover - no /dev/shm on this host
                ring_in = ring_out = None
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=shard_worker_main,
                               args=(child, spec, ring_in, ring_out),
                               daemon=True)
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
            self._rings_in.append(ring_in)
            self._rings_out.append(ring_out)
            self._pending_in.append(None)

    def go(self, barrier: float, inboxes: List[list]) -> None:
        for i, (conn, inbox) in enumerate(zip(self._conns, inboxes)):
            ring = self._rings_in[i]
            frame = None
            if ring is not None:
                frame = ring.try_write(ring_mod.dumps_frame(inbox))
            if frame is None:
                conn.send(("go", barrier, ("raw", inbox)))
            else:
                conn.send(("go", barrier, frame))
                self._pending_in[i] = frame

    def collect(self) -> List[tuple]:
        out = []
        for i, conn in enumerate(self._conns):
            frame, events = self._recv(conn, "done")
            out.append(self._read_frame(i, frame) + (events,))
            # the worker replied, so it is done with this window's inbox
            # frame: release those ring bytes for the next window
            pending = self._pending_in[i]
            if pending is not None:
                self._rings_in[i].consume(*pending)
                self._pending_in[i] = None
        return out

    def finalize(self) -> List[tuple]:
        reports = []
        for i, conn in enumerate(self._conns):
            try:
                conn.send(("final",))
                frame, events = self._recv(conn, "final")
                reports.append(self._read_frame(i, frame) + (events,))
                conn.send(("stop",))
            except (OSError, EOFError, ShardHostError):
                reports.append(([], 0))
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        for ring in self._rings_in + self._rings_out:
            if ring is not None:
                ring.close()
        return reports

    def _read_frame(self, i: int, frame) -> tuple:
        """Decode a worker reply payload: a ring frame or raw fallback."""
        if frame[0] == "raw":
            return frame[1]
        return ring_mod.loads_frame(self._rings_out[i].read(*frame))

    def _recv(self, conn, expect: str) -> tuple:
        try:
            reply = conn.recv()
        except EOFError as exc:
            raise ShardHostError("shard worker died mid-window") from exc
        if reply[0] == "error":
            raise ShardHostError(f"shard worker failed:\n{reply[1]}")
        if reply[0] != expect:
            raise ShardHostError(f"protocol error: expected {expect!r}, "
                                 f"got {reply[0]!r}")
        return reply[1:]


def make_host(backend: str, specs: List[DomainSpec]):
    """Build the requested backend; ``auto`` forks when the host has >1 CPU
    and ``fork`` is available (otherwise the inline reference backend)."""
    if backend == "auto":
        can_fork = "fork" in multiprocessing.get_all_start_methods()
        backend = ("process" if can_fork
                   and (multiprocessing.cpu_count() or 1) > 1 else "inline")
    if backend == "process":
        return ProcessShardHost(specs)
    if backend == "inline":
        return InlineShardHost(specs)
    raise ValueError(f"unknown shard backend {backend!r}")
