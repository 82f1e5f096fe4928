"""Flight recorder: a bounded ring of recent events and state markers.

When a chaos invariant trips or ``api.simulate`` crashes, the question is
always "what were the last few hundred things the cluster did?".  The
tracer answers it only when tracing was on and only with span-level
granularity; the flight recorder answers it always, cheaply: an untimed
every-event loop hook appends a compact deterministic label of each
executed callback to a fixed-size ring, and :meth:`FlightRecorder.dump`
writes the ring as JSONL (header record with context, then one entry per
line) the moment something goes wrong.

Entry labels are deterministic by construction — no ``repr()`` of
arbitrary objects (which would leak memory addresses), no wall-clock
stamps — so a dump from a fixed seed is byte-identical run to run and a
dump's event tail can be diffed against a replay's.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.obs.export import PathOrFile, dump_jsonl, load_jsonl
from repro.obs.live import unwrap_callback
from repro.sim.events import Event, EventLoop

SCHEMA = 1

#: default ring size: long enough to span several heartbeat rounds at
#: paper scale, small enough that the ring costs a few hundred KB
DEFAULT_CAPACITY = 512


def _label_arg(arg: object) -> str:
    """A deterministic short label for one callback argument."""
    if isinstance(arg, (str, int, float, bool)) or arg is None:
        return str(arg)
    name = getattr(arg, "name", None)
    if isinstance(name, str):
        return name
    return f"<{type(arg).__name__}>"


def _label_callback(callback) -> str:
    callback = unwrap_callback(callback)
    module = getattr(callback, "__module__", None) or "?"
    qualname = (getattr(callback, "__qualname__", None)
                or getattr(callback, "__name__", None)
                or type(callback).__name__)
    return f"{module}.{qualname}"


class FlightRecorder:
    """Record the last ``capacity`` executed events into a ring.

    Attach with :meth:`attach`; the hook runs *untimed* (``timed=False``)
    and unsampled (``sample_every=1``) so every event lands in the ring
    without paying the ``perf_counter`` pair — the overhead benchmark
    gates the cost.  :meth:`record` adds manual markers (fault injections,
    invariant probes) into the same timeline.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self.recorded = 0
        self._handle = None

    # ----------------------------- capture ---------------------------- #

    def attach(self, loop: EventLoop) -> "FlightRecorder":
        if self._handle is None:
            self._handle = loop.add_hook(self._on_event, sample_every=1,
                                         timed=False)
        return self

    def detach(self, loop: EventLoop) -> None:
        if self._handle is not None:
            loop.remove_hook(self._handle)
            self._handle = None

    @property
    def attached(self) -> bool:
        return self._handle is not None

    def _on_event(self, loop: EventLoop, event: Event, _wall: float) -> None:
        self.recorded += 1
        self._ring.append({
            "t": event.time,
            "seq": event.seq,
            "fn": _label_callback(event.callback),
            "args": [_label_arg(a) for a in event.args],
        })

    def record(self, marker: str, **fields) -> None:
        """Insert a manual marker (e.g. ``fault``, ``violation``) into the ring."""
        self.recorded += 1
        entry = {"marker": marker}
        entry.update(fields)
        self._ring.append(entry)

    def entries(self) -> List[dict]:
        """Buffered entries, oldest first (copies)."""
        return [dict(entry) for entry in self._ring]

    def __len__(self) -> int:
        return len(self._ring)

    # ----------------------------- dump/load -------------------------- #

    def dump(self, target: PathOrFile,
             context: Optional[dict] = None) -> int:
        """Write header + ring as JSONL; returns the entry count.

        The header carries ``context`` — seed, fault schedule, violation
        message — everything a replay needs to reproduce the failure
        (``repro.chaos.run_with_schedule(seed, plan, config)``).
        """
        header = {
            "kind": "flight",
            "schema": SCHEMA,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "entries": len(self._ring),
            "context": dict(context or {}),
        }
        dump_jsonl(target, [header, *self._ring])
        return len(self._ring)

    @staticmethod
    def load(source: PathOrFile) -> dict:
        """Parse a dump back into ``{"context": ..., "entries": [...], ...}``."""
        records = load_jsonl(source)
        if not records:
            raise ValueError("empty flight dump")
        header = records[0]
        if header.get("kind") != "flight":
            raise ValueError("not a flight-recorder dump (missing header)")
        header["entries"] = records[1:]
        return header

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FlightRecorder entries={len(self._ring)} "
                f"recorded={self.recorded}>")
