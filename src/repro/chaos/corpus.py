"""The fuzzer's persistent corpus: deduplicated replay recipes, as JSONL.

A corpus file follows the flight-recorder dump shape — one header record
carrying context, then one JSON record per line — except every line is a
complete *replay recipe*: seed, fault-schedule spec, the chaos config it
ran under, the recorded verdict (violated invariant or clean + coverage
feature set) and the pasteable ``repro.chaos.shrink.repro_command`` line.

Two entry kinds, two dedup keys:

- ``violation`` — a run that tripped an invariant, ddmin-shrunk; the id is
  :func:`repro.chaos.shrink.plan_signature` over ``(invariant,
  shrunk-plan spec)``, so rediscoveries of the same bug collapse into one
  entry (``hits`` counts them);
- ``coverage`` — a clean run whose schedule reached a novel set of
  coverage features (a corpus *parent* for future mutation); the id is
  :func:`repro.chaos.coverage.features_digest` of the feature set.

:meth:`Corpus.save` rewrites the file in discovery order, which is
deterministic for a fixed master seed — the acceptance tests compare
corpus bytes across runs and across ``--jobs`` values.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.export import dump_jsonl

SCHEMA = 1
KIND = "chaos-corpus"

VIOLATION = "violation"
COVERAGE = "coverage"


class CorpusError(ValueError):
    """A corpus file could not be parsed."""


@dataclass
class CorpusEntry:
    """One replay recipe: everything needed to re-run and re-judge it."""

    id: str
    entry: str                      # VIOLATION or COVERAGE
    seed: int
    schedule: str                   # FaultPlan spec string
    config: Dict[str, object]       # ChaosConfig.to_dict()
    invariant: Optional[str] = None
    detail: Optional[str] = None
    sim_time: float = 0.0
    coverage: List[str] = field(default_factory=list)
    hits: int = 1
    inject: str = ""                # seeded-bug name the run was found under
    repro: str = ""

    def to_dict(self) -> dict:
        return {
            "id": self.id, "entry": self.entry, "seed": self.seed,
            "schedule": self.schedule, "config": dict(self.config),
            "invariant": self.invariant, "detail": self.detail,
            "sim_time": round(self.sim_time, 6),
            "coverage": list(self.coverage), "hits": self.hits,
            "inject": self.inject, "repro": self.repro,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusEntry":
        try:
            return cls(id=str(data["id"]), entry=str(data["entry"]),
                       seed=int(data["seed"]), schedule=str(data["schedule"]),
                       config=dict(data.get("config") or {}),
                       invariant=data.get("invariant"),
                       detail=data.get("detail"),
                       sim_time=float(data.get("sim_time", 0.0)),
                       coverage=list(data.get("coverage") or []),
                       hits=int(data.get("hits", 1)),
                       inject=str(data.get("inject", "")),
                       repro=str(data.get("repro", "")))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"bad corpus entry: {exc}") from exc


class Corpus:
    """An ordered, deduplicated set of :class:`CorpusEntry`.

    ``path`` may be None for a purely in-memory corpus (the fuzzer still
    dedups and tracks parents; nothing is persisted).
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._entries: Dict[str, CorpusEntry] = {}

    # ------------------------------------------------------------------ #
    # content
    # ------------------------------------------------------------------ #

    def add(self, entry: CorpusEntry) -> bool:
        """Insert; returns False (and bumps ``hits``) on a duplicate id."""
        existing = self._entries.get(entry.id)
        if existing is not None:
            existing.hits += 1
            return False
        self._entries[entry.id] = entry
        return True

    def get(self, ref: str) -> CorpusEntry:
        """Look an entry up by exact id, unique id prefix, or index.

        ``ref`` may be the full 16-hex id, an unambiguous prefix, or a
        decimal index into discovery order (``0`` = first entry).
        """
        if ref in self._entries:
            return self._entries[ref]
        matches = [e for key, e in self._entries.items()
                   if key.startswith(ref)]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise KeyError(f"corpus ref {ref!r} is ambiguous "
                           f"({len(matches)} matches)")
        if ref.isdigit():
            entries = self.entries()
            index = int(ref)
            if 0 <= index < len(entries):
                return entries[index]
        raise KeyError(f"no corpus entry {ref!r} "
                       f"({len(self._entries)} entries)")

    def entries(self) -> List[CorpusEntry]:
        """All entries in discovery (insertion) order."""
        return list(self._entries.values())

    def violations(self) -> List[CorpusEntry]:
        return [e for e in self.entries() if e.entry == VIOLATION]

    def coverage_entries(self) -> List[CorpusEntry]:
        return [e for e in self.entries() if e.entry == COVERAGE]

    def known_features(self) -> set:
        """Union of every entry's recorded coverage feature set."""
        seen: set = set()
        for entry in self._entries.values():
            seen.update(entry.coverage)
        return seen

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, entry_id: str) -> bool:
        return entry_id in self._entries

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def save(self, context: Optional[dict] = None) -> Optional[str]:
        """Rewrite the corpus file (header + entries); returns the path."""
        if self.path is None:
            return None
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        header = {
            "kind": KIND, "schema": SCHEMA, "entries": len(self._entries),
            "context": dict(context or {}),
        }
        dump_jsonl(self.path, [header, *(entry.to_dict()
                                         for entry in self._entries.values())])
        return self.path

    @classmethod
    def load(cls, path: str) -> "Corpus":
        """Parse a corpus file; raises :class:`CorpusError` on junk."""
        corpus = cls(path)
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines()
                     if line.strip()]
        if not lines:
            return corpus
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise CorpusError(f"bad corpus header in {path!r}: {exc}") from exc
        if header.get("kind") != KIND:
            raise CorpusError(f"{path!r} is not a chaos corpus "
                              f"(header kind {header.get('kind')!r})")
        for line in lines[1:]:
            try:
                entry = CorpusEntry.from_dict(json.loads(line))
            except json.JSONDecodeError as exc:
                raise CorpusError(f"bad corpus line in {path!r}: {exc}") from exc
            corpus._entries[entry.id] = entry
        return corpus

    @classmethod
    def open(cls, path: Optional[str]) -> "Corpus":
        """Load ``path`` when it exists, else a fresh (possibly in-memory)
        corpus bound to it — the resume entry point."""
        if path is not None and os.path.exists(path):
            return cls.load(path)
        return cls(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Corpus entries={len(self._entries)} "
                f"violations={len(self.violations())} path={self.path!r}>")
