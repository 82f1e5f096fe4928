"""Shared experiment reporting: paper-vs-measured comparisons."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.metrics import format_table


@dataclass
class Comparison:
    """One quantity the paper reports next to what we measured.

    ``paper`` values come from a 5,000-node production testbed and ours from
    a scaled-down simulator, so for most rows the meaningful check is the
    *shape* (``direction``: e.g. "sub-millisecond", "≈95 %", "ratio ≈1.66"),
    not the absolute number.
    """

    name: str
    paper: float
    measured: float
    unit: str = ""
    direction: str = ""

    @property
    def ratio(self) -> float:
        if self.paper == 0:
            return float("inf") if self.measured else 1.0
        return self.measured / self.paper

    def row(self) -> List[str]:
        return [
            self.name,
            _fmt(self.paper), _fmt(self.measured), self.unit,
            f"{self.ratio:.2f}x" if self.paper else "-",
            self.direction,
        ]


@dataclass
class ExperimentReport:
    """Everything one experiment produced."""

    exp_id: str
    title: str
    comparisons: List[Comparison] = field(default_factory=list)
    tables: List[str] = field(default_factory=list)
    series: Dict[str, List] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: tracer of the run that produced the report (None when tracing off);
    #: consumers export it with :meth:`write_trace`
    tracer: Optional[Any] = None

    def add_comparison(self, name: str, paper: float, measured: float,
                       unit: str = "", direction: str = "") -> None:
        self.comparisons.append(Comparison(name, paper, measured, unit,
                                           direction))

    def add_table(self, headers: Sequence[str], rows: Sequence[Sequence],
                  title: Optional[str] = None) -> None:
        self.tables.append(format_table(headers, rows, title))

    def comparison(self, name: str) -> Comparison:
        for comparison in self.comparisons:
            if comparison.name == name:
                return comparison
        raise KeyError(f"no comparison named {name!r} in {self.exp_id}")

    def __getstate__(self) -> Dict[str, Any]:
        # The tracer holds the live event loop's clock closure, which
        # cannot cross a process boundary.  Reports travel through the
        # repro.parallel worker pool, so pickling detaches it; traces are
        # exported in the worker via write_trace before the report ships.
        state = dict(self.__dict__)
        state["tracer"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)

    def write_trace(self, path) -> bool:
        """Export the run's trace as JSONL next to the results.

        Returns False (writing nothing) when the run had tracing off.
        """
        if self.tracer is None or not getattr(self.tracer, "enabled", False):
            return False
        from repro.obs.export import dump_trace_jsonl
        dump_trace_jsonl(self.tracer, path)
        return True

    def render(self) -> str:
        parts = [f"== {self.exp_id}: {self.title} =="]
        if self.comparisons:
            parts.append(format_table(
                ["metric", "paper", "measured", "unit", "ratio", "shape"],
                [c.row() for c in self.comparisons]))
        parts.extend(self.tables)
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n\n".join(parts)


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    if abs(value) >= 100:
        return f"{value:,.1f}"
    return f"{value:.3f}".rstrip("0").rstrip(".")
