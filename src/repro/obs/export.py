"""Deterministic exporters: the JSONL codec, traces and Prometheus text.

Every JSONL artifact the simulator writes — obs traces, violation traces,
timeseries feeds, flight dumps and the chaos corpus — goes through
:func:`dump_jsonl`: records in the given order, JSON keys sorted, compact
separators.  Every number is either a simulated timestamp or a count, so
running the same seeded simulation twice yields byte-identical exports —
the integration tests assert exactly that.
"""

from __future__ import annotations

import json
import re
from typing import IO, Iterable, List, Union

from repro.obs.metrics import MetricsRegistry

PathOrFile = Union[str, "IO[str]"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


# --------------------------------------------------------------------- #
# the JSONL codec
# --------------------------------------------------------------------- #

def dumps_jsonl(records: Iterable[dict]) -> str:
    """Records as JSONL text: one line each, sorted keys, compact."""
    lines = [json.dumps(record, sort_keys=True, separators=(",", ":"))
             for record in records]
    return "\n".join(lines) + ("\n" if lines else "")


def dump_jsonl(target: PathOrFile, records: Iterable[dict]) -> int:
    """Write records to a path or file object; returns the line count."""
    text = dumps_jsonl(records)
    if hasattr(target, "write"):
        target.write(text)  # type: ignore[union-attr]
    else:
        with open(target, "w", encoding="utf-8") as handle:  # type: ignore[arg-type]
            handle.write(text)
    return text.count("\n")


def load_jsonl(source: PathOrFile) -> List[dict]:
    """Read JSONL from a path or file object; blank lines are skipped."""
    if hasattr(source, "read"):
        text = source.read()  # type: ignore[union-attr]
    else:
        with open(source, "r", encoding="utf-8") as handle:  # type: ignore[arg-type]
            text = handle.read()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


# --------------------------------------------------------------------- #
# traces
# --------------------------------------------------------------------- #

def dumps_trace(tracer) -> str:
    """The whole trace as JSONL text, spans and events in id order."""
    return dumps_jsonl(tracer.records())


def dump_trace_jsonl(tracer, target: PathOrFile) -> int:
    """Write the trace to a path or file object; returns the record count."""
    return dump_jsonl(target, tracer.records())


def dump_violation_trace(tracer, target: PathOrFile, context: dict) -> int:
    """Write a trace with a leading ``violation`` context record.

    Used by the chaos harness: when an invariant trips, the full obs trace
    of the run is captured with one extra first line describing what broke
    (invariant name, simulated time, seed, schedule spec, ...), so the
    evidence and the repro recipe travel in one file.  Returns the record
    count including the header.
    """
    return dump_jsonl(target, [{"kind": "violation", **context},
                               *tracer.records()])


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #

def _metric_name(name: str) -> str:
    """Sanitize a dotted metric name for the Prometheus text format."""
    sanitized = _NAME_RE.sub("_", name.replace(".", "_"))
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(metrics: MetricsRegistry) -> str:
    """Dump a registry in the Prometheus exposition format.

    - counters → ``counter`` samples;
    - series → ``summary``-flavoured gauges (count / mean / p50 / p95 /
      p99 / max over the recorded points);
    - histograms → native ``histogram`` with cumulative
      ``_bucket`` lines plus ``_sum`` and ``_count``.
    """
    lines: List[str] = []
    for name in sorted(metrics.counters()):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(metrics.counter(name))}")
    for name in metrics.series_names():
        series = metrics.series(name)
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f'{metric}{{stat="count"}} {_fmt(float(len(series)))}')
        lines.append(f'{metric}{{stat="mean"}} {_fmt(series.mean())}')
        lines.append(f'{metric}{{stat="p50"}} {_fmt(series.percentile(50))}')
        lines.append(f'{metric}{{stat="p95"}} {_fmt(series.percentile(95))}')
        lines.append(f'{metric}{{stat="p99"}} {_fmt(series.percentile(99))}')
        lines.append(f'{metric}{{stat="max"}} {_fmt(series.max())}')
    for name in metrics.histogram_names():
        histogram = metrics.histogram(name)
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} histogram")
        for upper, cumulative in histogram.cumulative_buckets():
            lines.append(f'{metric}_bucket{{le="{_fmt(upper)}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{metric}_sum {_fmt(histogram.sum)}")
        lines.append(f"{metric}_count {histogram.count}")
    return "\n".join(lines) + ("\n" if lines else "")
