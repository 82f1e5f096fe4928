"""Unit tests for repro.obs.export: JSONL round-trips, Prometheus text."""

import io
import json

import pytest

from repro.api import RunSpec, simulate
from repro.chaos.corpus import Corpus, CorpusEntry
from repro.obs.export import (dump_jsonl, dump_trace_jsonl,
                              dump_violation_trace, dumps_trace, load_jsonl,
                              prometheus_text)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def build_tracer():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    span = tracer.start_span("sched.decision", kind="request")
    clock.now = 0.25
    tracer.event("mark", n=3)
    clock.now = 1.0
    tracer.end_span(span, machine=2, rack=1, cluster=0)
    return tracer


def test_dumps_trace_one_json_line_per_record():
    text = dumps_trace(build_tracer())
    lines = text.splitlines()
    assert len(lines) == 2
    assert text.endswith("\n")
    # keys sorted, compact separators
    assert lines[0].startswith('{"attrs":')
    assert ", " not in lines[0]


def test_dumps_empty_trace_is_empty_string():
    clock = FakeClock()
    assert dumps_trace(Tracer(clock=clock)) == ""


def test_jsonl_round_trip_path(tmp_path):
    tracer = build_tracer()
    path = tmp_path / "trace.jsonl"
    count = dump_trace_jsonl(tracer, str(path))
    assert count == 2
    assert load_jsonl(str(path)) == tracer.records()


def test_jsonl_round_trip_file_object():
    tracer = build_tracer()
    buffer = io.StringIO()
    dump_trace_jsonl(tracer, buffer)
    buffer.seek(0)
    assert load_jsonl(buffer) == tracer.records()


def test_export_is_byte_identical_across_builds():
    assert dumps_trace(build_tracer()) == dumps_trace(build_tracer())


def test_prometheus_counters_and_series():
    registry = MetricsRegistry()
    registry.increment("fm.requests", 3)
    registry.record("fm.schedule_ms", 0.0, 1.0)
    registry.record("fm.schedule_ms", 1.0, 3.0)
    text = prometheus_text(registry)
    assert "# TYPE fm_requests counter" in text
    assert "fm_requests 3" in text
    assert "# TYPE fm_schedule_ms gauge" in text
    assert 'fm_schedule_ms{stat="count"} 2' in text
    assert 'fm_schedule_ms{stat="mean"} 2' in text
    assert 'fm_schedule_ms{stat="max"} 3' in text


def test_prometheus_histogram_cumulative_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("depth")
    for value in (0.5, 1.5, 5.0):
        hist.record(value)
    text = prometheus_text(registry)
    assert "# TYPE depth histogram" in text
    assert 'depth_bucket{le="+Inf"} 3' in text
    assert "depth_sum 7" in text
    assert "depth_count 3" in text
    # log buckets, 8 per octave: each value's bucket ends at the next
    # power of 2^(1/8) at or above it
    bounds = [float(line.split('"')[1]) for line in text.splitlines()
              if line.startswith("depth_bucket") and "+Inf" not in line]
    assert bounds == pytest.approx([2.0 ** -1, 2.0 ** (5 / 8),
                                    2.0 ** (19 / 8)])
    # cumulative counts never decrease down the exposition
    counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()
              if line.startswith("depth_bucket")]
    assert counts == sorted(counts)


def test_prometheus_name_sanitization():
    registry = MetricsRegistry()
    registry.increment("health.m-0")
    text = prometheus_text(registry)
    assert "health_m_0 1" in text


def test_prometheus_without_histograms_has_no_histogram_section():
    registry = MetricsRegistry()
    registry.increment("a")
    registry.record("s", 0.0, 1.0)
    text = prometheus_text(registry)
    assert "histogram" not in text


def test_prometheus_empty_registry_is_empty():
    assert prometheus_text(MetricsRegistry()) == ""


# --------------------------------------------------------------------- #
# the JSONL codec, over every artifact kind
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One file of each JSONL artifact kind, written by its own producer."""
    base = tmp_path_factory.mktemp("artifacts")
    result = simulate(RunSpec(racks=2, machines_per_rack=3, concurrent_jobs=4,
                              duration=20.0, trace=True, flight_recorder=True,
                              live_sample=True, live_sample_interval=2.0))
    cluster = result.cluster
    paths = {kind: str(base / f"{kind}.jsonl")
             for kind in ("trace", "violation", "timeseries", "flight",
                          "corpus")}
    dump_trace_jsonl(cluster.tracer, paths["trace"])
    dump_violation_trace(cluster.tracer, paths["violation"],
                         {"seed": 7, "invariant": "probe"})
    result.write_timeseries(paths["timeseries"])
    cluster.flight.record("fault", kind="probe")
    cluster.flight.dump(paths["flight"], context={"seed": 7})
    corpus = Corpus(paths["corpus"])
    corpus.add(CorpusEntry(id="00ff", entry="coverage", seed=3,
                           schedule="NodeDown@5:r00m000", config={"racks": 2},
                           coverage=["b", "a"]))
    corpus.save(context={"master_seed": 1})
    return paths


@pytest.mark.parametrize("kind", ["trace", "violation", "timeseries",
                                  "flight", "corpus"])
@pytest.mark.parametrize("via", ["path", "file"])
def test_every_artifact_round_trips_byte_identically(artifacts, tmp_path,
                                                     kind, via):
    with open(artifacts[kind], encoding="utf-8") as handle:
        original = handle.read()
    if via == "path":
        records = load_jsonl(artifacts[kind])
        again = str(tmp_path / "again.jsonl")
        count = dump_jsonl(again, records)
        with open(again, encoding="utf-8") as handle:
            rewritten = handle.read()
    else:
        with open(artifacts[kind], encoding="utf-8") as handle:
            records = load_jsonl(handle)
        buffer = io.StringIO()
        count = dump_jsonl(buffer, records)
        rewritten = buffer.getvalue()
    assert len(records) > 1
    assert count == len(records) == len(original.splitlines())
    assert rewritten == original
    # the pinned format: sorted keys, compact separators, one line each
    assert original == "".join(
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        for record in records)


def test_codec_skips_blank_lines_and_writes_nothing_for_no_records():
    assert load_jsonl(io.StringIO('{"a":1}\n\n  \n{"b":2}\n')) == [
        {"a": 1}, {"b": 2}]
    buffer = io.StringIO()
    assert dump_jsonl(buffer, []) == 0
    assert buffer.getvalue() == ""
