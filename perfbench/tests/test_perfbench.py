"""Tests of the benchmark itself (not of the simulator).

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import driver  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from repro.cluster.network import MessageBus  # noqa: E402
from repro.cluster.topology import ClusterTopology  # noqa: E402
from workloads import WORKLOADS, fault_spec, unknown_machines  # noqa: E402

#: tiny shapes: racks and jobs of every workload divided by this
SCALE_DOWN = 20
WINDOW = 12.0


def tiny(name: str):
    """The workload at 1/SCALE_DOWN of its racks and jobs, so its load per
    machine stays the same."""
    workload = WORKLOADS[name]
    return replace(workload, racks=max(1, workload.racks // SCALE_DOWN),
                   jobs=max(2, workload.jobs // SCALE_DOWN), extra_setups=0)


def test_layer_map_covers_every_actor_class_a_cluster_builds(monkeypatch):
    built = set()
    register = MessageBus.register

    def recording_register(bus, actor):
        built.add(type(actor))
        register(bus, actor)
    monkeypatch.setattr(MessageBus, "register", recording_register)
    driver.run(tiny("failover-15k"), seed=3, window=WINDOW)

    unmapped = sorted(cls.__qualname__ for cls in built
                      if layers.actor_layer(cls) is None)
    assert not unmapped, f"actor classes with no layer: {unmapped}"
    assert {layers.actor_layer(cls) for cls in built} == {
        "master", "agent", "jobmaster", "worker", "runtime"}


def test_spans_cover_every_named_entry_point_and_uninstall_restores():
    originals = [vars(owner).get(attr)
                 for owner, attr, _, _ in layers.entry_points()]
    send = MessageBus.send
    spans = layers.Spans()
    spans.install()
    try:
        assert spans.missing == []
        assert MessageBus.send is not send
    finally:
        spans.uninstall()
    assert MessageBus.send is send
    assert [vars(owner).get(attr)
            for owner, attr, _, _ in layers.entry_points()] == originals


def test_fault_plan_machines_are_checked_before_the_run():
    workload = tiny("failover-15k")
    with pytest.raises(ValueError, match="r010m005"):
        driver.build(workload, seed=1, window=WINDOW,
                     plan="NodeDown@5:r010m005;MachineRestart@9:r010m005")


def test_generated_fault_plan_names_only_topology_machines():
    workload = WORKLOADS["failover-15k"]
    machines = ClusterTopology.build(workload.racks,
                                     workload.machines_per_rack).machines()
    spec = fault_spec(workload, seed=11, window=workload.window(20),
                      machines=machines)
    assert spec.count("FuxiMasterFailure") == 2
    assert spec.count("NodeDown") == 2
    assert unknown_machines(spec, machines) == []
    assert unknown_machines("NodeDown@5:r010m005", machines) == ["r010m005"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_is_correct_and_deterministic(name):
    workload = tiny(name)
    first = driver.run(workload, seed=5, window=WINDOW)
    second = driver.run(workload, seed=5, window=WINDOW)
    assert run.check_rep(first) == []
    assert run.check_same([first, second]) == []
    metrics = run.end_to_end([first, second])
    assert set(metrics) == {name for name, _ in run.END_TO_END}
    assert metrics["sim_s_per_s"] > 0


def test_traced_repetition_matches_the_plain_one():
    workload = tiny("failover-15k")
    plain = driver.run(workload, seed=7, window=WINDOW)
    spans = layers.Spans()
    spans.install()
    try:
        traced = driver.run(workload, seed=7, window=WINDOW, tracer=spans)
    finally:
        spans.uninstall()
    assert run.check_same([plain, traced]) == []
    metrics = run.per_layer(plain, traced)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {entry["name"] for entry in listed}
    assert metrics["master.handled"][0] > 0
    assert metrics["protocol.full_syncs"][0] > 0
    assert 0 <= metrics["trace.unattributed_share"][0] < 0.5


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(
        run.END_TO_END)


def test_exits_nonzero_without_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-5k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
