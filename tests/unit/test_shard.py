"""Sharding knobs and the grant-stream digest.

The simulator runs every plane on one serial event loop, so a spec that
asks for shards is rejected, and the per-master grant-stream digest that
identifies a run must reproduce exactly from the same spec and seed."""

import pytest

from repro.api import RunSpec, simulate


SMALL = dict(racks=2, machines_per_rack=5, concurrent_jobs=6,
             duration=30.0, workload_scale=20, workers_cap=4, seed=11)


def test_grant_stream_digest_matches_serial():
    spec = RunSpec(**SMALL)
    first = simulate(spec).summary_dict()["grant_stream"]
    second = simulate(spec).summary_dict()["grant_stream"]
    assert first == second
    # one digest per master; the primary issued grants
    assert [entry["master"] for entry in first] == \
        ["fuxi-master-0", "fuxi-master-1"]
    assert any(entry["grants"] > 0 for entry in first)
    other = simulate(spec.replace(seed=12)).summary_dict()["grant_stream"]
    assert other != first


def test_runspec_shard_validation():
    with pytest.raises(ValueError):
        RunSpec.from_dict({"shards": 2})
    with pytest.raises(ValueError):
        RunSpec.from_dict({"shard_backend": "inline"})
    with pytest.raises(ValueError):
        RunSpec(hint_fraction=1.5).validate()
    RunSpec(hint_fraction=0.5).validate()
    RunSpec(hint_fraction=-1.0).validate()  # the mix preset
