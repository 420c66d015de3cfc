"""Smoke test of the benchmark harness at a tiny scale.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = {
    "set-up training": run.Workload(
        "tiny-serving", users=3, batch=2, n=20, k=4, d=8, items_per_cluster=10, epochs=1,
        sweep_runs=2, sweep_alphas="0,1", timed_training=False),
    "timed training": run.Workload(
        "tiny-pipeline", users=3, batch=2, n=20, k=4, d=8, items_per_cluster=10, epochs=1,
        sweep_runs=2, sweep_alphas="0,1", timed_training=True),
}


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_spec_matches_harness():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert _units(SPEC["end_to_end"]) == dict(run.END_TO_END)
    assert _units(SPEC["per_layer"]) == {m.name: m.unit for m in layers.PER_LAYER}
    assert {m["name"]: m["better"] for m in SPEC["per_layer"]} == {
        m.name: m.better for m in layers.PER_LAYER
    }
    wrapped = {p.layer for p in layers.WRAP_POINTS}
    assert all(set(m.needs) <= wrapped for m in layers.PER_LAYER)


@pytest.mark.parametrize("wl", TINY.values(), ids=TINY.keys())
def test_untraced_run_emits_every_end_to_end_metric(wl, tmp_path):
    record, result = run.run(wl, seed=3, seconds=0.01, trace=False, work=str(tmp_path))
    assert result["correct"] and result["failed"] == 0
    # Each block runs the set-up stages and at least one pass of the timed
    # stages; rerank is one call per batch of users.
    calls = sum(len(stages) for stages in run.stage_lists(wl)) + run.parts(wl) - 1
    assert result["attempted"] >= run.SETUP_BLOCKS * calls
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(record["digests"]) == {
        name.format(part=part) for outs in run.OUTPUTS.values() for name in outs
        for part in range(run.parts(wl))
    }


@pytest.mark.parametrize("wl", TINY.values(), ids=TINY.keys())
def test_traced_run_reproduces_untraced_outputs(wl, tmp_path):
    record, result = run.run(wl, seed=3, seconds=0.01, trace=True, work=str(tmp_path))
    # Every traced call is checked against the bytes of the untraced calls.
    assert result["correct"] and result["failed"] == 0
    assert record["absent_layers"] == []
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units(SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["selection.steps"] == wl.users * wl.k + wl.sweep_runs * wl.k * 2
    assert metrics["rerank.list_ms.samples"] == wl.users
    assert metrics["kernels.calls"] == wl.users + wl.sweep_runs
    assert metrics["kernels.entries"] == (wl.users + wl.sweep_runs) * wl.n**2


def test_traced_run_degrades_when_a_layer_is_gone(tmp_path, monkeypatch):
    points = tuple(
        dataclasses.replace(p, attr="renamed_away") if p.layer == "kernels.composite_matrix" else p
        for p in layers.WRAP_POINTS
    )
    monkeypatch.setattr(layers, "WRAP_POINTS", points)
    wl = TINY["set-up training"]
    record, result = run.run(wl, seed=3, seconds=0.01, trace=True, work=str(tmp_path))
    assert result["correct"]
    assert record["absent_layers"] == ["kernels.composite_matrix"]
    gone = {"kernels.composite_matrix.self_s", "kernels.calls", "kernels.entries",
            "rerank.list_ms.p50", "rerank.list_ms.p90", "rerank.list_ms.samples"}
    assert not gone & set(result["metrics"])
    assert "accuracy.score.self_s" in result["metrics"]


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "pipeline", "--seed", "1"]) != 0
    assert capsys.readouterr().out == ""
