"""Tier-1 smoke test of ``bench/``: one pass of each workload kind at toy size.

No wall-clock assertions: it checks that every output matches the oracle, that
the counts which must be exact are exact and repeat, and that
``BENCHMARK.json`` obeys the limits its contract sets.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import re
from pathlib import Path

import compare
import pytest
import run as bench
import tommybench_loadgen as loadgen
from tommybench_workloads import SHAPE_BY_NAME, SHAPES, Shape, prepare

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Counts that must come out identical whenever the same inputs are run again.
EXACT = (
    "edge.wire_bytes_per_msg",
    "cluster.merge.cross_pairs_evaluated",
    "cluster.merge.cross_pairs_pruned",
    "core.engine.rows_appended",
    "cluster.intake.duplicates_rejected",
)


def toy(shape: Shape) -> Shape:
    """The workload kind at 8 clients × 3 messages × 2 shards, all on one scenario seed."""
    return dataclasses.replace(shape, clients=8, msgs_per_client=3, shards=2, base_seed=13)


def measure_toys(shapes, **options) -> dict:
    """Run toy workloads through ``bench.measure`` on one shared server child."""

    async def go() -> dict:
        child = loadgen.ServerChild(8, 13, 2, reply_timeout=30.0)
        runs = [
            bench.WorkloadRun(prepare(toy(shape), 0, enforce_regime=False), 0, child)
            for shape in shapes
        ]
        return await bench.measure(runs, 0.0, **options)

    return asyncio.run(go())


def test_benchmark_json_obeys_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and SPEC["command"] == ["python3", "bench/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024

    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert workload["why"] == SHAPE_BY_NAME[workload["name"]].why
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(metric for metric in SPEC["end_to_end"] if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"] for metric in SPEC["end_to_end"])


def test_traced_pass_of_each_workload_kind_matches_the_oracle():
    workloads = measure_toys(SHAPES, untraced=False, traced=True)
    layer_names = {metric["name"] for metric in SPEC["per_layer"]}
    for shape in SHAPES:
        entry = workloads[shape.name]
        metrics = entry["per_layer"]["metrics"]
        assert entry["problems"] == [] and entry["failed"] == 0, shape.name
        assert entry["attempted"] == 6 * (24 + toy(shape).duplicates)
        assert set(metrics) == layer_names
        assert metrics["cluster.intake.duplicates_rejected"] == toy(shape).duplicates
        assert metrics["core.engine.rows_appended"] == 24
        assert metrics["core.engine.scalar_evaluations"] == 0
        assert metrics["runtime.live.late_arrivals"] == 0
        line = json.loads(bench.driver_line(entry, SPEC, traced=True))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and set(line["metrics"]) == layer_names

    firehose = SHAPE_BY_NAME["firehose-4shard"]
    again = measure_toys([firehose], untraced=False, traced=True)[firehose.name]
    first = workloads[firehose.name]["per_layer"]["metrics"]
    assert [again["per_layer"]["metrics"][name] for name in EXACT] == [
        first[name] for name in EXACT
    ]
    assert first["cluster.intake.duplicates_rejected"] == 2


def test_end_to_end_run_reports_every_metric():
    shape = SHAPE_BY_NAME["acked-4shard"]
    entry = measure_toys([shape], untraced=True, traced=False, cold_starts=1, min_passes=2)[
        shape.name
    ]
    metrics = entry["end_to_end"]["metrics"]
    assert entry["problems"] == []
    assert metrics["parity_ok"]["value"] == 1 and metrics["failed_share"]["value"] == 0
    assert metrics["throughput_msgs_per_s"]["n"] == 2 and metrics["setup_s"]["n"] == 1
    line = json.loads(bench.driver_line(entry, SPEC, traced=False))
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] == 3 * 24
    assert set(line["metrics"]) == {metric["name"] for metric in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in line["metrics"].values())


def test_dead_child_counts_as_failed_frames_not_a_hang(monkeypatch, tmp_path):
    monkeypatch.setattr(loadgen, "_BENCH_DIR", tmp_path)  # no server script there

    async def go():
        inputs = prepare(toy(SHAPES[0]), 0, enforce_regime=False)
        child = loadgen.ServerChild(8, 13, 2, reply_timeout=10.0)
        try:
            return await loadgen.run_pass(child, inputs, loadgen.plan_frames(inputs, 0), 10.0)
        finally:
            await child.close()

    outcome = asyncio.run(go())
    assert outcome.error and not outcome.parity
    assert outcome.failed == outcome.attempted == 24


def test_regime_guard_fails_loudly(monkeypatch):
    never_cyclic = dataclasses.replace(toy(SHAPES[0]), cyclic=True)
    with pytest.raises(RuntimeError, match="pinned scenario seed 13"):
        prepare(never_cyclic, 0)
    monkeypatch.setattr("tommybench_workloads.MAX_SEED_TRIES", 3)
    with pytest.raises(RuntimeError, match=r"no scenario seed in \[1013, 1016\)"):
        prepare(never_cyclic, 1)
    found = prepare(toy(SHAPES[0]), 1)
    assert (found.seed_used, found.seeds_skipped) == (1013, 0)


def test_compare_verdicts():
    def summary(value, q1, q3):
        return {"value": value, "q1": q1, "q3": q3}

    tight_a, tight_b = summary(100.0, 99.0, 101.0), summary(104.0, 103.0, 105.0)
    assert compare.verdict(tight_a, tight_b, "lower", 0.10) == "within-bound"
    assert compare.verdict(tight_a, summary(120.0, 119.0, 121.0), "lower", 0.10) == "worse"
    assert compare.verdict(tight_a, summary(120.0, 119.0, 121.0), "higher", 0.10) == "within-bound"
    assert compare.verdict(summary(100.0, 90.0, 115.0), tight_b, "lower", 0.10) == "unresolved"
    assert compare.verdict(summary(0.0, 0.0, 0.0), summary(0.1, 0.1, 0.1), "lower", 0.0) == "worse"
