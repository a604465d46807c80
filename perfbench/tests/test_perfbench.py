"""The benchmark's own checks: output contract, oracle, determinism.

Run from the repository root with ``python -m pytest perfbench/tests``.
The determinism tests run every workload four times (two seeds, twice
each), which takes several minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from perfbench.oracle import Oracle
from perfbench.pace import EXPONENT, REFERENCE_S, Pace
from perfbench.run import END_TO_END, percentile
from perfbench.tracing import PER_LAYER
from repro.events.event import Event
from repro.events.generators import QueryWorkload
from repro.events.queries import RangeQuery

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SIMULATED = (
    "pool.msgs_per_query",
    "dim.msgs_per_query",
    "msgs_per_insert",
    "msgs_per_serve_req",
    "serve_sim_latency_p95_s",
)
#: 101 is the determinism seed; 202 is held out from every tuning run.
SEEDS = (101, 202)


@lru_cache(maxsize=None)
def bench(workload: str, seed: int, attempt: int, trace: int = 0) -> dict:
    """One benchmark run's final JSON line (``attempt`` keys the cache)."""
    done = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "1",
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_metric_lists_match_benchmark_json() -> None:
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER.items()
    }


def test_percentile_is_nearest_rank() -> None:
    ordered = list(range(1, 1001))
    assert percentile(ordered, 0.5) == 500
    assert percentile(ordered, 0.99) == 990
    assert percentile([7.0], 0.99) == 7.0


def test_pace_scales_by_the_yardsticks_around_a_span() -> None:
    pace = Pace()
    pace.at, pace.took = [0.0, 1.0, 2.0, 3.0], [1e-3, 2e-3, 4e-3, 4e-3]
    assert pace.scale(1.5, 1.6) == (REFERENCE_S / 3e-3) ** EXPONENT  # 1.0, 2.0
    assert pace.scale(0.5, 2.5) == (REFERENCE_S / 3e-3) ** EXPONENT  # 1, 2, 4, 4
    assert pace.scale(3.5, 3.6) == (REFERENCE_S / 4e-3) ** EXPONENT  # last one


def test_oracle_agrees_with_range_query_filter() -> None:
    rng = np.random.default_rng(5)
    events = [Event(tuple(row)) for row in rng.random((2000, 3))]
    oracle = Oracle(3)
    for event in events:
        oracle.add(event)
    queries = QueryWorkload(dimensions=3, kind="exact").generate(30, seed=1)
    queries += QueryWorkload(dimensions=3, kind="partial").generate(30, seed=2)
    for query in queries:
        expected = query.filter(events)
        assert oracle.count(query) == len(expected)
        assert oracle.agrees(query, list(reversed(expected)))


def test_oracle_rejects_wrong_answers() -> None:
    events = [Event((0.1, 0.1)), Event((0.5, 0.5)), Event((0.9, 0.9))]
    oracle = Oracle(2)
    for event in events:
        oracle.add(event)
    query = RangeQuery.of((0.0, 0.6), (0.0, 0.6))
    assert oracle.agrees(query, events[:2])
    assert not oracle.agrees(query, events[:1])  # a match missing
    assert not oracle.agrees(query, events)  # a non-match returned
    assert not oracle.agrees(query, [events[0], Event((0.5, 0.5))])  # a copy


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_metrics_repeat_bit_for_bit(workload: str, seed: int) -> None:
    first, second = bench(workload, seed, 0), bench(workload, seed, 1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    for name in SIMULATED:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_names_every_end_to_end_metric(workload: str) -> None:
    result = bench(workload, SEEDS[0], 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_names_every_per_layer_metric() -> None:
    result = bench("serve-mixed-900", SEEDS[0], 0, trace=1)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == set(PER_LAYER)
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["serve.cache.invalidations"]["value"] > 0
    assert metrics["core.fold_s"]["value"] > 0


def test_fails_without_the_library(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("tests", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0]]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
