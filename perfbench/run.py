"""Run one benchmark workload at one seed and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload query-warm-900 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
segments alternately untraced and traced and prints every per-layer
metric instead.  Each metric is printed by name with its unit and sample
count, then the run context, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
exits 1 when any operation failed or answered differently from the
centralized scan, and 2 when the library is not beside the benchmark.
The result and context are also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Sequence

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up is repeated and its median reported, so that work moved into
#: set-up shows in ``setup_s``; the last repetition's cell is measured.
SETUP_REPS = 3

#: Per-call p99s, printed in the run context but not end-to-end metrics:
#: across ten seeds their spread reached 0.23 against the largest bound
#: the benchmark may give, 0.25 (``perfbench/README.md``).
TAILS = ("insert_ms_p99", "query_ms_p99")

#: End-to-end metric -> unit.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "insert_per_s": "ops/s",
    "insert_ms_p50": "ms",
    "query_per_s": "ops/s",
    "query_ms_p50": "ms",
    "serve_req_per_s": "req/s",
    "serve_sim_latency_p95_s": "sim_s",
    "pool.msgs_per_query": "msgs",
    "dim.msgs_per_query": "msgs",
    "msgs_per_insert": "msgs",
    "msgs_per_serve_req": "msgs",
    "peak_rss_mb": "MB",
}


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(round(p * len(ordered), 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def segment_count(workload: Any, seconds: float, trace: bool) -> int:
    """Segments for ``--seconds``: fixed per workload, independent of how
    fast the host is.  A traced run has an untraced segment on each side
    of its first traced one."""
    return max(3 if trace else 2, round(seconds * workload.segments_per_s))


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Set up ``SETUP_REPS`` times, do the workload's untimed reference
    work, then run the segments of ``seconds``."""
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, Run

    run = Run(seed=seed)
    setup_s: list[tuple[float, float]] = []
    workload = None
    for rep in range(SETUP_REPS):
        if workload is not None:
            workload.close()
        workload = WORKLOADS[name]()
        run.ref = rep == SETUP_REPS - 1
        run.pace.probe()
        started = perf_counter()
        workload.setup(run)
        ended = perf_counter()
        run.pace.probe()
        setup_s.append((started, ended))
    assert workload is not None
    workload.reference(run)
    tracer = Tracer() if trace else None
    # A traced run alternates untraced and traced segments; only the
    # untraced ones add to the end-to-end samples.
    durations: dict[bool, list[float]] = {False: [], True: []}
    segments = segment_count(workload, seconds, trace)
    began = perf_counter()
    try:
        for index in range(segments):
            if index > 0:
                workload.reset(run)
            traced = tracer is not None and index % 2 == 1
            run.ref = index == 0
            run.tracer = tracer if traced else None
            if traced:
                tracer.begin_segment()
            started = perf_counter()
            try:
                workload.segment(run)
            finally:
                if traced:
                    tracer.end_segment()
            durations[traced].append(perf_counter() - started)
    finally:
        workload.close()
    run.pace.probe()
    return {
        "run": run,
        "setup_s": setup_s,
        "durations": durations,
        "segments": segments,
        "measured_s": perf_counter() - began,
        "tracer": tracer,
    }


def host_times(outcome: dict[str, Any], scaled: bool) -> dict[str, float]:
    """The host-time metrics, scaled to the reference pace or as timed.

    They pool every timed call of every untraced segment (and of the
    set-ups, for preloading inserts).
    """
    run = outcome["run"]

    def seconds(spans: Sequence[tuple[float, float]]) -> list[float]:
        return sorted(
            (end - start) * (run.pace.scale(start, end) if scaled else 1.0)
            for start, end in spans
        )

    setup = seconds(outcome["setup_s"])
    inserts = seconds(run.times["insert"])
    queries = seconds(run.times["query"])
    return {
        "setup_s": statistics.median(setup),
        "insert_per_s": len(inserts) / math.fsum(inserts),
        "insert_ms_p50": percentile(inserts, 0.50) * 1e3,
        "insert_ms_p99": percentile(inserts, 0.99) * 1e3,
        "query_per_s": len(queries) / math.fsum(queries),
        "query_ms_p50": percentile(queries, 0.50) * 1e3,
        "query_ms_p99": percentile(queries, 0.99) * 1e3,
        "serve_req_per_s": run.served / math.fsum(seconds(run.times["serve"])),
    }


def end_to_end(outcome: dict[str, Any]) -> tuple[dict[str, float], dict[str, int]]:
    """Every end-to-end metric, and the sample count behind each.

    The sample count of a host-time metric is its number of timed calls,
    or of requests for ``serve_req_per_s``.
    """
    run = outcome["run"]
    ref = run.reference
    latencies = sorted(ref.serve_latencies)
    values = {
        name: value
        for name, value in host_times(outcome, scaled=True).items()
        if name not in TAILS
    }
    values.update(
        {
            "serve_sim_latency_p95_s": percentile(latencies, 0.95),
            "pool.msgs_per_query": statistics.fmean(ref.query_msgs["pool"]),
            "dim.msgs_per_query": statistics.fmean(ref.query_msgs["dim"]),
            "msgs_per_insert": ref.insert_msgs / ref.inserts,
            "msgs_per_serve_req": ref.serve_msgs / ref.serve_requests,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    )
    inserts, queries = len(run.times["insert"]), len(run.times["query"])
    samples = {
        "setup_s": len(outcome["setup_s"]),
        "insert_per_s": inserts,
        "insert_ms_p50": inserts,
        "query_per_s": queries,
        "query_ms_p50": queries,
        "serve_req_per_s": run.served,
        "serve_sim_latency_p95_s": len(latencies),
        "pool.msgs_per_query": len(ref.query_msgs["pool"]),
        "dim.msgs_per_query": len(ref.query_msgs["dim"]),
        "msgs_per_insert": ref.inserts,
        "msgs_per_serve_req": ref.serve_requests,
        "peak_rss_mb": 1,
    }
    return values, samples


def per_layer(outcome: dict[str, Any]) -> tuple[dict[str, float], dict[str, int]]:
    """Every per-layer metric from the traced segments, with sample counts."""
    tracer = outcome["tracer"]
    run = outcome["run"]
    values = tracer.layer_metrics()
    for name, times in run.setup_layers.items():
        values[name] = statistics.median(times)
    durations = outcome["durations"]
    values["trace.overhead_ratio"] = statistics.median(
        durations[True]
    ) / statistics.median(durations[False])
    samples = {name: tracer.segments for name in values}
    for name, times in run.setup_layers.items():
        samples[name] = len(times)
    samples["trace.overhead_ratio"] = len(outcome["durations"][True])
    return values, samples


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the library is not at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy

    from perfbench.pace import yardstick
    from perfbench.tracing import PER_LAYER
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    calibration_s = statistics.median(yardstick() for _ in range(21))
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    run = outcome["run"]
    ref = run.reference
    if args.trace:
        values, samples = per_layer(outcome)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values, samples = end_to_end(outcome)
        units = END_TO_END
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_s": calibration_s,
        "setup_reps": SETUP_REPS,
        "segments": outcome["segments"],
        "measured_s": outcome["measured_s"],
        "segment_s": outcome["durations"],
        "tails": {
            name: host_times(outcome, scaled=True)[name] for name in TAILS
        },
        "unscaled": host_times(outcome, scaled=False),
        "pace_probes": len(run.pace.took),
        "samples": samples,
        "serve_traffic": {
            "requests": ref.serve_requests,
            "cache_hit_rate": ref.cache_hits / ref.cache_lookups,
            "invalidations": ref.cache_invalidations,
        },
        "failed_ratio": run.failed / run.attempted,
        "failures": run.failures,
    }
    for name in units:
        print(f"{name:32s} {values[name]:14.6g} {units[name]:6s} n={samples[name]}")
    print(f"{'failed_ratio':32s} {run.failed / run.attempted:14.6g} {'':6s} "
          f"n={run.attempted}")
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1) + "\n"
    )
    if outcome["tracer"] is not None:
        outcome["tracer"].write(OUT_DIR / f"{stem}.spans.jsonl")
    print("context " + json.dumps(context))
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
