"""Span recording around the library's public entry points.

Tracing is installed only in a ``--trace 1`` run, and only on the objects
one traced segment uses: each wrapper is an instance attribute shadowing
the class method, and :meth:`Tracer.end_segment` deletes it again, so an
untraced segment calls the library exactly as it would without this
module.

A span is ``(id, op, name, parent, start, end)``: ``op`` is the id of the
timed operation (one insert, one query, one serve batch) that caused it,
``parent`` the span open when it started.  Spans stay in memory and are
written out once, at the end of the run.  Counters are taken at the same
boundaries, from return values and from public state.
"""

from __future__ import annotations

import gc
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: Per-layer metrics, in output order: name -> (unit, better).  A traced
#: run reports every one of them; a layer a workload never enters reads 0.
PER_LAYER: dict[str, tuple[str, str]] = {
    "network.deploy_s": ("s", "lower"),
    "routing.planarize_s": ("s", "lower"),
    "routing.gpsr.path_calls": ("count", "lower"),
    "routing.gpsr.path_s": ("s", "lower"),
    "routing.gpsr.cache_hit_ratio": ("ratio", "higher"),
    "routing.gpsr.hops_per_route": ("hops", "lower"),
    "routing.gpsr.perimeter_share": ("ratio", "lower"),
    "routing.multicast.trees": ("count", "lower"),
    "routing.multicast.build_s": ("s", "lower"),
    "network.radio.records": ("count", "lower"),
    "network.radio.msgs.insert": ("msgs", "lower"),
    "network.radio.msgs.query_forward": ("msgs", "lower"),
    "network.radio.msgs.query_reply": ("msgs", "lower"),
    "core.insert_self_s": ("s", "lower"),
    "dim.insert_self_s": ("s", "lower"),
    "core.plan_s": ("s", "lower"),
    "core.execute_s": ("s", "lower"),
    "core.fold_s": ("s", "lower"),
    "dim.plan_s": ("s", "lower"),
    "dim.execute_s": ("s", "lower"),
    "dim.fold_s": ("s", "lower"),
    "exec.run_staged_self_s": ("s", "lower"),
    "core.cells_per_query": ("cells", "lower"),
    "dim.zones_per_query": ("zones", "lower"),
    "core.fold.match_ratio": ("ratio", "higher"),
    "dim.fold.match_ratio": ("ratio", "higher"),
    "serve.run_self_s": ("s", "lower"),
    "serve.cache.lookup_s": ("s", "lower"),
    "serve.cache.store_s": ("s", "lower"),
    "serve.cache.invalidate_s": ("s", "lower"),
    "serve.cache.hit_rate": ("ratio", "higher"),
    "serve.cache.invalidations": ("count", "lower"),
    "serve.coalesced_share": ("ratio", "higher"),
    "shard.path_s": ("s", "lower"),
    "shard.exchange_rounds": ("count", "lower"),
    "shard.boundary_messages": ("count", "lower"),
    "shard.rounds_per_packet": ("rounds", "lower"),
    "process.gc_collections": ("count", "lower"),
    "process.gc_pause_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: Span name -> the per-layer self-time metric it feeds.
_SELF_TIME = {
    "routing.gpsr.path": "routing.gpsr.path_s",
    "routing.multicast.disseminate": "routing.multicast.build_s",
    "core.insert": "core.insert_self_s",
    "dim.insert": "dim.insert_self_s",
    "core.plan": "core.plan_s",
    "core.execute": "core.execute_s",
    "core.fold": "core.fold_s",
    "dim.plan": "dim.plan_s",
    "dim.execute": "dim.execute_s",
    "dim.fold": "dim.fold_s",
    "exec.run_staged": "exec.run_staged_self_s",
    "serve.run": "serve.run_self_s",
    "serve.cache.lookup": "serve.cache.lookup_s",
    "serve.cache.store": "serve.cache.store_s",
    "serve.cache.invalidate": "serve.cache.invalidate_s",
    "shard.route_batch": "shard.path_s",
}

Span = tuple[int, int, str, int, float, float]


class Tracer:
    """In-memory span and counter recorder for traced segments."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.op = 0
        self.segments = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str]] = []
        self._watched_caches: list[Any] = []
        self._engines: list[tuple[Any, tuple[int, int, int]]] = []
        self._gc_started: float | None = None
        self._held: dict[int, tuple[int, dict[int, int]]] = {}

    # ------------------------------------------------------------------ #
    # Spans                                                              #
    # ------------------------------------------------------------------ #

    def _wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        after: Callable[[Any, tuple[Any, ...]], None] | None = None,
    ) -> None:
        original = getattr(obj, attr)

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((span_id, self.op, name, parent, start, end))
            if after is not None:
                after(result, args)
            return result

        setattr(obj, attr, traced)
        self._installed.append((obj, attr))

    def _count(
        self, obj: Any, attr: str, after: Callable[[Any, tuple[Any, ...]], None]
    ) -> None:
        """Wrap without a span: counters only (hot, tiny calls)."""
        original = getattr(obj, attr)

        def counted(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            after(result, args)
            return result

        setattr(obj, attr, counted)
        self._installed.append((obj, attr))

    # ------------------------------------------------------------------ #
    # Installation                                                       #
    # ------------------------------------------------------------------ #

    def watch_router(self, router: Any) -> None:
        """GPSR ``path`` (span) and ``route`` (hop counters)."""

        def on_path(_path: Any, args: tuple[Any, ...]) -> None:
            if args[0] != args[1]:
                self.counts["path_calls"] += 1

        def on_route(result: Any, args: tuple[Any, ...]) -> None:
            self.counts["route_calls"] += 1
            self.counts["route_hops"] += result.hops
            self.counts["perimeter_hops"] += result.perimeter_hops

        self._wrap(router, "path", "routing.gpsr.path", on_path)
        self._count(router, "route", on_route)

    def watch_engine(self, engine: Any) -> None:
        """The shard engine's BSP exchange loop and its public counters."""
        self._wrap(engine, "route_batch", "shard.route_batch")
        self._engines.append(
            (
                engine,
                (
                    engine.exchange_rounds,
                    engine.boundary_messages,
                    engine.packets_routed,
                ),
            )
        )

    def watch_system(self, label: str, system: Any) -> None:
        """Insert and the three query stages of one store, plus its ledger."""
        self._wrap(system, "insert", f"{label}.insert")
        self._wrap(system, "query", "exec.run_staged")
        self._wrap(
            system,
            "plan_query",
            f"{label}.plan",
            lambda plan, _args: self._count_plan(label, plan),
        )
        self._wrap(system, "execute_plan", f"{label}.execute")
        self._wrap(
            system,
            "fold_replies",
            f"{label}.fold",
            lambda result, args: self._count_fold(label, system, result, args),
        )
        self._wrap(
            system.network,
            "disseminate",
            "routing.multicast.disseminate",
            lambda _delivery, _args: self.counts.update(("trees",)),
        )

        def on_record(_result: Any, args: tuple[Any, ...]) -> None:
            hops = args[1] if len(args) > 1 else 1
            self.counts["records"] += 1
            self.counts[f"msgs.{args[0].value}"] += hops

        self._count(system.network.stats, "record", on_record)

    def watch_service(self, service: Any, cache: Any) -> None:
        """``QueryService.run`` and the plan/result cache entry points."""
        self._wrap(service, "run", "serve.run", self._count_report)
        self._wrap(cache, "lookup", "serve.cache.lookup")
        self._wrap(cache, "store", "serve.cache.store")
        self._wrap(cache, "invalidate_cell", "serve.cache.invalidate")
        self._watched_caches.append(cache)

    def _count_plan(self, label: str, plan: Any) -> None:
        self.counts[f"{label}.plans"] += 1
        self.counts[f"{label}.cells"] += len(plan.cells)

    def _count_fold(
        self, label: str, system: Any, result: Any, args: tuple[Any, ...]
    ) -> None:
        """Matches against the events held at the nodes that answered."""
        stored = system.stored_events
        cached = self._held.get(id(system))
        if cached is None or cached[0] != stored:
            cached = (stored, system.storage_distribution())
            self._held[id(system)] = cached
        held = cached[1]
        execution = args[1]
        self.counts[f"{label}.matches"] += result.match_count
        self.counts[f"{label}.held"] += sum(
            held.get(node, 0) for node in execution.answered
        )

    def _count_report(self, report: Any, _args: tuple[Any, ...]) -> None:
        self.counts["served"] += report.requests
        self.counts["coalesced"] += report.coalesced

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        elif self._gc_started is not None:
            self.counts["gc_collections"] += 1
            self.counts["gc_pause_ns"] += int(
                (perf_counter() - self._gc_started) * 1e9
            )
            self._gc_started = None

    def begin_segment(self) -> None:
        self.segments += 1
        gc.callbacks.append(self._on_gc)

    def end_segment(self) -> None:
        """Remove every wrapper and fold the segment's public counters in."""
        gc.callbacks.remove(self._on_gc)
        for obj, attr in reversed(self._installed):
            delattr(obj, attr)
        self._installed.clear()
        for cache in self._watched_caches:
            self.counts["cache_hits"] += cache.hits
            self.counts["cache_lookups"] += cache.hits + cache.misses
            self.counts["invalidations"] += cache.invalidations
        self._watched_caches.clear()
        for engine, (rounds, boundary, packets) in self._engines:
            self.counts["exchange_rounds"] += engine.exchange_rounds - rounds
            self.counts["boundary_messages"] += (
                engine.boundary_messages - boundary
            )
            self.counts["packets_routed"] += engine.packets_routed - packets
        self._engines.clear()
        self._held.clear()

    # ------------------------------------------------------------------ #
    # Results                                                            #
    # ------------------------------------------------------------------ #

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its direct children."""
        children: defaultdict[int, float] = defaultdict(float)
        for _sid, _op, _name, parent, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for sid, _op, name, _parent, start, end in self.spans:
            totals[name] += (end - start) - children[sid]
        return dict(totals)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values per traced segment (setup and overhead excluded)."""
        per = max(self.segments, 1)
        c = self.counts
        values = {name: 0.0 for name in PER_LAYER}
        for span_name, seconds in self.self_times().items():
            values[_SELF_TIME[span_name]] = seconds / per

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        values["routing.gpsr.path_calls"] = c["path_calls"] / per
        values["routing.gpsr.cache_hit_ratio"] = ratio(
            c["path_calls"] - c["route_calls"], c["path_calls"]
        )
        values["routing.gpsr.hops_per_route"] = ratio(
            c["route_hops"], c["route_calls"]
        )
        values["routing.gpsr.perimeter_share"] = ratio(
            c["perimeter_hops"], c["route_hops"]
        )
        values["routing.multicast.trees"] = c["trees"] / per
        values["network.radio.records"] = c["records"] / per
        for category in ("insert", "query_forward", "query_reply"):
            values[f"network.radio.msgs.{category}"] = c[f"msgs.{category}"] / per
        values["core.cells_per_query"] = ratio(c["core.cells"], c["core.plans"])
        values["dim.zones_per_query"] = ratio(c["dim.cells"], c["dim.plans"])
        values["core.fold.match_ratio"] = ratio(c["core.matches"], c["core.held"])
        values["dim.fold.match_ratio"] = ratio(c["dim.matches"], c["dim.held"])
        values["serve.cache.hit_rate"] = ratio(c["cache_hits"], c["cache_lookups"])
        values["serve.cache.invalidations"] = c["invalidations"] / per
        values["serve.coalesced_share"] = ratio(c["coalesced"], c["served"])
        values["shard.exchange_rounds"] = c["exchange_rounds"] / per
        values["shard.boundary_messages"] = c["boundary_messages"] / per
        values["shard.rounds_per_packet"] = ratio(
            c["exchange_rounds"], c["packets_routed"]
        )
        values["process.gc_collections"] = c["gc_collections"] / per
        values["process.gc_pause_s"] = c["gc_pause_ns"] / 1e9 / per
        return values

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line (name, start, end, parent, op)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for sid, op, name, parent, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "op": op,
                            "name": name,
                            "parent": parent,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
