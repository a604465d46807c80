"""The three workloads and the timed phases they are built from.

Every workload is one closed loop of library calls from one process: set
up a cell (deploy, planarize, build the stores, preload, warm up), then
run a fixed number of *segments*.  A segment is the workload's main pass
followed by probe phases, so every workload reports every end-to-end
metric; the main pass gives the workload its character.

==================  =====================================================
workload            main pass (the layer it stresses)
==================  =====================================================
``ingest-cold-2k``  12,000 inserts into fresh Pool and DIM stores over a
                    fresh router: almost every insert routes a new
                    (source, index node) pair, so GPSR's route cache
                    stays cold (routing).
``serve-mixed-900`` the query mix on both stores of a warm, preloaded
                    cell (query stages: plan, execute, fold), then a
                    bursty repeated-query schedule through
                    ``QueryService`` with a ``PlanResultCache``, with
                    inserts between windows driving invalidation
                    (serving, cache).
``sharded-10k``     10,000 Pool inserts over a fresh
                    ``Deployment.shard(4)`` (the BSP shard engine).
==================  =====================================================

Every segment starts from the same state -- :meth:`Workload.reset`
restores it, untimed, before each segment after the first -- and
performs the same timed operations in the same order.  Every operation
of every untraced segment is timed and counted, and its host time scaled
by the host's pace around it (``perfbench/pace.py``).

Simulated costs (messages, simulated latency) are deterministic: they
are taken from the last set-up, the untimed reference work after it and
segment 0, which every run executes whole, so they repeat bit for bit
for a seed.  The library only ever sees the generated topology, events,
queries and schedule.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.core.system import PoolSystem
from repro.dim.index import DimIndex
from repro.events.generators import EventWorkload, QueryWorkload
from repro.network.deployment import Deployment
from repro.network.network import Network
from repro.rng import derive
from repro.serve import PlanResultCache, QueryService, build_schedule
from repro.serve.report import COMPLETE_OUTCOMES
from repro.serve.schedule import ServeRequest, ServeSchedule

from perfbench.oracle import Oracle
from perfbench.pace import Pace
from perfbench.tracing import Tracer

DIMENSIONS = 3
#: Section 5.1: 40 m radio range, ~20 neighbors.
RADIO_RANGE = 40.0
TARGET_DEGREE = 20.0
#: The cell -- topology and Pool pivots -- is pinned per workload, like
#: the paper's fixed deployment, and so is the main serve traffic of
#: ``serve-mixed-900``; ``--seed`` drives the events, queries and the
#: probes' schedules.  Runs at different seeds then differ in what a user
#: would vary, not in the luck of one deployment draw.
CELL_SEED = 0
#: The query mix: exact/uniform, exact/exponential and 1-partial queries,
#: interleaved.  The query round of every segment asks this many of each
#: kind per store (1,020 timed queries on two stores, enough for a p99
#: with ten samples beyond it).
PROBE_PER_KIND = 170
#: Serve traffic, as in ``pool-bench serve``: exact queries with uniform
#: widths, ``bursts`` over 3 sinks, 75% repeats of a 16-query hot pool,
#: 8 requests per simulated second, a 0.2 s batch window.  The traffic is
#: a run of epochs of 160 requests (20 s at 8 req/s), each the start of
#: its own schedule with its own hot pool, replayed in windows of 80
#: requests with inserts between them.  Which 16 queries are hot, and how
#: many requests fall between two rounds of writes, decide most of what
#: the traffic costs per request, and DIM's cost per query is heavy-tailed:
#: over seeds 1-5, even eight epochs per run left ``msgs_per_serve_req``
#: and ``serve_req_per_s`` of ``serve-mixed-900`` spreading 0.15 (IQR /
#: median, ``perfbench/README.md``).  So ``serve-mixed-900`` serves eight
#: epochs per store drawn from ``CELL_SEED``, the same in every run; the
#: Pool-only probe serves six drawn from the run's seed.
BATCH_WINDOW_S = 0.2
SERVE_RATE = 8.0
SERVE_EPOCH_REQUESTS = 160
SERVE_WINDOW_REQUESTS = 80
SERVE_EPOCHS = 8
PROBE_SERVE_EPOCHS = 6

Store = tuple[str, Any, Oracle]


# --------------------------------------------------------------------- #
# Samples and the measuring context                                     #
# --------------------------------------------------------------------- #


@dataclass
class Reference:
    """Simulated costs of the reference work (deterministic per seed)."""

    inserts: int = 0
    insert_msgs: int = 0
    query_msgs: dict[str, list[int]] = field(
        default_factory=lambda: {"pool": [], "dim": []}
    )
    serve_requests: int = 0
    serve_msgs: int = 0
    serve_latencies: list[float] = field(default_factory=list)
    cache_hits: int = 0
    cache_lookups: int = 0
    cache_invalidations: int = 0


@dataclass
class Run:
    """Everything one run measures, plus the oracle's verdicts."""

    seed: int
    tracer: Tracer | None = None
    #: Whether the work now running is reference work (see module doc).
    ref: bool = False
    #: kind -> (start, end) of every timed call: one insert, one query,
    #: or one serve batch of several requests.
    times: dict[str, list[tuple[float, float]]] = field(
        default_factory=lambda: {"insert": [], "query": [], "serve": []}
    )
    served: int = 0
    pace: Pace = field(default_factory=Pace)
    setup_layers: dict[str, list[float]] = field(
        default_factory=lambda: {"network.deploy_s": [], "routing.planarize_s": []}
    )
    reference: Reference = field(default_factory=Reference)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)

    def timed(self, kind: str, started: float, ended: float) -> None:
        """Record one timed call (traced segments run wrapped code, so
        not theirs), then let the pace probe the host."""
        if self.tracer is None:
            self.times[kind].append((started, ended))
        self.pace.tick()

    def next_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op += 1

    def watch(self, label: str, system: Any) -> None:
        if self.tracer is not None:
            self.tracer.watch_system(label, system)

    def watch_deployment(self, deployment: Deployment) -> None:
        if self.tracer is not None:
            self.tracer.watch_router(deployment.router)
            engine = getattr(deployment, "engine", None)
            if engine is not None:
                self.tracer.watch_engine(engine)


# --------------------------------------------------------------------- #
# Cell building and inputs                                              #
# --------------------------------------------------------------------- #


def deploy(run: Run, size: int) -> Deployment:
    started = perf_counter()
    deployment = Deployment.deploy(
        size,
        radio_range=RADIO_RANGE,
        target_degree=TARGET_DEGREE,
        seed=derive(CELL_SEED, "perfbench-topology", size),
    )
    run.setup_layers["network.deploy_s"].append(perf_counter() - started)
    return deployment


def planarize(run: Run | None, deployment: Deployment) -> None:
    """Build the planar graph now instead of inside the first perimeter route."""
    started = perf_counter()
    deployment.router.planar_adjacency
    if run is not None:
        run.setup_layers["routing.planarize_s"].append(perf_counter() - started)


def pool_store(root: Network) -> Store:
    pool = PoolSystem(
        root.scope("pool"), DIMENSIONS, seed=derive(CELL_SEED, "perfbench-pivots")
    )
    return ("pool", pool, Oracle(DIMENSIONS))


def dim_store(root: Network) -> Store:
    return ("dim", DimIndex(root.scope("dim"), DIMENSIONS), Oracle(DIMENSIONS))


def pool_and_dim(root: Network) -> list[Store]:
    return [pool_store(root), dim_store(root)]


def sinks_of(deployment: Deployment, count: int = 3) -> tuple[int, ...]:
    """The field centre (the base station), then quadrant centres."""
    topology = deployment.topology
    area = topology.field
    points = [
        tuple(area.center),
        (area.x_min + area.width * 0.25, area.y_min + area.height * 0.25),
        (area.x_min + area.width * 0.75, area.y_min + area.height * 0.75),
        (area.x_min + area.width * 0.25, area.y_min + area.height * 0.75),
        (area.x_min + area.width * 0.75, area.y_min + area.height * 0.25),
    ]
    sinks: list[int] = []
    for point in points:
        node = topology.closest_node(point)
        if node not in sinks:
            sinks.append(node)
        if len(sinks) == count:
            break
    return tuple(sinks)


def make_events(deployment: Deployment, count: int, seed: int, key: str) -> list[Any]:
    return EventWorkload(dimensions=DIMENSIONS).generate(
        count,
        seed=derive(seed, "perfbench-events", key),
        sources=list(deployment.topology),
    )


def query_mix(seed: int, per_kind: int, key: str) -> list[Any]:
    """``per_kind`` queries of each kind of the mix, interleaved so every
    stretch of a round carries the whole mix."""
    kinds = [
        QueryWorkload(dimensions=DIMENSIONS, kind="exact", range_sizes="uniform"),
        QueryWorkload(dimensions=DIMENSIONS, kind="exact", range_sizes="exponential"),
        QueryWorkload(dimensions=DIMENSIONS, kind="partial", unspecified=1),
    ]
    batches = [
        kind.generate(per_kind, seed=derive(seed, "perfbench-mix", key, i))
        for i, kind in enumerate(kinds)
    ]
    return [query for group in zip(*batches) for query in group]


def serve_windows(
    seed: int, sinks: Sequence[int], epochs: int, key: str
) -> list[list[ServeSchedule]]:
    """``epochs`` epochs of the serve traffic, cut into windows of
    ``SERVE_WINDOW_REQUESTS``, each a list of the batches
    ``QueryService`` forms with ``BATCH_WINDOW_S``.

    An epoch is the first ``SERVE_EPOCH_REQUESTS`` requests of its own
    schedule, moved to start where the last epoch ended and numbered on
    from it, so every seed serves as many requests, and as many between
    two rounds of writes.  Replaying one batch per ``QueryService.run``
    call serves exactly what one call over the whole traffic would (same
    batches, same clock, same cache), and times each batch on its own.
    """
    workload = QueryWorkload(dimensions=DIMENSIONS, kind="exact", range_sizes="uniform")
    # Twice the span an epoch takes at the mean rate: never too short.
    span = 2 * SERVE_EPOCH_REQUESTS / SERVE_RATE
    requests: list[ServeRequest] = []
    for epoch in range(epochs):
        schedule = build_schedule(
            workload=workload,
            sinks=sinks,
            duration=span,
            rate=SERVE_RATE,
            seed=derive(seed, "perfbench-schedule", key, epoch),
            pattern="bursts",
            repeat_fraction=0.75,
            unique_queries=16,
        )
        head = schedule.requests[:SERVE_EPOCH_REQUESTS]
        if len(head) < SERVE_EPOCH_REQUESTS:
            raise RuntimeError(f"serve epoch {epoch} has {len(head)} requests")
        first_id = len(requests)
        start = requests[-1].time if requests else 0.0
        requests.extend(
            replace(request, request_id=first_id + number, time=start + request.time)
            for number, request in enumerate(head)
        )
    duration = requests[-1].time
    windows = []
    for offset in range(0, len(requests), SERVE_WINDOW_REQUESTS):
        window = requests[offset : offset + SERVE_WINDOW_REQUESTS]
        batches = []
        first = 0
        while first < len(window):
            close = window[first].time + BATCH_WINDOW_S
            last = first + 1
            while last < len(window) and window[last].time <= close:
                last += 1
            batches.append(
                ServeSchedule(requests=tuple(window[first:last]), duration=duration)
            )
            first = last
        windows.append(batches)
    return windows


def requests_of(windows: Sequence[Sequence[ServeSchedule]]) -> list[tuple[int, Any]]:
    return [
        (request.sink, request.query)
        for batches in windows
        for batch in batches
        for request in batch.requests
    ]


@dataclass
class Probes:
    """The probe inputs every segment of a workload ends with."""

    sink: int
    queries: list[Any]
    windows: list[list[ServeSchedule]]

    @classmethod
    def make(cls, seed: int, sinks: Sequence[int]) -> "Probes":
        return cls(
            sink=sinks[0],
            queries=query_mix(seed, PROBE_PER_KIND, "probe"),
            windows=serve_windows(seed, sinks, PROBE_SERVE_EPOCHS, "probe"),
        )

    def run(self, run: Run, stores: Sequence[Store]) -> None:
        """The query round on every store, then the schedule on Pool's."""
        query_round(run, stores, self.sink, self.queries)
        serve_phase(run, stores[:1], self.windows)


def warm_up(run: Run, stores: Sequence[Store], requests: Sequence[tuple[int, Any]]) -> None:
    """Plan and execute each distinct (sink, query) once, untimed.

    This builds every route the timed work will take over a router that
    outlives the segments, so the first segment starts from the same
    route cache as the later ones.  Folding builds nothing, so it is
    skipped.
    """
    distinct = {(sink, id(query)): (sink, query) for sink, query in requests}
    for sink, query in distinct.values():
        for _, store, _ in stores:
            _guard(
                run,
                "warm-up query",
                lambda: store.execute_plan(store.plan_query(sink, query)),
            )


# --------------------------------------------------------------------- #
# Timed phases                                                          #
# --------------------------------------------------------------------- #


def _guard(run: Run, what: str, call: Callable[[], Any]) -> Any:
    """Run one library call; an exception counts as a failed operation."""
    try:
        return call()
    except Exception:  # a failed operation is a result, not a crash
        run.fail(f"{what}: {traceback.format_exc(limit=3)}")
        return None


def insert_one(run: Run, store: Any, oracle: Oracle, event: Any) -> None:
    """One timed insert; the oracle learns the event once it is delivered."""
    run.next_op()
    run.attempted += 1
    started = perf_counter()
    try:
        receipt = store.insert(event)
    except Exception:
        run.fail(f"insert: {traceback.format_exc(limit=3)}")
        return
    run.timed("insert", started, perf_counter())
    if receipt.delivered:
        oracle.add(event)
    else:
        run.fail(f"insert undelivered to node {receipt.home_node}")


def insert_phase(run: Run, stores: Sequence[Store], events: Sequence[Any]) -> None:
    """Insert every event into every store, one timed call each.

    Stores take turns per event, so host-speed drift during the phase
    hits every store alike.
    """
    ledgers = [store.network.stats for _, store, _ in stores]
    marks = [ledger.checkpoint() for ledger in ledgers]
    for event in events:
        for _, store, oracle in stores:
            insert_one(run, store, oracle, event)
    if run.ref:
        run.reference.inserts += len(events) * len(stores)
        run.reference.insert_msgs += sum(
            sum(ledger.delta(mark).values()) for ledger, mark in zip(ledgers, marks)
        )


def query_round(
    run: Run,
    stores: Sequence[Store],
    sink: int,
    queries: Sequence[Any],
    timed: bool = True,
) -> None:
    """Ask every query of every store once from ``sink``, one call each,
    timed unless ``timed`` is false.

    Answers are checked against the oracle outside the timed call.
    """
    for query in queries:
        for label, store, oracle in stores:
            run.next_op()
            run.attempted += 1
            started = perf_counter()
            try:
                result = store.query(sink, query)
            except Exception:
                run.fail(f"query: {traceback.format_exc(limit=3)}")
                continue
            if timed:
                run.timed("query", started, perf_counter())
            if result.is_partial or not oracle.agrees(query, result.events):
                run.fail(f"{label} query answer differs from the scan: {query!r}")
            if run.ref:
                run.reference.query_msgs[label].append(result.total_cost)


def serve_phase(
    run: Run,
    stores: Sequence[Store],
    windows: Sequence[Sequence[ServeSchedule]],
    writes: Sequence[Sequence[Any]] = (),
) -> None:
    """Replay ``windows`` through a cached ``QueryService`` per store.

    Before window ``i`` the store takes ``writes[i]`` as timed inserts,
    whose insert listeners invalidate the cache.  Each batch is one timed
    ``QueryService.run``; each served request's match count is checked
    against the oracle afterwards.
    """
    for label, store, oracle in stores:
        cache = PlanResultCache()
        with QueryService(
            store, name=label, cache=cache, batch_window=BATCH_WINDOW_S
        ) as service:
            if run.tracer is not None:
                run.tracer.watch_service(service, cache)
            for index, batches in enumerate(windows):
                burst = writes[index] if index < len(writes) else ()
                mark = store.network.stats.checkpoint()
                for event in burst:
                    insert_one(run, store, oracle, event)
                if run.ref:
                    run.reference.inserts += len(burst)
                    run.reference.insert_msgs += sum(
                        store.network.stats.delta(mark).values()
                    )
                for batch in batches:
                    run.next_op()
                    run.attempted += len(batch)
                    started = perf_counter()
                    report = _guard(run, "serve", lambda: service.run(batch))
                    run.timed("serve", started, perf_counter())
                    if report is None:
                        continue
                    if run.tracer is None:
                        run.served += len(batch)
                    check_served(run, label, oracle, batch, report)
        if run.ref:
            run.reference.cache_hits += cache.hits
            run.reference.cache_lookups += cache.hits + cache.misses
            run.reference.cache_invalidations += cache.invalidations


def check_served(
    run: Run, label: str, oracle: Oracle, batch: ServeSchedule, report: Any
) -> None:
    """Every request answered in full, with the scan's match count."""
    queries = {request.request_id: request.query for request in batch.requests}
    for served in report.served:
        if served.outcome not in COMPLETE_OUTCOMES or served.matches != (
            oracle.count(queries[served.request_id])
        ):
            run.fail(
                f"{label} served request {served.request_id} "
                f"({served.outcome}) differs from the scan"
            )
    if run.ref:
        run.reference.serve_requests += len(report.served)
        run.reference.serve_msgs += report.messages_total
        run.reference.serve_latencies.extend(
            served.latency_s for served in report.served
        )


# --------------------------------------------------------------------- #
# Workloads                                                             #
# --------------------------------------------------------------------- #


class Workload:
    """A cell built once per set-up, and the segments run over it.

    ``segment`` must start from the same state every time it is called;
    ``reset`` restores that state, untimed, between segments.
    """

    name = ""
    #: Segments per second of ``--seconds``: a fixed count for a given
    #: ``--seconds``, however fast or slow the host runs.
    segments_per_s = 0.5

    def setup(self, run: Run) -> None:
        raise NotImplementedError

    def reference(self, run: Run) -> None:
        """Untimed work, once per run after the last set-up, that only
        the simulated costs need."""

    def reset(self, run: Run) -> None:
        """Undo what the last segment changed."""

    def segment(self, run: Run) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the last set-up holds (shard workers)."""


class IngestCold2k(Workload):
    """Routing: cold GPSR routes for every (source, index node) pair."""

    name = "ingest-cold-2k"
    size = 2000
    events_per_node = 3
    segments_per_s = 0.15

    def setup(self, run: Run) -> None:
        self.deployment = deploy(run, self.size)
        planarize(run, self.deployment)
        self.stores = pool_and_dim(Network(deployment=self.deployment))
        self.events = make_events(
            self.deployment, self.events_per_node * self.size, run.seed, "ingest"
        )
        self.probes = Probes.make(run.seed, sinks_of(self.deployment))

    def reset(self, run: Run) -> None:
        # Same topology, fresh router: the route cache starts cold again.
        self.deployment = Deployment(self.deployment.topology)
        planarize(None, self.deployment)
        self.stores = pool_and_dim(Network(deployment=self.deployment))

    def segment(self, run: Run) -> None:
        run.watch_deployment(self.deployment)
        for label, store, _ in self.stores:
            run.watch(span_prefix(label), store)
        insert_phase(run, self.stores, self.events)
        self.probes.run(run, self.stores)


class ServeMixed900(Workload):
    """Serving: cache lookups, coalescing and invalidation under writes."""

    name = "serve-mixed-900"
    size = 900
    events_per_node = 3
    writes_per_window = 20
    segments_per_s = 0.25

    def setup(self, run: Run) -> None:
        self.deployment = deploy(run, self.size)
        planarize(run, self.deployment)
        self.root = Network(deployment=self.deployment)
        self.preload = make_events(
            self.deployment, self.events_per_node * self.size, run.seed, "preload"
        )
        self.stores = pool_and_dim(self.root)
        insert_phase(run, self.stores, self.preload)
        sinks = sinks_of(self.deployment)
        self.sink = sinks[0]
        self.queries = query_mix(run.seed, PROBE_PER_KIND, "probe")
        # Pinned, like the cell (see ``CELL_SEED`` and ``SERVE_EPOCHS``).
        self.windows = serve_windows(CELL_SEED, sinks, SERVE_EPOCHS, "main")
        writes = make_events(
            self.deployment,
            self.writes_per_window * len(self.windows),
            run.seed,
            "writes",
        )
        self.writes = [
            writes[i : i + self.writes_per_window]
            for i in range(0, len(writes), self.writes_per_window)
        ]
        warm_up(
            run,
            self.stores,
            [(self.sink, query) for query in self.queries] + requests_of(self.windows),
        )

    def reset(self, run: Run) -> None:
        # Back to the preloaded state over the same (warm) router.
        self.stores = pool_and_dim(self.root)
        for event in self.preload:
            for _, store, oracle in self.stores:
                receipt = _guard(run, "reload", lambda: store.insert(event))
                if receipt is None or not receipt.delivered:
                    run.fail("reload insert failed")
                else:
                    oracle.add(event)

    def segment(self, run: Run) -> None:
        run.watch_deployment(self.deployment)
        for label, store, _ in self.stores:
            run.watch(span_prefix(label), store)
        query_round(run, self.stores, self.sink, self.queries)
        serve_phase(run, self.stores, self.windows, self.writes)


class Sharded10k(Workload):
    """The BSP shard engine at the ROADMAP's 10^4-node scale."""

    name = "sharded-10k"
    size = 10_000
    shards = 4
    dim_events = 500
    #: DIM is here only for ``dim.msgs_per_query``: once per run, after
    #: set-up, it answers the first third of the probe mix (every kind),
    #: untimed, which its 10^4-node zone tree makes costlier than Pool's
    #: whole round.
    dim_queries = PROBE_PER_KIND
    segments_per_s = 0.1

    def setup(self, run: Run) -> None:
        # DIM runs on the monolithic router, planarized here; Pool runs on
        # a fresh shard partition of the same topology in every segment,
        # whose tiles planarize themselves inside their first routes.
        self.deployment = deploy(run, self.size)
        planarize(run, self.deployment)
        self.dim = dim_store(Network(deployment=self.deployment))
        dim_events = make_events(self.deployment, self.dim_events, run.seed, "dim")
        insert_phase(run, [self.dim], dim_events)
        self.events = make_events(self.deployment, self.size, run.seed, "ingest")
        self.probes = Probes.make(run.seed, sinks_of(self.deployment))
        self.sharded: Any = None
        self.reset(run)

    def reference(self, run: Run) -> None:
        dim_probes = self.probes.queries[: self.dim_queries]
        query_round(run, [self.dim], self.probes.sink, dim_probes, timed=False)

    def reset(self, run: Run) -> None:
        self.close()
        self.sharded = self.deployment.shard(self.shards, workers="inline")
        self.pool = pool_store(Network(deployment=self.sharded))

    def segment(self, run: Run) -> None:
        run.watch_deployment(self.sharded)
        run.watch("core", self.pool[1])
        insert_phase(run, [self.pool], self.events)
        self.probes.run(run, [self.pool])

    def close(self) -> None:
        if self.sharded is not None:
            self.sharded.close()


def span_prefix(store_label: str) -> str:
    """Span prefix of a store: the Pool core is ``core``, DIM is ``dim``."""
    return "core" if store_label == "pool" else store_label


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (IngestCold2k, ServeMixed900, Sharded10k)
}
