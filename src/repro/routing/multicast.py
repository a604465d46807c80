"""Merged-prefix forwarding trees for query dissemination and replies.

Section 3.2.3 of the paper: "the entire query forwarding paths form a
tree, which enables the system to consume sensor energy more efficiently
than by unicasting the query to index nodes individually", and replies
aggregate on the way back.

The tree is built by unioning the GPSR unicast paths from a root to each
destination: a hop shared by several destinations carries the query only
once.  GPSR paths are deterministic per topology, so nearby destinations
share long prefixes and the tree is genuinely cheaper than independent
unicasts.  DIM is given exactly the same machinery so the cost comparison
is apples-to-apples (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.routing.gpsr import GPSRRouter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.spans import SpanRecorder

__all__ = ["MulticastTree", "TreeDelivery", "TreeBuilder"]


@dataclass(slots=True)
class MulticastTree:
    """An immutable dissemination tree rooted at ``root``.

    ``edges`` are directed parent→child pairs; each edge carries the query
    exactly once downstream (``forward_cost``) and one aggregated reply
    upstream (``reply_cost``).
    """

    root: int
    destinations: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    _depths: dict[int, int] | None = field(
        init=False, default=None, repr=False, compare=False
    )

    @property
    def forward_cost(self) -> int:
        """Transmissions to push the query to every destination."""
        return len(self.edges)

    @property
    def reply_cost(self) -> int:
        """Transmissions to aggregate every destination's reply to the root.

        One reply message per tree edge: children's replies merge at branch
        points (the paper's in-splitter aggregation).
        """
        return len(self.edges)

    @property
    def total_cost(self) -> int:
        """The paper's query-processing cost for this tree."""
        return self.forward_cost + self.reply_cost

    def nodes(self) -> set[int]:
        """All node ids touched by the tree (including the root)."""
        return set(self.depths())

    def children(self) -> dict[int, list[int]]:
        """Adjacency (parent → sorted children) for traversals/tests."""
        table: dict[int, list[int]] = {}
        for parent, child in self.edges:
            table.setdefault(parent, []).append(child)
        for kids in table.values():
            kids.sort()
        return table

    def depths(self) -> dict[int, int]:
        """Hop distance from the root of every tree node.

        Computed once, level by level from the root, and kept: the tree
        never changes after it is built.  The map is shared between
        calls; do not modify it.
        """
        if self._depths is None:
            kids: dict[int, list[int]] = {}
            for parent, child in self.edges:
                kids.setdefault(parent, []).append(child)
            depths = {self.root: 0}
            level = [self.root]
            while level:
                below: list[int] = []
                for node in level:
                    for child in kids.get(node, ()):
                        if child not in depths:
                            depths[child] = depths[node] + 1
                            below.append(child)
                level = below
            self._depths = depths
        return self._depths

    def height(self) -> int:
        """Hop depth of the deepest destination — the dissemination
        latency critical path (in hops) of this tree."""
        return max(self.depths().values())

    def depth_of(self, node: int) -> int:
        """Hop distance from the root to ``node`` along tree edges."""
        return self.depths()[node]


@dataclass(slots=True)
class TreeDelivery:
    """Outcome of pushing a query down a :class:`MulticastTree` under loss.

    ``reached`` is the set of tree nodes the dissemination actually
    arrived at (always includes the root); an edge whose ARQ budget was
    exhausted prunes its whole subtree — those edges are never attempted,
    mirroring a real forwarding tree where a dead branch cannot relay.
    ``attempted_edges`` is the number of tree edges whose first attempt
    was made (the lossless ``forward_cost`` when nothing fails).
    """

    tree: MulticastTree
    reached: frozenset[int]
    attempted_edges: int

    @property
    def complete(self) -> bool:
        """Did every destination receive the query?"""
        return all(node in self.reached for node in self.tree.destinations)

    def reached_destinations(self) -> tuple[int, ...]:
        return tuple(n for n in self.tree.destinations if n in self.reached)

    def unreachable_destinations(self) -> tuple[int, ...]:
        return tuple(n for n in self.tree.destinations if n not in self.reached)


class TreeBuilder:
    """Incrementally merge unicast paths into a :class:`MulticastTree`.

    Usage::

        builder = TreeBuilder(router, root=sink)
        for index_node in relevant_nodes:
            builder.add_destination(index_node)
        tree = builder.build()
    """

    def __init__(
        self,
        router: GPSRRouter,
        root: int,
        *,
        recorder: "SpanRecorder | None" = None,
    ) -> None:
        self.router = router
        self.root = root
        self.recorder = recorder
        self._edges: set[tuple[int, int]] = set()
        self._destinations: dict[int, None] = {}
        self._reached: set[int] = {root}

    def add_destination(self, node: int) -> None:
        """Graft the GPSR path ``root -> node`` onto the tree.

        The path is walked backward from the destination and grafting stops
        at the first node already in the tree, so shared prefixes are never
        re-added and the structure stays a tree (each node has one parent).
        """
        reached = self._reached
        if node in reached:
            self._destinations.setdefault(node)
            return
        # Route planning, not a send: the grafted edges are charged in
        # bulk when the finished tree is disseminated.
        path = self.router.path(self.root, node)  # repro-lint: ignore[REP101]
        # Splice from the deepest path node already in the tree: walking
        # back from the destination, the first one found.  ``path[0]`` is
        # the root, so the walk always stops.
        splice_index = len(path) - 1
        while path[splice_index] not in reached:
            splice_index -= 1
        for parent, child in zip(path[splice_index:], path[splice_index + 1 :]):
            if child in reached:
                # The path re-enters the tree; keep the existing parent.
                continue
            self._edges.add((parent, child))
            reached.add(child)
        self._destinations[node] = None

    def add_destinations(self, nodes: list[int]) -> None:
        """Graft several destinations (deterministic order).

        The batch is prefetched first — a no-op on the monolithic router,
        but the shard router's override routes all missing paths through
        shared bulk-synchronous exchange rounds, so a tree over K tiles
        costs rounds proportional to its depth, not to its fan-out.  The
        grafting below then consumes identical cached paths either way.
        """
        self.router.prefetch(self.root, nodes)
        for node in nodes:
            self.add_destination(node)

    def build(self) -> MulticastTree:
        """Freeze the current tree.

        With a telemetry recorder attached, records one ``cell-fanout``
        span under whatever span is currently open (the per-Pool span
        during query execution): the dissemination leg of Section 3.2.3,
        one message per tree edge.
        """
        tree = MulticastTree(
            root=self.root,
            destinations=tuple(self._destinations),
            edges=frozenset(self._edges),
        )
        if self.recorder is not None:
            attrs: dict[str, int] = {
                "root": self.root,
                "destinations": len(tree.destinations),
            }
            plan = getattr(self.router, "plan", None)
            if plan is not None:
                # Sharded runs tag the span with the tile that owns the
                # tree root; the telemetry merge strips the tag, restoring
                # the byte-identical unsharded record.
                root_x, root_y = self.router.topology.position(self.root)
                attrs["shard_id"] = plan.owner_of_position(root_x, root_y)
            self.recorder.record(
                "cell-fanout",
                phase="forward",
                messages=tree.forward_cost,
                nodes=tree.nodes(),
                **attrs,
            )
        return tree
