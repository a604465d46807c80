"""Tests for the merged-prefix multicast tree builder."""

from __future__ import annotations

import pytest

from repro.network.topology import deploy_uniform
from repro.routing.gpsr import GPSRRouter
from repro.routing.multicast import MulticastTree, TreeBuilder


@pytest.fixture(scope="module")
def router():
    return GPSRRouter(deploy_uniform(300, seed=1))


def _build(router, root, destinations):
    builder = TreeBuilder(router, root)
    builder.add_destinations(list(destinations))
    return builder.build()


class TestTreeStructure:
    def test_single_destination_is_unicast_path(self, router):
        tree = _build(router, 0, [137])
        path = router.path(0, 137)
        assert tree.forward_cost == len(path) - 1
        assert tree.edges == frozenset(zip(path, path[1:]))

    def test_each_node_has_one_parent(self, router):
        tree = _build(router, 0, [50, 100, 150, 200, 250])
        children_of = {}
        parents = {}
        for parent, child in tree.edges:
            assert child not in parents, "node grafted twice"
            parents[child] = parent
        assert 0 not in parents  # root has no parent

    def test_all_destinations_reachable_from_root(self, router):
        destinations = [40, 80, 120, 160, 200, 240, 280]
        tree = _build(router, 5, destinations)
        reachable = {5}
        frontier = [5]
        children = tree.children()
        while frontier:
            node = frontier.pop()
            for child in children.get(node, ()):
                reachable.add(child)
                frontier.append(child)
        assert set(destinations) <= reachable

    def test_no_cycles(self, router):
        tree = _build(router, 0, [50, 100, 150, 200])
        # |edges| == |nodes| - 1 for a tree rooted at 0.
        assert len(tree.edges) == len(tree.nodes()) - 1

    def test_prefix_sharing_saves_messages(self, router):
        # Two destinations adjacent to each other share most of the route.
        topo = router.topology
        d1 = 170
        d2 = topo.neighbors(d1)[0]
        tree = _build(router, 0, [d1, d2])
        individual = router.hops(0, d1) + router.hops(0, d2)
        assert tree.forward_cost < individual

    def test_duplicate_destination_is_free(self, router):
        tree_once = _build(router, 0, [90])
        tree_twice = _build(router, 0, [90, 90])
        assert tree_once.forward_cost == tree_twice.forward_cost
        assert tree_twice.destinations == (90,)  # duplicates deduped

    def test_root_as_destination_is_free(self, router):
        tree = _build(router, 7, [7])
        assert tree.forward_cost == 0
        assert tree.destinations == (7,)


class TestCosts:
    def test_reply_equals_forward(self, router):
        tree = _build(router, 0, [60, 120, 180])
        assert tree.reply_cost == tree.forward_cost
        assert tree.total_cost == 2 * tree.forward_cost

    def test_cost_at_most_sum_of_unicasts(self, router):
        destinations = [33, 66, 99, 132, 165, 198]
        tree = _build(router, 0, destinations)
        assert tree.forward_cost <= sum(
            router.hops(0, d) for d in destinations
        )

    def test_cost_at_least_max_unicast(self, router):
        destinations = [33, 66, 99]
        tree = _build(router, 0, destinations)
        assert tree.forward_cost >= max(router.hops(0, d) for d in destinations)


class TestDepth:
    def test_depth_of_root(self, router):
        tree = _build(router, 3, [50])
        assert tree.depth_of(3) == 0

    def test_depth_of_destination_matches_path(self, router):
        tree = _build(router, 3, [50])
        assert tree.depth_of(50) == router.hops(3, 50)

    def test_edgeless_tree(self):
        tree = MulticastTree(root=4, destinations=(), edges=frozenset())
        assert tree.height() == 0
        assert tree.depth_of(4) == 0

    def test_depths_are_not_an_input(self):
        with pytest.raises(TypeError):
            MulticastTree(0, (), frozenset(), {0: 5})
        with pytest.raises(TypeError):
            MulticastTree(root=0, destinations=(), edges=frozenset(), _depths={0: 5})


class _StubRouter:
    """Serves fixed paths, including perimeter-style revisits of a node."""

    def __init__(self, paths):
        self.paths = paths

    def prefetch(self, root, destinations):
        pass

    def path(self, source, target):
        return self.paths[target]


def _forward_scan_edges(root, paths, destinations):
    """The splice as a forward scan for the last path node in the tree."""
    edges, reached = set(), {root}
    for node in destinations:
        if node in reached:
            continue
        path = paths[node]
        splice_index = max(i for i, hop in enumerate(path) if hop in reached)
        for parent, child in zip(path[splice_index:], path[splice_index + 1 :]):
            if child not in reached:
                edges.add((parent, child))
                reached.add(child)
    return frozenset(edges)


class TestSplice:
    PATHS = {
        # 0 -> 1 -> 2 -> 3, back to 2 (a perimeter detour), then on to 5.
        5: [0, 1, 2, 3, 2, 5],
        # Shares 0-1-2 and revisits 3 after leaving it.
        7: [0, 1, 2, 3, 6, 3, 7],
        # Re-enters the tree at 1 after a detour through new node 8.
        9: [0, 8, 1, 9],
        # Revisits the root itself.
        4: [0, 10, 0, 1, 4],
        3: [0, 1, 2, 3],
    }

    @pytest.mark.parametrize(
        "order", [[5, 7, 9, 4, 3], [3, 9, 4, 7, 5], [4, 5, 3, 7, 9]]
    )
    def test_backward_walk_matches_forward_scan(self, order):
        builder = TreeBuilder(_StubRouter(self.PATHS), 0)
        builder.add_destinations(order)
        tree = builder.build()
        assert tree.edges == _forward_scan_edges(0, self.PATHS, order)
        children = [child for _, child in tree.edges]
        assert len(children) == len(set(children)), "a node got two parents"

    def test_revisited_node_keeps_first_parent(self):
        builder = TreeBuilder(_StubRouter(self.PATHS), 0)
        builder.add_destination(5)
        assert builder.build().edges == frozenset(
            {(0, 1), (1, 2), (2, 3), (2, 5)}
        )
