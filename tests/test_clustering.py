"""Bipartite graph, modularity, and Louvain clustering tests.

The modularity oracle is a direct double loop over user-item pairs; the
toy-graph maximum is certified by enumerating all set partitions of the
nodes (Bell(4) = 15 for the 2x2 graph).  `louvain` is held move for move,
gains bit for bit, to `reference_louvain`, the same local moves with their
state in numpy.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diverank.clustering import (
    BipartiteGraph,
    assign_new_items,
    cluster_centroids,
    load_clusters,
    louvain,
    modularity,
    save_clusters,
)
from diverank.data import EmbeddingTable, ValidationError
from oracles import reference_louvain


def modularity_oracle(graph, labels):
    """Direct evaluation of the bipartite modularity sum over every
    user-item pair, scalar loops only (O(users * items))."""
    e = graph.n_edges
    total = 0.0
    for ui in range(graph.n_users):
        k_u = len(graph.adjacency[ui])
        for ij in range(len(graph.item_ids)):
            node_j = graph.n_users + ij
            if labels[ui] != labels[node_j]:
                continue
            a = 1.0 if node_j in graph.adjacency[ui] else 0.0
            total += a - k_u * len(graph.adjacency[node_j]) / e
    return total / e


def all_partitions(nodes):
    """Every set partition of `nodes` (restricted-growth enumeration)."""
    nodes = list(nodes)
    if not nodes:
        yield []
        return
    first, rest = nodes[0], nodes[1:]
    for smaller in all_partitions(rest):
        for i, block in enumerate(smaller):
            yield smaller[:i] + [block + [first]] + smaller[i + 1:]
        yield [[first]] + smaller


def partition_sets(labels):
    groups = {}
    for node, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(node)
    return frozenset(frozenset(g) for g in groups.values())


@st.composite
def bipartite_edges(draw):
    """A random user-item edge set, or a circulant one (user u linked to
    items u + s mod n for a set of shifts s) in which every node has the
    same degree, so that equal gains tie."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 9))
        shifts = draw(st.sets(st.integers(0, n - 1), min_size=1))
        return [(f"u{u}", f"i{(u + s) % n}") for u in range(n) for s in shifts]
    users, items = draw(st.integers(1, 9)), draw(st.integers(1, 12))
    cells = draw(st.sets(st.tuples(st.integers(0, users - 1), st.integers(0, items - 1)), min_size=1))
    return [(f"u{u}", f"i{i}") for u, i in cells]


def toy_graph():
    # Two users, two items, one edge each: (u1,i1), (u2,i2).
    return BipartiteGraph.from_edges([("u1", "i1"), ("u2", "i2")])


class TestGraphConstruction:
    def test_two_events(self):
        g = toy_graph()
        assert g.n_nodes == 4
        assert g.n_edges == 2
        assert all(len(g.adjacency[n]) == 1 for n in range(4))

    def test_duplicate_edges_collapse(self):
        g = BipartiteGraph.from_edges([("u1", "i1"), ("u1", "i1")])
        assert g.n_edges == 1

    def test_star(self):
        g = BipartiteGraph.from_edges([("u1", "i1"), ("u1", "i2"), ("u1", "i3")])
        assert g.n_edges == 3
        assert len(g.adjacency[0]) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            BipartiteGraph.from_edges([])


class TestModularity:
    def test_block_partition_is_half(self):
        g = toy_graph()
        # {u1,i1} cluster 0, {u2,i2} cluster 1; node order is users then items.
        labels = np.array([0, 1, 0, 1])
        assert modularity(g, labels) == pytest.approx(0.5)

    def test_single_cluster_is_zero(self):
        g = toy_graph()
        labels = np.zeros(4, dtype=int)
        # (1/2)[(1-.5) + (0-.5) + (0-.5) + (1-.5)] = 0
        assert modularity(g, labels) == pytest.approx(0.0)

    def test_all_singletons_is_zero(self):
        g = toy_graph()
        labels = np.arange(4)
        assert modularity(g, labels) == pytest.approx(0.0)

    def test_enumeration_certifies_maximum(self):
        g = toy_graph()
        best_q = -np.inf
        best_parts = []
        for partition in all_partitions(range(4)):
            labels = np.empty(4, dtype=int)
            for cid, block in enumerate(partition):
                for node in block:
                    labels[node] = cid
            q = modularity(g, labels)
            if q > best_q + 1e-12:
                best_q = q
                best_parts = [partition_sets(labels)]
            elif abs(q - best_q) <= 1e-12:
                best_parts.append(partition_sets(labels))
        assert best_q == pytest.approx(0.5)
        # The block partition {u1,i1},{u2,i2} attains the maximum.
        assert partition_sets(np.array([0, 1, 0, 1])) in best_parts

    def test_matches_loop_oracle_on_random_graphs(self, rng):
        for _ in range(20):
            n_users, n_items = rng.integers(1, 9, size=2)
            edges = {
                (f"u{rng.integers(0, n_users)}", f"i{rng.integers(0, n_items)}")
                for _ in range(rng.integers(1, n_users * n_items + 1))
            }
            g = BipartiteGraph.from_edges(sorted(edges))
            # Singletons, all in one, and a random labeling with arbitrary ids.
            for labels in (
                np.arange(g.n_nodes),
                np.zeros(g.n_nodes, dtype=int),
                rng.integers(-2, 4, size=g.n_nodes) * 7,
            ):
                assert modularity(g, labels) == pytest.approx(
                    modularity_oracle(g, labels), abs=1e-12
                )


class TestLouvain:
    def test_toy_graph_finds_block_partition(self):
        g = toy_graph()
        result = louvain(g)
        assert modularity(g, result.labels) == pytest.approx(0.5)
        assert partition_sets(result.labels) == partition_sets([0, 1, 0, 1])

    def test_single_edge_graph(self):
        g = BipartiteGraph.from_edges([("u1", "i1")])
        result = louvain(g)
        # Q = 1*(1-1)/1 = 0 for the merged pair; merging cannot improve on
        # the singleton baseline, so singletons are kept.
        assert modularity(g, result.labels) == pytest.approx(0.0)

    def test_planted_two_blocks_recovered(self):
        edges = []
        for b in range(2):
            for u in range(5):
                for i in range(5):
                    edges.append((f"u{b * 5 + u}", f"i{b * 5 + i}"))
        g = BipartiteGraph.from_edges(edges)
        result = louvain(g)
        expected = partition_sets(
            [0] * 5 + [1] * 5 + [0] * 5 + [1] * 5  # users then items
        )
        assert partition_sets(result.labels) == expected

    def test_every_move_delta_matches_full_recompute(self, rng):
        edges = set()
        while len(edges) < 30:
            edges.add((f"u{rng.integers(0, 8)}", f"i{rng.integers(0, 10)}"))
        g = BipartiteGraph.from_edges(sorted(edges))
        result = louvain(g)
        labels = np.arange(g.n_nodes)  # replay from the singleton start
        q = modularity(g, labels)
        for node, src, dst, delta in result.move_log:
            assert labels[node] == src
            labels[node] = dst
            q_new = modularity(g, labels)
            assert q_new - q == pytest.approx(delta, abs=1e-10)
            assert delta > 0.0
            q = q_new
        # The returned ids number the replayed clusters densely, in order of first node.
        first_seen = {}
        dense = [first_seen.setdefault(lab, len(first_seen)) for lab in labels.tolist()]
        assert result.labels.tolist() == dense

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(edges=bipartite_edges())
    @example(edges=[("u1", "i1"), ("u1", "i2"), ("u2", "i1"), ("u2", "i2")])  # one tie after another
    def test_matches_the_reference_move_for_move(self, edges):
        g = BipartiteGraph.from_edges(edges)
        got, want = louvain(g), reference_louvain(g)
        assert got.move_log == want.move_log  # gains compared exactly
        assert got.labels.dtype == want.labels.dtype == np.int64
        assert got.labels.tolist() == want.labels.tolist()

    def test_beats_singletons_and_random_assignments(self, rng):
        edges = set()
        while len(edges) < 25:
            edges.add((f"u{rng.integers(0, 6)}", f"i{rng.integers(0, 8)}"))
        g = BipartiteGraph.from_edges(sorted(edges))
        result = louvain(g)
        q_louvain = modularity(g, result.labels)
        assert q_louvain >= modularity(g, np.arange(g.n_nodes)) - 1e-12
        n_clusters = result.n_clusters
        for _ in range(100):
            random_labels = rng.integers(0, n_clusters, size=g.n_nodes)
            assert q_louvain >= modularity(g, random_labels) - 1e-12

    def test_edge_order_invariance(self):
        edges = [("u1", "i1"), ("u1", "i2"), ("u2", "i2"), ("u3", "i3"), ("u2", "i1")]
        results = []
        for perm in itertools.permutations(edges):
            g = BipartiteGraph.from_edges(list(perm))
            results.append(partition_sets(louvain(g).labels))
        assert len(set(results)) == 1

    def test_seed_is_deterministic(self):
        g = toy_graph()
        a = louvain(g)
        b = louvain(g)
        assert np.array_equal(a.labels, b.labels)

    def test_cluster_ids_are_dense_in_first_node_order(self):
        g = BipartiteGraph.from_edges(
            [("u1", "i1"), ("u2", "i2"), ("u3", "i3")]
        )
        labels = louvain(g).labels.tolist()
        assert list(dict.fromkeys(labels)) == list(range(len(set(labels))))


class TestCentroidsAndAssignment:
    def table(self):
        return EmbeddingTable(("a", "b", "c"), np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 3.0]]))

    def test_centroid_is_member_mean(self):
        cents = cluster_centroids(self.table(), {"a": 0, "b": 1, "c": 1})
        assert np.allclose(cents[0], [1.0, 0.0])
        assert np.allclose(cents[1], [0.0, 2.0])

    def test_item_equal_to_centroid(self):
        cents = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
        assert assign_new_items(["x"], np.array([[0.0, 1.0]]), cents) == {"x": 1}

    def test_equidistant_takes_lowest_cluster(self):
        cents = {1: np.array([1.0, 0.0]), 2: np.array([0.0, 1.0])}
        assert assign_new_items(["x"], np.array([[1.0, 1.0]]), cents) == {"x": 1}

    def test_zero_vector_takes_lowest_among_max(self):
        cents = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
        # All dot products are 0: lowest cluster id wins.
        assert assign_new_items(["x"], np.array([[0.0, 0.0]]), cents) == {"x": 0}


class TestClusterIO:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "clusters.jsonl")
        mapping = {"b": 1, "a": 0, "c": 1}
        save_clusters(path, mapping)
        assert load_clusters(path) == mapping

    def test_file_sorted_by_item(self, tmp_path):
        path = tmp_path / "clusters.jsonl"
        save_clusters(str(path), {"b": 1, "a": 0})
        lines = path.read_text().strip().splitlines()
        assert '"a"' in lines[0]
        assert '"b"' in lines[1]
