"""Bipartite user-item graph clustering by modularity maximization.

The graph's null model only spans user-item pairs: the expected weight of
an edge between user i and item j is degree(i) * degree(j) / E, and
modularity is the normalized excess of realized over expected weight
inside clusters.  Local moves in the style of Louvain maximize it over a
single level (no graph contraction): nodes are scanned in ascending node
id and moved to the adjacent cluster with the largest strictly positive
gain, until a full pass changes nothing.  The moves keep their state in
plain Python ints (labels and degrees in lists, each side's per-cluster
degree sums in dicts), so a move's gain costs O(degree) with no numpy
scalar reads; numpy numbers the final clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Sequence

import numpy as np

from .data import EmbeddingTable, ValidationError, _check_id, _load_lines, _save_lines


@dataclass(frozen=True)
class BipartiteGraph:
    """Deduplicated user-item interaction graph.

    Node ids are dense integers: users first (sorted by external id),
    then items (sorted by external id), so every derived quantity is
    invariant to input edge order.
    """

    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]  # node id -> sorted neighbor node ids

    @classmethod
    def from_edges(cls, edges) -> "BipartiteGraph":
        """Build from (user_id, item_id) pairs; duplicates collapse."""
        pairs = {(str(u), str(i)) for u, i in edges}
        if not pairs:
            raise ValidationError("graph needs at least one edge")
        users = tuple(sorted({u for u, _ in pairs}))
        items = tuple(sorted({i for _, i in pairs}))
        uidx = {u: n for n, u in enumerate(users)}
        iidx = {i: len(users) + n for n, i in enumerate(items)}
        neighbors: list[set[int]] = [set() for _ in range(len(users) + len(items))]
        for u, i in pairs:
            a, b = uidx[u], iidx[i]
            neighbors[a].add(b)
            neighbors[b].add(a)
        adjacency = tuple(tuple(sorted(ns)) for ns in neighbors)
        return cls(user_ids=users, item_ids=items, adjacency=adjacency)

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_nodes(self) -> int:
        return len(self.user_ids) + len(self.item_ids)

    @property
    def n_edges(self) -> int:
        return sum(len(ns) for ns in self.adjacency) // 2

    def is_user(self, node: int) -> bool:
        return node < self.n_users

    def node_label(self, node: int) -> str:
        if self.is_user(node):
            return self.user_ids[node]
        return self.item_ids[node - self.n_users]


@dataclass
class ClusterAssignment:
    """Node id -> dense cluster id map over a bipartite graph."""

    graph: BipartiteGraph
    labels: np.ndarray  # int array, one entry per node
    move_log: list[tuple[int, int, int, float]] = field(default_factory=list)

    @property
    def n_clusters(self) -> int:
        return int(len(np.unique(self.labels)))

    def item_clusters(self) -> dict[str, int]:
        """External item id -> cluster id (the downstream interface)."""
        offset = self.graph.n_users
        return {
            item: int(self.labels[offset + n])
            for n, item in enumerate(self.graph.item_ids)
        }


def modularity(graph: BipartiteGraph, labels: np.ndarray) -> float:
    """Bipartite modularity of a node labeling, per community (Barber 2007).

    Q = (1/E) * sum over clusters c of (L_c - D^u_c * D^i_c / E), where
    L_c counts the edges inside c and D^u_c and D^i_c sum the degrees of
    its users and of its items.  This equals the sum over same-cluster
    user-item pairs of (A_uv - deg(u) * deg(v) / E), but costs one sort
    of the node labels plus O(E + C) work instead of O(users * items).
    """
    labels = np.asarray(labels)
    if labels.shape != (graph.n_nodes,):
        raise ValidationError("labels must cover every node exactly once")
    _, community = np.unique(labels, return_inverse=True)
    degree = np.fromiter(map(len, graph.adjacency), np.int64, graph.n_nodes)
    nu, nc = graph.n_users, int(community.max()) + 1
    # Users list every edge once, as (user, item) in their adjacency.
    items = np.fromiter(chain.from_iterable(graph.adjacency[:nu]), np.int64)
    inside = np.count_nonzero(np.repeat(community[:nu], degree[:nu]) == community[items])
    d_user = np.bincount(community[:nu], weights=degree[:nu], minlength=nc)
    d_item = np.bincount(community[nu:], weights=degree[nu:], minlength=nc)
    e = graph.n_edges
    return (inside - float(d_user @ d_item) / e) / e


# Local-move passes stop when a pass moves no node or after this many.
MAX_PASSES = 50


def louvain(graph: BipartiteGraph) -> ClusterAssignment:
    """Single-level local-move modularity maximization.

    Deterministic: the scan order is ascending node id and ties break to
    the lowest cluster id, so output depends only on the graph.  Every
    accepted move strictly increases modularity; the move log records
    (node, from_cluster, to_cluster, gain) for audit.  The returned
    cluster ids are dense, numbered in order of each cluster's first node.
    """
    adjacency, nu, n, e = graph.adjacency, graph.n_users, graph.n_nodes, graph.n_edges
    labels = list(range(n))
    degree = [len(ns) for ns in adjacency]
    # Cluster id -> summed degree of its users, and of its items.
    user_sum = dict(enumerate(degree[:nu]))
    item_sum = dict(zip(range(nu, n), degree[nu:]))
    move_log: list[tuple[int, int, int, float]] = []
    fresh = n  # ids below n are taken by the singleton init
    for _ in range(MAX_PASSES):
        moved = False
        for node in range(n):
            links: dict[int, int] = {}  # cluster id -> edges from node into it
            for nb in adjacency[node]:
                lab = labels[nb]
                links[lab] = links.get(lab, 0) + 1
            current, k = labels[node], degree[node]
            # A user's gain weighs the item degree in each cluster; an item's the user degree.
            own, other = (user_sum, item_sum) if node < nu else (item_sum, user_sum)
            links_old, deg_old = links.get(current, 0), other.get(current, 0)
            best_target, best_gain = current, 0.0
            # Neighbor clusters in ascending id, then a fresh singleton
            # escape; strict improvement keeps every accepted move a real
            # modularity increase and ties resolve to the lowest id.
            for target in sorted(links) + [fresh]:
                if target == current:
                    continue
                gain = ((links.get(target, 0) - links_old) - k * (other.get(target, 0) - deg_old) / e) / e
                if gain > best_gain + 1e-13:
                    best_gain, best_target = gain, target
            if best_target != current:
                move_log.append((node, current, best_target, best_gain))
                own[current] -= k
                if not own[current]:
                    del own[current]
                own[best_target] = own.get(best_target, 0) + k
                labels[node] = best_target
                if best_target == fresh:
                    fresh += 1
                moved = True
        if not moved:
            break
    _, first, dense = np.unique(np.array(labels, np.int64), return_index=True, return_inverse=True)
    return ClusterAssignment(graph, np.argsort(np.argsort(first))[dense], move_log)


def cluster_centroids(table: EmbeddingTable, item_clusters: dict[str, int]) -> dict[int, np.ndarray]:
    """Mean embedding per cluster over the clustered items present in `table`."""
    ids = sorted(i for i in item_clusters if i in table)
    if not ids:
        raise ValidationError("no clustered item has an embedding in the table")
    embs = table.rows(ids)
    labels = np.array([item_clusters[i] for i in ids])
    centroids = {}
    for cid in np.unique(labels):
        members = embs[labels == cid]
        centroids[int(cid)] = members.sum(axis=0) / len(members)
    return centroids


def assign_new_items(
    ids: Sequence[str], embeddings: np.ndarray, centroids: dict[int, np.ndarray]
) -> dict[str, int]:
    """Nearest-centroid (largest dot product) labels for unseen items.

    Row r of `embeddings` belongs to `ids[r]`.  Ties break to the lowest
    cluster id.
    """
    if not centroids:
        raise ValidationError("no centroids to assign against")
    cids = sorted(centroids)
    mat = np.stack([centroids[c] for c in cids])
    best = np.argmax(embeddings @ mat.T, axis=1)  # first max = lowest cluster id
    return {item_id: cids[b] for item_id, b in zip(ids, best)}


def save_clusters(path: str, item_clusters: dict[str, int]) -> None:
    """Write item cluster lines ordered by item_id."""
    _save_lines(path, ({"item_id": i, "cluster_id": int(item_clusters[i])} for i in sorted(item_clusters)))


def _cluster_line(doc: dict) -> tuple[str, int]:
    item_id, cid = doc["item_id"], doc["cluster_id"]
    _check_id(item_id, "item_id")
    if type(cid) is not int or cid < 0:
        raise ValidationError(f"cluster_id must be an integer >= 0, got {cid!r}")
    return item_id, cid


def load_clusters(path: str) -> dict[str, int]:
    """Read item -> cluster lines; each id once, each cluster_id an int >= 0."""
    return dict(pair for _, pair in _load_lines(path, "cluster record", _cluster_line, itemgetter(0)))
