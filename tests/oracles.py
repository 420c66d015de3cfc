"""Reference implementations that only the tests call.

Each is slow or narrow by design: exhaustive subset search for the
greedy selector, the greedy loop and scorer as they were before the
scorer's list-invariant terms were hoisted, with the selection context
they kept as a record (`ContextState`) and the per-step trace the loop
records for audits (`StepTrace`, `SelectionTrace`), a full check of a
built kernel matrix, a clamped binary log-loss for the metric goldens,
the per-list nDCG and ILAD that the stacked metrics must equal bit for bit,
central finite differences for every analytic gradient, the local-move
clustering as it was with its state in numpy (`reference_louvain`), and
candidate and behavior lines written by one `json.dumps` call each.
`user_records` builds the behavior records that the tests feed to the
stages from plain rows, and `row_impressions` a training set of one
session per row from per-row columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from diverank.accuracy import Impressions, ScorerParams
from diverank.clustering import MAX_PASSES, BipartiteGraph, ClusterAssignment
from diverank.data import (
    NO_LABEL,
    CandidateSet,
    ExperimentConfig,
    NumericalError,
    RerankResult,
    UserEvents,
    ValidationError,
)
from diverank.interests import InterestProfile
from diverank.kernels import KernelMatrix, normalize_rows
from diverank.selection import subset_objective

FD_STEP = 1e-5


def exhaustive_map(
    kernel: KernelMatrix,
    scores: np.ndarray,
    alpha: float,
    k: int,
    max_n: int = 16,
) -> tuple[tuple[int, ...], float]:
    """Exact argmax of h over all size-k subsets, for small instances only.

    Subsets are scanned in lexicographic index order and only a strictly
    greater objective replaces the incumbent, so ties resolve to the
    lexicographically smallest subset.  A singular submatrix scores
    -inf.  Guarded to n <= max_n candidates.
    """
    n = kernel.size
    if n > max_n:
        raise ValidationError(f"exhaustive search is guarded to n <= {max_n}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (n,):
        raise ValidationError("scores must align with the kernel")
    if not 1 <= k <= n:
        raise ValidationError("k must lie in [1, n]")
    d_matrix = kernel.values
    best_subset: tuple[int, ...] | None = None
    best_value = -np.inf
    for subset in combinations(range(n), k):
        value = subset_objective(d_matrix, scores, np.asarray(subset), alpha)
        if value > best_value:
            best_value = value
            best_subset = subset
    assert best_subset is not None
    return best_subset, best_value


@dataclass(frozen=True)
class ContextState:
    """Running mean of the selected-so-far embeddings (`count` of them) and
    the candidate mean, rebuilt at every pick."""

    h_prev: np.ndarray
    h_cand: np.ndarray
    count: int


def initial_context(candidate_embeddings: np.ndarray) -> ContextState:
    """Empty-selection context: zero previous vector, candidate mean."""
    embs = np.asarray(candidate_embeddings, dtype=np.float64)
    return ContextState(h_prev=np.zeros(embs.shape[1]), h_cand=embs.mean(axis=0), count=0)


def update_context(ctx: ContextState, embedding: np.ndarray) -> ContextState:
    """Fold one newly selected embedding into the running previous-mean."""
    new_count = ctx.count + 1
    h_prev = (ctx.h_prev * ctx.count + np.asarray(embedding, dtype=np.float64)) / new_count
    return ContextState(h_prev=h_prev, h_cand=ctx.h_cand, count=new_count)


def reference_scores(
    targets: np.ndarray, profile: InterestProfile, ctx: ContextState, params: ScorerParams
) -> np.ndarray:
    """The scorer's forward folded into one matmul per call, every gate
    rebuilt from `ctx`: what `score_batch` computed before its list state."""
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    d = targets.shape[1]
    w1, w2, b2 = params.mlp_w1, params.mlp_w2, params.mlp_b2[0]

    def sigmoid(x):
        return np.exp(-np.logaddexp(0.0, -x))

    g_prev = sigmoid(np.maximum(ctx.h_prev @ params.w1_prev, 0.0) @ params.w2_prev)
    g_cand = sigmoid(np.maximum(ctx.h_cand @ params.w1_cand, 0.0) @ params.w2_cand)
    weight = w1[:d] + g_prev[:, None] * w1[d : 2 * d] + g_cand[:, None] * w1[2 * d : 3 * d]
    macro, micro = profile.h_macro, profile.h_micro
    gated = np.concatenate([macro * g_prev, micro * g_prev, macro * g_cand, micro * g_cand])
    row = gated @ w1[3 * d :] + params.mlp_b1[0]
    gap = np.maximum(targets @ weight + row, 0.0) @ (w2[:, 1] - w2[:, 0]) + (b2[1] - b2[0])
    return sigmoid(gap)


@dataclass
class StepTrace:
    """Numerical snapshot of one greedy step of `reference_greedy`: the pick,
    the picks before it, and copies of d^2, the scores and eligibility."""

    chosen: int
    selected_before: tuple[int, ...]
    d2: np.ndarray
    scores: np.ndarray
    eligible: np.ndarray


@dataclass
class SelectionTrace:
    """Every step of one `reference_greedy` run, and the smallest d^2 of any
    candidate not yet picked, before clamping, over those steps."""

    steps: list[StepTrace] = field(default_factory=list)
    min_d2_before_clamp: float = np.inf


def reference_greedy(
    candidates: CandidateSet,
    kernel: KernelMatrix,
    scorer: Callable[[ContextState], np.ndarray],
    cfg: ExperimentConfig,
) -> tuple[RerankResult, SelectionTrace]:
    """The greedy loop of `bs_dpp_select` as it was before it was trimmed:
    a warning scope and a copied finiteness check per step, copied trace
    arrays, an argmax that re-checks eligibility, and a scorer handed the
    whole `ContextState` rebuilt at every pick."""
    n = candidates.size
    alpha, epsilon, k = float(cfg.alpha), float(cfg.epsilon), min(cfg.k, n)
    d_matrix = kernel.values
    embs = candidates.embeddings
    d2 = np.diag(d_matrix).astype(np.float64).copy()
    cis = np.zeros((k, n))
    trace = SelectionTrace()
    trace.min_d2_before_clamp = float(d2.min())
    selected: list[int] = []
    selected_mask = np.zeros(n, dtype=bool)
    picks: list[tuple[float, float, float]] = []
    objective = 0.0
    exhausted = False
    ctx = initial_context(embs)
    scores = np.asarray(scorer(ctx), dtype=np.float64)
    eligible = (d2 > epsilon) & ~selected_mask
    if not eligible.any():
        raise NumericalError("no candidate has d^2 above epsilon at initialization")
    while len(selected) < k:
        log_d2 = np.log(np.maximum(d2, 1e-300))
        with np.errstate(over="ignore"):
            joint = scores + alpha * log_d2
        if not np.isfinite(joint[eligible]).all():
            raise NumericalError(f"score + alpha * log d^2 overflows at alpha={alpha:g}; lower alpha")
        values = log_d2 if not selected and cfg.diversity_only_init else joint
        j = int(np.argmax(np.where(eligible, values, -np.inf)))
        if not eligible[j]:
            raise NumericalError("argmax over an empty eligible set")
        trace.steps.append(StepTrace(j, tuple(selected), d2.copy(), scores.copy(), eligible.copy()))
        marginal = joint[j]
        picks.append((float(scores[j]), float(log_d2[j]), float(marginal)))
        objective += float(marginal)
        t = len(selected)
        selected.append(j)
        selected_mask[j] = True
        if len(selected) == k:
            break
        d_j = np.sqrt(d2[j])
        e = (d_matrix[j, :] - cis[:t, j] @ cis[:t, :]) / d_j
        cis[t, :] = e
        d2 = d2 - np.square(e)
        pre_clamp_min = float(d2[~selected_mask].min()) if (~selected_mask).any() else 0.0
        trace.min_d2_before_clamp = min(trace.min_d2_before_clamp, pre_clamp_min)
        d2 = np.maximum(d2, 0.0)
        eligible = (d2 > epsilon) & ~selected_mask
        if not eligible.any():
            exhausted = True
            break
        ctx = update_context(ctx, embs[j])
        scores = np.asarray(scorer(ctx), dtype=np.float64)
    result = RerankResult(
        user_id=candidates.user_id,
        item_ids=tuple(candidates.ids[j] for j in selected),
        scores=tuple(p[0] for p in picks),
        log_d2=tuple(p[1] for p in picks),
        marginals=tuple(p[2] for p in picks),
        objective=objective,
        exhausted=exhausted,
    )
    return result, trace


def assert_valid_kernel(values) -> None:
    """Every entry finite and the matrix exactly symmetric: the O(n^2) check
    that `composite_matrix` leaves to its diagonal and its mirror copies."""
    values = np.asarray(values)
    assert values.ndim == 2 and values.shape[0] == values.shape[1], values.shape
    assert np.isfinite(values).all(), "kernel matrix contains non-finite entries"
    assert np.array_equal(values, values.T), "kernel matrix is not exactly symmetric"


def logloss(labels, probabilities) -> float:
    """Mean binary cross-entropy; probabilities clamped to [1e-15, 1 - 1e-15]."""
    labels = np.asarray(labels, dtype=np.float64)
    probs = np.asarray(probabilities, dtype=np.float64)
    if labels.shape != probs.shape or labels.ndim != 1 or labels.size == 0:
        raise ValidationError("labels and probabilities must be equal-length vectors")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValidationError("labels must be binary")
    clamped = np.clip(probs, 1e-15, 1.0 - 1e-15)
    return float(-np.mean(labels * np.log(clamped) + (1.0 - labels) * np.log(1.0 - clamped)))


def reference_dcg_at_k(relevances, k: int) -> float:
    """DCG of one list, gain 2^rel - 1 and discount log2(pos + 1), as
    `metrics.dcg_at_k` computed it before it took stacks of lists."""
    rel = np.asarray(relevances, dtype=np.float64)[:k]
    if rel.size == 0:
        return 0.0
    positions = np.arange(1, rel.size + 1, dtype=np.float64)
    return float(np.sum((np.exp2(rel) - 1.0) / np.log2(positions + 1.0)))


def reference_ndcg_at_k(relevances, k: int, ideal_relevances=None) -> float:
    """nDCG@k of one list against its own relevances or an ideal pool; 0.0
    when the ideal DCG is 0."""
    rel = np.asarray(relevances, dtype=np.float64)
    pool = rel if ideal_relevances is None else np.asarray(ideal_relevances, dtype=np.float64)
    ideal = np.sort(pool)[::-1]
    denom = reference_dcg_at_k(ideal, k)
    if denom == 0.0:
        return 0.0
    return reference_dcg_at_k(rel, k) / denom


def reference_ilad(embeddings) -> float:
    """ILAD of one (L, d) list: the mean of 1 - cosine over its upper-triangle pairs."""
    embs = np.asarray(embeddings, dtype=np.float64)
    if embs.ndim != 2 or embs.shape[0] < 2:
        raise ValidationError("ilad needs at least two embeddings")
    unit = normalize_rows(embs)
    if not unit.any(axis=1).all():
        raise ValidationError("ilad is undefined for zero-norm embeddings")
    cosine = unit @ unit.T
    return float(np.mean(1.0 - cosine[np.triu_indices(embs.shape[0], k=1)]))


def finite_difference(loss_fn: Callable[[], float], arrays: Iterable[np.ndarray]) -> list[np.ndarray]:
    """Central-difference gradients of loss_fn() w.r.t. each array, perturbed in place.

    grad ~ (f(p + h) - f(p - h)) / 2h per entry, with h = FD_STEP; every
    entry is restored before the next one is perturbed.
    """
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        grad_flat = grad.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + FD_STEP
            hi = loss_fn()
            flat[idx] = keep - FD_STEP
            lo = loss_fn()
            flat[idx] = keep
            grad_flat[idx] = (hi - lo) / (2.0 * FD_STEP)
        grads.append(grad)
    return grads


class _MoveState:
    """Bookkeeping for O(degree) local-move gains.

    For a user node, only the total item degree inside each cluster
    matters; for an item node, only the total user degree.  Those sums
    and per-cluster link counts give the modularity change of a move
    without touching the rest of the graph.
    """

    def __init__(self, graph: BipartiteGraph, labels: np.ndarray):
        self.graph = graph
        self.labels = labels
        self.e = graph.n_edges
        self.user_degree_sum: dict[int, int] = {}
        self.item_degree_sum: dict[int, int] = {}
        for node in range(graph.n_nodes):
            lab = int(labels[node])
            side = self.user_degree_sum if graph.is_user(node) else self.item_degree_sum
            side[lab] = side.get(lab, 0) + len(graph.adjacency[node])

    def links_to(self, node: int) -> dict[int, int]:
        counts: dict[int, int] = {}
        for nb in self.graph.adjacency[node]:
            lab = int(self.labels[nb])
            counts[lab] = counts.get(lab, 0) + 1
        return counts

    def gain(self, node: int, target: int, links: dict[int, int]) -> float:
        """Modularity change of moving `node` to cluster `target`."""
        current = int(self.labels[node])
        if target == current:
            return 0.0
        k = len(self.graph.adjacency[node])
        other = self.item_degree_sum if self.graph.is_user(node) else self.user_degree_sum
        links_new = links.get(target, 0)
        links_old = links.get(current, 0)
        deg_new = other.get(target, 0)
        deg_old = other.get(current, 0)
        delta_links = links_new - links_old
        delta_null = k * (deg_new - deg_old) / self.e
        return (delta_links - delta_null) / self.e

    def apply(self, node: int, target: int) -> None:
        current = int(self.labels[node])
        k = len(self.graph.adjacency[node])
        side = self.user_degree_sum if self.graph.is_user(node) else self.item_degree_sum
        side[current] -= k
        if side[current] == 0:
            del side[current]
        side[target] = side.get(target, 0) + k
        self.labels[node] = target


def reference_louvain(graph: BipartiteGraph) -> ClusterAssignment:
    """`louvain` as it was with its state in numpy and `_MoveState`: every
    label a numpy scalar read, and every gain and move a method call.

    Deterministic: the scan order is ascending node id and ties break to
    the lowest cluster id, so output depends only on the graph.  Every
    accepted move strictly increases modularity; the move log records
    (node, from_cluster, to_cluster, gain) for audit.  The returned
    cluster ids are dense, numbered in order of each cluster's first node.
    """
    labels = np.arange(graph.n_nodes, dtype=np.int64)
    state = _MoveState(graph, labels)
    move_log: list[tuple[int, int, int, float]] = []
    fresh = graph.n_nodes  # ids below n_nodes are taken by the singleton init
    for _ in range(MAX_PASSES):
        moved = False
        for node in range(graph.n_nodes):
            links = state.links_to(node)
            current = int(labels[node])
            best_target = current
            best_gain = 0.0
            # Neighbor clusters in ascending id, then a fresh singleton
            # escape; strict improvement keeps every accepted move a real
            # modularity increase and ties resolve to the lowest id.
            for target in sorted(links) + [fresh]:
                if target == current:
                    continue
                gain = state.gain(node, target, links)
                if gain > best_gain + 1e-13:
                    best_gain = gain
                    best_target = target
            if best_target != current:
                move_log.append((node, current, best_target, best_gain))
                state.apply(node, best_target)
                if best_target == fresh:
                    fresh += 1
                moved = True
        if not moved:
            break
    _, first, dense = np.unique(labels, return_index=True, return_inverse=True)
    return ClusterAssignment(graph, np.argsort(np.argsort(first))[dense], move_log)


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def candidates_line(cs: CandidateSet) -> str:
    """One candidates line built as a dict and dumped whole: the reference
    that `save_candidates` writes byte for byte."""
    items = [
        {"base_score": score, "embedding": emb, "item_id": item_id}
        for item_id, emb, score in zip(cs.ids, cs.embeddings.tolist(), cs.base_scores.tolist())
    ]
    return _dumps({"items": items, "user_id": cs.user_id})


def user_records(*rows) -> list[UserEvents]:
    """One record per user from (user_id, item_id, ts, label) rows, users
    sorted as `load_behaviors` returns them and each user's rows passed in
    the order given.  A row without a label, or with NO_LABEL, passes null,
    as an unlabelled entry of a behavior line does."""
    by_user: dict[str, list] = {}
    for user_id, item_id, ts, *label in rows:
        label = label[0] if label else None
        by_user.setdefault(user_id, []).append((item_id, ts, None if label == NO_LABEL else label))
    records = []
    for user_id in sorted(by_user):
        item_ids, ts, labels = zip(*by_user[user_id])
        records.append(UserEvents(user_id, item_ids, list(ts), list(labels)))
    return records


def row_impressions(user_ids, embeddings, h_prev, h_cand, labels) -> Impressions:
    """Training impressions with one session per row: the rows are the
    catalog, and row r is session r, so a per-row `h_cand` that varies
    within a user keeps its meaning and its bits."""
    n = len(labels)
    return Impressions(embeddings, np.arange(n), tuple(user_ids), np.arange(n), h_prev, h_cand, labels)


def behavior_lines(records: Iterable[UserEvents]) -> list[str]:
    """One dumped dict per record, users sorted and each record's rows in
    its order; a NO_LABEL entry is null, and a line with no label leaves
    `labels` out: the reference that `save_behaviors` writes byte for byte."""
    lines = []
    for events in sorted(records, key=lambda events: events.user_id):
        doc = {"user_id": events.user_id, "item_ids": list(events.item_ids), "ts": [int(t) for t in events.ts]}
        labels = [int(label) for label in events.labels]
        if any(label != NO_LABEL for label in labels):
            doc["labels"] = [None if label == NO_LABEL else label for label in labels]
        lines.append(_dumps(doc))
    return lines


def label_lookups(path: str, users: Iterable[str]) -> dict[str, dict[str, int]]:
    """Each requested user's {item_id: label}, read with plain `json.loads`
    and a loop, a repeated item keeping its last label: the reference that
    `load_labels` returns for a well-formed label file."""
    wanted = set(users)
    by_user = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            if doc["user_id"] in wanted:
                lookup = by_user[doc["user_id"]] = {}
                for item_id, label in zip(doc["item_ids"], doc["labels"]):
                    lookup[item_id] = label
    return by_user
