"""Seeded synthetic fixtures: clustered items, user histories, candidates.

The world model is simple and fully deterministic given one seed: unit
cluster centroids, Gaussian item noise around them, users with one to
three preferred clusters, and clicks drawn from a logistic model on the
dot product between item embedding and user taste vector.  Candidate
base scores observe the same model through added noise, leaving the
trained scorer genuine headroom over the upstream scores.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

from .data import CandidateSet, EmbeddingTable, UserEvents, ValidationError

NOW_TS = 1_700_000_000  # fixed reference clock so fixtures never drift
THIRTY_DAYS = 30 * 24 * 3600
THRESHOLD = 0.45  # the affinity at which a click is a coin flip


def derive_seed(seed: int, stage: str) -> int:
    """Stable 64-bit sub-seed for a named pipeline stage."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a generated world; defaults give the standard fixture."""

    clusters: int = 6
    items_per_cluster: int = 30
    dim: int = 16
    noise: float = 0.15
    users: int = 50
    behaviors_per_user: int = 60
    candidates_per_user: int = 100
    sharpness: float = 6.0
    score_noise: float = 5.0
    seed: int = 0

    def __post_init__(self):
        problems = [
            f"{f.name} must be finite, got {getattr(self, f.name)}"
            for f in fields(self)
            if f.type == "float" and not math.isfinite(getattr(self, f.name))
        ]
        if problems:  # the range checks below assume finite floats
            raise ValidationError("; ".join(problems))
        least = {"clusters": 1, "items_per_cluster": 1, "dim": 2, "noise": 0, "users": 1,
                 "behaviors_per_user": 1, "candidates_per_user": 1, "score_noise": 0}
        problems = [f"{name} must be >= {low}" for name, low in least.items() if getattr(self, name) < low]
        if self.sharpness <= 0:
            problems.append("sharpness must be positive")
        n_items = self.clusters * self.items_per_cluster
        if self.candidates_per_user > n_items:
            problems.append("candidates_per_user cannot exceed the catalog size")
        if problems:
            raise ValidationError("; ".join(problems))


@dataclass(frozen=True)
class SyntheticWorld:
    """Everything one seed generates, before serialization."""

    items: EmbeddingTable
    behaviors: list[UserEvents]
    candidates: list[CandidateSet]
    labels: dict[str, dict[str, int]]  # each candidate's 0/1 label, as `load_labels` returns them


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def generate(spec: SyntheticSpec) -> SyntheticWorld:
    rng = np.random.default_rng(derive_seed(spec.seed, "synth"))
    n_items = spec.clusters * spec.items_per_cluster

    centroids = rng.normal(size=(spec.clusters, spec.dim))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)

    # Item i is drawn around centroid i // items_per_cluster.
    noise = spec.noise * rng.normal(size=(n_items, spec.dim))
    item_embs = np.repeat(centroids, spec.items_per_cluster, axis=0) + noise
    item_ids = [f"it{i:04d}" for i in range(n_items)]
    unit_embs = item_embs / np.linalg.norm(item_embs, axis=1, keepdims=True)

    items = EmbeddingTable(tuple(item_ids), item_embs)

    behaviors: list[UserEvents] = []
    candidates: list[CandidateSet] = []
    labels: dict[str, dict[str, int]] = {}
    for u in range(spec.users):
        user_id = f"u{u:04d}"
        n_pref = int(rng.integers(1, min(3, spec.clusters) + 1))
        preferred = rng.choice(spec.clusters, size=n_pref, replace=False)
        taste = centroids[preferred].mean(axis=0)
        taste /= np.linalg.norm(taste)

        # Behavior history: mostly preferred clusters, some exploration.
        offsets = np.sort(rng.integers(0, THIRTY_DAYS, size=spec.behaviors_per_user))[::-1]
        behavior_items, behavior_hits = [], []
        for b in range(spec.behaviors_per_user):
            if rng.random() < 0.9:
                cluster = int(preferred[rng.integers(0, n_pref)])
            else:
                cluster = int(rng.integers(0, spec.clusters))
            idx = cluster * spec.items_per_cluster + int(
                rng.integers(0, spec.items_per_cluster)
            )
            affinity = float(unit_embs[idx] @ taste)
            p_click = float(_sigmoid(spec.sharpness * (affinity - THRESHOLD)))
            behavior_items.append(item_ids[idx])
            behavior_hits.append(int(rng.random() < p_click))
        behaviors.append(UserEvents(user_id, behavior_items, (NOW_TS - offsets).tolist(), behavior_hits))

        # Candidates: half preferred-cluster items, rest catalog-wide.
        n_cand = spec.candidates_per_user
        pref_pool = np.concatenate(
            [
                np.arange(c * spec.items_per_cluster, (c + 1) * spec.items_per_cluster)
                for c in preferred
            ]
        )
        n_from_pref = min(len(pref_pool), n_cand // 2)
        chosen = list(rng.choice(pref_pool, size=n_from_pref, replace=False))
        rest_pool = np.setdiff1d(np.arange(n_items), np.asarray(chosen))
        chosen.extend(rng.choice(rest_pool, size=n_cand - n_from_pref, replace=False))
        chosen_arr = np.asarray(chosen)
        perm = rng.permutation(n_cand)
        chosen_arr = chosen_arr[perm]

        affinities = unit_embs[chosen_arr] @ taste
        score_noise = spec.score_noise * rng.normal(size=n_cand)
        base_scores = _sigmoid(spec.sharpness * (affinities - THRESHOLD) + score_noise)
        true_p = _sigmoid(spec.sharpness * (affinities - THRESHOLD))
        drawn = rng.random(n_cand) < true_p

        cand_ids = tuple(item_ids[int(idx)] for idx in chosen_arr)
        labels[user_id] = dict(zip(cand_ids, drawn.astype(int).tolist()))
        candidates.append(
            CandidateSet(
                user_id=user_id,
                ids=cand_ids,
                embeddings=item_embs[chosen_arr],
                base_scores=base_scores,
            )
        )

    return SyntheticWorld(items=items, behaviors=behaviors, candidates=candidates, labels=labels)
