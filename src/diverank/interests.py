"""User interest extraction: cluster-grouped interest points, long-term
(macro) and short-term (micro) interest vectors by parameter-free pooling.

Macro interest is the scaled mean of the user's top-M interest points,
each the sum-pooled embedding of the behavior items falling in one
cluster.  Micro interest is the scaled mean of the most recent item
embeddings, each weighted by 1 / (1 + its age in hours), so newer items
count more.  Neither holds a parameter, so profiles draw no random
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .data import (
    EmbeddingTable,
    UserEvents,
    ValidationError,
    _check_id,
    _finite_vector,
    _load_lines,
    _save_lines,
)

SECONDS_PER_HOUR = 3600
# Pooling scales: they hold the median vector norms near 2.3 (macro) and 0.2
# (micro), those of the attention projections they replace, so the kernel's
# beta terms keep their sharpness.
MACRO_SCALE = 0.4
MICRO_SCALE = 0.25


@dataclass(frozen=True)
class InterestPoint:
    """One cluster's footprint in a user's history."""

    cluster_id: int
    item_ids: tuple[str, ...]
    vector: np.ndarray  # sum of member embeddings
    last_ts: int

    @property
    def count(self) -> int:
        return len(self.item_ids)


@dataclass(frozen=True)
class InterestProfile:
    """Cached per-user interest state consumed by scoring and kernels."""

    user_id: str
    h_macro: np.ndarray
    h_micro: np.ndarray

    def __post_init__(self):
        if self.h_macro.shape != self.h_micro.shape:
            raise ValidationError("macro and micro vectors must share a dimension")


def group_interest_points(
    events: UserEvents,
    table: EmbeddingTable,
    item_clusters: dict[str, int],
    top_m: int,
) -> list[InterestPoint]:
    """Group one user's behavior items by cluster and keep the top-M groups.

    Groups rank by member count; equal counts break toward the more
    recently interacted cluster, then the lower cluster id.  Pooling is
    the plain sum of member embeddings.  Items with no cluster or no
    embedding are skipped.
    """
    if top_m < 1:
        raise ValidationError("top_m must be >= 1")
    members: dict[int, dict[str, int]] = {}
    for item_id, ts in zip(events.item_ids, events.ts.tolist()):
        cid = item_clusters.get(item_id)
        if cid is None or item_id not in table:
            continue
        group = members.setdefault(cid, {})
        prev = group.get(item_id)
        if prev is None or ts > prev:
            group[item_id] = ts
    points = []
    for cid in sorted(members):
        group = members[cid]
        ids = tuple(sorted(group))
        vector = table.rows(ids).sum(axis=0)
        points.append(
            InterestPoint(
                cluster_id=cid,
                item_ids=ids,
                vector=vector,
                last_ts=max(group.values()),
            )
        )
    points.sort(key=lambda p: (-p.count, -p.last_ts, p.cluster_id))
    return points[:top_m]


def recency_weights(ts: np.ndarray, now: int) -> np.ndarray:
    """Hyperbolic decay 1 / (1 + age in hours) of each event timestamp."""
    age = now - np.asarray(ts, dtype=np.int64)
    if age.min() < 0:
        raise ValidationError("event timestamp lies in the future")
    return 1.0 / (1.0 + age / SECONDS_PER_HOUR)


def build_profile(
    events: UserEvents,
    table: EmbeddingTable,
    item_clusters: dict[str, int],
    top_m: int,
    recent_window: int,
    now: int | None = None,
) -> InterestProfile:
    """Assemble one user's interest profile from that user's behavior record.

    h_macro is MACRO_SCALE times the mean of the top-M interest-point
    vectors; h_micro is MICRO_SCALE times the recency-weighted mean of the
    `recent_window` most recent known items, the record's last ones as it
    holds its rows by time.  An empty or fully-unknown history yields a
    zero profile (cold start).  `now` defaults to the latest known event
    timestamp.
    """
    if recent_window < 1:
        raise ValidationError("recent_window must be >= 1")
    ts = events.ts.tolist()
    known = [r for r, item_id in enumerate(events.item_ids) if item_id in table]
    if now is None:
        now = ts[known[-1]] if known else 0
    h_macro, h_micro = np.zeros(table.dim), np.zeros(table.dim)
    points = group_interest_points(events, table, item_clusters, top_m)
    if points:
        h_macro = MACRO_SCALE * np.mean([p.vector for p in points], axis=0)
    window = known[-recent_window:]
    if window:
        weights = recency_weights([ts[r] for r in window], now)
        recent = table.rows(events.item_ids[r] for r in window)
        h_micro = MICRO_SCALE * (weights @ recent) / weights.sum()
    return InterestProfile(user_id=events.user_id, h_macro=h_macro, h_micro=h_micro)


# ----- profile cache IO -----


def save_profiles(path: str, profiles: dict[str, InterestProfile]) -> None:
    """Write the `{user: profile}` map that `load_profiles` returns, one line per user, users sorted."""
    _save_lines(path, (
        {"user_id": p.user_id, "h_macro": [float(v) for v in p.h_macro], "h_micro": [float(v) for v in p.h_micro]}
        for _, p in sorted(profiles.items())
    ))


def _profile_line(doc: dict) -> InterestProfile:
    user_id = doc["user_id"]
    _check_id(user_id, "user_id")
    return InterestProfile(
        user_id=user_id,
        h_macro=_finite_vector(doc["h_macro"], "h_macro"),
        h_micro=_finite_vector(doc["h_micro"], "h_micro"),
    )


def load_profiles(path: str) -> dict[str, InterestProfile]:
    """Read one profile line per user; errors cite the bad line."""
    lines = _load_lines(path, "profile record", _profile_line, attrgetter("user_id"))
    return {profile.user_id: profile for _, profile in lines}
