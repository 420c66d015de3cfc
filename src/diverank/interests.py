"""User interest extraction: cluster-grouped interest points, long-term
(macro) and short-term (micro) interest vectors via multi-head attention.

Macro interest attends over the user's top-M interest points, each the
sum-pooled embedding of the behavior items falling in one cluster.
Micro interest attends over the most recent items, each embedding
concatenated with a learnable time-decay embedding indexed by a
log2-scaled age bucket.  Both attention outputs are mean-pooled over
positions to a single length-d vector.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import (
    BehaviorLog,
    EmbeddingTable,
    ParseError,
    ValidationError,
    _check_id,
    _iter_json_lines,
)

SECONDS_PER_HOUR = 3600


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


@dataclass
class AttentionParams:
    """Per-head projection matrices plus the shared output projection.

    heads[h] = (wq, wk, wv), each (input_dim, head_dim); wo maps the
    concatenated head outputs (heads * head_dim) to output_dim.  The
    score scaling is 1/sqrt(head_dim).
    """

    heads: list[tuple[Tensor, Tensor, Tensor]]
    wo: Tensor
    head_dim: int

    @property
    def num_heads(self) -> int:
        return len(self.heads)

    @property
    def scaling(self) -> float:
        return 1.0 / math.sqrt(self.head_dim)

    @property
    def input_dim(self) -> int:
        return self.heads[0][0].shape[0]

    @property
    def output_dim(self) -> int:
        return self.wo.shape[1]

    def tensors(self) -> list[Tensor]:
        out: list[Tensor] = []
        for wq, wk, wv in self.heads:
            out.extend((wq, wk, wv))
        out.append(self.wo)
        return out


def init_attention_params(
    input_dim: int,
    output_dim: int,
    num_heads: int,
    head_dim: int,
    rng: np.random.Generator,
    requires_grad: bool = True,
) -> AttentionParams:
    if num_heads < 1 or head_dim < 1:
        raise ValidationError("attention needs >= 1 head of width >= 1")
    heads = []
    for _ in range(num_heads):
        wq = ad.init_param(input_dim, head_dim, rng)
        wk = ad.init_param(input_dim, head_dim, rng)
        wv = ad.init_param(input_dim, head_dim, rng)
        heads.append((wq, wk, wv))
    wo = ad.init_param(num_heads * head_dim, output_dim, rng)
    params = AttentionParams(heads=heads, wo=wo, head_dim=head_dim)
    for t in params.tensors():
        t.requires_grad = requires_grad
    return params


def multi_head_attention(inputs: Tensor, params: AttentionParams) -> Tensor:
    """Self-attention over the rows of `inputs`, one output row per input row.

    Each head computes softmax(Q K^T / sqrt(head_dim)) V; head outputs are
    concatenated and projected by wo.
    """
    if inputs.shape[1] != params.input_dim:
        raise ValidationError(
            f"attention input dim {inputs.shape[1]} != params dim {params.input_dim}"
        )
    head_outputs = []
    for wq, wk, wv in params.heads:
        q = ad.matmul(inputs, wq)
        k = ad.matmul(inputs, wk)
        v = ad.matmul(inputs, wv)
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), params.scaling)
        weights = ad.softmax_rows(scores)
        head_outputs.append(ad.matmul(weights, v))
    joined = head_outputs[0] if len(head_outputs) == 1 else ad.concat_cols(head_outputs)
    return ad.matmul(joined, params.wo)


def attention_pool(inputs: Tensor, params: AttentionParams) -> Tensor:
    """Attention followed by mean over positions: (n, d_in) -> (1, d_out)."""
    return ad.mean_rows(multi_head_attention(inputs, params))


@dataclass
class InterestParams:
    """All trainable interest-extraction state."""

    macro: AttentionParams
    micro: AttentionParams
    time_table: Tensor  # (buckets, time_dim)
    time_dim: int

    @property
    def dim(self) -> int:
        return self.macro.output_dim

    @property
    def time_buckets(self) -> int:
        return self.time_table.shape[0]

    def tensors(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for scope, att in (("macro", self.macro), ("micro", self.micro)):
            for h, (wq, wk, wv) in enumerate(att.heads):
                out[f"{scope}.h{h}.wq"] = wq
                out[f"{scope}.h{h}.wk"] = wk
                out[f"{scope}.h{h}.wv"] = wv
            out[f"{scope}.wo"] = att.wo
        out["time_table"] = self.time_table
        return out


def init_interest_params(
    dim: int,
    time_buckets: int,
    rng: np.random.Generator,
    num_heads: int = 2,
    time_dim: int = 8,
    requires_grad: bool = True,
) -> InterestParams:
    """num_heads heads of width dim / num_heads, output back to dim."""
    if num_heads < 1:
        raise ValidationError(f"num_heads must be >= 1, got {num_heads}")
    if time_dim < 0:
        raise ValidationError(f"time_dim must be >= 0, got {time_dim}")
    if dim % num_heads != 0:
        raise ValidationError(f"embedding dim {dim} is not divisible by num_heads {num_heads}")
    head_dim = dim // num_heads
    macro = init_attention_params(dim, dim, num_heads, head_dim, rng, requires_grad)
    micro = init_attention_params(
        dim + time_dim, dim, num_heads, head_dim, rng, requires_grad
    )
    time_table = ad.init_param(time_buckets, time_dim, rng)
    time_table.requires_grad = requires_grad
    return InterestParams(macro=macro, micro=micro, time_table=time_table, time_dim=time_dim)


def interest_params_from_arrays(
    arrays: dict[str, np.ndarray], num_heads: int, time_dim: int
) -> InterestParams:
    """Rebuild InterestParams from checkpointed arrays (inference only)."""
    def attention(scope: str) -> AttentionParams:
        heads = []
        for h in range(num_heads):
            try:
                wq = arrays[f"{scope}.h{h}.wq"]
                wk = arrays[f"{scope}.h{h}.wk"]
                wv = arrays[f"{scope}.h{h}.wv"]
            except KeyError as exc:
                raise ValidationError(f"checkpoint missing tensor {exc}") from exc
            heads.append((Tensor(wq), Tensor(wk), Tensor(wv)))
        if f"{scope}.wo" not in arrays:
            raise ValidationError(f"checkpoint missing tensor {scope}.wo")
        return AttentionParams(
            heads=heads, wo=Tensor(arrays[f"{scope}.wo"]), head_dim=heads[0][0].shape[1]
        )

    if "time_table" not in arrays:
        raise ValidationError("checkpoint missing tensor time_table")
    return InterestParams(
        macro=attention("macro"),
        micro=attention("micro"),
        time_table=Tensor(arrays["time_table"]),
        time_dim=time_dim,
    )


def group_interest_points(
    log: BehaviorLog,
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
    for item_id, ts in zip(log.item_ids, log.ts.tolist()):
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


def macro_interest(points: list[InterestPoint], params: InterestParams) -> Tensor:
    """Long-term interest vector from attention over pooled interest points.

    Zero points is a documented cold start: the result is the zero vector
    and the parameters are never touched.
    """
    if not points:
        return ad.constant(np.zeros((1, params.dim)))
    stacked = ad.constant(np.stack([p.vector for p in points]))
    return attention_pool(stacked, params.macro)


def time_bucket(delta_seconds: int, buckets: int) -> int:
    """log2-scaled hour bucket, capped at the table size."""
    if delta_seconds < 0:
        raise ValidationError("event timestamp lies in the future")
    raw = int(math.floor(math.log2(1.0 + delta_seconds / SECONDS_PER_HOUR)))
    return min(raw, buckets - 1)


def micro_interest(
    recent: list[tuple[np.ndarray, int]],
    now: int,
    params: InterestParams,
) -> Tensor:
    """Short-term interest from attention over recent items.

    `recent` must be sorted most recent first.  Each embedding is
    concatenated with the learnable time-decay embedding of its age
    bucket before attention; mean pooling over positions returns a
    single row.  Zero recent items yields the zero vector.
    """
    if not recent:
        return ad.constant(np.zeros((1, params.dim)))
    ts_list = [ts for _, ts in recent]
    if any(b > a for a, b in zip(ts_list, ts_list[1:])):
        raise ValidationError("recent items must be sorted most recent first")
    buckets = [time_bucket(now - ts, params.time_buckets) for _, ts in recent]
    embs = ad.constant(np.stack([e for e, _ in recent]))
    decay = ad.gather_rows(params.time_table, buckets)
    joined = ad.concat_cols([embs, decay])
    return attention_pool(joined, params.micro)


def build_profile(
    user_id: str,
    log: BehaviorLog,
    table: EmbeddingTable,
    item_clusters: dict[str, int],
    params: InterestParams,
    top_m: int,
    recent_window: int,
    now: int | None = None,
) -> InterestProfile:
    """Assemble one user's full interest profile from that user's behavior log.

    An empty or fully-unknown history yields a zero profile (cold start).
    `now` defaults to the latest event timestamp.
    """
    if recent_window < 1:
        raise ValidationError("recent_window must be >= 1")
    ts = log.ts.tolist()
    known = sorted((r for r, i in enumerate(log.item_ids) if i in table), key=ts.__getitem__)
    if now is None:
        now = ts[known[-1]] if known else 0
    points = group_interest_points(log, table, item_clusters, top_m)
    window = known[-recent_window:][::-1]
    recent = list(zip(table.rows(log.item_ids[r] for r in window), (ts[r] for r in window)))
    with ad.no_grad():
        h_macro = macro_interest(points, params).data[0].copy()
        h_micro = micro_interest(recent, now, params).data[0].copy()
    return InterestProfile(user_id=user_id, h_macro=h_macro, h_micro=h_micro)


# ----- profile cache IO -----


def save_profiles(path: str, profiles: list[InterestProfile]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in profiles:
            doc = {
                "user_id": p.user_id,
                "h_macro": [float(v) for v in p.h_macro],
                "h_micro": [float(v) for v in p.h_micro],
            }
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _interest_vector(values, name: str) -> np.ndarray:
    """A JSON list of numbers (not bools) as a finite float64 vector."""
    if not isinstance(values, list) or not values or not set(map(type, values)) <= {int, float}:
        raise ValidationError(f"{name} must be a non-empty list of numbers")
    vec = np.array(values, dtype=np.float64)
    if not np.isfinite(vec).all():
        raise ValidationError(f"{name} must be finite")
    return vec


def load_profiles(path: str) -> dict[str, InterestProfile]:
    """Read one profile line per user; errors cite the bad line."""
    out: dict[str, InterestProfile] = {}
    for lineno, doc in _iter_json_lines(path):
        try:
            user_id = doc["user_id"]
            _check_id(user_id, "user_id")
            if user_id in out:
                raise ValidationError(f"duplicate profile for {user_id!r}")
            out[user_id] = InterestProfile(
                user_id=user_id,
                h_macro=_interest_vector(doc["h_macro"], "h_macro"),
                h_micro=_interest_vector(doc["h_micro"], "h_micro"),
            )
        except KeyError as exc:
            raise ParseError(f"profile record missing field {exc}", line=lineno) from exc
        except (ValidationError, OverflowError) as exc:
            raise ParseError(str(exc), line=lineno) from exc
    return out
