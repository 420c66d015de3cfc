"""Context-aware accuracy scoring with excitation gating.

The scorer estimates a click probability for a target item given what
was already selected (previous context), what is on the table (candidate
context), and the user's long- and short-term interest vectors.  Each
context drives a squeeze-excitation gate sigma(W2 relu(W1 ctx)) in
(0, 1)^d; the gates modulate the target embedding and both interest
vectors, and the seven resulting d-vectors feed a small MLP ending in a
two-logit softmax.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import NO_LABEL, BehaviorLog, EmbeddingTable, ValidationError
from .interests import InterestProfile
from .metrics import auc


@dataclass(frozen=True)
class ContextState:
    """Running means of the selected-so-far and candidate embeddings."""

    h_prev: np.ndarray
    h_cand: np.ndarray
    count: int

    def __post_init__(self):
        if self.h_prev.shape != self.h_cand.shape:
            raise ValidationError("context vectors must share a dimension")
        if self.count < 0:
            raise ValidationError("context count must be >= 0")


def initial_context(candidate_embeddings: np.ndarray) -> ContextState:
    """Empty-selection context: zero previous vector, candidate mean."""
    embs = np.asarray(candidate_embeddings, dtype=np.float64)
    if embs.ndim != 2 or embs.shape[0] == 0:
        raise ValidationError("candidate embeddings must be a non-empty (n, d) array")
    return ContextState(
        h_prev=np.zeros(embs.shape[1]),
        h_cand=embs.mean(axis=0),
        count=0,
    )


def update_context(ctx: ContextState, embedding: np.ndarray) -> ContextState:
    """Fold one newly selected embedding into the running previous-mean."""
    emb = np.asarray(embedding, dtype=np.float64)
    if emb.shape != ctx.h_prev.shape:
        raise ValidationError("embedding dim does not match context dim")
    new_count = ctx.count + 1
    h_prev = (ctx.h_prev * ctx.count + emb) / new_count
    return ContextState(h_prev=h_prev, h_cand=ctx.h_cand, count=new_count)


@dataclass
class ScorerParams:
    """Excitation gates (one pair of matrices per context source) and MLP head."""

    w1_prev: Tensor  # (d, d // reduction)
    w2_prev: Tensor  # (d // reduction, d)
    w1_cand: Tensor
    w2_cand: Tensor
    mlp_w1: Tensor  # (7d, hidden)
    mlp_b1: Tensor  # (1, hidden)
    mlp_w2: Tensor  # (hidden, 2)
    mlp_b2: Tensor  # (1, 2)

    @property
    def dim(self) -> int:
        return self.w1_prev.shape[0]

    @property
    def reduction(self) -> int:
        return self.dim // self.w1_prev.shape[1]

    @property
    def hidden(self) -> int:
        return self.mlp_w1.shape[1]

    def tensors(self) -> dict[str, Tensor]:
        return {
            "w1_prev": self.w1_prev,
            "w2_prev": self.w2_prev,
            "w1_cand": self.w1_cand,
            "w2_cand": self.w2_cand,
            "mlp_w1": self.mlp_w1,
            "mlp_b1": self.mlp_b1,
            "mlp_w2": self.mlp_w2,
            "mlp_b2": self.mlp_b2,
        }


def init_scorer_params(
    dim: int,
    rng: np.random.Generator,
    reduction: int = 4,
    hidden: int | None = None,
    requires_grad: bool = True,
) -> ScorerParams:
    """Bottleneck width d/reduction (at least 1); hidden defaults to 4d."""
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    if reduction < 1:
        raise ValidationError("reduction must be >= 1")
    bottleneck = max(1, dim // reduction)
    if hidden is None:
        hidden = 4 * dim
    params = ScorerParams(
        w1_prev=ad.init_param(dim, bottleneck, rng),
        w2_prev=ad.init_param(bottleneck, dim, rng),
        w1_cand=ad.init_param(dim, bottleneck, rng),
        w2_cand=ad.init_param(bottleneck, dim, rng),
        mlp_w1=ad.init_param(7 * dim, hidden, rng),
        mlp_b1=ad.zeros_param(1, hidden),
        mlp_w2=ad.init_param(hidden, 2, rng),
        mlp_b2=ad.zeros_param(1, 2),
    )
    for t in params.tensors().values():
        t.requires_grad = requires_grad
    return params


def scorer_params_from_arrays(arrays: dict[str, np.ndarray]) -> ScorerParams:
    """Rebuild ScorerParams from checkpointed 2-D arrays (inference only).

    Every tensor must be present with the shape the scorer's layers fit
    together in, so a malformed checkpoint fails here, before any scoring.
    """
    missing = [f.name for f in fields(ScorerParams) if f.name not in arrays]
    if missing:
        raise ValidationError(f"checkpoint missing tensors: {', '.join(missing)}")
    d, r = arrays["w1_prev"].shape
    h = arrays["mlp_w1"].shape[1]
    expected = {
        "w1_prev": (d, r), "w2_prev": (r, d), "w1_cand": (d, r), "w2_cand": (r, d),
        "mlp_w1": (7 * d, h), "mlp_b1": (1, h), "mlp_w2": (h, 2), "mlp_b2": (1, 2),
    }
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise ValidationError(
                f"checkpoint tensor scorer.{name} has shape {arrays[name].shape}, expected {shape}"
            )
    return ScorerParams(**{name: Tensor(arrays[name]) for name in expected})


def _rows(t: Tensor, n: int, name: str) -> Tensor:
    if t.shape[0] == n:
        return t
    if t.shape[0] == 1:
        return ad.tile_rows(t, n) if n > 1 else t
    raise ValidationError(f"{name} must have 1 or {n} rows, got {t.shape[0]}")


def score_logits(
    targets: Tensor,
    h_macro: Tensor,
    h_micro: Tensor,
    h_prev: Tensor,
    h_cand: Tensor,
    params: ScorerParams,
) -> Tensor:
    """Two logits per target row.

    Feature layout per row: the raw target embedding, the target gated by
    the previous and candidate contexts, then the macro and micro
    interest vectors gated by each context.  Context and interest inputs
    may be shared single rows or per-row matrices.
    """
    n = targets.shape[0]
    gate_prev_src = _rows(h_prev, n, "h_prev")
    gate_cand_src = _rows(h_cand, n, "h_cand")
    macro = _rows(h_macro, n, "h_macro")
    micro = _rows(h_micro, n, "h_micro")

    gate_prev = ad.sigmoid(
        ad.matmul(ad.relu(ad.matmul(gate_prev_src, params.w1_prev)), params.w2_prev)
    )
    gate_cand = ad.sigmoid(
        ad.matmul(ad.relu(ad.matmul(gate_cand_src, params.w1_cand)), params.w2_cand)
    )
    features = ad.concat_cols(
        [
            targets,
            ad.mul_elementwise(targets, gate_prev),
            ad.mul_elementwise(targets, gate_cand),
            ad.mul_elementwise(macro, gate_prev),
            ad.mul_elementwise(micro, gate_prev),
            ad.mul_elementwise(macro, gate_cand),
            ad.mul_elementwise(micro, gate_cand),
        ]
    )
    hidden = ad.relu(ad.add(ad.matmul(features, params.mlp_w1), params.mlp_b1))
    return ad.add(ad.matmul(hidden, params.mlp_w2), params.mlp_b2)


def score_batch(
    target_embeddings: np.ndarray,
    profile: InterestProfile,
    ctx: ContextState,
    params: ScorerParams,
) -> np.ndarray:
    """Positive-class probability for each target row, gradient-free.

    The plain-numpy inference form of `score_logits`.  Context and
    interest rows are shared by every target, so each gate is one (d,)
    vector, and gating the target columns equals scaling the rows of
    their `mlp_w1` block: (T * g) W = T (g[:, None] * W).  The three target
    blocks thus fold into one (d, hidden) weight and the four
    gated-interest blocks plus `mlp_b1` into one row, leaving one matmul
    per call.  The two-way softmax is a sigmoid of the logit gap.
    """
    targets = np.asarray(target_embeddings, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets.reshape(1, -1)
    d = targets.shape[1]
    w1, w2 = params.mlp_w1.data, params.mlp_w2.data
    g_prev = _sigmoid(np.maximum(ctx.h_prev @ params.w1_prev.data, 0.0) @ params.w2_prev.data)
    g_cand = _sigmoid(np.maximum(ctx.h_cand @ params.w1_cand.data, 0.0) @ params.w2_cand.data)
    weight = w1[:d] + g_prev[:, None] * w1[d : 2 * d] + g_cand[:, None] * w1[2 * d : 3 * d]
    macro, micro = profile.h_macro, profile.h_micro
    gated = np.concatenate([macro * g_prev, micro * g_prev, macro * g_cand, micro * g_cand])
    row = gated @ w1[3 * d :] + params.mlp_b1.data[0]
    b2 = params.mlp_b2.data[0]
    gap = np.maximum(targets @ weight + row, 0.0) @ (w2[:, 1] - w2[:, 0]) + (b2[1] - b2[0])
    return _sigmoid(gap)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-log(1 + e^-x)) neither overflows nor warns at any finite x.
    return np.exp(-np.logaddexp(0.0, -x))


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of binary labels under a row softmax."""
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValidationError("labels must align with logit rows")
    onehot = np.zeros((n, 2))
    onehot[np.arange(n), labels] = 1.0
    picked = ad.mul_elementwise(ad.log(ad.softmax_rows(logits)), ad.constant(onehot))
    return ad.scale(ad.sum_all(picked), -1.0 / n)


@dataclass(frozen=True)
class Impression:
    """One labeled training row with its reconstructed session context."""

    user_id: str
    embedding: np.ndarray
    h_prev: np.ndarray
    h_cand: np.ndarray
    label: int


def build_impressions(
    log: BehaviorLog,
    table: EmbeddingTable,
) -> list[Impression]:
    """Reconstruct per-user session contexts from a labeled behavior log.

    Events are grouped per user in timestamp order.  For the t-th event
    the previous context is the mean of the earlier session embeddings
    (zero for the first) and the candidate context is the mean over the
    whole session, mirroring how contexts behave at serving time.
    Unlabeled events and events without embeddings are skipped.
    """
    ts = log.ts.tolist()
    labels = log.labels.tolist()
    by_user: dict[str, list[int]] = {}
    for row, (user_id, item_id) in enumerate(zip(log.user_ids, log.item_ids)):
        if labels[row] == NO_LABEL or item_id not in table:
            continue
        by_user.setdefault(user_id, []).append(row)
    out: list[Impression] = []
    for user_id in sorted(by_user):
        session = sorted(by_user[user_id], key=ts.__getitem__)
        embs = table.rows(log.item_ids[r] for r in session)
        h_cand = embs.mean(axis=0)
        running = np.zeros(embs.shape[1])
        for t, row in enumerate(session):
            h_prev = running / t if t else np.zeros(embs.shape[1])
            out.append(
                Impression(
                    user_id=user_id,
                    embedding=embs[t],
                    h_prev=h_prev,
                    h_cand=h_cand,
                    label=labels[row],
                )
            )
            running = running + embs[t]
    return out


def train_scorer(
    impressions: list[Impression],
    profiles: dict[str, InterestProfile],
    params: ScorerParams,
    lr: float,
    epochs: int,
    seed: int,
    batch_size: int = 32,
) -> list[dict[str, float]]:
    """Minibatch SGD on cross-entropy; returns the per-epoch loss curve.

    Each curve entry holds the epoch's mean training loss and AUC.
    Degenerate label sets (all positive or all negative) are rejected.
    lr = 0 performs the full loop but leaves parameters bit-identical.
    """
    if not impressions:
        raise ValidationError("no labeled impressions to train on")
    if epochs < 1:
        raise ValidationError("epochs must be >= 1")
    if batch_size < 1:
        raise ValidationError("batch_size must be >= 1")
    labels_all = np.array([imp.label for imp in impressions])
    if labels_all.min() == labels_all.max():
        raise ValidationError("training labels are degenerate (single class)")

    dim = params.dim
    zero = np.zeros(dim)
    n = len(impressions)
    targets = np.stack([imp.embedding for imp in impressions])
    h_prev = np.stack([imp.h_prev for imp in impressions])
    h_cand = np.stack([imp.h_cand for imp in impressions])
    h_macro = np.stack(
        [profiles[imp.user_id].h_macro if imp.user_id in profiles else zero for imp in impressions]
    )
    h_micro = np.stack(
        [profiles[imp.user_id].h_micro if imp.user_id in profiles else zero for imp in impressions]
    )

    tensor_list = list(params.tensors().values())
    rng = np.random.default_rng(seed)
    curve: list[dict[str, float]] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses: list[float] = []
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            with ad.Tape():
                logits = score_logits(
                    ad.constant(targets[batch]),
                    ad.constant(h_macro[batch]),
                    ad.constant(h_micro[batch]),
                    ad.constant(h_prev[batch]),
                    ad.constant(h_cand[batch]),
                    params,
                )
                loss = cross_entropy(logits, labels_all[batch])
                ad.backward(loss)
            losses.append(loss.item() * len(batch))
            ad.sgd_step(tensor_list, lr)
        with ad.no_grad():
            logits = score_logits(
                ad.constant(targets),
                ad.constant(h_macro),
                ad.constant(h_micro),
                ad.constant(h_prev),
                ad.constant(h_cand),
                params,
            )
            probs = ad.softmax_rows(logits).data[:, 1]
        curve.append(
            {
                "epoch": float(epoch),
                "loss": float(np.sum(losses) / n),
                "auc": float(auc(labels_all, probs)),
            }
        )
    return curve


def save_training_log(path: str, curve: list[dict[str, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "auc"])
        for row in curve:
            writer.writerow([int(row["epoch"]), f"{row['loss']:.12g}", f"{row['auc']:.12g}"])
