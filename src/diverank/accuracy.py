"""Context-aware accuracy scoring with excitation gating.

The scorer estimates a click probability for a target item given what
was already selected (previous context), what is on the table (candidate
context), and the user's long- and short-term interest vectors.  Each
context drives a squeeze-excitation gate sigma(W2 relu(W1 ctx)) in
(0, 1)^d; the gates modulate the target embedding and both interest
vectors, and the seven resulting d-vectors feed a small MLP ending in a
two-logit softmax.

Training runs on plain arrays: each minibatch is one call of
`autodiff.backward`, which returns the loss and all eight parameter
gradients from analytic backwards that the tests hold bit for bit to the
composed graph of tape primitives.  Inference folds the terms fixed for a
candidate list once (`list_state`), so a greedy step (`score_batch`) adds
one small matrix product.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .data import NO_LABEL, BehaviorLog, EmbeddingTable, NumericalError, ValidationError
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
    """Excitation gates (one pair of matrices per context source) and MLP head.

    Every field is a 2-D float64 array; training updates them in place.
    """

    w1_prev: np.ndarray  # (d, d // reduction)
    w2_prev: np.ndarray  # (d // reduction, d)
    w1_cand: np.ndarray
    w2_cand: np.ndarray
    mlp_w1: np.ndarray  # (7d, hidden)
    mlp_b1: np.ndarray  # (1, hidden)
    mlp_w2: np.ndarray  # (hidden, 2)
    mlp_b2: np.ndarray  # (1, 2)

    @property
    def dim(self) -> int:
        return self.w1_prev.shape[0]

    @property
    def reduction(self) -> int:
        return self.dim // self.w1_prev.shape[1]

    @property
    def hidden(self) -> int:
        return self.mlp_w1.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def init_scorer_params(
    dim: int,
    rng: np.random.Generator,
    reduction: int = 4,
    hidden: int | None = None,
) -> ScorerParams:
    """Bottleneck width d/reduction (at least 1); hidden defaults to 4d.

    Weights are Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) with fan_in their
    row count, drawn in field order; biases start at zero.
    """
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    if reduction < 1:
        raise ValidationError("reduction must be >= 1")
    bottleneck = max(1, dim // reduction)
    if hidden is None:
        hidden = 4 * dim
    if hidden < 1:
        raise ValidationError(f"hidden must be >= 1, got {hidden}")

    def uniform(rows: int, cols: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(rows)
        return rng.uniform(-bound, bound, size=(rows, cols))

    return ScorerParams(
        w1_prev=uniform(dim, bottleneck),
        w2_prev=uniform(bottleneck, dim),
        w1_cand=uniform(dim, bottleneck),
        w2_cand=uniform(bottleneck, dim),
        mlp_w1=uniform(7 * dim, hidden),
        mlp_b1=np.zeros((1, hidden)),
        mlp_w2=uniform(hidden, 2),
        mlp_b2=np.zeros((1, 2)),
    )


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
    return ScorerParams(**{name: np.asarray(arrays[name], dtype=np.float64) for name in expected})


@dataclass(frozen=True, eq=False)
class ListState:
    """The scorer's terms fixed for one candidate list; scoring never writes into them."""

    base: np.ndarray  # (n, hidden): every first-layer term not gated by g_prev
    interest: np.ndarray  # (d, hidden): g_prev @ interest is the g_prev-gated interest row
    gap: np.ndarray  # (hidden,): hidden layer to logit gap
    gap_bias: float


def list_state(
    targets: np.ndarray, profile: InterestProfile, h_cand: np.ndarray, params: ScorerParams
) -> ListState:
    """Fold the candidate context, interest rows and output layer into per-list terms.

    Context and interest rows are shared by every target, so each gate is
    one (d,) vector, and gating the target columns equals scaling the rows
    of their `mlp_w1` block: (T * g) W = T (g[:, None] * W).  The target
    and `g_cand`-gated target blocks thus fold into one (d, hidden) weight.
    """
    d = targets.shape[1]
    w1, w2, b2 = params.mlp_w1, params.mlp_w2, params.mlp_b2[0]
    g_cand = _sigmoid(np.maximum(h_cand @ params.w1_cand, 0.0) @ params.w2_cand)
    macro, micro = profile.h_macro, profile.h_micro
    row = np.concatenate([macro * g_cand, micro * g_cand]) @ w1[5 * d :] + params.mlp_b1[0]
    base = targets @ (w1[:d] + g_cand[:, None] * w1[2 * d : 3 * d]) + row
    interest = macro[:, None] * w1[3 * d : 4 * d] + micro[:, None] * w1[4 * d : 5 * d]
    return ListState(base, interest, w2[:, 1] - w2[:, 0], b2[1] - b2[0])


def score_batch(
    target_embeddings: np.ndarray,
    profile: InterestProfile,
    ctx: ContextState,
    params: ScorerParams,
    state: ListState | None = None,
) -> np.ndarray:
    """Positive-class probability for each target row, gradient-free.

    The inference form of `autodiff.score_logits`.  `state` holds the
    terms fixed for the list (see `list_state`); without one it is built
    from `ctx.h_cand`.  A call adds the `g_prev`-gated target block, one
    (n, d) by (d, hidden) product, and the `g_prev`-gated interest row.
    The two-way softmax is a sigmoid of the logit gap.
    """
    targets = np.asarray(target_embeddings, dtype=np.float64)
    if targets.ndim == 1:
        targets = targets.reshape(1, -1)
    if state is None:
        state = list_state(targets, profile, ctx.h_cand, params)
    d = targets.shape[1]
    g_prev = _sigmoid(np.maximum(ctx.h_prev @ params.w1_prev, 0.0) @ params.w2_prev)
    hidden = targets @ (g_prev[:, None] * params.mlp_w1[d : 2 * d])
    hidden += state.base  # in place: a fresh (n, hidden) array per add costs more than the add
    hidden += g_prev @ state.interest
    return _sigmoid(np.maximum(hidden, 0.0, out=hidden) @ state.gap + state.gap_bias)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-log(1 + e^-x)) neither overflows nor warns at any finite x.
    return np.exp(-np.logaddexp(0.0, -x))


@dataclass(frozen=True, eq=False)
class Impressions:
    """Labelled training rows with their session contexts, held as columns.

    Row r: `user_ids[r]` saw the item embedded as `embeddings[r]` (an
    (N, d) float64 array, like `h_prev` and `h_cand`) after items whose
    mean is `h_prev[r]`, in a session whose mean is `h_cand[r]`;
    `labels[r]` is 0 or 1.
    """

    user_ids: tuple[str, ...]
    embeddings: np.ndarray
    h_prev: np.ndarray
    h_cand: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        n = len(self.user_ids)
        cols = [np.asarray(c, dtype=np.float64) for c in (self.embeddings, self.h_prev, self.h_cand)]
        labels = np.asarray(self.labels, dtype=np.int64)
        if cols[0].ndim != 2 or len(cols[0]) != n or any(c.shape != cols[0].shape for c in cols):
            raise ValidationError(f"impression columns must be ({n}, d) arrays")
        if labels.shape != (n,) or not np.isin(labels, (0, 1)).all():
            raise ValidationError(f"impression labels must be {n} values of 0 or 1")
        for f, value in zip(fields(self), (tuple(self.user_ids), *cols, labels)):
            object.__setattr__(self, f.name, value)

    def __len__(self) -> int:
        return len(self.user_ids)


def build_impressions(log: BehaviorLog, table: EmbeddingTable) -> Impressions:
    """Reconstruct per-user session contexts from a labelled behavior log.

    The log must be sorted by (user_id, ts), as `load_behaviors` returns
    it.  For the t-th event of a user's session the previous context is
    the mean of the earlier session embeddings (zero for the first) and
    the candidate context is the mean over the whole session, mirroring
    how contexts behave at serving time.  Unlabelled events and events
    without embeddings are skipped.
    """
    users, items, labels = log.user_ids, log.item_ids, log.labels.tolist()
    starts = [0] + [r for r in range(1, len(log)) if users[r] != users[r - 1]]
    back_in_time = np.diff(log.ts) < 0
    back_in_time[np.asarray(starts[1:], dtype=np.intp) - 1] = False
    if back_in_time.any() or any(users[a] >= users[b] for a, b in zip(starts, starts[1:])):
        raise ValidationError("behavior log must be sorted by (user_id, ts)")
    kept, sizes = [], []  # rows kept, and their count per user
    for lo, hi in zip(starts, starts[1:] + [len(log)]):
        session = [r for r in range(lo, hi) if labels[r] != NO_LABEL and items[r] in table]
        kept.extend(session)
        if session:
            sizes.append(len(session))
    embeddings = table.rows(items[r] for r in kept)
    h_prev, h_cand = np.zeros_like(embeddings), np.empty_like(embeddings)
    lo = 0
    for size in sizes:
        embs = embeddings[lo : lo + size]
        h_cand[lo : lo + size] = embs.mean(axis=0)
        # Running sums from zero, added in session order.
        running = np.cumsum(np.vstack((np.zeros(embs.shape[1]), embs[:-1])), axis=0)
        h_prev[lo + 1 : lo + size] = running[1:] / np.arange(1, size)[:, None]
        lo += size
    return Impressions(tuple(users[r] for r in kept), embeddings, h_prev, h_cand, log.labels[kept])


def train_scorer(
    impressions: Impressions,
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
    lr = 0 performs the full loop but leaves parameters bit-identical; a
    non-finite loss or parameter after an epoch raises NumericalError.
    """
    if not len(impressions):
        raise ValidationError("no labeled impressions to train on")
    if epochs < 1:
        raise ValidationError("epochs must be >= 1")
    if batch_size < 1:
        raise ValidationError("batch_size must be >= 1")
    if not (math.isfinite(lr) and lr >= 0):
        raise ValidationError(f"lr must be finite and >= 0, got {lr}")
    labels_all = impressions.labels
    if labels_all.min() == labels_all.max():
        raise ValidationError("training labels are degenerate (single class)")

    n = len(impressions)
    # Each user's profile rows are looked up once, then spread to their rows.
    users = sorted(set(impressions.user_ids))
    user_row = {user_id: row for row, user_id in enumerate(users)}
    zero = np.zeros(params.dim)
    macro = np.stack([profiles[u].h_macro if u in profiles else zero for u in users])
    micro = np.stack([profiles[u].h_micro if u in profiles else zero for u in users])
    rows = np.fromiter(map(user_row.__getitem__, impressions.user_ids), np.intp, n)
    columns = (impressions.embeddings, macro[rows], micro[rows], impressions.h_prev, impressions.h_cand)

    weights = list(params.arrays().values())
    rng = np.random.default_rng(seed)
    curve: list[dict[str, float]] = []
    # Divergence is caught below as a non-finite loss or parameter, so
    # numpy's overflow warnings on the way there are not raised.
    with np.errstate(all="ignore"):
        for epoch in range(epochs):
            order = rng.permutation(n)
            losses: list[float] = []
            for start in range(0, n, batch_size):
                batch = order[start : start + batch_size]
                loss, grads = ad.backward(*[c[batch] for c in columns], params, labels_all[batch])
                losses.append(loss * len(batch))
                for w, g in zip(weights, grads):
                    w -= lr * g
            epoch_loss = float(np.sum(losses) / n)
            if not math.isfinite(epoch_loss) or not all(np.isfinite(w).all() for w in weights):
                raise NumericalError(
                    f"training diverged in epoch {epoch} (loss {epoch_loss:g} at lr={lr:g}); "
                    "lower the learning rate"
                )
            probs = ad.softmax(ad.score_logits(*columns, params))[:, 1]
            curve.append({"epoch": float(epoch), "loss": epoch_loss, "auc": float(auc(labels_all, probs))})
    return curve


def save_training_log(path: str, curve: list[dict[str, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "auc"])
        for row in curve:
            writer.writerow([int(row["epoch"]), f"{row['loss']:.12g}", f"{row['auc']:.12g}"])
