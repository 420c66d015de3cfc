"""Context-aware accuracy scoring with excitation gating.

The scorer estimates a click probability for a target item given what
was already selected (previous context), what is on the table (candidate
context), and the user's long- and short-term interest vectors.  Each
context drives a squeeze-excitation gate sigma(W2 relu(W1 ctx)) in
(0, 1)^d; the gates modulate the target embedding and both interest
vectors, and the seven resulting d-vectors feed a small MLP ending in a
two-logit softmax.

Training records two autodiff ops per step: `score_logits` and
`cross_entropy` are each one op with an analytic backward, checked bit
for bit against the composed primitive graph in the tests.  Inference
(`score_batch`) runs in plain numpy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
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
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
    if hidden < 1:
        raise ValidationError(f"hidden must be >= 1, got {hidden}")
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


def _rows(t: Tensor, n: int, name: str, dim: int) -> np.ndarray:
    """A constant input's (n, dim) rows; a single row is repeated n times.

    Repeated rather than broadcast, because the composed graph tiled them
    and a matmul's rounding can depend on the shapes it is given.
    """
    if t.requires_grad:
        raise ValidationError(f"{name} must be a constant: only the scorer parameters get gradients")
    rows, cols = t.shape
    if cols != dim:
        raise ValidationError(f"{name} must have {dim} columns, got {cols}")
    if rows == n:
        return t.data
    if rows == 1:
        return np.repeat(t.data, n, axis=0)
    raise ValidationError(f"{name} must have 1 or {n} rows, got {rows}")


def _gate(src: np.ndarray, w1: np.ndarray, w2: np.ndarray):
    """Excitation gate sigma(relu(src W1) W2), with what its backward needs."""
    pre = src @ w1
    mask = pre > 0
    hidden = np.where(mask, pre, 0.0)
    return 1.0 / (1.0 + np.exp(-(hidden @ w2))), mask, hidden


def _gate_grads(g, src, gate, mask, hidden, w2) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of W1 and W2 from the gradient `g` of the gate's output."""
    g_pre_sigmoid = g * gate * (1.0 - gate)
    g_hidden = g_pre_sigmoid @ w2.T
    return src.T @ (g_hidden * mask), hidden.T @ g_pre_sigmoid


def score_logits(
    targets: Tensor,
    h_macro: Tensor,
    h_micro: Tensor,
    h_prev: Tensor,
    h_cand: Tensor,
    params: ScorerParams,
) -> Tensor:
    """Two logits per target row, as one recorded op.

    Feature layout per row: the raw target embedding, the target gated by
    the previous and candidate contexts, then the macro and micro
    interest vectors gated by each context.  Context and interest inputs
    may be shared single rows or per-row matrices; all five are constants.

    The backward is analytic and returns all eight parameter gradients at
    once.  It repeats, operation for operation and in the same order, what
    a tape of the composed graph (matmul, relu, sigmoid, elementwise
    products, column concatenation, bias adds) would replay, so the tests
    hold it bit for bit to that composed oracle.
    """
    n, d = targets.shape[0], params.dim
    T = _rows(targets, n, "targets", d)
    src_prev = _rows(h_prev, n, "h_prev", d)
    src_cand = _rows(h_cand, n, "h_cand", d)
    macro = _rows(h_macro, n, "h_macro", d)
    micro = _rows(h_micro, n, "h_micro", d)
    p = params
    tensors = tuple(p.tensors().values())
    prev = _gate(src_prev, p.w1_prev.data, p.w2_prev.data)
    cand = _gate(src_cand, p.w1_cand.data, p.w2_cand.data)
    gate_prev, gate_cand = prev[0], cand[0]
    features = np.concatenate(
        [
            T,
            T * gate_prev,
            T * gate_cand,
            macro * gate_prev,
            micro * gate_prev,
            macro * gate_cand,
            micro * gate_cand,
        ],
        axis=1,
    )
    pre = features @ p.mlp_w1.data + p.mlp_b1.data
    mask = pre > 0
    hidden = np.where(mask, pre, 0.0)
    logits = hidden @ p.mlp_w2.data + p.mlp_b2.data

    def back(g: np.ndarray) -> None:
        g_pre = (g @ p.mlp_w2.data.T) * mask
        g_features = g_pre @ p.mlp_w1.data.T
        block = [g_features[:, k * d : (k + 1) * d] for k in range(7)]
        # Each gate sums its contributions in the order a tape replays them.
        g_gate_cand = block[6] * micro
        g_gate_cand += block[5] * macro
        g_gate_prev = block[4] * micro
        g_gate_prev += block[3] * macro
        g_gate_cand += block[2] * T
        g_gate_prev += block[1] * T
        grads = (
            *_gate_grads(g_gate_prev, src_prev, *prev, p.w2_prev.data),
            *_gate_grads(g_gate_cand, src_cand, *cand, p.w2_cand.data),
            features.T @ g_pre,
            # A one-row bias gradient is passed on as is, keeping its -0.0s.
            g_pre if n == 1 else g_pre.sum(axis=0, keepdims=True),
            hidden.T @ g,
            g if n == 1 else g.sum(axis=0, keepdims=True),
        )
        for tensor, grad in zip(tensors, grads):
            if tensor.requires_grad:
                tensor.accumulate(grad)

    return ad.record(logits, tensors, back)


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
    """Mean negative log-likelihood of binary labels under a row softmax.

    One recorded op whose analytic backward repeats, in order, what a tape
    of softmax, log, label pick, sum and scale would replay; the tests
    hold it bit for bit to that composed oracle.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValidationError("labels must align with logit rows")
    onehot = np.zeros((n, 2))
    onehot[np.arange(n), labels] = 1.0
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    probs = ex / ex.sum(axis=1, keepdims=True)
    picked = np.log(probs) * onehot
    scale = -1.0 / n

    def back(g: np.ndarray) -> None:
        g_probs = np.full_like(picked, (g * scale)[0, 0]) * onehot / probs
        inner = (g_probs * probs).sum(axis=1, keepdims=True)
        logits.accumulate(probs * (g_probs - inner))

    return ad.record(np.array([[picked.sum()]]) * scale, (logits,), back)


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

    def logits_of(batch) -> Tensor:
        return score_logits(*[ad.constant(c[batch]) for c in columns], params)

    tensor_list = list(params.tensors().values())
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
                with ad.Tape():
                    loss = cross_entropy(logits_of(batch), labels_all[batch])
                    ad.backward(loss)
                losses.append(loss.item() * len(batch))
                ad.sgd_step(tensor_list, lr)
            epoch_loss = float(np.sum(losses) / n)
            if not math.isfinite(epoch_loss) or not all(np.isfinite(t.data).all() for t in tensor_list):
                raise NumericalError(
                    f"training diverged in epoch {epoch} (loss {epoch_loss:g} at lr={lr:g}); "
                    "lower the learning rate"
                )
            with ad.no_grad():
                probs = ad.softmax_rows(logits_of(slice(None))).data[:, 1]
            curve.append({"epoch": float(epoch), "loss": epoch_loss, "auc": float(auc(labels_all, probs))})
    return curve


def save_training_log(path: str, curve: list[dict[str, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "auc"])
        for row in curve:
            writer.writerow([int(row["epoch"]), f"{row['loss']:.12g}", f"{row['auc']:.12g}"])
