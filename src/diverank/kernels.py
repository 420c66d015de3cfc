"""Perception-weighted similarity kernels for diversity selection.

Three exponential dot-product kernels are blended into one candidate
similarity matrix: a raw item-embedding kernel plus two kernels over
interest-modulated embeddings (long-term and short-term), weighted by
beta1 and beta2, with a jitter ridge on the diagonal.  By default the
exponent is +dot/b^2, which is positive semidefinite and equals the
classical squared-exponential kernel up to a constant factor once the
embeddings are L2-normalized; `negative_exponent_kernels` flips the sign
to the bare elementary form a^2 * exp(-(x . y) / b^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ExperimentConfig, NumericalError, ValidationError
from .interests import InterestProfile


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Symmetric candidate similarity matrix aligned to an id order."""

    ids: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        n = len(self.ids)
        if vals.shape != (n, n):
            raise ValidationError(f"kernel matrix must be ({n}, {n}), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("kernel matrix contains non-finite entries")
        if n and np.max(np.abs(vals - vals.T)) > 1e-12:
            raise ValidationError("kernel matrix is not symmetric")
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return len(self.ids)


def normalize_rows(embeddings: np.ndarray) -> np.ndarray:
    """L2-normalize each row; all-zero rows stay zero (cold-start safe)."""
    embs = np.asarray(embeddings, dtype=np.float64)
    norms = np.linalg.norm(embs, axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return embs / safe


def _signed_exp_gram(vectors: np.ndarray, a: float, b: float, sign: float) -> np.ndarray:
    # In-place scale/exp: one N^2 allocation per term instead of four.
    gram = vectors @ vectors.T
    gram *= sign / (b * b)
    try:
        with np.errstate(over="raise"):
            np.exp(gram, out=gram)
    except FloatingPointError:
        raise NumericalError(
            f"kernel exp(<x_i, x_j> / b^2) overflows at b={b:g}; "
            "normalize the embeddings or raise b"
        ) from None
    gram *= a * a
    return gram


def modulated_vectors(embeddings: np.ndarray, interest: np.ndarray) -> np.ndarray:
    """Project embeddings through an interest vector, componentwise."""
    embs = np.asarray(embeddings, dtype=np.float64)
    interest = np.asarray(interest, dtype=np.float64)
    if embs.ndim != 2 or interest.shape != (embs.shape[1],):
        raise ValidationError("embeddings (n, d) and interest (d,) expected")
    return embs * interest


def composite_matrix(
    ids,
    embeddings: np.ndarray,
    profile: InterestProfile,
    cfg: ExperimentConfig,
) -> KernelMatrix:
    """Blend item, macro, and micro kernels into one jittered matrix.

    D = D_item + beta1 * D_macro + beta2 * D_micro + jitter * I, computed
    on (optionally normalized) embeddings, with every knob read from
    `cfg`.  The result is exactly symmetric by construction.
    """
    ids = tuple(ids)
    embs = np.asarray(embeddings, dtype=np.float64)
    if embs.ndim != 2 or embs.shape[0] != len(ids):
        raise ValidationError("embeddings must be (n, d) aligned with ids")
    if profile.h_macro.shape != (embs.shape[1],):
        raise ValidationError("profile dimension does not match embeddings")
    base = normalize_rows(embs) if cfg.normalize_embeddings else embs
    sign = -1.0 if cfg.negative_exponent_kernels else 1.0
    d = _signed_exp_gram(base, cfg.a_item, cfg.b_item, sign)
    if cfg.beta1 > 0.0:
        macro = modulated_vectors(base, profile.h_macro)
        term = _signed_exp_gram(macro, cfg.a_l, cfg.b_l, sign)
        term *= cfg.beta1
        d += term
    if cfg.beta2 > 0.0:
        micro = modulated_vectors(base, profile.h_micro)
        term = _signed_exp_gram(micro, cfg.a_s, cfg.b_s, sign)
        term *= cfg.beta2
        d += term
    if cfg.jitter:
        idx = np.arange(len(ids))
        d[idx, idx] += cfg.jitter
    return KernelMatrix(ids=ids, values=d)
