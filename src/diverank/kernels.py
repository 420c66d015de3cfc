"""Perception-weighted similarity kernels for diversity selection.

Three exponential dot-product kernels are blended into one candidate
similarity matrix: a raw item-embedding kernel plus two kernels over
interest-modulated embeddings (long-term and short-term), weighted by
beta1 and beta2, with a jitter ridge on the diagonal.  By default the
exponent is +dot/b^2, which is positive semidefinite and equals the
classical squared-exponential kernel up to a constant factor once the
embeddings are L2-normalized; the sign can be flipped via configuration
for the bare elementary form (see `elementary_kernel`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ExperimentConfig, NumericalError, ValidationError
from .interests import InterestProfile


def elementary_kernel(x: np.ndarray, y: np.ndarray, a: float, b: float) -> float:
    """Bare kernel form a^2 * exp(-(x . y) / b^2) on two vectors.

    Note the negative exponent: this is the primitive shape the composite
    kernels are built from, where the default composite flips the sign to
    keep the blended matrix positive semidefinite.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("elementary_kernel needs two equal-length vectors")
    if a <= 0 or b <= 0:
        raise ValidationError("kernel amplitudes a and b must be positive")
    return float(a * a * np.exp(-float(x @ y) / (b * b)))


@dataclass(frozen=True)
class KernelHyperparams:
    """All knobs of the composite kernel, derivable from ExperimentConfig."""

    a_l: float = 1.0
    b_l: float = 1.0
    a_s: float = 1.0
    b_s: float = 1.0
    a_item: float = 1.0
    b_item: float = 1.0
    beta1: float = 0.5
    beta2: float = 0.5
    jitter: float = 1e-6
    normalize: bool = True
    scalar_projection: bool = False
    negative_exponent: bool = False

    def __post_init__(self):
        for name in ("a_l", "b_l", "a_s", "b_s", "a_item", "b_item"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.beta1 < 0 or self.beta2 < 0:
            raise ValidationError("beta1 and beta2 must be >= 0")
        if self.jitter < 0:
            raise ValidationError("jitter must be >= 0")

    @property
    def sign(self) -> float:
        return -1.0 if self.negative_exponent else 1.0

    @classmethod
    def from_config(cls, cfg: ExperimentConfig) -> "KernelHyperparams":
        return cls(
            a_l=cfg.a_l,
            b_l=cfg.b_l,
            a_s=cfg.a_s,
            b_s=cfg.b_s,
            a_item=cfg.a_item,
            b_item=cfg.b_item,
            beta1=cfg.beta1,
            beta2=cfg.beta2,
            jitter=cfg.jitter,
            normalize=cfg.normalize_embeddings,
            scalar_projection=cfg.scalar_interest_projection,
            negative_exponent=cfg.negative_exponent_kernels,
        )


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


def modulated_vectors(
    embeddings: np.ndarray, interest: np.ndarray, scalar_projection: bool
) -> np.ndarray:
    """Project embeddings through an interest vector.

    Elementwise reading (default): each embedding is multiplied
    componentwise by the interest vector.  Scalar reading: each embedding
    collapses to its dot product with the interest vector, a length-1
    representation whose pairwise dots are products of scalars.
    """
    embs = np.asarray(embeddings, dtype=np.float64)
    interest = np.asarray(interest, dtype=np.float64)
    if embs.ndim != 2 or interest.shape != (embs.shape[1],):
        raise ValidationError("embeddings (n, d) and interest (d,) expected")
    if scalar_projection:
        return (embs @ interest).reshape(-1, 1)
    return embs * interest


def macro_kernel(
    e_i: np.ndarray, e_j: np.ndarray, profile: InterestProfile, hp: KernelHyperparams
) -> float:
    """Long-term perception kernel value for one item pair."""
    pair = np.stack([np.asarray(e_i, dtype=np.float64), np.asarray(e_j, dtype=np.float64)])
    if hp.normalize:
        pair = normalize_rows(pair)
    mod = modulated_vectors(pair, profile.h_macro, hp.scalar_projection)
    return float(hp.a_l**2 * np.exp(hp.sign * float(mod[0] @ mod[1]) / hp.b_l**2))


def micro_kernel(
    e_i: np.ndarray, e_j: np.ndarray, profile: InterestProfile, hp: KernelHyperparams
) -> float:
    """Short-term perception kernel value for one item pair."""
    pair = np.stack([np.asarray(e_i, dtype=np.float64), np.asarray(e_j, dtype=np.float64)])
    if hp.normalize:
        pair = normalize_rows(pair)
    mod = modulated_vectors(pair, profile.h_micro, hp.scalar_projection)
    return float(hp.a_s**2 * np.exp(hp.sign * float(mod[0] @ mod[1]) / hp.b_s**2))


def item_kernel(e_i: np.ndarray, e_j: np.ndarray, hp: KernelHyperparams) -> float:
    """Raw item-embedding kernel value for one pair."""
    pair = np.stack([np.asarray(e_i, dtype=np.float64), np.asarray(e_j, dtype=np.float64)])
    if hp.normalize:
        pair = normalize_rows(pair)
    return float(hp.a_item**2 * np.exp(hp.sign * float(pair[0] @ pair[1]) / hp.b_item**2))


def composite_matrix(
    ids,
    embeddings: np.ndarray,
    profile: InterestProfile,
    hp: KernelHyperparams,
) -> KernelMatrix:
    """Blend item, macro, and micro kernels into one jittered matrix.

    D = D_item + beta1 * D_macro + beta2 * D_micro + jitter * I, computed
    on (optionally normalized) embeddings.  The result is exactly
    symmetric by construction.
    """
    ids = tuple(ids)
    embs = np.asarray(embeddings, dtype=np.float64)
    if embs.ndim != 2 or embs.shape[0] != len(ids):
        raise ValidationError("embeddings must be (n, d) aligned with ids")
    if profile.h_macro.shape != (embs.shape[1],):
        raise ValidationError("profile dimension does not match embeddings")
    base = normalize_rows(embs) if hp.normalize else embs
    sign = hp.sign
    d = _signed_exp_gram(base, hp.a_item, hp.b_item, sign)
    if hp.beta1 > 0.0:
        macro = modulated_vectors(base, profile.h_macro, hp.scalar_projection)
        term = _signed_exp_gram(macro, hp.a_l, hp.b_l, sign)
        term *= hp.beta1
        d += term
    if hp.beta2 > 0.0:
        micro = modulated_vectors(base, profile.h_micro, hp.scalar_projection)
        term = _signed_exp_gram(micro, hp.a_s, hp.b_s, sign)
        term *= hp.beta2
        d += term
    if hp.jitter:
        idx = np.arange(len(ids))
        d[idx, idx] += hp.jitter
    return KernelMatrix(ids=ids, values=d)
