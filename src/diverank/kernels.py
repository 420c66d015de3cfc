"""Perception-weighted similarity kernels for diversity selection.

Three exponential dot-product kernels are blended into one candidate
similarity matrix: a raw item-embedding kernel plus two kernels over
interest-modulated embeddings (long-term and short-term), weighted by
beta1 and beta2, with a jitter ridge on the diagonal.  The exponent is
+dot/b^2, which is positive semidefinite and equals the classical
squared-exponential kernel up to a constant factor once the embeddings
are L2-normalized.  The blend is built by row blocks of its upper
triangle, one gemm per term into the output or one block of scratch,
skipping factors (1/b^2, a^2, beta) of exactly 1, then mirrored.  A pool of
n^2 <= `ROW_BLOCK_ENTRIES` is one block, run by numpy as the syrk of
`V @ V.T`; a larger pool's gemm blocks round a few ulp differently.
Only the diagonal is checked for finiteness.  Each term is
c * exp(s * <u_i, u_j>), c = a^2 * beta >= 0, s = 1/b^2 > 0, so every entry
lies in [0, D_ii + D_jj] (Cauchy-Schwarz); with overflow trapped, any NaN
or inf input shows up on the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import ExperimentConfig, NumericalError, ValidationError
from .interests import InterestProfile

ROW_BLOCK_ENTRIES = 1 << 16  # entries per row block of one term (512 KB), not a knob
# A block's diagonal square has min(ROW_BLOCK_ENTRIES // n, n) <= isqrt(ROW_BLOCK_ENTRIES) rows.
_STRICT_LOWER = np.tri(math.isqrt(ROW_BLOCK_ENTRIES), k=-1, dtype=bool)


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
    `cfg`.  Each block of rows is built from its diagonal rightward, then
    copied below the diagonal, so the result is exactly symmetric by
    construction; only its diagonal is checked for finiteness.
    """
    ids = tuple(ids)
    embs = np.asarray(embeddings, dtype=np.float64)
    if embs.ndim != 2 or embs.shape[0] != len(ids):
        raise ValidationError("embeddings must be (n, d) aligned with ids")
    if profile.h_macro.shape != (embs.shape[1],):
        raise ValidationError("profile dimension does not match embeddings")
    base = normalize_rows(embs) if cfg.normalize_embeddings else embs
    terms = _terms(base, profile, cfg)
    n = len(ids)
    rows = max(1, ROW_BLOCK_ENTRIES // max(n, 1))
    d = np.empty((n, n))
    scratch = np.empty((min(rows, n), n))
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        _term_sum(terms, slice(r0, r1), slice(r0, n), d[r0:r1, r0:], scratch[: r1 - r0, : n - r0])
        d[r1:, r0:r1] = d[r0:r1, r1:].T  # the block right of its diagonal square, mirrored
        if rows < n:  # else one block, which numpy runs as the syrk of V @ V.T, mirrored already
            square = d[r0:r1, r0:r1]
            np.copyto(square, square.T, where=_STRICT_LOWER[: r1 - r0, : r1 - r0])
    diagonal = d.ravel()[:: n + 1]  # a view
    diagonal += cfg.jitter
    if not np.isfinite(diagonal).all():
        raise ValidationError("kernel matrix contains non-finite entries")
    return KernelMatrix(ids=ids, values=d)


def _term_sum(terms: list[tuple], rows: slice, cols: slice, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write the sum of `terms` over `rows` x `cols` into `out`, the first term
    in place and each later one through `scratch` of the same shape."""
    try:
        with np.errstate(over="raise"):
            for t, (vectors, scale, amp, beta, where) in enumerate(terms):
                part = scratch if t else out
                np.matmul(vectors[rows], vectors[cols].T, out=part)
                if scale != 1.0:
                    part *= scale
                np.exp(part, out=part)
                for factor in (amp, beta):
                    if factor != 1.0:
                        part *= factor
                if t:
                    out += part
    except FloatingPointError:
        msg = f"kernel term a^2 * exp(<x_i, x_j> / b^2) overflows at {where}"
        raise NumericalError(f"{msg}; normalize the embeddings or raise b") from None


def _terms(base: np.ndarray, profile: InterestProfile, cfg: ExperimentConfig) -> list[tuple]:
    """Per term: vectors, finite 1/b^2 and a^2, beta, and its knobs (named a_s, b_s if equal)."""
    item_a = ("a_s" if cfg.a_item == cfg.a_s else "a_item", cfg.a_item)
    item_b = ("b_s" if cfg.b_item == cfg.b_s else "b_item", cfg.b_item)
    specs = [(base, item_a, item_b, 1.0)]
    if cfg.beta1 > 0.0:
        specs.append((modulated_vectors(base, profile.h_macro), ("a_l", cfg.a_l), ("b_l", cfg.b_l), cfg.beta1))
    if cfg.beta2 > 0.0:
        specs.append((modulated_vectors(base, profile.h_micro), ("a_s", cfg.a_s), ("b_s", cfg.b_s), cfg.beta2))
    terms = []
    for vectors, (a_name, a), (b_name, b), beta in specs:
        b2, amp = b * b, a * a
        if b2 == 0.0 or not math.isfinite(1.0 / b2):
            raise NumericalError(f"kernel scale 1/{b_name}^2 is not finite at {b_name}={b:g}")
        if not math.isfinite(amp):
            raise NumericalError(f"kernel amplitude {a_name}^2 is not finite at {a_name}={a:g}")
        terms.append((vectors, 1.0 / b2, amp, beta, f"{a_name}={a:g}, {b_name}={b:g}"))
    return terms
