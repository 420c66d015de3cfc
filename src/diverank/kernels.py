"""Perception-weighted similarity kernels for diversity selection.

Three exponential dot-product kernels are blended into one candidate
similarity matrix: a raw item-embedding kernel plus two kernels over
interest-modulated embeddings (long-term and short-term), weighted by
beta1 and beta2, with a jitter ridge on the diagonal.  The exponent is
+dot/b^2, which is positive semidefinite and equals the classical
squared-exponential kernel up to a constant factor once the embeddings
are L2-normalized.  The blend is built by row blocks of its upper
triangle, one gemm per term into the output or one block of scratch,
skipping factors (1/b^2, beta) of exactly 1, then mirrored.  A pool of
n^2 <= `ROW_BLOCK_ENTRIES` is one block, run by numpy as the syrk of
`V @ V.T`; a larger pool's gemm blocks round a few ulp differently.
Only the diagonal is checked for finiteness.  Each term is
c * exp(s * <u_i, u_j>), c = beta >= 0, s = 1/b^2 > 0, so every entry
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
    """L2-normalize each row; all-zero rows stay zero (cold-start safe).

    `np.linalg.norm` squares the entries, so the norm of a finite row can
    overflow to inf, or underflow to 0 while an entry is non-zero.  Only
    such a row is divided by its largest absolute entry first; every other
    row keeps the bits of `np.linalg.norm`.
    """
    embs = np.asarray(embeddings, dtype=np.float64)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(embs, axis=1, keepdims=True)
    rescale = (np.isinf(norms) | (norms == 0.0))[:, 0]
    if rescale.any():
        rows = embs[rescale]
        peak = np.abs(rows).max(axis=1, keepdims=True)
        embs = embs.copy()
        embs[rescale] = rows / np.where(peak > 0.0, peak, 1.0)
        norms[rescale] = np.linalg.norm(embs[rescale], axis=1, keepdims=True)
    return embs / np.where(norms > 0.0, norms, 1.0)


def composite_matrix(
    ids,
    embeddings: np.ndarray,
    profile: InterestProfile,
    cfg: ExperimentConfig,
) -> KernelMatrix:
    """Blend item, macro, and micro kernels into one jittered matrix.

    D = D_item + beta1 * D_macro + beta2 * D_micro + jitter * I, each D an
    exp(<x_i, x_j> / b^2) over (optionally normalized) embeddings with its
    own b (`b_item`, `b_l`, `b_s`), and every knob read from `cfg`.  Each
    block of rows is built from its diagonal rightward, then copied below
    the diagonal, so the result is exactly symmetric by construction; only
    its diagonal is checked for finiteness.
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
    """Write the sum of `terms`, each beta * exp(<x_i, x_j> / b^2), over
    `rows` x `cols` into `out`: the first term in place and each later one
    through `scratch` of the same shape, skipping a factor of exactly 1."""
    try:
        with np.errstate(over="raise"):
            for t, (vectors, scale, beta, where) in enumerate(terms):
                fix = "normalize the embeddings or raise b"
                part = scratch if t else out
                np.matmul(vectors[rows], vectors[cols].T, out=part)
                if scale != 1.0:
                    part *= scale
                np.exp(part, out=part)
                if beta != 1.0:
                    fix = f"lower {where.partition('=')[0]}"  # the beta a term's name starts with
                    part *= beta
                if t:
                    out += part
    except FloatingPointError:
        msg = f"kernel term beta * exp(<x_i, x_j> / b^2) overflows at {where}"
        raise NumericalError(f"{msg}; {fix}") from None


def _terms(base: np.ndarray, profile: InterestProfile, cfg: ExperimentConfig) -> list[tuple]:
    """Per term: vectors, finite 1/b^2, beta, and the knobs that name it, beta first."""
    specs = [(base, 1.0, "", "b_item", cfg.b_item)]
    if cfg.beta1 > 0.0:
        specs.append((base * profile.h_macro, cfg.beta1, f"beta1={cfg.beta1:g}, ", "b_l", cfg.b_l))
    if cfg.beta2 > 0.0:
        specs.append((base * profile.h_micro, cfg.beta2, f"beta2={cfg.beta2:g}, ", "b_s", cfg.b_s))
    terms = []
    for vectors, beta, knobs, b_name, b in specs:
        b2 = b * b
        if b2 == 0.0 or not math.isfinite(1.0 / b2):
            raise NumericalError(f"kernel scale 1/{b_name}^2 is not finite at {b_name}={b:g}")
        terms.append((vectors, 1.0 / b2, beta, f"{knobs}{b_name}={b:g}"))
    return terms
