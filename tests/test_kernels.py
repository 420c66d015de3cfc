"""Similarity kernel tests.

The composite-matrix oracle evaluates every entry independently with
scalar arithmetic: normalize, modulate by the interest vector, exponent
of the scaled dot, mix with the beta weights, add jitter on the
diagonal.  `composite_oracle` is the term-by-term dense build, one n x n
array per term with every factor applied.  `composite_matrix` computes
the same products by blocks of rows; above n=256 they are gemm blocks,
which round a few ulp differently from the oracle's one syrk of
`V @ V.T`, so `composite_matrix` must match the oracle to `ORACLE_RTOL`
and be exactly symmetric.  The library checks only the diagonal for
finiteness, so every matrix built here is also held to the full check,
`oracles.assert_valid_kernel`.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diverank import kernels
from diverank.data import ExperimentConfig, NumericalError, ValidationError
from diverank.interests import InterestProfile
from diverank.kernels import KernelMatrix, normalize_rows
from oracles import assert_valid_kernel

# gemm row blocks against the oracle's one syrk: a relative gap of at most
# 1.9e-15 measured over 12 sizes from 1 to 1200 x the 10 ORACLE_CONFIGS.
ORACLE_RTOL = 1e-14


def composite_matrix(ids, embeddings, profile, cfg) -> KernelMatrix:
    """`kernels.composite_matrix`, its output held to `assert_valid_kernel`."""
    kernel = kernels.composite_matrix(ids, embeddings, profile, cfg)
    assert_valid_kernel(kernel.values)
    return kernel


def profile_of(h_macro, h_micro=None):
    h_macro = np.asarray(h_macro, dtype=float)
    if h_micro is None:
        h_micro = np.zeros_like(h_macro)
    return InterestProfile(user_id="u", h_macro=h_macro, h_micro=np.asarray(h_micro, float))


def composite_entry_oracle(i, j, embs, profile, cfg):
    """Scalar recomputation of one composite matrix entry."""
    def unit(v):
        n = math.sqrt(sum(x * x for x in v))
        return [x / n for x in v] if n > 0 else list(v)

    ei = unit(embs[i]) if cfg.normalize_embeddings else list(embs[i])
    ej = unit(embs[j]) if cfg.normalize_embeddings else list(embs[j])

    def term(b, wi, wj):
        dot = sum(x * y for x, y in zip(wi, wj))
        return math.exp(dot / (b * b))

    value = term(cfg.b_item, ei, ej)
    if cfg.beta1 > 0.0:
        mi = [x * h for x, h in zip(ei, profile.h_macro)]
        mj = [x * h for x, h in zip(ej, profile.h_macro)]
        value += cfg.beta1 * term(cfg.b_l, mi, mj)
    if cfg.beta2 > 0.0:
        mi = [x * h for x, h in zip(ei, profile.h_micro)]
        mj = [x * h for x, h in zip(ej, profile.h_micro)]
        value += cfg.beta2 * term(cfg.b_s, mi, mj)
    if i == j:
        value += cfg.jitter
    return value


def _exp_gram(vectors, b):
    gram = vectors @ vectors.T
    gram *= 1.0 / (b * b)
    np.exp(gram, out=gram)
    return gram


def composite_oracle(ids, embeddings, profile, cfg):
    """The dense build term by term: each term in its own n x n array, and
    every factor multiplied in, exactly 1 or not."""
    embs = np.asarray(embeddings, dtype=np.float64)
    base = normalize_rows(embs) if cfg.normalize_embeddings else embs
    d = _exp_gram(base, cfg.b_item)
    if cfg.beta1 > 0.0:
        macro = base * profile.h_macro
        term = _exp_gram(macro, cfg.b_l)
        term *= cfg.beta1
        d += term
    if cfg.beta2 > 0.0:
        micro = base * profile.h_micro
        term = _exp_gram(micro, cfg.b_s)
        term *= cfg.beta2
        d += term
    if cfg.jitter:
        idx = np.arange(len(ids))
        d[idx, idx] += cfg.jitter
    return d


def item_term(x, y, b=1.0):
    """Off-diagonal entry of the elementary form exp((x . y) / b^2): the
    item term of a two-item composite with no modulation, normalization or
    jitter."""
    cfg = ExperimentConfig(b_item=b, beta1=0.0, beta2=0.0, jitter=0.0, normalize_embeddings=False)
    embs = np.array([x, y], dtype=float)
    return composite_matrix(["x", "y"], embs, profile_of(np.zeros(embs.shape[1])), cfg).values[0, 1]


class TestElementaryKernel:
    def test_orthogonal_vectors(self):
        assert item_term([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_unit_dot_product(self):
        value = item_term([1.0, 0.0], [1.0, 0.0])
        assert value == pytest.approx(math.exp(1.0), abs=1e-12)
        assert value == pytest.approx(2.718282, abs=1e-6)

    def test_bandwidth(self):
        assert item_term([1.0], [1.0], b=2.0) == pytest.approx(math.exp(0.25))

    def test_nonpositive_hyperparams_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(b_item=0.0)
        with pytest.raises(ValidationError):
            ExperimentConfig(b_item=-1.0)


class TestHyperparams:
    def test_positivity_enforced(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(b_l=-1e-3)
        with pytest.raises(ValidationError):
            ExperimentConfig(b_s=-2.0)


class TestNormalizeAndModulate:
    def test_rows_become_unit(self, rng):
        embs = rng.normal(size=(4, 3)) * 5
        out = normalize_rows(embs)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_zero_row_stays_zero(self):
        out = normalize_rows(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert np.array_equal(out[0], [0.0, 0.0])
        np.testing.assert_allclose(out[1], [0.6, 0.8])

    def test_ordinary_rows_keep_the_bits_of_linalg_norm(self, rng):
        embs = rng.normal(size=(50, 7)) * np.logspace(-100, 100, 50)[:, None]
        want = embs / np.linalg.norm(embs, axis=1, keepdims=True)
        assert np.array_equal(normalize_rows(embs), want)

    @pytest.mark.parametrize("scale", [1e200, 1e-170, 1e-300, 1.7976931348623157e308])
    def test_extreme_rows_normalize_as_rescaled_rows(self, rng, scale):
        # Squaring these rows' entries overflows, or underflows to a zero sum.
        row = rng.normal(size=16)
        row /= np.abs(row).max()
        out = normalize_rows(np.stack([row * scale, row]))
        np.testing.assert_allclose(out[0], out[1], rtol=1e-12, atol=0.0)


def perception_term(embs, profile, cfg):
    """The macro and micro terms of composite_matrix, weighted by the betas
    of `cfg`: the blend minus its item matrix, without jitter."""
    ids = [f"i{k}" for k in range(len(embs))]
    cfg = replace(cfg, jitter=0.0)
    item = composite_matrix(ids, embs, profile, replace(cfg, beta1=0.0, beta2=0.0)).values
    return composite_matrix(ids, embs, profile, cfg).values - item


class TestPerceptionKernels:
    def test_zero_macro_interest_gives_beta1_everywhere(self, rng):
        cfg = ExperimentConfig(beta1=9.0, beta2=0.0)
        macro = perception_term(rng.normal(size=(5, 4)), profile_of(np.zeros(4)), cfg)
        np.testing.assert_allclose(macro, 9.0, atol=1e-12)

    def test_all_ones_interest_equals_item_kernel(self, rng):
        cfg = ExperimentConfig(b_l=2.2, b_item=2.2, beta1=1.0, beta2=0.0)
        embs = rng.normal(size=(5, 4))
        prof = profile_of(np.ones(4))
        item_only = replace(cfg, beta1=0.0, jitter=0.0)
        item = composite_matrix([f"i{k}" for k in range(5)], embs, prof, item_only).values
        np.testing.assert_allclose(perception_term(embs, prof, cfg), item, atol=1e-12)

    def test_micro_uses_micro_interest(self, rng):
        cfg = ExperimentConfig(b_s=1.5, beta1=0.0, beta2=4.0)
        prof = profile_of(np.zeros(3), h_micro=rng.normal(size=3))
        embs = rng.normal(size=(2, 3))
        pair = normalize_rows(embs)
        dot = float((pair[0] * prof.h_micro) @ (pair[1] * prof.h_micro))
        want = 4.0 * math.exp(dot / 2.25)
        assert perception_term(embs, prof, cfg)[0, 1] == pytest.approx(want, abs=1e-12)

    def test_random_case_matches_scalar_oracle(self, rng):
        cfg = ExperimentConfig(b_l=0.8, beta1=1.69, beta2=0.0, jitter=0.0)
        prof = profile_of(rng.normal(size=5))
        embs = rng.normal(size=(2, 5))
        want = composite_entry_oracle(0, 1, embs, prof, cfg) - composite_entry_oracle(
            0, 1, embs, prof, replace(cfg, beta1=0.0)
        )
        assert perception_term(embs, prof, cfg)[0, 1] == pytest.approx(want, abs=1e-12)


class TestCompositeMatrix:
    def test_beta_zero_equals_item_matrix(self, rng):
        embs = rng.normal(size=(4, 3))
        prof = profile_of(rng.normal(size=3), rng.normal(size=3))
        cfg = ExperimentConfig(beta1=0.0, beta2=0.0, jitter=0.0)
        got = composite_matrix([f"i{k}" for k in range(4)], embs, prof, cfg)
        base = normalize_rows(embs)
        want = np.exp(base @ base.T)
        np.testing.assert_array_equal(got.values, 0.5 * (want + want.T))

    def test_single_zero_item_value(self):
        cfg = ExperimentConfig(beta1=0.25, beta2=0.75, jitter=1e-3)
        prof = profile_of(np.array([1.0, 1.0]))
        got = composite_matrix(["i1"], np.zeros((1, 2)), prof, cfg)
        want = 1.0 + 0.25 + 0.75 + 1e-3
        assert got.values[0, 0] == pytest.approx(want, abs=1e-12)

    def test_random_three_items_match_entry_oracle(self, rng):
        embs = rng.normal(size=(3, 4))
        prof = profile_of(rng.normal(size=4), rng.normal(size=4))
        cfg = ExperimentConfig(b_l=0.9, b_s=1.1, b_item=1.3, beta1=0.4, beta2=0.6, jitter=1e-5)
        got = composite_matrix(["a", "b", "c"], embs, prof, cfg).values
        for i in range(3):
            for j in range(3):
                want = composite_entry_oracle(i, j, embs, prof, cfg)
                assert got[i, j] == pytest.approx(want, abs=1e-12), (i, j)

    def test_replace_builds_the_kernel_of_the_constructor(self, rng):
        """Equal fields give equal kernels however the config was made: the
        item term reads its own `b_item`, never `b_s`."""
        embs = rng.normal(size=(6, 4))
        prof = profile_of(rng.normal(size=4), rng.normal(size=4))
        ids = [f"i{k}" for k in range(6)]
        built = composite_matrix(ids, embs, prof, ExperimentConfig(b_s=2.0)).values
        replaced = composite_matrix(ids, embs, prof, replace(ExperimentConfig(), b_s=2.0)).values
        np.testing.assert_array_equal(built, replaced)

    def test_symmetry(self, rng):
        embs = rng.normal(size=(6, 4))
        prof = profile_of(rng.normal(size=4), rng.normal(size=4))
        got = composite_matrix([f"i{k}" for k in range(6)], embs, prof, ExperimentConfig()).values
        assert np.max(np.abs(got - got.T)) <= 1e-12

    def test_mixing_linearity(self, rng):
        embs = rng.normal(size=(5, 3))
        prof = profile_of(rng.normal(size=3), rng.normal(size=3))
        ids = [f"i{k}" for k in range(5)]

        def matrix(b1, b2):
            cfg = ExperimentConfig(beta1=b1, beta2=b2, jitter=1e-6)
            return composite_matrix(ids, embs, prof, cfg).values

        d_item = matrix(0.0, 0.0)
        mixed = matrix(0.3, 0.7)
        recon = d_item + 0.3 * (matrix(1.0, 0.0) - d_item) + 0.7 * (matrix(0.0, 1.0) - d_item)
        np.testing.assert_allclose(mixed, recon, atol=1e-10)

    def test_perception_similarity_flip(self):
        # The same item pair ranks as more similar or less similar than a
        # reference pair depending on which interest profile looks at it.
        embs = np.array(
            [
                [1.0, 1.0],  # anchor
                [1.0, 0.0],  # aligned with dimension 0
                [0.0, 1.0],  # aligned with dimension 1
            ]
        )
        ids = ["anchor", "d0", "d1"]
        cfg = ExperimentConfig(beta1=1.0, beta2=0.0, jitter=0.0)
        focus_d0 = composite_matrix(ids, embs, profile_of([1.0, 0.0]), cfg).values
        focus_d1 = composite_matrix(ids, embs, profile_of([0.0, 1.0]), cfg).values
        assert focus_d0[0, 1] > focus_d0[0, 2]
        assert focus_d1[0, 1] < focus_d1[0, 2]

    def test_profile_dim_mismatch_rejected(self, rng):
        with pytest.raises(ValidationError):
            composite_matrix(
                ["a"], rng.normal(size=(1, 3)), profile_of(np.zeros(2)), ExperimentConfig()
            )

    def test_id_embedding_mismatch_rejected(self, rng):
        with pytest.raises(ValidationError):
            composite_matrix(["a", "b"], rng.normal(size=(3, 2)), profile_of(np.zeros(2)), ExperimentConfig())


SCALES = dict(b_item=0.8, b_l=1.6, b_s=1.2)
ORACLE_CONFIGS = [
    {},
    SCALES,
    dict(SCALES, beta1=0.0),
    dict(SCALES, beta2=0.0),
    dict(beta1=0.0, beta2=0.0),
    dict(beta1=1.0, beta2=1.0),
    dict(jitter=0.0),
    dict(normalize_embeddings=False),
    dict(b_item=2.0),
    dict(SCALES, beta1=0.3, beta2=2.5, jitter=0.0, normalize_embeddings=False),
]


def oracle_case(n, overrides):
    rng = np.random.default_rng(n)
    embs = 0.5 * rng.normal(size=(n, 8))
    embs[0] = 0.0  # a cold-start row
    embs.setflags(write=False)
    prof = profile_of(rng.normal(size=8), rng.normal(size=8))
    return [f"i{k}" for k in range(n)], embs, prof, ExperimentConfig(**overrides)


class TestCompositeOracle:
    @pytest.mark.parametrize("n", [1, 2, 129, 300])
    @pytest.mark.parametrize("overrides", ORACLE_CONFIGS)
    def test_matches_oracle_and_exactly_symmetric(self, n, overrides):
        """Within ORACLE_RTOL of the oracle, not bit for bit: at n=300 the
        build runs two gemm row blocks and the oracle one syrk, which round
        differently by a few ulp.  Symmetry stays exact."""
        ids, embs, prof, cfg = oracle_case(n, overrides)
        got = composite_matrix(ids, embs, prof, cfg).values
        np.testing.assert_allclose(got, composite_oracle(ids, embs, prof, cfg), rtol=ORACLE_RTOL, atol=0)
        assert np.array_equal(got, got.T)


# With a budget of 64 entries a block holds 64 // n rows: n=8 is one full
# block, n=9 a block of 7 and one of 2, n=13 three blocks of 4 and one row,
# n=16 four full blocks, and n=65 one row per block.
BLOCK_EDGE_SIZES = [1, 2, 7, 8, 9, 13, 16, 65]


class TestRowBlocks:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kernels, "ROW_BLOCK_ENTRIES", 64)

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    @pytest.mark.parametrize("overrides", [ORACLE_CONFIGS[0], ORACLE_CONFIGS[-1]])
    def test_block_edges_match_oracles_and_are_symmetric(self, n, overrides):
        ids, embs, prof, cfg = oracle_case(n, overrides)
        got = composite_matrix(ids, embs, prof, cfg).values
        assert np.array_equal(got, got.T)
        np.testing.assert_allclose(got, composite_oracle(ids, embs, prof, cfg), rtol=ORACLE_RTOL, atol=0)
        want = [[composite_entry_oracle(i, j, embs, prof, cfg) for j in range(n)] for i in range(n)]
        np.testing.assert_allclose(got, want, rtol=ORACLE_RTOL, atol=0)

    @pytest.mark.parametrize("n", [9, 13, 65])
    def test_symmetric_even_when_gemm_is_not(self, n, monkeypatch):
        """A BLAS may round entry (i, j) and (j, i) of one gemm block
        differently; the mirror copies must hide that.  Nudge every entry
        below the diagonal of each block's leading square by one ulp."""
        real_matmul = np.matmul

        def skewed_matmul(a, b, out):
            real_matmul(a, b, out=out)
            square = out[:, : out.shape[0]]
            lower = np.tri(out.shape[0], k=-1, dtype=bool)
            square[lower] = np.nextafter(square[lower], np.inf)
            return out

        ids, embs, prof, cfg = oracle_case(n, {})
        want = composite_oracle(ids, embs, prof, cfg)
        monkeypatch.setattr(np, "matmul", skewed_matmul)
        got = composite_matrix(ids, embs, prof, cfg).values
        assert np.array_equal(got, got.T)
        np.testing.assert_allclose(got, want, rtol=ORACLE_RTOL, atol=0)

    @pytest.mark.parametrize(
        "norm, h_last, knobs",
        [(30.0, 0.0, "b_item=1"), (20.0, 1.5, "beta1=0.5, b_l=1")],
        ids=["item", "macro"],
    )
    def test_overflow_in_last_block_names_knob(self, norm, h_last, knobs):
        """Only the last row's own entry overflows: its embedding is
        orthogonal to every other row, and its squared norm (900 for the
        item term, 400 * 1.5^2 for the macro term) exceeds exp's range."""
        n = 13  # blocks of 4, 4, 4 and 1 rows
        embs = np.zeros((n, 3))
        embs[:-1, :2] = np.random.default_rng(0).normal(size=(n - 1, 2))
        embs[-1, 2] = norm
        cfg = ExperimentConfig(normalize_embeddings=False, beta2=0.0)
        with pytest.raises(NumericalError) as info:
            composite_matrix([f"i{k}" for k in range(n)], embs, profile_of([1.0, 1.0, h_last]), cfg)
        assert str(info.value) == (
            f"kernel term beta * exp(<x_i, x_j> / b^2) overflows at {knobs}; "
            "normalize the embeddings or raise b"
        )


def test_build_peak_is_under_1_3_matrices():
    """One n=800, d=16 build (three terms) allocates the n x n result, one
    row block of scratch (0.10 n^2), the terms' (n, d) vectors (0.06 n^2)
    and small per-block temporaries: 1.21 n^2 floats, under 1.3.  A
    full-size scratch matrix would take it past 2 n^2, and an n x n
    finiteness mask of the result past 1.3."""
    n, d = 800, 16
    rng = np.random.default_rng(8)
    embs = rng.normal(size=(n, d))
    prof = profile_of(rng.normal(size=d), rng.normal(size=d))
    ids = [f"i{k}" for k in range(n)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kernel = kernels.composite_matrix(ids, embs, prof, ExperimentConfig())
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * n * n * 8
    assert_valid_kernel(kernel.values)


def symmetric(n, seed=0):
    a = np.random.default_rng(seed).normal(size=(n, n))
    return a + a.T


def asymmetry_places(n):
    """(row, column) of a perturbed entry: in the first row, in the last row,
    and, past 128 rows, below the diagonal with its row past row 128 and its
    column before it."""
    places = [(0, n - 1), (n - 1, n - 2)]
    if n > 128:
        places.append((min(n - 1, 128 + 5), 128 - 1))
    return places


class TestValidKernelOracle:
    @pytest.mark.parametrize(
        "n, place",
        [(n, place) for n in (2, 127, 128, 129, 300) for place in asymmetry_places(n)],
    )
    @pytest.mark.parametrize("gap", [2e-12, 5e-13, "ulp"])
    def test_asymmetry_rejected_at_every_place(self, n, place, gap):
        vals = symmetric(n)
        assert_valid_kernel(vals)
        vals[place] = np.nextafter(vals[place], np.inf) if gap == "ulp" else vals[place] + gap
        with pytest.raises(AssertionError, match="not exactly symmetric"):
            assert_valid_kernel(vals)

    @pytest.mark.parametrize("n", [2, 127, 128, 129, 300])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_last_entry_rejected(self, n, bad):
        vals = symmetric(n)
        vals[-1, -1] = bad
        with pytest.raises(AssertionError, match="non-finite"):
            assert_valid_kernel(vals)

    def test_asymmetric_rejected(self):
        with pytest.raises(AssertionError, match="not exactly symmetric"):
            assert_valid_kernel(np.array([[1.0, 0.5], [0.4, 1.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(AssertionError, match="non-finite"):
            assert_valid_kernel(np.array([[1.0, np.nan], [np.nan, 1.0]]))


class TestKernelMatrixValidation:
    def test_float64_values_kept_as_given(self):
        """The builder vouches for its values; `KernelMatrix` checks only the shape."""
        vals = symmetric(5)
        vals[0, 1] = np.nan
        assert KernelMatrix(ids=tuple(map(str, range(5))), values=vals).values is vals

    def test_empty_accepted(self):
        assert KernelMatrix(ids=(), values=np.zeros((0, 0))).size == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            KernelMatrix(ids=("a",), values=np.ones((2, 2)))


def poisoned_case(n, where, place, bad, normalize):
    """`oracle_case` with one entry of the embeddings (the middle column of
    the first, middle or last row) or of an interest vector set to `bad`."""
    ids, embs, prof, cfg = oracle_case(n, dict(normalize_embeddings=normalize))
    embs, h_macro, h_micro = embs.copy(), prof.h_macro.copy(), prof.h_micro.copy()
    if where == "embedding":
        embs[{"first": 0, "middle": n // 2, "last": n - 1}[place], 4] = bad
    else:
        vector = h_macro if where == "h_macro" else h_micro
        vector[{"first": 0, "middle": 4, "last": 7}[place]] = bad
    return ids, embs, profile_of(h_macro, h_micro), cfg


class TestDiagonalGuard:
    @pytest.mark.parametrize("n", [2, 127, 128, 129, 300, 800])
    @pytest.mark.parametrize("where", ["embedding", "h_macro", "h_micro"])
    @pytest.mark.parametrize("place", ["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("normalize", [True, False], ids=["normalized", "raw"])
    # Only the error raised is under test, not numpy's invalid-value warnings
    # on the way to it (inf / inf, 0 * inf).
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_input_shows_on_the_diagonal(self, n, where, place, bad, normalize):
        """The same error and message as the full n x n check gave."""
        ids, embs, prof, cfg = poisoned_case(n, where, place, bad, normalize)
        with pytest.raises(ValidationError) as info:
            kernels.composite_matrix(ids, embs, prof, cfg)
        assert str(info.value) == "kernel matrix contains non-finite entries"

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.05, 2.0),
        b=st.floats(0.8, 2.0),
        betas=st.sampled_from([(0.0, 0.0), (0.5, 0.5), (1.0, 0.0), (0.0, 2.0)]),
        normalize=st.booleans(),
    )
    @example(n=256, seed=0, scale=2.0, b=0.8, betas=(0.5, 0.5), normalize=False)  # one block
    @example(n=300, seed=0, scale=2.0, b=0.8, betas=(0.5, 0.5), normalize=False)  # two blocks
    def test_entries_bounded_by_their_diagonals(self, n, seed, scale, b, betas, normalize):
        """The guard's premise on finite inputs: exact symmetry, and by
        Cauchy-Schwarz 0 <= D_ij <= D_ii + D_jj, so a finite diagonal bounds
        every entry."""
        rng = np.random.default_rng(seed)
        embs = scale * rng.normal(size=(n, 8))
        prof = profile_of(0.5 * rng.normal(size=8), 0.5 * rng.normal(size=8))
        cfg = ExperimentConfig(
            b_item=b, b_l=b, b_s=b, beta1=betas[0], beta2=betas[1], normalize_embeddings=normalize,
        )
        got = kernels.composite_matrix([f"i{k}" for k in range(n)], embs, prof, cfg).values
        assert np.array_equal(got, got.T)
        diagonal = got.diagonal()
        assert (got >= 0.0).all()
        assert (got <= (diagonal[:, None] + diagonal) * (1.0 + 1e-12)).all()


class TestPsdGuard:
    def test_default_kernels_admit_cholesky_updates(self, rng):
        # The positive-exponent composite form must keep every candidate's
        # conditional variance non-negative throughout greedy selection.
        from diverank.data import CandidateSet
        from diverank.selection import bs_dpp_select, constant_scorer

        for trial in range(10):
            n = 12
            embs = rng.normal(size=(n, 6))
            prof = profile_of(rng.normal(size=6), rng.normal(size=6))
            cfg = ExperimentConfig(alpha=1.0, k=8)
            kernel = composite_matrix([f"i{k}" for k in range(n)], embs, prof, cfg)
            cands = CandidateSet(f"u{trial}", kernel.ids, embs, rng.random(n))
            _, min_d2 = bs_dpp_select(cands, kernel, constant_scorer(cands.base_scores), cfg)
            assert min_d2 >= -1e-8
