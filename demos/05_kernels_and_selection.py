"""Composite kernels and the quality/diversity selection loop.

Builds the similarity kernel for a small catalog, shows how a user's
interest profile reshapes it, then walks the greedy selector: how a
duplicate's marginal volume collapses to zero after its twin is picked,
and how the alpha dial trades ranking quality against list spread.

Run: python3 demos/05_kernels_and_selection.py
"""

import numpy as np

from diverank.data import CandidateSet, ExperimentConfig
from diverank.interests import InterestProfile
from diverank.kernels import KernelMatrix, composite_matrix
from diverank.metrics import ilad
from diverank.selection import bs_dpp_select, constant_scorer

DIM = 4


def section(title):
    print("\n" + "-" * 64)
    print(title)
    print("-" * 64)


def catalog(rng):
    """Three tight groups: rock, rap, folk; four items each.

    Returns the item ids and their unit embeddings as (12, DIM) rows.
    """
    centers = {
        "rock": np.array([1.0, 0.0, 0.0, 0.0]),
        "rap": np.array([0.0, 1.0, 0.0, 0.0]),
        "folk": np.array([0.0, 0.0, 1.0, 0.0]),
    }
    ids, rows = [], []
    for name, center in centers.items():
        for j in range(4):
            emb = center + 0.08 * rng.normal(size=DIM)
            ids.append(f"{name}_{j}")
            rows.append(emb / np.linalg.norm(emb))
    return ids, np.stack(rows)


def main():
    np.set_printoptions(precision=2, suppress=True, linewidth=120)
    rng = np.random.default_rng(7)
    ids, embs = catalog(rng)
    cfg = ExperimentConfig()

    section("1. The kernel sees group structure")
    neutral = InterestProfile(user_id="u", h_macro=np.zeros(DIM),
                              h_micro=np.zeros(DIM))
    kernel = composite_matrix(ids, embs, neutral, cfg)
    k = kernel.values
    same = np.mean([k[i, j] for i in range(4) for j in range(4) if i != j])
    cross = np.mean([k[i, j] for i in range(4) for j in range(4, 8)])
    print("first five rows and columns (rock block in the corner):")
    print(k[:5, :5])
    print(f"mean within-group entry {same:.3f} vs cross-group {cross:.3f}")

    section("2. An interest profile reshapes the same kernel")
    rock_fan = InterestProfile(user_id="u", h_macro=embs[0],
                               h_micro=embs[1])
    shaped = composite_matrix(ids, embs, rock_fan, cfg)
    diag_rock = float(np.mean(np.diag(shaped.values)[:4]))
    diag_folk = float(np.mean(np.diag(shaped.values)[8:]))
    print(f"mean diagonal mass, rock items: {diag_rock:.3f}")
    print(f"mean diagonal mass, folk items: {diag_folk:.3f}")
    print("items aligned with the profile carry more kernel mass, so the")
    print("determinant objective is happier to spend picks on them")

    section("3. A duplicate's marginal volume collapses")
    d = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    twin_kernel = KernelMatrix(ids=("a", "a_copy", "b"), values=d)
    twins = CandidateSet(
        user_id="u",
        ids=("a", "a_copy", "b"),
        embeddings=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        base_scores=np.array([0.9, 0.9, 0.5]),
    )
    result, _ = bs_dpp_select(
        twins, twin_kernel, constant_scorer(np.array([0.9, 0.9, 0.5])),
        ExperimentConfig(alpha=1.0, k=2),
    )
    for item_id, log_d2 in zip(result.item_ids, result.log_d2):
        print(f"pick {item_id!r}: log d^2 = {log_d2:.3f}")
    a, c = 0, 1
    # d^2 of 'a_copy' given 'a': the Schur complement D[c,c] - D[c,a]^2 / D[a,a].
    print(f"d^2 of 'a_copy' after 'a' = {d[c, c] - d[c, a] ** 2 / d[a, a]:.3f}")
    print("after 'a' goes in, 'a_copy' spans no new volume: d^2 hits 0")
    print("and it drops out of the running; the weaker but novel 'b' wins")

    section("4. The alpha dial")
    scores = np.concatenate([np.full(4, 0.9), np.full(4, 0.6), np.full(4, 0.3)])
    pool = CandidateSet(user_id="u", ids=ids, embeddings=embs, base_scores=scores)
    for alpha in (0.0, 1.0, 4.0):
        cfg = ExperimentConfig(alpha=alpha, k=4)
        res, _ = bs_dpp_select(pool, kernel, constant_scorer(scores), cfg)
        chosen = [i for i, item_id in enumerate(ids) if item_id in res.item_ids]
        spread = ilad(embs[chosen])
        genres = sorted({item_id.split("_")[0] for item_id in res.item_ids})
        print(f"alpha {alpha:>3}: {res.item_ids}  "
              f"genres {genres}  ilad {spread:.3f}")
    print("alpha 0 chases base scores into one group; raising it buys")
    print("coverage of the catalog at a known, tunable price")


if __name__ == "__main__":
    main()
