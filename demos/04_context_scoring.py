"""Training the context-aware scorer on labeled impressions.

A candidate's score depends on more than its own embedding: the model
sees the user's macro and micro interest vectors, the mean of what is
already on the list, and the mean of the whole candidate pool, with an
excitation gate reweighting feature channels before the final head.
This demo trains on linearly separable impressions, watches the curve,
and probes how list context shifts a score.

Run: python3 demos/04_context_scoring.py
"""

import numpy as np

import diverank.autodiff as ad
from diverank.accuracy import Impressions, init_scorer_params, train_scorer

DIM = 4


def section(title):
    print("\n" + "-" * 64)
    print(title)
    print("-" * 64)


def make_impressions(rng, n=80):
    """Two well-separated clouds on the first axis, labels by cloud.

    Impressions are columns: one row per shown item, with the user, the
    item's embedding, the two list contexts and the click label.
    """
    labels = np.arange(n) % 2
    centers = np.zeros((n, DIM))
    centers[:, 0] = np.where(labels == 1, 3.0, -3.0)
    embeddings = centers + 0.3 * rng.normal(size=(n, DIM))
    return Impressions(("u1",) * n, embeddings, np.zeros((n, DIM)), np.zeros((n, DIM)), labels)


def probability(embedding, h_prev, h_cand, params):
    """One item's click probability; each input is one (1, DIM) row."""
    zero = np.zeros((1, DIM))
    rows = [np.reshape(v, (1, DIM)) for v in (embedding, h_prev, h_cand)]
    logits = ad.score_logits(rows[0], zero, zero, *rows[1:], params)
    return float(ad.softmax(logits)[0, 1])


def main():
    np.set_printoptions(precision=3, suppress=True)
    rng = np.random.default_rng(4)

    section("1. Train on separable impressions")
    impressions = make_impressions(rng)
    params = init_scorer_params(DIM, np.random.default_rng(2))
    curve = train_scorer(impressions, {}, params, lr=0.1, epochs=30, seed=0)
    for epoch in (0, 4, 9, 19, 29):
        row = curve[epoch]
        print(f"epoch {epoch:>2}: loss {row['loss']:.4f}  auc {row['auc']:.3f}")
    print("the head separates the clouds; AUC saturates")

    section("2. Scores respond to the item itself")
    pos = np.array([3.0, 0.0, 0.0, 0.0])
    neg = np.array([-3.0, 0.0, 0.0, 0.0])
    zeros = np.zeros(DIM)
    print(f"p(click | positive-side item) = {probability(pos, zeros, zeros, params):.3f}")
    print(f"p(click | negative-side item) = {probability(neg, zeros, zeros, params):.3f}")

    section("3. ... and to what is already on the list")
    print("now a harder world: a novelty-seeking user who clicks an item")
    print("only when it differs from what the list already holds.  The")
    print("item alone carries zero signal; only the (item, previous")
    print("selection) interaction decides the label.")
    n = 160
    embs, prevs, labels = np.zeros((n, DIM)), np.zeros((n, DIM)), np.zeros(n, dtype=int)
    for i in range(n):
        e_sign = 1.0 if rng.random() < 0.5 else -1.0
        p_sign = 1.0 if rng.random() < 0.5 else -1.0
        embs[i, 0] = 3.0 * e_sign
        prevs[i, 0] = 3.0 * p_sign
        embs[i] += 0.3 * rng.normal(size=DIM)
        prevs[i] += 0.3 * rng.normal(size=DIM)
        labels[i] = 1 if e_sign != p_sign else 0
    novelty = Impressions(("u1",) * n, embs, prevs, np.zeros((n, DIM)), labels)
    ctx_params = init_scorer_params(DIM, np.random.default_rng(2))
    ctx_curve = train_scorer(novelty, {}, ctx_params, lr=0.1, epochs=60, seed=0)
    for epoch in (0, 29, 44, 59):
        row = ctx_curve[epoch]
        print(f"epoch {epoch:>2}: loss {row['loss']:.4f}  auc {row['auc']:.3f}")
    p_after_twin = probability(pos, pos, zeros, ctx_params)
    p_after_opposite = probability(pos, neg, zeros, ctx_params)
    print(f"same item after selecting a near-twin:  p = {p_after_twin:.3f}")
    print(f"same item after selecting its opposite: p = {p_after_opposite:.3f}")
    print("identical candidate embedding, opposite verdicts: the score is")
    print("a function of list state, which is why scores are recomputed")
    print("after every greedy pick instead of once up front")

    section("4. A zero learning rate changes nothing, bit for bit")
    frozen = init_scorer_params(DIM, np.random.default_rng(2))
    before = {k: w.copy() for k, w in frozen.arrays().items()}
    train_scorer(impressions, {}, frozen, lr=0.0, epochs=2, seed=0)
    same = all(np.array_equal(before[k], w) for k, w in frozen.arrays().items())
    print("all parameters identical after a full lr=0 training loop:", same)


if __name__ == "__main__":
    main()
