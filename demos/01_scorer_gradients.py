"""The scorer's gradients, checked by hand, then used.

`diverank.autodiff.backward` takes one minibatch and returns its mean
cross-entropy loss and the gradients of all eight scorer parameters,
from analytic backwards on plain arrays.  This demo checks every gradient
entry against central finite differences of the loss, then takes a few
plain `w -= lr * g` steps and watches the loss fall.

Run: python3 demos/01_scorer_gradients.py
"""

import numpy as np

import diverank.autodiff as ad
from diverank.accuracy import init_scorer_params

DIM = 4


def section(title):
    print("\n" + "-" * 64)
    print(title)
    print("-" * 64)


def minibatch(rng, n=8):
    """Targets, two interest rows and two context rows, and 0/1 labels.

    The scorer takes one row of each input per target; here every target
    shares its user's interests and its list's contexts.
    """
    targets = rng.normal(size=(n, DIM))
    labels = (targets[:, 0] > 0).astype(int)
    return [targets, *(np.repeat(rng.normal(size=(1, DIM)), n, axis=0) for _ in range(4))], labels


def loss_of(inputs, params, labels):
    return ad.cross_entropy(ad.score_logits(*inputs, params), labels)[0]


def main():
    np.set_printoptions(precision=4, suppress=True)
    rng = np.random.default_rng(0)
    params = init_scorer_params(DIM, np.random.default_rng(2), reduction=2, hidden=6)
    inputs, labels = minibatch(rng)

    section("1. One backward call: the loss and eight gradients")
    loss, grads = ad.backward(*inputs, params, labels)
    print(f"minibatch of {len(labels)} rows, loss {loss:.5f}")
    for name, g in zip(params.arrays(), grads):
        print(f"  d loss / d {name:<8} shape {str(g.shape):<8} |g|max {np.abs(g).max():.4f}")

    section("2. Every entry against central finite differences")
    eps = 1e-6
    agree, worst = True, 0.0
    for w, g in zip(params.arrays().values(), grads):
        numeric = np.zeros_like(w)
        flat, n_flat = w.reshape(-1), numeric.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = loss_of(inputs, params, labels)
            flat[i] = keep - eps
            lo = loss_of(inputs, params, labels)
            flat[i] = keep
            n_flat[i] = (hi - lo) / (2 * eps)
        agree = agree and np.allclose(g, numeric, rtol=1e-4, atol=1e-7)
        worst = max(worst, float(np.abs(g - numeric).max()))
    entries = sum(w.size for w in params.arrays().values())
    print(f"{entries} entries; largest |analytic - numeric| {worst:.2e}")
    if not agree:
        raise SystemExit("analytic and numeric gradients disagree beyond rtol 1e-4")

    section("3. Plain gradient steps lower the loss")
    lr = 0.5
    losses = []
    for step in range(6):
        loss, grads = ad.backward(*inputs, params, labels)
        losses.append(loss)
        for w, g in zip(params.arrays().values(), grads):
            w -= lr * g
        print(f"step {step}: loss {loss:.5f}")
    if not losses[-1] < losses[0]:
        raise SystemExit("gradient steps did not lower the loss")
    print("each step moves every parameter against its gradient; train_scorer")
    print("runs the same update over shuffled minibatches")


if __name__ == "__main__":
    main()
