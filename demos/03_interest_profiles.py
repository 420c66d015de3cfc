"""From raw behavior history to a two-speed interest profile.

One user's events are grouped by item cluster into pooled interest
points whose scaled mean is the slow, long-term view, while the last few
interactions are averaged with weights that fall off with their age (the
fast view).  Neither view has parameters; both land in a single
InterestProfile that scoring and kernels consume.

Run: python3 demos/03_interest_profiles.py
"""

import numpy as np

from diverank.data import EmbeddingTable, UserEvents
from diverank.interests import (
    MACRO_SCALE,
    MICRO_SCALE,
    build_profile,
    group_interest_points,
    recency_weights,
)

DAY = 86_400


def plays(user, names_days, now):
    """One user's unlabeled behavior record: (item, days before now) per
    event.  The record holds its events oldest first."""
    return UserEvents(
        user_id=user,
        item_ids=tuple(name for name, _ in names_days),
        ts=[now - days * DAY for _, days in names_days],
        labels=[None] * len(names_days),
    )


def section(title):
    print("\n" + "-" * 64)
    print(title)
    print("-" * 64)


def main():
    np.set_printoptions(precision=3, suppress=True)
    rng = np.random.default_rng(3)

    section("1. A tiny catalog with two genres")
    jazz = np.array([1.0, 0.2, 0.0, 0.0])
    salsa = np.array([0.0, 0.0, 1.0, 0.3])
    ids, rows = [], []
    for g, (center, name) in enumerate([(jazz, "jazz"), (salsa, "salsa")]):
        for j in range(3):
            emb = center + 0.05 * rng.normal(size=4)
            ids.append(f"{name}_{j}")
            rows.append(emb / np.linalg.norm(emb))
    table = EmbeddingTable(tuple(ids), np.array(rows))
    clusters = {item_id: 0 if item_id.startswith("jazz") else 1
                for item_id in table.ids}
    print("items:", table.ids)
    print("item clusters:", clusters)

    section("2. History -> pooled interest points")
    now = 1_700_000_000
    history = plays("ana", [("jazz_0", 20), ("jazz_1", 18), ("jazz_2", 15),
                            ("jazz_0", 14), ("salsa_0", 2), ("salsa_1", 1)], now)
    print("behavior log columns:", history.item_ids, history.ts)
    points = group_interest_points(history, table, clusters, top_m=4)
    for p in points:
        print(f"cluster {p.cluster_id}: {len(p.item_ids)} items "
              f"{p.item_ids}, last seen {(now - p.last_ts) // DAY} days ago")
    print("points rank by member count: the jazz habit outweighs the")
    print("recent salsa clicks in the long-term view")

    section("3. Recency weights for the short-term view")
    for hours in (0, 1, 6, 24, 24 * 29):
        w = recency_weights([now - hours * 3600], now)[0]
        print(f"  {hours:>3} hours old -> weight 1 / (1 + {hours}) = {w:.4f}")

    section("4. The assembled profile")
    profile = build_profile(history, table, clusters,
                            top_m=4, recent_window=3, now=now)
    print(f"h_macro = {MACRO_SCALE} x mean of the point vectors:", profile.h_macro)
    print(f"h_micro = {MICRO_SCALE} x weighted mean of the last 3 plays:", profile.h_micro)
    newest = history.ts[-3:]
    w = recency_weights(newest, now)
    print("weights of the last 3 plays (oldest first):", w / w.sum())
    print("pooling has no parameters; the downstream scorer learns how to")
    print("read these features")

    section("5. Similar recent histories give similar micro vectors")
    def taste(user, names_days):
        return build_profile(plays(user, names_days, now), table, clusters,
                             top_m=4, recent_window=3, now=now)

    bob = taste("bob", [("jazz_0", 9), ("jazz_1", 5), ("jazz_2", 1)])
    cat = taste("cat", [("salsa_0", 9), ("salsa_1", 5), ("salsa_2", 1)])

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    print(f"cos(ana, cat) = {cos(profile.h_micro, cat.h_micro):+.3f}   "
          "(both just played salsa)")
    print(f"cos(ana, bob) = {cos(profile.h_micro, bob.h_micro):+.3f}")
    print(f"cos(bob, cat) = {cos(bob.h_micro, cat.h_micro):+.3f}   "
          "(opposite recent tastes)")
    print("ana's micro vector sits with cat: ana's last plays were salsa,")
    print("even though ana's long-term point ranking is jazz-first")

    section("6. Cold start stays well-defined")
    empty = build_profile(plays("newcomer", [], now), table, clusters,
                          top_m=4, recent_window=3)
    print("empty history -> zero vectors:",
          bool(np.all(empty.h_macro == 0) and np.all(empty.h_micro == 0)))


if __name__ == "__main__":
    main()
