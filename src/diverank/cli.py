"""Batch pipeline driver: synth, cluster, train-scorer, rerank, sweep, eval.

Every stage is deterministic.  Only synth and train-scorer draw random
numbers, from a stable hash of (--seed, stage name), so deleting an
intermediate file and re-running downstream stages reproduces identical
bytes.
Exit codes: 0 success, 1 validation or parse error, 2 IO error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .accuracy import (
    ScorerParams,
    build_impressions,
    check_trainable,
    init_scorer_params,
    save_training_log,
    scorer_params_from_arrays,
    train_scorer,
)
from .clustering import (
    BipartiteGraph,
    assign_new_items,
    cluster_centroids,
    load_clusters,
    louvain,
    modularity,
    save_clusters,
)
from .data import (
    CandidateSet,
    ExperimentConfig,
    NumericalError,
    ParseError,
    ValidationError,
    _save_csv,
    load_behaviors,
    load_candidates,
    load_checkpoint,
    load_config,
    load_items,
    load_labels,
    load_results,
    save_behaviors,
    save_candidates,
    save_checkpoint,
    save_items,
    save_labels,
    save_results,
)
from .interests import (
    InterestProfile,
    build_profile,
    load_profiles,
    save_profiles,
)
from .kernels import composite_matrix
from .metrics import ilad, ndcg_at_k
from .selection import (
    bs_dpp_select,
    cosine_similarity_fn,
    fixed_score_dpp_select,
    mmr_select,
    profile_scorer,
    subset_objective,
)
from .synth import SyntheticSpec, derive_seed, generate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _mean_or_blank(values) -> str:
    values = np.asarray(values, dtype=np.float64)  # NaN values are left out
    return _fmt(float(np.nanmean(values))) if not np.isnan(values).all() else ""


def _load_experiment_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else ExperimentConfig()
    overrides = {}
    if getattr(args, "alpha", None) is not None:
        overrides["alpha"] = args.alpha
    if getattr(args, "k", None) is not None:
        overrides["k"] = args.k
    if getattr(args, "diversity_only_init", False):
        overrides["diversity_only_init"] = True
    return replace(cfg, **overrides)


def _zero_profile(user_id: str, dim: int) -> InterestProfile:
    return InterestProfile(user_id=user_id, h_macro=np.zeros(dim), h_micro=np.zeros(dim))


# ----- synth -----


def cmd_synth(args) -> None:
    spec = SyntheticSpec(
        clusters=args.clusters, items_per_cluster=args.items_per_cluster, dim=args.dim, noise=args.noise,
        users=args.users, behaviors_per_user=args.behaviors_per_user,
        candidates_per_user=args.candidates_per_user, sharpness=args.sharpness,
        score_noise=args.score_noise, seed=args.seed,
    )
    world = generate(spec)
    os.makedirs(args.out, exist_ok=True)
    save_items(os.path.join(args.out, "items.jsonl"), world.items)
    save_behaviors(os.path.join(args.out, "behaviors.jsonl"), world.behaviors)
    save_candidates(os.path.join(args.out, "candidates.jsonl"), world.candidates)
    save_labels(os.path.join(args.out, "labels.jsonl"), world.labels)
    print(
        f"synth: {len(world.items)} items, {sum(map(len, world.behaviors))} behaviors, "
        f"{len(world.candidates)} candidate sets -> {args.out}"
    )


# ----- cluster -----


def cmd_cluster(args) -> None:
    table = load_items(args.items)
    behaviors = load_behaviors(args.behaviors)
    edges = [(events.user_id, item_id) for events in behaviors for item_id in events.item_ids]
    if not edges:
        raise ValidationError(f"{args.behaviors}: no behavior events to cluster on")
    graph = BipartiteGraph.from_edges(edges)
    assignment = louvain(graph)
    item_clusters = assignment.item_clusters()
    q = modularity(graph, assignment.labels)

    # Only catalog items are written; those never interacted with fall back
    # to nearest-centroid labels.
    clusters = {i: item_clusters[i] for i in table.ids if i in item_clusters}
    if not clusters:
        raise ValidationError(f"{args.behaviors}: no behavior item is in {args.items}")
    missing = [i for i in table.ids if i not in clusters]
    clusters.update(assign_new_items(missing, table.rows(missing), cluster_centroids(table, clusters)))
    save_clusters(args.out, clusters)
    print(f"cluster: {len(set(clusters.values()))} clusters over {len(clusters)} items, Q={q:.6f}")


# ----- train-scorer -----


def cmd_train_scorer(args) -> None:
    cfg = _load_experiment_config(args)
    table = load_items(args.items)
    behaviors = load_behaviors(args.behaviors)
    item_clusters = load_clusters(args.clusters)
    latest = [int(events.ts[-1]) for events in behaviors if len(events)]
    if not latest:
        raise ValidationError(f"{args.behaviors}: no behavior events to train on")
    now = max(latest)
    if not len(table):
        raise ValidationError(f"{args.items}: embedding table is empty")
    impressions = build_impressions(behaviors, table)
    try:
        check_trainable(impressions)
    except ValidationError as exc:
        raise ValidationError(f"{args.behaviors}: {exc}") from None
    # With no clustered catalog item every macro interest would be zero.
    if not any(item_id in table for item_id in item_clusters):
        raise ValidationError(f"{args.clusters}: no clustered item is in {args.items}")

    profiles = {
        events.user_id: build_profile(events, table, item_clusters, cfg.top_m, cfg.recent_window, now)
        for events in behaviors
    }
    scorer_rng = np.random.default_rng(derive_seed(args.seed, "scorer-init"))
    params = init_scorer_params(
        table.dim, scorer_rng, reduction=args.reduction, hidden=args.hidden
    )
    curve = train_scorer(
        impressions,
        profiles,
        params,
        lr=args.lr,
        epochs=args.epochs,
        seed=derive_seed(args.seed, "train-shuffle"),
        batch_size=args.batch_size,
    )

    os.makedirs(args.out, exist_ok=True)
    tensors = {f"scorer.{k}": v for k, v in params.arrays().items()}
    meta = {"dim": table.dim, "reduction": args.reduction, "hidden": params.hidden}
    save_checkpoint(os.path.join(args.out, "checkpoint.json"), tensors, meta)
    save_profiles(os.path.join(args.out, "profiles.jsonl"), profiles)
    save_training_log(os.path.join(args.out, "training_log.csv"), curve)
    final = curve[-1]
    print(
        f"train-scorer: {len(impressions)} impressions, {args.epochs} epochs, "
        f"final loss={final['loss']:.6f} auc={final['auc']:.6f} -> {args.out}"
    )


def _check_dims(args, candidates: list[CandidateSet], profiles: dict[str, InterestProfile], dim: int) -> None:
    """Reject inputs whose dimension differs from the checkpoint's, before any arithmetic;
    the error names the file at fault."""
    for cs in candidates:
        if cs.dim != dim:
            raise ValidationError(
                f"{args.candidates}: candidate set {cs.user_id}: embedding dim {cs.dim} != checkpoint dim {dim}")
    for profile in profiles.values():
        if profile.h_macro.shape != (dim,):
            raise ValidationError(
                f"{args.profiles}: profile {profile.user_id}: dim {profile.h_macro.size} != checkpoint dim {dim}")


def _load_scorer_checkpoint(path: str) -> ScorerParams:
    arrays, _meta = load_checkpoint(path)
    scoped = {name.removeprefix("scorer."): arr for name, arr in arrays.items() if name.startswith("scorer.")}
    try:
        return scorer_params_from_arrays(scoped)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


# ----- rerank -----


def cmd_rerank(args) -> None:
    cfg = _load_experiment_config(args)
    candidates = load_candidates(args.candidates)
    if args.dump_kernel:  # each list's dump is named by its user id
        folder, stem = os.path.split(args.dump_kernel)
        name_max = os.pathconf(folder or ".", "PC_NAME_MAX")
        for cs in candidates:
            try:
                fits = len(os.fsencode(f"{stem}{cs.user_id}.csv")) <= name_max
            except UnicodeEncodeError:  # a lone surrogate has no bytes in a file name
                fits = False
            if not fits or cs.user_id in (".", "..") or {"/", os.sep, "\0"} & set(cs.user_id):
                raise ValidationError(f"{args.candidates}: user {cs.user_id!r} cannot name a --dump-kernel file")
    profiles = load_profiles(args.profiles)
    params = _load_scorer_checkpoint(args.checkpoint)
    _check_dims(args, candidates, profiles, params.dim)

    results = []
    diag_rows = []
    for cs in candidates:
        profile = profiles.get(cs.user_id) or _zero_profile(cs.user_id, cs.dim)
        kernel = composite_matrix(cs.ids, cs.embeddings, profile, cfg)
        if args.dump_kernel:
            _dump_kernel(args.dump_kernel, cs.user_id, kernel.values)
        # Built inline, so its per-list terms are freed before the next kernel build.
        result, min_d2 = bs_dpp_select(cs, kernel, profile_scorer(cs, profile, params), cfg)
        results.append(result)
        diag_rows.append([cs.user_id, cs.size, len(result.item_ids), int(result.exhausted),
                          _fmt(result.objective), _fmt(min_d2)])

    save_results(args.out, results)
    _save_csv(args.out + ".diag.csv", [
        ["user_id", "n_candidates", "n_selected", "exhausted", "objective", "min_d2"], *diag_rows
    ])
    short = sum(1 for r in results if r.exhausted)
    print(f"rerank: {len(results)} lists (k={cfg.k}, alpha={cfg.alpha}, short={short}) -> {args.out}")


def _dump_kernel(prefix: str, user_id: str, values: np.ndarray) -> None:
    _save_csv(f"{prefix}{user_id}.csv", ([f"{v:.17g}" for v in row] for row in values))


# ----- eval -----


def _score_lists(lists, embeddings: np.ndarray, k: int, stack: int = 256):
    """nDCG@k and ILAD (NaN below two items) of each (relevances, ideal pool, rows of
    `embeddings`) list, with one `ndcg_at_k` and one `ilad` call per (list length, pool
    length) group of up to `stack` lists, so the stacked copies stay flat in the number of
    lists.  A zero embedding's error has the first list holding one as `row`."""
    groups = {}
    for pos, (rel, ideal, _) in enumerate(lists):
        groups.setdefault((len(rel), len(ideal)), []).append(pos)
    ndcg, div, failed = np.empty(len(lists)), np.full(len(lists), np.nan), []
    for (length, _), group in groups.items():
        for pos in (group[start:start + stack] for start in range(0, len(group), stack)):
            rels, ideals, rows = zip(*(lists[p] for p in pos))
            ndcg[pos] = ndcg_at_k(rels, k, ideal_relevances=ideals)
            try:
                div[pos] = ilad(embeddings[np.array(rows)]) if length >= 2 else np.nan
            except ValidationError as exc:
                failed.append(ValidationError(str(exc), row=pos[exc.row]))
    if failed:
        raise min(failed, key=lambda exc: exc.row)
    return ndcg, div


def cmd_eval(args) -> None:
    cfg = _load_experiment_config(args)
    results = load_results(args.results)
    labels = load_labels(args.labels, (res.user_id for res in results))
    table = load_items(args.items)

    lists = []
    for res in results:
        user_labels = labels.get(res.user_id, {})
        try:
            index = table.index(res.item_ids)
        except ValidationError as exc:
            raise ValidationError(f"{args.results}: result {res.user_id}: {exc}") from None
        ideal = sorted(user_labels.values(), reverse=True)[: cfg.k]  # all that nDCG@k reads
        lists.append(([user_labels.get(item_id, 0) for item_id in res.item_ids], ideal, index))
    try:
        ndcgs, ilads = _score_lists(lists, table.embeddings, cfg.k)
    except ValidationError as exc:
        raise ValidationError(f"{args.items}: items of result {results[exc.row].user_id}: {exc}") from None

    rows = [[res.user_id, len(res.item_ids), _fmt(ndcg), _fmt(diversity)]
            for res, ndcg, diversity in zip(results, ndcgs, ilads)]
    # ILAD's mean sums only the lists that have one (a NaN read as 0 regroups the sum); none leaves it blank.
    mean_ndcg, mean_ilad = _mean_or_blank(ndcgs), _mean_or_blank(ilads[~np.isnan(ilads)])
    _save_csv(args.out, [["user_id", "n_selected", f"ndcg_at_{cfg.k}", "ilad"], *rows,
                         ["__mean__", "", mean_ndcg, mean_ilad]])
    print(f"eval: {len(results)} lists, mean ndcg@{cfg.k}={mean_ndcg}, mean ilad={mean_ilad} -> {args.out}")


# ----- sweep -----


def cmd_sweep(args) -> None:
    cfg = _load_experiment_config(args)
    alphas = []
    for entry in filter(str.strip, args.alphas.split(",")):
        try:
            alphas.append(float(entry))
        except ValueError:
            raise ValidationError(f"--alphas entry {entry.strip()!r} is not a number") from None
    if not alphas or any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValidationError("--alphas must be a strictly increasing list")
    if any(a < 0 for a in alphas):
        raise ValidationError("alpha values must be >= 0")
    if args.runs is not None and args.runs < 1:
        raise ValidationError("--runs must be >= 1")
    candidates = load_candidates(args.candidates, limit=args.runs)
    if not candidates:
        raise ValidationError(f"{args.candidates}: no candidate sets to sweep over")
    labels = load_labels(args.labels, (cs.user_id for cs in candidates))
    profiles = load_profiles(args.profiles)
    params = _load_scorer_checkpoint(args.checkpoint)
    _check_dims(args, candidates, profiles, params.dim)

    methods = ("bs_dpp", "fixed_dpp", "mmr")
    cfgs = [replace(cfg, alpha=alpha) for alpha in alphas]
    # Per user, the [ndcg, ilad, objective] row of each list, alpha-major; per alpha, each method's wall time.
    scored = []
    times = [dict.fromkeys(methods, 0.0) for _ in alphas]
    # User-major, so that one user's n x n kernel at a time is alive.
    for cs in candidates:
        profile = profiles.get(cs.user_id) or _zero_profile(cs.user_id, cs.dim)
        kernel = composite_matrix(cs.ids, cs.embeddings, profile, cfg)
        row_of = {item_id: row for row, item_id in enumerate(cs.ids)}
        user_labels = labels.get(cs.user_id, {})
        ideal = sorted(user_labels.values(), reverse=True)[: cfg.k]
        # Neither depends on alpha, so each is built once per user.
        scorer = profile_scorer(cs, profile, params)
        sim = cosine_similarity_fn(cs.embeddings)
        lists, objectives = [], []
        for alpha, cfg_a, times_a in zip(alphas, cfgs, times):
            # Looked up at call time, so that a wrapped module global is the one timed.
            select = {
                "bs_dpp": lambda: bs_dpp_select(cs, kernel, scorer, cfg_a)[0],
                "fixed_dpp": lambda: fixed_score_dpp_select(cs, kernel, cfg_a),
                "mmr": lambda: mmr_select(cs, sim, 1.0 / (1.0 + alpha), cfg.k),
            }
            for method in methods:
                t0 = time.perf_counter()
                picked = select[method]()
                times_a[method] += time.perf_counter() - t0
                item_ids = picked if method == "mmr" else picked.item_ids  # MMR returns bare ids
                rows = [row_of[i] for i in item_ids]
                lists.append(([user_labels.get(i, 0) for i in item_ids], ideal, rows))
                objectives.append(  # for MMR, h of its subset stands in for an objective
                    subset_objective(kernel.values, cs.base_scores, rows, alpha) if method == "mmr"
                    else picked.objective)
        try:
            ndcgs, ilads = _score_lists(lists, cs.embeddings, cfg.k)
        except ValidationError as exc:
            raise ValidationError(f"{args.candidates}: candidate set {cs.user_id}: {exc}") from None
        scored.append(np.column_stack([ndcgs, ilads, objectives]))
        del scorer, sim  # freed before the next user's kernel build

    scored = np.stack(scored).reshape(len(candidates), len(alphas), len(methods), 3)
    table_rows = [
        [_fmt(alpha), method, _fmt(1.0 / (1.0 + alpha)) if method == "mmr" else "",
         *(_mean_or_blank(column) for column in scored[:, a, m].T), f"{times_a[method]:.6f}"]
        for a, (alpha, times_a) in enumerate(zip(alphas, times)) for m, method in enumerate(methods)
    ]

    _save_csv(args.out, [
        ["alpha", "method", "lambda", "mean_ndcg", "mean_ilad", "mean_objective", "wall_time_s"], *table_rows
    ])
    print(f"sweep: {len(alphas)} alpha values x {len(candidates)} users -> {args.out}")


# ----- parser plumbing -----


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage problems to exit code 1
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diverank", description=__doc__)
    parser.add_argument("--version", action="version", version=f"diverank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic fixture")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--clusters", type=int, default=6)
    p_synth.add_argument("--items-per-cluster", type=int, default=30)
    p_synth.add_argument("--dim", type=int, default=16)
    p_synth.add_argument("--noise", type=float, default=0.15)
    p_synth.add_argument("--users", type=int, default=50)
    p_synth.add_argument("--behaviors-per-user", type=int, default=60)
    p_synth.add_argument("--candidates-per-user", type=int, default=100)
    p_synth.add_argument("--sharpness", type=float, default=6.0)
    p_synth.add_argument("--score-noise", type=float, default=5.0)
    p_synth.set_defaults(func=cmd_synth)

    p_cluster = sub.add_parser("cluster", help="cluster the user-item graph")
    p_cluster.add_argument("--items", required=True)
    p_cluster.add_argument("--behaviors", required=True)
    p_cluster.add_argument("--out", required=True)
    # Clustering is deterministic; the flag is accepted for existing callers.
    p_cluster.add_argument("--seed", type=int, default=0, help="ignored")
    p_cluster.set_defaults(func=cmd_cluster)

    p_train = sub.add_parser("train-scorer", help="build profiles and train the scorer")
    p_train.add_argument("--items", required=True)
    p_train.add_argument("--behaviors", required=True)
    p_train.add_argument("--clusters", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--config")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--lr", type=float, default=0.1)
    p_train.add_argument("--epochs", type=int, default=50)
    p_train.add_argument("--batch-size", type=int, default=32)
    p_train.add_argument("--reduction", type=int, default=4)
    p_train.add_argument("--hidden", type=int, default=None)
    p_train.set_defaults(func=cmd_train_scorer)

    p_rerank = sub.add_parser("rerank", help="diversified re-ranking of candidate sets")
    p_rerank.add_argument("--candidates", required=True)
    p_rerank.add_argument("--profiles", required=True)
    p_rerank.add_argument("--checkpoint", required=True)
    p_rerank.add_argument("--out", required=True)
    p_rerank.add_argument("--config")
    p_rerank.add_argument("--alpha", type=float, default=None)
    p_rerank.add_argument("--k", type=int, default=None)
    p_rerank.add_argument("--dump-kernel", default=None, metavar="PREFIX")
    p_rerank.add_argument("--diversity-only-init", action="store_true")
    p_rerank.set_defaults(func=cmd_rerank)

    p_sweep = sub.add_parser("sweep", help="alpha sweep comparing selection methods")
    p_sweep.add_argument("--candidates", required=True)
    p_sweep.add_argument("--labels", required=True)
    p_sweep.add_argument("--profiles", required=True)
    p_sweep.add_argument("--checkpoint", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--config")
    p_sweep.add_argument("--alphas", default="0,0.5,1,2,4")
    p_sweep.add_argument("--runs", type=int, default=None)
    p_sweep.add_argument("--k", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_eval = sub.add_parser("eval", help="score re-ranked lists against labels")
    p_eval.add_argument("--results", required=True)
    p_eval.add_argument("--labels", required=True)
    p_eval.add_argument("--items", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--config")
    p_eval.add_argument("--k", type=int, default=None)
    p_eval.set_defaults(func=cmd_eval)

    return parser


_parser = functools.cache(build_parser)  # parse_args keeps no state between calls


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
