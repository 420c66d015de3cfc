"""End-to-end CLI coverage: pipeline stages, determinism, exit codes."""

import argparse
import csv
import gc
import inspect
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from diverank import cli
from diverank.accuracy import init_scorer_params
from diverank.data import (
    CandidateSet,
    EmbeddingTable,
    ExperimentConfig,
    RerankResult,
    ValidationError,
    load_candidates,
    load_checkpoint,
    load_labels,
    load_results,
    save_candidates,
    save_checkpoint,
    save_items,
    save_results,
)
from diverank.interests import InterestProfile, load_profiles, save_profiles
from diverank.kernels import composite_matrix
from diverank.metrics import ilad
from diverank.selection import profile_scorer
from diverank.synth import SyntheticSpec
from oracles import reference_greedy, reference_ilad, reference_ndcg_at_k

SYNTH_ARGS = [
    "--seed", "0",
    "--clusters", "3",
    "--items-per-cluster", "10",
    "--dim", "8",
    "--users", "8",
    "--behaviors-per-user", "20",
    "--candidates-per-user", "15",
]


def run(*args) -> int:
    return cli.main(list(args))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full pipeline run shared by the read-only assertions below."""
    root = tmp_path_factory.mktemp("pipeline")
    fix = root / "fix"
    model = root / "model"
    assert run("synth", "--out", str(fix), *SYNTH_ARGS) == 0
    assert (
        run(
            "cluster",
            "--items", str(fix / "items.jsonl"),
            "--behaviors", str(fix / "behaviors.jsonl"),
            "--out", str(fix / "clusters.jsonl"),
        )
        == 0
    )
    assert (
        run(
            "train-scorer",
            "--items", str(fix / "items.jsonl"),
            "--behaviors", str(fix / "behaviors.jsonl"),
            "--clusters", str(fix / "clusters.jsonl"),
            "--out", str(model),
            "--epochs", "5",
        )
        == 0
    )
    assert (
        run(
            "rerank",
            "--candidates", str(fix / "candidates.jsonl"),
            "--profiles", str(model / "profiles.jsonl"),
            "--checkpoint", str(model / "checkpoint.json"),
            "--out", str(root / "results.jsonl"),
        )
        == 0
    )
    assert (
        run(
            "eval",
            "--results", str(root / "results.jsonl"),
            "--labels", str(fix / "labels.jsonl"),
            "--items", str(fix / "items.jsonl"),
            "--out", str(root / "eval.csv"),
        )
        == 0
    )
    assert (
        run(
            "sweep",
            "--candidates", str(fix / "candidates.jsonl"),
            "--labels", str(fix / "labels.jsonl"),
            "--profiles", str(model / "profiles.jsonl"),
            "--checkpoint", str(model / "checkpoint.json"),
            "--out", str(root / "sweep.csv"),
            "--alphas", "0,1",
            "--runs", "4",
        )
        == 0
    )
    return {"root": root, "fix": fix, "model": model}


class TestPipelineArtifacts:
    def test_every_stage_wrote_its_files(self, pipeline):
        fix, model, root = pipeline["fix"], pipeline["model"], pipeline["root"]
        for path in (
            fix / "items.jsonl",
            fix / "behaviors.jsonl",
            fix / "candidates.jsonl",
            fix / "labels.jsonl",
            fix / "clusters.jsonl",
            model / "checkpoint.json",
            model / "profiles.jsonl",
            model / "training_log.csv",
            root / "results.jsonl",
            root / "results.jsonl.diag.csv",
            root / "eval.csv",
            root / "sweep.csv",
        ):
            assert path.exists(), path

    def test_rerank_selects_k_offered_items_per_user(self, pipeline):
        results = load_results(pipeline["root"] / "results.jsonl")
        assert len(results) == 8
        offered = {}
        with open(pipeline["fix"] / "candidates.jsonl") as fh:
            for line in fh:
                row = json.loads(line)
                offered[row["user_id"]] = {it["item_id"] for it in row["items"]}
        for res in results:
            assert len(res.item_ids) == 10  # default k
            assert len(set(res.item_ids)) == 10
            assert set(res.item_ids) <= offered[res.user_id]

    def test_diagnostics_cover_every_user_with_sane_d2(self, pipeline):
        # Each floor is the reference loop's, run on rerank's inputs.
        fix, model = pipeline["fix"], pipeline["model"]
        cfg = ExperimentConfig()
        params = cli._load_scorer_checkpoint(str(model / "checkpoint.json"))
        profiles = load_profiles(model / "profiles.jsonl")
        floors = {}
        for cs in load_candidates(fix / "candidates.jsonl"):
            profile = profiles.get(cs.user_id) or cli._zero_profile(cs.user_id, cs.dim)
            kernel = composite_matrix(cs.ids, cs.embeddings, profile, cfg)
            scorer = profile_scorer(cs, profile, params)
            _, trace = reference_greedy(cs, kernel, lambda ctx: scorer(ctx.h_prev), cfg)
            floors[cs.user_id] = cli._fmt(trace.min_d2_before_clamp)
        with open(pipeline["root"] / "results.jsonl.diag.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 8
        for row in rows:
            assert int(row["n_selected"]) == 10
            assert float(row["min_d2"]) >= -1e-8
            assert row["min_d2"] == floors[row["user_id"]]

    def test_eval_emits_per_user_rows_and_mean(self, pipeline):
        with open(pipeline["root"] / "eval.csv") as fh:
            rows = list(csv.reader(fh))
        header, body, mean_row = rows[0], rows[1:-1], rows[-1]
        assert header[0] == "user_id"
        assert len(body) == 8
        assert mean_row[0] == "__mean__"
        assert 0.0 <= float(mean_row[2]) <= 1.0
        assert 0.0 <= float(mean_row[3]) <= 2.0

    def test_sweep_table_shape(self, pipeline):
        with open(pipeline["root"] / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 3
        assert {r["method"] for r in rows} == {"bs_dpp", "fixed_dpp", "mmr"}
        for r in rows:
            if r["method"] == "mmr":
                alpha = float(r["alpha"])
                assert float(r["lambda"]) == pytest.approx(1.0 / (1.0 + alpha))
            else:
                assert r["lambda"] == ""
            assert 0.0 <= float(r["mean_ndcg"]) <= 1.0
            assert 0.0 <= float(r["mean_ilad"]) <= 2.0


    @pytest.mark.parametrize(
        "kept, prefix",
        [(30, ""), (15, ""), (0, ""), (30, "new-")],
        ids=["whole catalog", "first half", "empty catalog", "no shared id"],
    )
    def test_cluster_summary_counts_what_it_writes(self, kept, prefix, pipeline, tmp_path, capsys):
        """Only catalog items are written, so only they are counted.  With no
        behaviour item in the catalog there is nothing to seed a cluster: the
        run fails, names both files and writes nothing."""
        lines = (pipeline["fix"] / "items.jsonl").read_text().splitlines(keepends=True)[:kept]
        if prefix:
            lines = [json.dumps({**doc, "item_id": prefix + doc["item_id"]}) + "\n" for doc in map(json.loads, lines)]
        items = tmp_path / "items.jsonl"
        items.write_text("".join(lines))
        behaviors, out = pipeline["fix"] / "behaviors.jsonl", tmp_path / "clusters.jsonl"
        argv = ["cluster", "--items", items, "--behaviors", behaviors, "--out", out]
        if not kept or prefix:
            assert run(*map(str, argv)) == 1
            assert capsys.readouterr().err.splitlines() == [f"error: {behaviors}: no behavior item is in {items}"]
            assert not out.exists()
            return
        assert run(*map(str, argv)) == 0
        written = [json.loads(line) for line in out.read_text().splitlines()]
        n_clusters = len({doc["cluster_id"] for doc in written})
        assert len(written) == kept
        assert capsys.readouterr().out.startswith(f"cluster: {n_clusters} clusters over {kept} items, Q=")

    @pytest.mark.parametrize("lines", [[], [{"item_id": "nope", "cluster_id": 0}]], ids=["empty", "unknown item"])
    def test_train_scorer_needs_a_clustered_catalog_item(self, lines, pipeline, tmp_path, capsys):
        """With no `--clusters` item in the catalog every macro interest would
        be zero: the run fails, names both files and writes nothing.  The
        empty-catalog and empty-behaviour checks come first (TestMalformedInput)."""
        clusters, out = tmp_path / "clusters.jsonl", tmp_path / "model"
        clusters.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
        items, behaviors = pipeline["fix"] / "items.jsonl", pipeline["fix"] / "behaviors.jsonl"
        argv = ["train-scorer", "--items", items, "--behaviors", behaviors, "--clusters", clusters, "--out", out]
        assert run(*map(str, argv)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {clusters}: no clustered item is in {items}"]
        assert not out.exists()


class TestCheckpoint:
    def test_holds_only_scorer_tensors(self, pipeline):
        doc = json.loads((pipeline["model"] / "checkpoint.json").read_text())
        names = [entry["name"] for entry in doc["tensors"]]
        assert names and all(name.startswith("scorer.") for name in names)
        assert set(doc["meta"]) == {"dim", "reduction", "hidden"}

    def test_legacy_interest_tensors_are_ignored(self, pipeline, tmp_path):
        # Checkpoints written while train-scorer still saved its frozen
        # interest attention carry interest.* tensors and their meta keys.
        arrays, meta = load_checkpoint(pipeline["model"] / "checkpoint.json")
        dim = meta["dim"]
        legacy = dict(arrays)
        for scope, width in (("macro", dim), ("micro", dim + 8)):
            for h in range(2):
                for w in ("wq", "wk", "wv"):
                    legacy[f"interest.{scope}.h{h}.{w}"] = np.ones((width, dim // 2))
            legacy[f"interest.{scope}.wo"] = np.ones((dim, dim))
        legacy["interest.time_table"] = np.ones((16, 8))
        meta = dict(meta, heads=2, head_dim=dim // 2, time_dim=8, time_buckets=16)
        save_checkpoint(tmp_path / "legacy.json", legacy, meta)
        out = tmp_path / "results.jsonl"
        assert run(
            "rerank",
            "--candidates", str(pipeline["fix"] / "candidates.jsonl"),
            "--profiles", str(pipeline["model"] / "profiles.jsonl"),
            "--checkpoint", str(tmp_path / "legacy.json"),
            "--out", str(out),
        ) == 0
        assert out.read_bytes() == (pipeline["root"] / "results.jsonl").read_bytes()


class TestDeterminism:
    def test_rerank_reruns_byte_identical(self, pipeline, tmp_path):
        out2 = tmp_path / "results.jsonl"
        assert (
            run(
                "rerank",
                "--candidates", str(pipeline["fix"] / "candidates.jsonl"),
                "--profiles", str(pipeline["model"] / "profiles.jsonl"),
                "--checkpoint", str(pipeline["model"] / "checkpoint.json"),
                "--out", str(out2),
            )
            == 0
        )
        original = pipeline["root"] / "results.jsonl"
        assert out2.read_bytes() == original.read_bytes()

    def test_stage_isolation_rebuilds_identical_intermediates(self, pipeline, tmp_path):
        # Deleting an intermediate and re-running its stage must reproduce
        # the same bytes: sub-seeds hang off (seed, stage), not run order.
        fix = pipeline["fix"]
        clusters2 = tmp_path / "clusters.jsonl"
        assert (
            run(
                "cluster",
                "--items", str(fix / "items.jsonl"),
                "--behaviors", str(fix / "behaviors.jsonl"),
                "--out", str(clusters2),
            )
            == 0
        )
        assert clusters2.read_bytes() == (fix / "clusters.jsonl").read_bytes()

        model2 = tmp_path / "model"
        assert (
            run(
                "train-scorer",
                "--items", str(fix / "items.jsonl"),
                "--behaviors", str(fix / "behaviors.jsonl"),
                "--clusters", str(clusters2),
                "--out", str(model2),
                "--epochs", "5",
            )
            == 0
        )
        for name in ("checkpoint.json", "profiles.jsonl", "training_log.csv"):
            assert (model2 / name).read_bytes() == (
                pipeline["model"] / name
            ).read_bytes()

    def test_profiles_do_not_depend_on_the_seed(self, pipeline, tmp_path):
        # Pooling draws no random numbers; only the scorer reads --seed.
        fix = pipeline["fix"]
        for seed in ("1", "2"):
            assert run(
                "train-scorer",
                "--items", str(fix / "items.jsonl"),
                "--behaviors", str(fix / "behaviors.jsonl"),
                "--clusters", str(fix / "clusters.jsonl"),
                "--out", str(tmp_path / seed),
                "--epochs", "1",
                "--seed", seed,
            ) == 0
        profiles = [(tmp_path / seed / "profiles.jsonl").read_bytes() for seed in ("1", "2")]
        assert profiles[0] == profiles[1] == (pipeline["model"] / "profiles.jsonl").read_bytes()

    def test_sweep_reruns_byte_identical(self, pipeline, tmp_path):
        out2 = tmp_path / "sweep.csv"
        assert (
            run(
                "sweep",
                "--candidates", str(pipeline["fix"] / "candidates.jsonl"),
                "--labels", str(pipeline["fix"] / "labels.jsonl"),
                "--profiles", str(pipeline["model"] / "profiles.jsonl"),
                "--checkpoint", str(pipeline["model"] / "checkpoint.json"),
                "--out", str(out2),
                "--alphas", "0,1",
                "--runs", "4",
            )
            == 0
        )
        a = [r[:6] for r in csv.reader(open(out2))]
        b = [r[:6] for r in csv.reader(open(pipeline["root"] / "sweep.csv"))]
        assert a == b  # wall-time column excluded, everything else exact

    def test_sweep_holds_one_kernel_at_a_time(self, pipeline, tmp_path, monkeypatch):
        # Peak memory must not grow with --runs: when a user's n x n kernel
        # is built, at most the previous user's kernel may still be alive.
        built, alive_at_build = [], []
        composite_matrix = cli.composite_matrix

        def tracked_composite_matrix(*args, **kwargs):
            gc.collect()
            alive_at_build.append(sum(ref() is not None for ref in built))
            kernel = composite_matrix(*args, **kwargs)
            built.append(weakref.ref(kernel))
            return kernel

        monkeypatch.setattr(cli, "composite_matrix", tracked_composite_matrix)
        assert (
            run(
                "sweep",
                "--candidates", str(pipeline["fix"] / "candidates.jsonl"),
                "--labels", str(pipeline["fix"] / "labels.jsonl"),
                "--profiles", str(pipeline["model"] / "profiles.jsonl"),
                "--checkpoint", str(pipeline["model"] / "checkpoint.json"),
                "--out", str(tmp_path / "sweep.csv"),
                "--alphas", "0,1",
                "--runs", "8",
            )
            == 0
        )
        assert len(built) == 8
        assert max(alive_at_build) <= 1

    def test_sweep_builds_scorer_and_similarity_once_per_user(self, pipeline, tmp_path, monkeypatch):
        # Neither depends on alpha; both stay looked up as cli globals.
        calls = {"profile_scorer": 0, "cosine_similarity_fn": 0}
        for name in calls:
            original = getattr(cli, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep",
            "--candidates", str(pipeline["fix"] / "candidates.jsonl"),
            "--labels", str(pipeline["fix"] / "labels.jsonl"),
            "--profiles", str(pipeline["model"] / "profiles.jsonl"),
            "--checkpoint", str(pipeline["model"] / "checkpoint.json"),
            "--alphas", "0,0.5,1,2",
            "--runs", "3",
        ]
        assert run(*argv, "--out", str(out)) == 0
        assert calls == {"profile_scorer": 3, "cosine_similarity_fn": 3}

    def test_metrics_run_once_per_length_group(self, pipeline, tmp_path, monkeypatch):
        """sweep scores each user's lists with one `ndcg_at_k` and one `ilad`
        call per list length; both stay looked up as cli globals, which
        `bench/layers.py` wraps as its `metrics.eval` layer."""
        calls = record_metric_calls(monkeypatch, "profile_scorer")  # one profile_scorer call per user
        argv = [
            "sweep",
            "--candidates", str(pipeline["fix"] / "candidates.jsonl"),
            "--labels", str(pipeline["fix"] / "labels.jsonl"),
            "--profiles", str(pipeline["model"] / "profiles.jsonl"),
            "--checkpoint", str(pipeline["model"] / "checkpoint.json"),
            "--alphas", "0,0.5,1,2",
            "--runs", "3",
            "--out", str(tmp_path / "sweep.csv"),
        ]
        assert run(*argv) == 0
        per_user = []
        for name, shape in calls:
            if name == "profile_scorer":
                per_user.append([])
            else:
                per_user[-1].append((name, shape))
        assert len(per_user) == 3
        for user_calls in per_user:
            ndcg = [shape for name, shape in user_calls if name == "ndcg_at_k"]
            lengths = [length for _, length in ndcg]
            assert len(set(lengths)) == len(lengths)  # one call per list length
            assert sum(m for m, _ in ndcg) == 4 * 3  # every alpha x method list
            assert [shape for name, shape in user_calls if name == "ilad"] == [
                (m, length, 8) for m, length in ndcg if length >= 2
            ]


def write_duplicate_fixture(root):
    """Two identical high-score items plus one orthogonal low-score item."""
    cands = CandidateSet(
        user_id="u1",
        ids=("i1", "i2", "i3"),
        embeddings=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        base_scores=np.array([0.9, 0.9, 0.5]),
    )
    save_candidates(root / "candidates.jsonl", [cands])
    save_profiles(root / "profiles.jsonl", {})
    params = init_scorer_params(2, np.random.default_rng(0))
    for w in params.arrays().values():
        w[...] = 0.0
    tensors = {f"scorer.{k}": v for k, v in params.arrays().items()}
    save_checkpoint(root / "checkpoint.json", tensors, {"dim": 2})
    return root


class TestCraftedRerank:
    def test_duplicate_pair_yields_one_copy_plus_outsider(self, tmp_path):
        write_duplicate_fixture(tmp_path)
        out = tmp_path / "results.jsonl"
        assert (
            run(
                "rerank",
                "--candidates", str(tmp_path / "candidates.jsonl"),
                "--profiles", str(tmp_path / "profiles.jsonl"),
                "--checkpoint", str(tmp_path / "checkpoint.json"),
                "--out", str(out),
                "--alpha", "1",
                "--k", "2",
            )
            == 0
        )
        (result,) = load_results(out)
        assert result.item_ids == ("i1", "i3")

    def test_k_flag_beats_config_file(self, tmp_path):
        write_duplicate_fixture(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 3, "alpha": 1.0}))
        out = tmp_path / "results.jsonl"
        assert (
            run(
                "rerank",
                "--candidates", str(tmp_path / "candidates.jsonl"),
                "--profiles", str(tmp_path / "profiles.jsonl"),
                "--checkpoint", str(tmp_path / "checkpoint.json"),
                "--out", str(out),
                "--config", str(cfg),
                "--k", "2",
            )
            == 0
        )
        (result,) = load_results(out)
        assert len(result.item_ids) == 2

    def test_dump_kernel_writes_symmetric_matrix(self, tmp_path):
        write_duplicate_fixture(tmp_path)
        prefix = str(tmp_path / "kern_")
        assert (
            run(
                "rerank",
                "--candidates", str(tmp_path / "candidates.jsonl"),
                "--profiles", str(tmp_path / "profiles.jsonl"),
                "--checkpoint", str(tmp_path / "checkpoint.json"),
                "--out", str(tmp_path / "results.jsonl"),
                "--dump-kernel", prefix,
            )
            == 0
        )
        values = np.loadtxt(f"{prefix}u1.csv", delimiter=",")
        assert values.shape == (3, 3)
        assert np.allclose(values, values.T, atol=1e-12)

    @pytest.mark.parametrize(
        "user_id",
        ["a\x00b", "no/such/dir", "../escaped", ".", "..",
         pytest.param("x" * 300, id="past-name-limit"), pytest.param("\ud800", id="lone-surrogate")],
    )
    def test_dump_kernel_refuses_a_user_id_that_is_no_file_name(self, user_id, tmp_path, capsys):
        """A dump is named by its user id, so an id that would not name one
        file under the prefix (the file system's name length limit included)
        is refused before any list, and nothing is written."""
        write_duplicate_fixture(tmp_path)
        cands = load_candidates(tmp_path / "candidates.jsonl")
        bad = CandidateSet(user_id, cands[0].ids, cands[0].embeddings, cands[0].base_scores)
        save_candidates(tmp_path / "candidates.jsonl", [*cands, bad])
        prefix = tmp_path / "dk" / "kern"
        prefix.mkdir(parents=True)
        argv = [
            "rerank",
            "--candidates", tmp_path / "candidates.jsonl",
            "--profiles", tmp_path / "profiles.jsonl",
            "--checkpoint", tmp_path / "checkpoint.json",
            "--out", tmp_path / "results.jsonl",
            "--dump-kernel", f"{prefix}/",
        ]
        assert run(*map(str, argv)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / 'candidates.jsonl'}: user {user_id!r} cannot name a --dump-kernel file"
        ]
        assert not list(tmp_path.rglob("*.csv"))
        assert not (tmp_path / "results.jsonl").exists()

    def test_diversity_only_init_runs_clean(self, tmp_path):
        write_duplicate_fixture(tmp_path)
        out = tmp_path / "results.jsonl"
        assert (
            run(
                "rerank",
                "--candidates", str(tmp_path / "candidates.jsonl"),
                "--profiles", str(tmp_path / "profiles.jsonl"),
                "--checkpoint", str(tmp_path / "checkpoint.json"),
                "--out", str(out),
                "--diversity-only-init",
                "--k", "2",
            )
            == 0
        )
        (result,) = load_results(out)
        assert len(result.item_ids) == 2


def write_labels(root):
    labels = root / "labels.jsonl"
    labels.write_text(json.dumps(_judgment()) + "\n")
    return labels


class TestSingleItemLists:
    def test_eval_without_ilad_values_prints_blank_mean(self, tmp_path, capsys):
        # With k = 1 no list has two items, so ILAD has no values to average.
        write_duplicate_fixture(tmp_path)
        items = tmp_path / "items.jsonl"
        items.write_text(
            "".join(
                json.dumps({"item_id": i, "embedding": e}) + "\n"
                for i, e in (("i1", [1.0, 0.0]), ("i2", [1.0, 0.0]), ("i3", [0.0, 1.0]))
            )
        )
        labels = tmp_path / "labels.jsonl"
        labels.write_text(json.dumps(_judgment()))
        results, out = tmp_path / "results.jsonl", tmp_path / "eval.csv"
        argv = ["rerank", "--candidates", tmp_path / "candidates.jsonl",
                "--profiles", tmp_path / "profiles.jsonl",
                "--checkpoint", tmp_path / "checkpoint.json", "--out", results, "--k", 1]
        assert run(*map(str, argv)) == 0
        capsys.readouterr()
        argv = ["eval", "--results", results, "--labels", labels, "--items", items,
                "--out", out, "--k", 1]
        assert run(*map(str, argv)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert f"mean ndcg@1=1, mean ilad= -> {out}" in captured.out
        mean_row = list(csv.reader(open(out)))[-1]
        assert mean_row == ["__mean__", "", "1", ""]

    def test_sweep_without_ilad_values_leaves_mean_blank(self, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        labels = write_labels(tmp_path)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--candidates", tmp_path / "candidates.jsonl", "--labels", labels,
                "--profiles", tmp_path / "profiles.jsonl",
                "--checkpoint", tmp_path / "checkpoint.json", "--out", out,
                "--k", 1, "--runs", 3, "--alphas", "0,1"]
        assert run(*map(str, argv)) == 0
        assert capsys.readouterr().err == ""
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 6
        assert all(row["mean_ilad"] == "" for row in rows)
        assert all(row["mean_ndcg"] != "" and row["mean_objective"] != "" for row in rows)


def record_metric_calls(monkeypatch, *others):
    """Wrap `cli.ndcg_at_k`, `cli.ilad` and the cli globals `others`; each call
    appends (name, shape of its first argument) to the returned list."""
    calls = []
    for name in ("ndcg_at_k", "ilad", *others):
        original = getattr(cli, name)

        def recorded(*args, _original=original, _name=name, **kwargs):
            calls.append((_name, np.shape(args[0]) if _name in ("ndcg_at_k", "ilad") else None))
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, recorded)
    return calls


MIXED_K = 4
# eval's mixed fixture in file order: each user's list and label line (None:
# no line).  By (list length, pool length) the groups are (4, 4): u1, u7;
# (3, 4): u2, u6; (1, 4): u3; (4, 0): u4; (4, 2): u5.  Item z is in u7 only
# and y in u6 only.
MIXED = (
    ("u1", "abcd", {"a": 1, "b": 0, "c": 1, "d": 0, "x": 1}),
    ("u2", "efg", {"e": 0, "f": 1, "g": 1, "q": 0}),
    ("u3", "h", {"h": 1, "a": 0, "b": 0, "c": 1}),
    ("u4", "aceg", None),
    ("u5", "bdfh", {"b": 1, "r": 1}),
    ("u6", "cdy", {"c": 1, "d": 0, "y": 1, "e": 0}),
    ("u7", "zgfe", {"z": 1, "g": 0, "f": 1, "e": 0, "b": 1}),
)


def write_mixed_fixture(root, zero=""):
    """Catalog (dimension 3; the rows of the items in `zero` are zero), results
    and labels of MIXED; returns the catalog."""
    ids = tuple("abcdefghyz")
    embs = np.random.default_rng(12).normal(size=(len(ids), 3)) * np.logspace(-3, 3, len(ids))[:, None]
    embs[[ids.index(i) for i in zero]] = 0.0
    table = EmbeddingTable(ids, embs)
    save_items(root / "items.jsonl", table)
    save_results(root / "results.jsonl", [
        RerankResult(user, tuple(items), (0.5,) * len(items), (0.0,) * len(items), (0.5,) * len(items), 1.0)
        for user, items, _ in MIXED
    ])
    (root / "labels.jsonl").write_text("".join(
        json.dumps({"user_id": user, "item_ids": list(labels), "labels": list(labels.values())}) + "\n"
        for user, _, labels in MIXED if labels is not None
    ))
    return table


def mixed_eval_argv(root):
    return ["eval", "--results", str(root / "results.jsonl"), "--labels", str(root / "labels.jsonl"),
            "--items", str(root / "items.jsonl"), "--out", str(root / "eval.csv"), "--k", str(MIXED_K)]


class TestMixedLengthLists:
    """Lists of several lengths and pools are scored in groups, each list
    with the bits of the per-list oracles."""

    def test_eval_equals_the_per_list_oracles(self, tmp_path, capsys):
        table = write_mixed_fixture(tmp_path)
        assert run(*mixed_eval_argv(tmp_path)) == 0
        assert capsys.readouterr().err == ""
        rows, ndcgs, ilads = [], [], []
        for user, items, labels in MIXED:
            labels = labels or {}
            ndcg = reference_ndcg_at_k([labels.get(i, 0) for i in items], MIXED_K,
                                       ideal_relevances=list(labels.values()))
            diversity = reference_ilad(table.rows(items)) if len(items) >= 2 else float("nan")
            ndcgs.append(ndcg)
            ilads += [diversity] if len(items) >= 2 else []
            rows.append([user, str(len(items)), cli._fmt(ndcg), cli._fmt(diversity)])
        assert list(csv.reader(open(tmp_path / "eval.csv"))) == [
            ["user_id", "n_selected", f"ndcg_at_{MIXED_K}", "ilad"], *rows,
            ["__mean__", "", cli._fmt(np.nanmean(ndcgs)), cli._fmt(np.nanmean(ilads))],
        ]

    @pytest.mark.parametrize("zero, user", [("z", "u7"), ("zy", "u6")])
    def test_zero_norm_error_names_the_first_failing_list_in_file_order(self, zero, user, tmp_path, capsys):
        """z is in the second list of its group; with y too, the first failing
        list is in a group that starts later in the file."""
        write_mixed_fixture(tmp_path, zero)
        assert run(*mixed_eval_argv(tmp_path)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {tmp_path / 'items.jsonl'}: items of result {user}: ilad is undefined for zero-norm embeddings"
        ]
        assert not (tmp_path / "eval.csv").exists()

    def test_unknown_id_is_reported_before_any_list_is_scored(self, tmp_path, capsys):
        """Result ids are looked up in the catalog first, so an unknown id in a
        later list is reported before u7's zero embedding."""
        write_mixed_fixture(tmp_path, "z")
        results = tmp_path / "results.jsonl"
        save_results(results, [*load_results(results), RerankResult("u8", ("w",), (0.5,), (0.0,), (0.5,), 1.0)])
        assert run(*mixed_eval_argv(tmp_path)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {results}: result u8: unknown item_id 'w'"]

    def test_eval_calls_each_metric_once_per_group(self, tmp_path, monkeypatch):
        write_mixed_fixture(tmp_path)
        calls = record_metric_calls(monkeypatch)
        assert run(*mixed_eval_argv(tmp_path)) == 0
        assert sorted(calls) == sorted([
            *(("ndcg_at_k", (m, length)) for m, length in ((2, 4), (2, 3), (1, 1), (1, 4), (1, 4))),
            *(("ilad", (m, length, 3)) for m, length in ((2, 4), (2, 3), (1, 4), (1, 4))),
        ])

    @pytest.mark.parametrize("zero", ["", "z", "zy"])
    def test_capped_stacks_keep_each_lists_bits_and_the_failing_list(self, zero, tmp_path, monkeypatch):
        """A group of more than `stack` lists is scored in slices of at most
        `stack`, with the same values and the same first failing list as one
        call per group."""
        table = write_mixed_fixture(tmp_path, zero)
        lists = [([(labels or {}).get(i, 0) for i in items], sorted((labels or {}).values(), reverse=True),
                  table.index(items)) for _, items, labels in MIXED]

        def score(stack):
            try:
                return cli._score_lists(lists, table.embeddings, MIXED_K, stack=stack)
            except ValidationError as exc:
                return exc.row

        whole = score(len(lists))
        calls = record_metric_calls(monkeypatch)
        sliced = score(1)
        assert {shape[0] for _, shape in calls} == {1}
        if zero:
            assert sliced == whole == [user for user, _, _ in MIXED].index("u6" if "y" in zero else "u7")
        else:
            np.testing.assert_array_equal(np.asarray(sliced), np.asarray(whole))
            assert len([name for name, _ in calls if name == "ndcg_at_k"]) == len(MIXED)

    def test_sweep_equals_the_per_list_oracles(self, tmp_path, monkeypatch):
        """The duplicate fixture's lists exhaust at the default k."""
        write_duplicate_fixture(tmp_path)
        labels = write_labels(tmp_path)
        picked = []  # [item ids, objective] of each list, in the order sweep makes them

        def record(name, ids_and_objective):
            original = getattr(cli, name)

            def recorded(*args, **kwargs):
                result = original(*args, **kwargs)
                picked.append(list(ids_and_objective(result)))
                return result

            monkeypatch.setattr(cli, name, recorded)

        record("bs_dpp_select", lambda result: (result[0].item_ids, result[0].objective))
        record("fixed_score_dpp_select", lambda result: (result.item_ids, result.objective))
        record("mmr_select", lambda result: (result, None))  # its h comes from subset_objective
        record("subset_objective", lambda h: (picked.pop()[0], h))  # fills MMR's entry
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--candidates", tmp_path / "candidates.jsonl", "--labels", labels,
                "--profiles", tmp_path / "profiles.jsonl", "--checkpoint", tmp_path / "checkpoint.json",
                "--out", out, "--alphas", "0,1,2"]
        assert run(*map(str, argv)) == 0
        (cs,) = load_candidates(tmp_path / "candidates.jsonl")
        user_labels = {"i1": 1}
        want = []
        for (item_ids, objective), (alpha, method) in zip(
            picked, [(a, m) for a in (0.0, 1.0, 2.0) for m in ("bs_dpp", "fixed_dpp", "mmr")], strict=True
        ):
            assert len(item_ids) < 10
            ndcg = reference_ndcg_at_k([user_labels.get(i, 0) for i in item_ids], 10,
                                       ideal_relevances=list(user_labels.values()))
            rows = [cs.ids.index(i) for i in item_ids]
            diversity = reference_ilad(cs.embeddings[rows]) if len(rows) >= 2 else float("nan")
            want.append([cli._fmt(alpha), method, cli._fmt(1.0 / (1.0 + alpha)) if method == "mmr" else "",
                         *(cli._mean_or_blank([value]) for value in (ndcg, diversity, objective))])
        assert [row[:6] for row in csv.reader(open(out))][1:] == want


class TestLabelLookups:
    def test_only_the_requested_users_get_a_lookup(self, tmp_path):
        labels = tmp_path / "labels.jsonl"
        labels.write_text("".join(json.dumps(doc) + "\n" for doc in (
            _judgment(user_id="u3", item_ids=["a", "b"], labels=[1, 0]),
            _judgment(user_id="u1", item_ids=["c"], labels=[0]),
            _judgment(user_id="u2", item_ids=["a", "d", "a"], labels=[0, 1, 1]),
        )))
        assert load_labels(str(labels), ["u2", "u9", "u3"]) == {
            "u2": {"a": 1, "d": 1},  # a repeated item keeps its last label
            "u3": {"a": 1, "b": 0},
        }
        assert load_labels(str(labels), []) == {}

    def test_sweep_checks_label_lines_of_users_it_does_not_score(self, pipeline, tmp_path, capsys):
        """`--runs 1` scores one user, yet a bad last line for another user fails the stage."""
        lines = (pipeline["fix"] / "labels.jsonl").read_text().splitlines()
        (first,) = load_candidates(pipeline["fix"] / "candidates.jsonl", limit=1)
        outsider = json.loads(lines[-1])
        assert outsider["user_id"] != first.user_id
        outsider["labels"][-1] = 2
        labels = tmp_path / "labels.jsonl"
        labels.write_text("\n".join([*lines[:-1], json.dumps(outsider)]) + "\n")
        out = tmp_path / "sweep.csv"
        model = pipeline["model"]
        argv = ["sweep", "--candidates", pipeline["fix"] / "candidates.jsonl", "--labels", labels,
                "--profiles", model / "profiles.jsonl", "--checkpoint", model / "checkpoint.json",
                "--out", out, "--runs", 1]
        assert run(*map(str, argv)) == 1
        entry = len(outsider["labels"]) - 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {labels}: line {len(lines)}: entry {entry}: label must be null, 0 or 1, got 2"
        ]
        assert not out.exists()

    def test_eval_of_a_user_without_label_line(self, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        (tmp_path / "items.jsonl").write_text("".join(
            json.dumps({"item_id": i, "embedding": e}) + "\n"
            for i, e in (("i1", [1.0, 0.0]), ("i2", [1.0, 0.0]), ("i3", [0.0, 1.0]))
        ))
        labels = tmp_path / "labels.jsonl"
        labels.write_text(json.dumps(_judgment(user_id="u2")) + "\n")  # no line for u1
        results, out = tmp_path / "results.jsonl", tmp_path / "eval.csv"
        argv = ["rerank", "--candidates", tmp_path / "candidates.jsonl",
                "--profiles", tmp_path / "profiles.jsonl",
                "--checkpoint", tmp_path / "checkpoint.json", "--out", results, "--k", 2]
        assert run(*map(str, argv)) == 0
        argv = ["eval", "--results", results, "--labels", labels, "--items", tmp_path / "items.jsonl",
                "--out", out, "--k", 2]
        assert run(*map(str, argv)) == 0
        assert capsys.readouterr().err == ""
        assert list(csv.reader(open(out)))[1:] == [["u1", "2", "0", "1"], ["__mean__", "", "0", "1"]]


def _entry_1e200():
    row = np.random.default_rng(4).normal(size=16)
    row[3] = 1e200
    return row


# Finite rows whose squared entries overflow, or underflow to a zero sum,
# each with the factor that brings it to an ordinary scale.
EXTREME_ROWS = {
    "entry 1e200": (_entry_1e200(), 1e-200),
    "sixteen 1e-170": (np.full(16, 1e-170), 1e170),
}


def write_extreme_fixture(root, row):
    """Six candidates of dimension 16 for u1 whose first row is `row`, the
    same rows as a catalog, labels, a profile and a random checkpoint."""
    root.mkdir()
    rng = np.random.default_rng(8)
    embs = rng.normal(size=(6, 16))
    embs[0] = row
    ids = tuple(f"i{r}" for r in range(6))
    save_candidates(root / "candidates.jsonl", [CandidateSet("u1", ids, embs, rng.random(6))])
    save_items(root / "items.jsonl", EmbeddingTable(ids, embs))
    save_results(root / "results.jsonl", [RerankResult("u1", ids, (0.5,) * 6, (0.0,) * 6, (0.5,) * 6, 3.0)])
    (root / "labels.jsonl").write_text(json.dumps(_judgment(item_ids=ids, labels=[int(i < "i3") for i in ids])) + "\n")
    save_profiles(root / "profiles.jsonl", {"u1": InterestProfile("u1", rng.normal(size=16), rng.normal(size=16))})
    params = init_scorer_params(16, rng)
    save_checkpoint(root / "checkpoint.json", {f"scorer.{k}": v for k, v in params.arrays().items()}, {"dim": 16})
    return embs


class TestExtremeRows:
    """A row whose norm np.linalg.norm cannot form directly is normalized as
    the same row at an ordinary scale, without a warning."""

    def _run_both(self, tmp_path, case, capsys, *argv):
        """Run `argv` on the fixture with the extreme row, then with it rescaled;
        each must exit 0 and write nothing to stderr."""
        row, factor = EXTREME_ROWS[case]
        out = []
        for name, first in (("extreme", row), ("rescaled", row * factor)):
            root = tmp_path / name
            embs = write_extreme_fixture(root, first)
            assert run(*(str(arg).format(root=root) for arg in argv)) == 0
            assert capsys.readouterr().err == ""
            out.append((root, embs))
        return out

    @pytest.mark.parametrize("case", EXTREME_ROWS)
    def test_rerank(self, tmp_path, case, capsys):
        runs = self._run_both(
            tmp_path, case, capsys, "rerank", "--candidates", "{root}/candidates.jsonl",
            "--profiles", "{root}/profiles.jsonl", "--checkpoint", "{root}/checkpoint.json",
            "--out", "{root}/out.jsonl", "--dump-kernel", "{root}/kernel_", "--k", 6,
        )
        (extreme, embs), (rescaled, _) = runs
        np.testing.assert_allclose(
            np.loadtxt(extreme / "kernel_u1.csv", delimiter=","),
            np.loadtxt(rescaled / "kernel_u1.csv", delimiter=","),
            rtol=1e-12, atol=0.0,
        )
        (result,) = load_results(extreme / "out.jsonl")
        rows = [int(i[1:]) for i in result.item_ids]
        assert 0 in rows
        want = embs.copy()
        want[0] *= EXTREME_ROWS[case][1]
        assert ilad(embs[rows]) == pytest.approx(ilad(want[rows]), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("case", EXTREME_ROWS)
    def test_eval(self, tmp_path, case, capsys):
        runs = self._run_both(
            tmp_path, case, capsys, "eval", "--results", "{root}/results.jsonl",
            "--labels", "{root}/labels.jsonl", "--items", "{root}/items.jsonl", "--out", "{root}/eval.csv",
        )
        extreme, rescaled = (list(csv.DictReader(open(root / "eval.csv"))) for root, _ in runs)
        assert float(extreme[0]["ilad"]) == pytest.approx(float(rescaled[0]["ilad"]), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("case", EXTREME_ROWS)
    def test_sweep(self, tmp_path, case, capsys):
        # With k = n every method selects every candidate, so each list is the same set.
        runs = self._run_both(
            tmp_path, case, capsys, "sweep", "--candidates", "{root}/candidates.jsonl",
            "--labels", "{root}/labels.jsonl", "--profiles", "{root}/profiles.jsonl",
            "--checkpoint", "{root}/checkpoint.json", "--out", "{root}/sweep.csv",
            "--k", 6, "--alphas", "0,1",
        )
        extreme, rescaled = (list(csv.DictReader(open(root / "sweep.csv"))) for root, _ in runs)
        assert len(extreme) == 6
        for a, b in zip(extreme, rescaled):
            assert float(a["mean_ilad"]) == pytest.approx(float(b["mean_ilad"]), rel=1e-12, abs=0.0)


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run("rerank") == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file_is_io_error(self, tmp_path, capsys):
        code = run(
            "rerank",
            "--candidates", str(tmp_path / "nope.jsonl"),
            "--profiles", str(tmp_path / "nope2.jsonl"),
            "--checkpoint", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "out.jsonl"),
        )
        assert code == 2
        assert "io error:" in capsys.readouterr().err

    def test_malformed_jsonl_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "items.jsonl"
        bad.write_text('{"item_id": "a", "embedding": [1, 2]}\nnot json\n')
        code = run(
            "cluster",
            "--items", str(bad),
            "--behaviors", str(bad),
            "--out", str(tmp_path / "c.jsonl"),
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_degenerate_kernel_is_numerical_error(self, tmp_path, capsys):
        # With jitter off every initial d_i^2 is e, under this epsilon, so
        # selection cannot seed a list.
        write_duplicate_fixture(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"epsilon": 1e6, "beta1": 0.0, "beta2": 0.0, "jitter": 0.0})
        )
        code = run(
            "rerank",
            "--candidates", str(tmp_path / "candidates.jsonl"),
            "--profiles", str(tmp_path / "profiles.jsonl"),
            "--checkpoint", str(tmp_path / "checkpoint.json"),
            "--out", str(tmp_path / "results.jsonl"),
            "--config", str(cfg),
        )
        assert code == 3
        assert "numerical error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # numpy may not print an overflow warning
    @pytest.mark.parametrize("command", ["rerank", "sweep"])
    def test_overflowing_joint_value_is_one_numerical_error_line(self, command, tmp_path, capsys):
        # log d^2 is about 1.3 on this fixture, so alpha * log d^2 passes float64's maximum.
        write_duplicate_fixture(tmp_path)
        out = tmp_path / "out"
        argv = [command, "--candidates", tmp_path / "candidates.jsonl",
                "--profiles", tmp_path / "profiles.jsonl",
                "--checkpoint", tmp_path / "checkpoint.json", "--out", out]
        if command == "sweep":
            argv += ["--labels", write_labels(tmp_path), "--alphas", "0,1e308"]
        else:
            argv += ["--alpha", "1e308"]
        assert run(*map(str, argv)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical error:")
        assert "alpha=1e+308" in lines[0]
        assert not out.exists()

    def test_kernel_overflow_is_one_numerical_error_line(self, tmp_path, capsys):
        # Unnormalized embeddings of norm 40 put 1600 / b^2 in the exponent.
        write_duplicate_fixture(tmp_path)
        (cands,) = load_candidates(tmp_path / "candidates.jsonl")
        scaled = CandidateSet("u1", cands.ids, 40.0 * cands.embeddings, cands.base_scores)
        save_candidates(tmp_path / "candidates.jsonl", [scaled])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"normalize_embeddings": False}))
        code = run(
            "rerank",
            "--candidates", str(tmp_path / "candidates.jsonl"),
            "--profiles", str(tmp_path / "profiles.jsonl"),
            "--checkpoint", str(tmp_path / "checkpoint.json"),
            "--out", str(tmp_path / "results.jsonl"),
            "--config", str(cfg),
        )
        assert code == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical error:")
        assert "normalize the embeddings" in lines[0]

    @pytest.mark.parametrize("command", ["rerank", "sweep"])
    @pytest.mark.parametrize(
        "config, field",
        [
            ({"b_s": 1e-200}, "b_s"),  # b^2 underflows to 0
            ({"b_l": 1e-160}, "b_l"),  # 1/b^2 overflows
            ({"beta1": 1e308}, "beta1"),  # beta1 * e overflows
            ({"beta2": 1e308}, "beta2"),
        ],
    )
    def test_kernel_scale_factor_is_one_numerical_error_line(
        self, tmp_path, capsys, command, config, field
    ):
        write_duplicate_fixture(tmp_path)
        # Unit interest weights: each term's diagonal entries are beta * e.
        save_profiles(tmp_path / "profiles.jsonl", {"u1": InterestProfile("u1", np.ones(2), np.ones(2))})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        argv = [command, "--candidates", tmp_path / "candidates.jsonl",
                "--profiles", tmp_path / "profiles.jsonl",
                "--checkpoint", tmp_path / "checkpoint.json", "--out", out, "--config", cfg]
        if command == "sweep":
            argv += ["--labels", write_labels(tmp_path)]
        assert run(*map(str, argv)) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical error:")
        assert f"{field}=" in lines[0]
        if field.startswith("beta"):  # beta * e overflows, not the exp, so beta is what to lower
            assert lines[0].endswith(f"; lower {field}")
        assert not out.exists()

    def test_non_increasing_alphas_rejected(self, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        code = run(
            "sweep",
            "--candidates", str(tmp_path / "candidates.jsonl"),
            "--labels", str(tmp_path / "candidates.jsonl"),
            "--profiles", str(tmp_path / "profiles.jsonl"),
            "--checkpoint", str(tmp_path / "checkpoint.json"),
            "--out", str(tmp_path / "sweep.csv"),
            "--alphas", "1,1",
        )
        assert code == 1
        assert "strictly increasing" in capsys.readouterr().err

    def test_one_parser_serves_successive_calls(self, pipeline, tmp_path, capsys):
        """`main` builds its parser once per process; a usage error and
        `--version` on it leave a later `eval` as a fresh parser would."""
        assert cli._parser() is cli._parser()
        usage = ["eval", "--k", "x"]
        with pytest.raises(ValidationError) as fresh:
            cli.build_parser().parse_args(usage)
        assert run(*usage) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {fresh.value}"]
        with pytest.raises(SystemExit) as err:
            run("--version")
        assert err.value.code == 0
        assert capsys.readouterr().out == "diverank 0.1.0\n"
        root, fix = pipeline["root"], pipeline["fix"]
        out = tmp_path / "eval.csv"
        argv = ["eval", "--results", root / "results.jsonl", "--labels", fix / "labels.jsonl",
                "--items", fix / "items.jsonl", "--out", out]
        assert run(*map(str, argv)) == 0
        assert out.read_bytes() == (root / "eval.csv").read_bytes()

    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            run("--version")
        assert err.value.code == 0
        assert "diverank" in capsys.readouterr().out


def _item(**overrides):
    doc = {"item_id": "i1", "embedding": [1.0, 0.0], "base_score": 0.5}
    doc.update(overrides)
    return doc


def _line(*items):
    return {"user_id": "u1", "items": list(items)}


def _result(**overrides):
    doc = {"user_id": "u1", "item_ids": ["a"], "scores": [0.5], "log_d2": [0.0], "marginals": [0.5],
           "objective": 0.5}
    doc.update(overrides)
    return doc


def _result_without(field):
    doc = _result()
    del doc[field]
    return doc


def _event(**overrides):
    """A behavior line holding one labelled row."""
    doc = {"user_id": "u1", "item_ids": ["i1"], "ts": [1], "labels": [1]}
    doc.update(overrides)
    return doc


def _judgment(**overrides):
    """A label line holding one judgment."""
    doc = {"user_id": "u1", "item_ids": ["i1"], "labels": [1]}
    doc.update(overrides)
    return doc


def _cluster(**overrides):
    doc = {"item_id": "i1", "cluster_id": 1}
    doc.update(overrides)
    return doc


def _profile(**overrides):
    doc = {"user_id": "u1", "h_macro": [1.0, 0.0], "h_micro": [0.0, 1.0]}
    doc.update(overrides)
    return doc


HUGE = 10**400  # a JSON integer too large for float64
TS_RULE = "ts must be an integer >= 0"
CLUSTER_RULE = "cluster_id must be an integer >= 0"
LABEL_RULE = "label must be null, 0 or 1"
COLUMN_RULE = "must be a list of 1 numbers"

# (command and the flag reading the line, the line as an object or raw text,
#  a fragment its error must name)
MALFORMED_LINES = {
    "non-numeric embedding": ("rerank --candidates", _line(_item(embedding=["x", 0.0])),
                              "embedding"),
    "ragged dims": ("rerank --candidates", _line(_item(), _item(item_id="i2", embedding=[1.0])),
                    "item i2: embedding must be a list of 2 numbers"),
    "nan embedding": ("rerank --candidates", _line(_item(embedding=[float("nan"), 0.0])),
                      "non-finite"),
    "numeric string embedding": ("rerank --candidates", _line(_item(embedding=["0.5", 0.0])),
                                 "item i1: embedding"),
    "bool embedding": ("rerank --candidates", _line(_item(embedding=[True, 0.0])),
                       "item i1: embedding"),
    "huge int embedding": ("rerank --candidates", _line(_item(embedding=[HUGE, 0.0])),
                           "item i1: embedding"),
    "string base_score": ("rerank --candidates", _line(_item(base_score="0.5")),
                          "item i1: base_score"),
    "bool base_score": ("rerank --candidates", _line(_item(base_score=True)), "item i1: base_score"),
    "huge int base_score": ("rerank --candidates", _line(_item(base_score=HUGE)), "base_score"),
    "items not a list": ("rerank --candidates", {"user_id": "u1", "items": "x"}, "items"),
    "item not an object": ("rerank --candidates", _line(["i1", [1.0, 0.0], 0.5]), "items"),
    "missing base_score": ("rerank --candidates", _line(_item(base_score=None)), "base_score"),
    "base_score above one": ("rerank --candidates", _line(_item(base_score=1.5)), "base_score"),
    "duplicate id": ("rerank --candidates", _line(_item(), _item()), "duplicate"),
    "list id": ("rerank --candidates", _line(_item(item_id=["a"])), "item_id"),
    "int id": ("rerank --candidates", _line(_item(item_id=5)), "item_id"),
    "list user id": ("rerank --candidates", {"user_id": ["u1"], "items": [_item()]}, "user_id"),
    "catalog non-numeric embedding": ("eval --items", {"item_id": "i1", "embedding": ["x", 0.0]},
                                      "embedding"),
    "catalog numeric string embedding": ("eval --items", {"item_id": "i1", "embedding": ["0.5", 0.0]},
                                         "item i1: embedding"),
    "catalog bool embedding": ("eval --items", {"item_id": "i1", "embedding": [True, 0.0]},
                               "item i1: embedding"),
    "catalog huge int embedding": ("eval --items", {"item_id": "i1", "embedding": [HUGE, 0.0]},
                                   "item i1: embedding"),
    "catalog list id": ("eval --items", {"item_id": ["a"], "embedding": [1.0, 0.0]}, "item_id"),
    "catalog int id": ("eval --items", {"item_id": 7, "embedding": [1.0, 0.0]}, "item_id"),
    "result list item id": ("eval --results", _result(item_ids=[["a"]]), "item_id"),
    "result empty item id": ("eval --results", _result(item_ids=[""]), "item_id"),
    "result list user id": ("eval --results", _result(user_id=["u1"]), "user_id"),
    "result scores not a list": ("eval --results", _result(scores=5), "scores " + COLUMN_RULE),
    "result log_d2 entry an object": ("eval --results", _result(log_d2=[{"x": 0.0}]),
                                      "log_d2 " + COLUMN_RULE),
    "result missing scores": ("eval --results", _result_without("scores"),
                              "result missing field 'scores'"),
    "result string score": ("eval --results", _result(scores=["0.5"]), "scores " + COLUMN_RULE),
    "result bool score": ("eval --results", _result(scores=[True]), "scores " + COLUMN_RULE),
    "result short column": ("eval --results", _result(item_ids=["a", "b"], scores=[0.5, 0.4],
                                                      log_d2=[0.0, -0.1], marginals=[0.5]),
                            "marginals must be a list of 2 numbers"),
    "result nan literal": ("eval --results",
                           '{"user_id": "u1", "item_ids": ["a"], "scores": [NaN], "log_d2": [0.0], '
                           '"marginals": [0.5], "objective": 0.5}',
                           "scores has non-finite values"),
    "result null entry": ("eval --results", _result(log_d2=[None]), "log_d2 " + COLUMN_RULE),
    "result nested list": ("eval --results", _result(marginals=[[0.5]]), "marginals " + COLUMN_RULE),
    "result huge objective": ("eval --results", _result(objective=HUGE), "objective"),
    "result missing user_id": ("eval --results", _result_without("user_id"),
                               "result missing field 'user_id'"),
    "result missing item_ids": ("eval --results", _result_without("item_ids"),
                                "result missing field 'item_ids'"),
    "result missing marginals": ("eval --results", _result_without("marginals"),
                                 "result missing field 'marginals'"),
    "result missing objective": ("eval --results", _result_without("objective"),
                                 "result missing field 'objective'"),
    "result string exhausted": ("eval --results", _result(exhausted="no"), "exhausted"),
    "result nested too deeply": ("eval --results", '{"user_id": ' + "[" * 100_000 + "]" * 100_000 + "}",
                                 "malformed JSON (nested too deeply)"),
    "behavior list item id": ("cluster --behaviors", _event(item_ids=[["a"]]), "entry 0: item_id"),
    "behavior int user id": ("cluster --behaviors", _event(user_id=3), "user_id"),
    "behavior list ts": ("cluster --behaviors", _event(ts=[[1]]), TS_RULE),
    "behavior float ts": ("cluster --behaviors", _event(ts=[1.9]), TS_RULE),
    "behavior bool ts": ("cluster --behaviors", _event(ts=[True]), TS_RULE),
    "behavior negative ts": ("cluster --behaviors", _event(ts=[-1]), TS_RULE),
    "behavior ts past int64": ("cluster --behaviors", _event(ts=[2**63]), TS_RULE),
    "behavior missing ts": ("cluster --behaviors", {"user_id": "u1", "item_ids": ["i1"]},
                            "behavior line missing field 'ts'"),
    "behavior bool label": ("cluster --behaviors", _event(labels=[True]), LABEL_RULE),
    "behavior float label": ("cluster --behaviors", _event(labels=[1.0]), LABEL_RULE),
    "behavior list label": ("cluster --behaviors", _event(labels=[[1]]), LABEL_RULE),
    "behavior object label": ("cluster --behaviors", _event(labels=[{}]), LABEL_RULE),
    "behavior two objects on one line": ("cluster --behaviors",
                                         json.dumps(_event()) + json.dumps(_event()),
                                         "Extra data"),
    "behavior item_ids not a list": ("cluster --behaviors", _event(item_ids="i1"),
                                     "item_ids must be a list"),
    "behavior ts not a list": ("cluster --behaviors", _event(ts=1),
                               "ts must be a list of 1 entries, one per item id"),
    "behavior short ts": ("cluster --behaviors", _event(item_ids=["i1", "i2"], ts=[1], labels=[1, 0]),
                          "ts must be a list of 2 entries"),
    "behavior short labels": ("cluster --behaviors", _event(item_ids=["i1", "i2"], ts=[1, 2]),
                              "labels must be a list of 2 entries"),
    "behavior null labels": ("cluster --behaviors", _event(labels=None),
                             "labels must be a list of 1 entries"),
    "behavior third entry's ts": ("cluster --behaviors",
                                  _event(item_ids=["i1", "i2", "i3"], ts=[1, 2, "3"], labels=[1, 0, None]),
                                  "entry 2: " + TS_RULE),
    "label list item id": ("eval --labels", _judgment(item_ids=[["a"]]), "item_id"),
    "label list user id": ("eval --labels", _judgment(user_id=["u1"]), "user_id"),
    "label labels not a list": ("eval --labels", _judgment(labels=1),
                                "labels must be a list of 1 entries"),
    "label missing labels": ("eval --labels", {"user_id": "u1", "item_ids": ["i1"], "ts": [0]},
                             "label line missing field 'labels'"),
    "label bool label": ("eval --labels", _judgment(labels=[False]), LABEL_RULE),
    "label true label": ("eval --labels", _judgment(labels=[True]), LABEL_RULE),
    "label float label": ("eval --labels", _judgment(labels=[1.0]), LABEL_RULE),
    "label minus one": ("eval --labels", _judgment(labels=[-1]), LABEL_RULE),
    "label object label": ("eval --labels", _judgment(labels=[{}]), LABEL_RULE),
    "label item_ids not a list": ("eval --labels", _judgment(item_ids={"i1": 1}),
                                  "item_ids must be a list"),
    "label short labels": ("eval --labels", _judgment(item_ids=["i1", "i2"]),
                           "labels must be a list of 2 entries"),
    "label absent": ("eval --labels", _judgment(item_ids=["i1", "i2"], labels=[1, None]),
                     "entry 1: label line for (u1, i2) lacks a label"),
    "label null": ("eval --labels", _judgment(labels=[None]), "lacks a label"),
    # Only " \t\r\n" is JSON whitespace; str.strip() would also drop these.
    "label trailing form feed": ("eval --labels", json.dumps(_judgment()) + "\f", "Extra data"),
    "label leading nbsp": ("eval --labels", "\xa0" + json.dumps(_judgment()), "Expecting value"),
    "cluster float id": ("train-scorer --clusters", _cluster(cluster_id=1.9), CLUSTER_RULE),
    "cluster bool id": ("train-scorer --clusters", _cluster(cluster_id=True), CLUSTER_RULE),
    "cluster string id": ("train-scorer --clusters", _cluster(cluster_id="3"), CLUSTER_RULE),
    "cluster negative id": ("train-scorer --clusters", _cluster(cluster_id=-1), CLUSTER_RULE),
    "cluster int item id": ("train-scorer --clusters", _cluster(item_id=7), "item_id"),
    "cluster missing id": ("train-scorer --clusters", {"item_id": "i1"},
                           "missing field 'cluster_id'"),
    "profile int user id": ("rerank --profiles", _profile(user_id=5), "user_id"),
    "profile bool entry": ("rerank --profiles", _profile(h_macro=[True, 0.0]), "h_macro"),
    "profile string vector": ("rerank --profiles", _profile(h_micro="ab"), "h_micro"),
    "profile nan entry": ("rerank --profiles", _profile(h_macro=[float("nan"), 0.0]), "finite"),
    "profile missing vector": ("rerank --profiles", {"user_id": "u1", "h_macro": [1.0, 0.0]},
                               "missing field 'h_micro'"),
}


def stage_argv(stage, bad, root):
    """The argv of `stage` ("command --flag") reading `bad` at that flag.

    Every other input is valid (or empty), so `bad` holds the one error.
    """
    write_duplicate_fixture(root)
    empty = root / "empty.jsonl"
    empty.write_text("")
    command, flag = stage.split()
    inputs = {
        "rerank": {
            "--candidates": root / "candidates.jsonl",
            "--profiles": root / "profiles.jsonl",
            "--checkpoint": root / "checkpoint.json",
            "--out": root / "results.jsonl",
        },
        "eval": {
            "--results": empty,
            "--labels": empty,
            "--items": empty,
            "--out": root / "eval.csv",
        },
        "cluster": {
            "--items": empty,
            "--behaviors": empty,
            "--out": root / "clusters.jsonl",
        },
        "train-scorer": {
            "--items": empty,
            "--behaviors": empty,
            "--clusters": empty,
            "--out": root / "model",
        },
        "sweep": {
            "--candidates": root / "candidates.jsonl",
            "--labels": empty,
            "--profiles": root / "profiles.jsonl",
            "--checkpoint": root / "checkpoint.json",
            "--out": root / "sweep.csv",
        },
    }[command]
    inputs[flag] = bad
    return [command, *(str(part) for pair in inputs.items() for part in pair)]


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED_LINES))
    def test_malformed_line_is_one_error_line(self, case, tmp_path, capsys):
        stage, doc, fragment = MALFORMED_LINES[case]
        bad = tmp_path / "bad.jsonl"
        bad.write_text((doc if isinstance(doc, str) else json.dumps(doc)) + "\n", encoding="utf-8")
        assert run(*stage_argv(stage, bad, tmp_path)) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {bad}: line 1:")
        assert fragment in lines[0]

    @pytest.mark.parametrize(
        "stage, lines, expected",
        [
            ("eval --results", [_result(), _result()], "line 2: duplicate result for 'u1'"),
            # u1 sorts first, so its row index and its line number differ.
            ("eval --labels", [_judgment(user_id="u2"), _judgment(item_ids=["i1", "i2"], labels=[0, None])],
             "line 2: entry 1: label line for (u1, i2) lacks a label"),
            ("eval --labels", [_judgment(), _judgment(user_id="u2"), _judgment(item_ids=["i2"])],
             "line 3: duplicate label line for 'u1'"),
            ("cluster --behaviors", [_event(user_id="u2"), _event(), _event(ts=[2])],
             "line 3: duplicate behavior line for 'u1'"),
            ("cluster --behaviors", [_event(user_id="u2", item_ids=["i1", "i2"], ts=[4, 3], labels=[0, 1]),
                                     _event(item_ids=["i1", "i2"], ts=[2, -1], labels=[1, 1])],
             "line 2: entry 1: ts must be an integer >= 0, got -1"),
            ("rerank --candidates", [_line(_item()), _line(_item(item_id="i2"))],
             "line 2: duplicate candidate set for 'u1'"),
            ("rerank --profiles", [_profile(), _profile(h_macro=[0.0, 1.0])],
             "line 2: duplicate profile record for 'u1'"),
            ("train-scorer --clusters", [_cluster(), _cluster(cluster_id=2)],
             "line 2: duplicate cluster record for 'i1'"),
        ],
        ids=["duplicate result", "unlabelled label line", "second label line for a user",
             "second behavior line for a user", "bad entry of a later line", "second candidate set for a user",
             "second profile for a user", "second cluster line for an item"],
    )
    def test_bad_later_line_cites_its_line(self, stage, lines, expected, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
        assert run(*stage_argv(stage, bad, tmp_path)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {expected}"]

    def test_each_faulty_file_is_named(self, tmp_path, capsys):
        """`eval` reads three line files: the same bad line in each gives a
        different error, naming that file; so do a bad config and checkpoint,
        and a config, checkpoint, profile or candidate file whose content is
        at fault."""
        errors = []
        for flag in ("--results", "--labels", "--items"):
            bad = tmp_path / f"bad_{flag[2:]}.jsonl"
            bad.write_text("not json\n")
            assert run(*stage_argv(f"eval {flag}", bad, tmp_path)) == 1
            errors += capsys.readouterr().err.splitlines()
            assert errors[-1] == f"error: {bad}: line 1: malformed JSON (Expecting value)"
        assert len(errors) == len(set(errors)) == 3
        bad = tmp_path / "bad_config.json"
        bad.write_text('{"alpha": 1.0')
        assert run(*stage_argv("eval --config", bad, tmp_path)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: malformed config JSON (Expecting ',' delimiter)"
        ]
        bad = tmp_path / "bad_checkpoint.json"
        bad.write_text("[]")
        assert run(*stage_argv("rerank --checkpoint", bad, tmp_path)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: checkpoint must be a JSON object"]
        # Well-formed files whose content is at fault name their file too.
        doc = json.loads((write_duplicate_fixture(tmp_path) / "checkpoint.json").read_text())
        no_b2 = dict(doc, tensors=[t for t in doc["tensors"] if t["name"] != "scorer.mlp_b2"])
        cases = [
            ("eval --config", {"bogus": 1}, "unknown config fields: bogus"),
            ("eval --config", {"alpha": -1}, "alpha must be >= 0"),
            ("rerank --checkpoint", dict(doc, version=2), "unsupported checkpoint version 2"),
            ("rerank --checkpoint", dict(doc, version=True), "unsupported checkpoint version True"),
            ("rerank --checkpoint", dict(doc, version=1.0), "unsupported checkpoint version 1.0"),
            ("rerank --checkpoint", dict(doc, tensors=doc["tensors"] + [doc["tensors"][0]]),
             f"malformed checkpoint tensor ({doc['tensors'][0]['name']} appears twice)"),
            ("rerank --checkpoint", no_b2, "checkpoint missing tensors: mlp_b2"),
            ("rerank --profiles", _profile(h_macro=[1.0] * 3, h_micro=[1.0] * 3),
             "profile u1: dim 3 != checkpoint dim 2"),
            ("rerank --candidates", _line(_item(embedding=[1.0] * 3)),
             "candidate set u1: embedding dim 3 != checkpoint dim 2"),
        ]
        for case, (stage, content, message) in enumerate(cases):
            bad = tmp_path / f"bad_content_{case}.json"
            bad.write_text(json.dumps(content) + "\n")
            assert run(*stage_argv(stage, bad, tmp_path)) == 1
            assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"]
        # So do the checks a stage makes after its readers return.  Each case
        # is the faulty file's lines, other inputs' lines, and the message.
        catalog = [{"item_id": "a", "embedding": [0.0, 0.0]}, {"item_id": "i1", "embedding": [1.0, 0.0]}]
        pair = _result(item_ids=["a", "i1"], scores=[0.5] * 2, log_d2=[0.0] * 2, marginals=[0.5] * 2)
        zero_norm = "ilad is undefined for zero-norm embeddings"
        cases = [
            ("eval --results", [_result(item_ids=["x"])], {}, "result u1: unknown item_id 'x'"),
            ("eval --items", catalog, {"--results": [pair]}, f"items of result u1: {zero_norm}"),
            ("sweep --candidates", [_line(_item(embedding=[0.0, 0.0]), _item(item_id="i2"))], {},
             f"candidate set u1: {zero_norm}"),
            ("sweep --candidates", [], {}, "no candidate sets to sweep over"),
            ("train-scorer --items", [], {"--behaviors": [_event()]}, "embedding table is empty"),
            ("cluster --behaviors", [], {}, "no behavior events to cluster on"),
            ("train-scorer --behaviors", [], {}, "no behavior events to train on"),
            ("train-scorer --behaviors", [_event(labels=[None])], {"--items": catalog},
             "no labeled impressions to train on"),
            ("train-scorer --behaviors", [_event()], {"--items": catalog},
             "training labels are degenerate (single class)"),
        ]
        for case, (stage, lines, others, message) in enumerate(cases):
            bad = tmp_path / f"bad_stage_{case}.jsonl"
            bad.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
            argv = stage_argv(stage, bad, tmp_path)
            for flag, other_lines in others.items():
                other = tmp_path / f"other_{case}{flag}.jsonl"
                other.write_text("".join(json.dumps(doc) + "\n" for doc in other_lines))
                argv[argv.index(flag) + 1] = str(other)
            assert run(*argv) == 1
            assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"], stage

    @pytest.mark.parametrize("flag", ["--results", "--config"])
    def test_non_utf8_file_is_one_error_line(self, flag, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"user_id": 1}\n')  # a UTF-16 byte-order mark first
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        inputs = {"--results": empty, "--labels": empty, "--items": empty, "--out": tmp_path / "eval.csv"}
        inputs[flag] = bad
        assert run("eval", *map(str, (part for pair in inputs.items() for part in pair))) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {bad}: not UTF-8 text (invalid start byte)"]

    @pytest.mark.parametrize(
        "case",
        ["no tensors", "not json", "nested too deeply", "data length", "head width", "shape not a pair",
         "nan data", "version true", "version float", "repeated tensor"],
    )
    def test_malformed_checkpoint_is_one_error_line(self, case, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        path = tmp_path / "checkpoint.json"
        doc = json.loads(path.read_text())
        entry = {e["name"]: e for e in doc["tensors"]}
        if case == "no tensors":
            doc = {"version": 1}
        elif case == "data length":
            entry["scorer.mlp_w1"]["data"].pop()
        elif case == "head width":  # (h, 1) instead of the two-logit (h, 2)
            w2 = entry["scorer.mlp_w2"]
            w2["shape"][1] = 1
            w2["data"] = w2["data"][: w2["shape"][0]]
        elif case == "shape not a pair":
            entry["scorer.mlp_b2"]["shape"] = [2]
        elif case == "nan data":
            entry["scorer.w1_prev"]["data"][0] = float("nan")
        elif case in ("version true", "version float"):
            doc["version"] = True if case == "version true" else 1.0
        elif case == "repeated tensor":  # a zeroed second copy: keeping the last one changes every score
            doc["tensors"].append(dict(entry["scorer.mlp_b1"], data=[0.0] * len(entry["scorer.mlp_b1"]["data"])))
        text = {"not json": "not json", "nested too deeply": "[" * 100_000 + "]" * 100_000}
        path.write_text(text.get(case) or json.dumps(doc))
        code = run(
            "rerank",
            "--candidates", str(tmp_path / "candidates.jsonl"),
            "--profiles", str(tmp_path / "profiles.jsonl"),
            "--checkpoint", str(path),
            "--out", str(tmp_path / "results.jsonl"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {path}: ")

    @pytest.mark.parametrize("stage", ["rerank", "sweep"])
    @pytest.mark.parametrize("case", ["string number", "boolean", "nested lists"])
    def test_non_number_tensor_data_is_one_error_line(self, case, stage, tmp_path, capsys):
        # numpy would read each of these as a float; the checkpoint must not.
        write_duplicate_fixture(tmp_path)
        path = tmp_path / "checkpoint.json"
        doc = json.loads(path.read_text())
        entry = next(e for e in doc["tensors"] if e["name"] == "scorer.mlp_b2")
        if case == "string number":
            entry["data"][0] = "0.5"
        elif case == "boolean":
            entry["data"][0] = True
        else:
            entry["data"] = [[v] for v in entry["data"]]
        path.write_text(json.dumps(doc))
        labels = tmp_path / "labels.jsonl"
        labels.write_text("")
        argv = [
            stage,
            "--candidates", tmp_path / "candidates.jsonl",
            "--profiles", tmp_path / "profiles.jsonl",
            "--checkpoint", path,
            "--out", tmp_path / "out",
        ] + (["--labels", labels] if stage == "sweep" else [])
        assert run(*map(str, argv)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: malformed checkpoint tensor (scorer.mlp_b2 data must be a list of 2 numbers)"
        ]

    @pytest.mark.parametrize("field", ["cluster_id", "base_score"])
    def test_unread_catalog_field_is_ignored(self, field, tmp_path, capsys):
        items = tmp_path / "items.jsonl"
        items.write_text(json.dumps({"item_id": "i1", "embedding": [1.0, 0.0], field: "x"}) + "\n")
        behaviors = tmp_path / "behaviors.jsonl"
        behaviors.write_text(json.dumps({"user_id": "u1", "item_ids": ["i1"], "ts": [1]}) + "\n")
        argv = ["cluster", "--items", items, "--behaviors", behaviors,
                "--out", tmp_path / "clusters.jsonl"]
        assert run(*map(str, argv)) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("stage", ["rerank", "sweep"])
    @pytest.mark.parametrize("source", ["candidates", "profiles"])
    def test_dim_mismatch_with_checkpoint_is_one_error_line(self, source, stage, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)  # checkpoint dim 2
        if source == "candidates":
            cands = CandidateSet("u1", ("i1",), np.ones((1, 3)), np.array([0.5]))
            save_candidates(tmp_path / "candidates.jsonl", [cands])
            expected = f"{tmp_path / 'candidates.jsonl'}: candidate set u1: embedding dim 3 != checkpoint dim 2"
        else:
            profile = InterestProfile("u1", np.ones(3), np.ones(3))
            save_profiles(tmp_path / "profiles.jsonl", {"u1": profile})
            expected = f"{tmp_path / 'profiles.jsonl'}: profile u1: dim 3 != checkpoint dim 2"
        argv = [
            stage,
            "--candidates", tmp_path / "candidates.jsonl",
            "--profiles", tmp_path / "profiles.jsonl",
            "--checkpoint", tmp_path / "checkpoint.json",
            "--out", tmp_path / "out",
        ]
        if stage == "sweep":
            labels = tmp_path / "labels.jsonl"
            labels.write_text("")
            argv += ["--labels", labels]
        assert run(*map(str, argv)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {expected}"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("k", "10"),
            ("k", True),
            ("k", 2.0),
            ("alpha", "1"),
            ("alpha", False),
            ("jitter", None),
            ("b_item", None),
            ("normalize_embeddings", 1),
        ],
    )
    def test_wrong_config_type_is_one_error_line(self, field, value, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        code = run(
            "rerank",
            "--candidates", str(tmp_path / "candidates.jsonl"),
            "--profiles", str(tmp_path / "profiles.jsonl"),
            "--checkpoint", str(tmp_path / "checkpoint.json"),
            "--out", str(tmp_path / "results.jsonl"),
            "--config", str(cfg),
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {cfg}: {field} must be of type")

    def test_float_field_past_float64_is_one_error_line(self, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": HUGE}))
        argv = ["rerank", "--candidates", tmp_path / "candidates.jsonl",
                "--profiles", tmp_path / "profiles.jsonl",
                "--checkpoint", tmp_path / "checkpoint.json",
                "--out", tmp_path / "results.jsonl", "--config", cfg]
        assert run(*map(str, argv)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {cfg}: alpha ")
        assert not (tmp_path / "results.jsonl").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("negative_exponent_kernels", True), ("time_buckets", 16), ("a_l", 1.0), ("a_s", 1.0), ("a_item", 1.0)],
    )
    def test_removed_config_field_is_unknown(self, field, value, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        argv = ["rerank", "--candidates", tmp_path / "candidates.jsonl",
                "--profiles", tmp_path / "profiles.jsonl",
                "--checkpoint", tmp_path / "checkpoint.json",
                "--out", tmp_path / "results.jsonl", "--config", cfg]
        assert run(*map(str, argv)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {cfg}: unknown config fields: {field}"]
        assert not (tmp_path / "results.jsonl").exists()


class TestBadTrainingArguments:
    """Each bad value exits with one error line before any file is written."""

    @pytest.mark.parametrize(
        "flag, value, code, expected",
        [
            ("--hidden", "0", 1, "error: hidden must be >= 1, got 0"),
            ("--lr", "nan", 1, "error: lr must be finite and >= 0, got nan"),
            ("--lr", "inf", 1, "error: lr must be finite and >= 0, got inf"),
            ("--lr", "-1", 1, "error: lr must be finite and >= 0, got -1.0"),
            ("--lr", "1e308", 3, "numerical error: training diverged in epoch 0"),
            ("--epochs", "0", 1, "error: epochs must be >= 1"),
            ("--batch-size", "0", 1, "error: batch_size must be >= 1"),
            ("--reduction", "0", 1, "error: reduction must be >= 1"),
        ],
    )
    def test_train_scorer_flag(self, flag, value, code, expected, pipeline, tmp_path, capsys):
        fix = pipeline["fix"]
        out = tmp_path / "model"
        assert run(
            "train-scorer",
            "--items", str(fix / "items.jsonl"),
            "--behaviors", str(fix / "behaviors.jsonl"),
            "--clusters", str(fix / "clusters.jsonl"),
            "--out", str(out),
            "--epochs", "2",
            flag, value,
        ) == code
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(expected)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--heads", "--time-dim"])
    def test_removed_interest_flag_is_one_error_line(self, flag, pipeline, tmp_path, capsys):
        fix = pipeline["fix"]
        out = tmp_path / "model"
        assert run(
            "train-scorer",
            "--items", str(fix / "items.jsonl"),
            "--behaviors", str(fix / "behaviors.jsonl"),
            "--clusters", str(fix / "clusters.jsonl"),
            "--out", str(out),
            flag, "2",
        ) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: unrecognized arguments: {flag} 2"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [("synth", "--noise", "nan"), ("synth", "--sharpness", "nan"), ("synth", "--score-noise", "inf"),
         ("rerank", "--alpha", "inf")],
    )
    def test_non_finite_option_is_named_as_such(self, command, flag, value, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        out = tmp_path / "out"
        inputs = {"synth": [], "rerank": [
            "--candidates", tmp_path / "candidates.jsonl",
            "--profiles", tmp_path / "profiles.jsonl",
            "--checkpoint", tmp_path / "checkpoint.json",
        ]}[command]
        assert run(*map(str, [command, *inputs, "--out", out, flag, value])) == 1
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.splitlines() == [f"error: {name} must be finite, got {value}"]
        assert not out.exists()

    @pytest.mark.parametrize("alphas, bad", [("0,x", "'x'"), ("0, 1e ,2", "'1e'"), ("one", "'one'")])
    def test_sweep_alpha_that_is_not_a_number(self, alphas, bad, tmp_path, capsys):
        write_duplicate_fixture(tmp_path)
        code = run(
            "sweep",
            "--candidates", str(tmp_path / "candidates.jsonl"),
            "--labels", str(tmp_path / "candidates.jsonl"),
            "--profiles", str(tmp_path / "profiles.jsonl"),
            "--checkpoint", str(tmp_path / "checkpoint.json"),
            "--out", str(tmp_path / "sweep.csv"),
            "--alphas", alphas,
        )
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: --alphas entry {bad} is not a number"]
        assert not (tmp_path / "sweep.csv").exists()

    def test_overflowing_catalog_row_is_not_blamed_on_the_learning_rate(self, tmp_path, capsys):
        # One finite 1e200 entry makes the loss NaN at the initial weights,
        # where no learning rate has acted yet.
        fix, out = tmp_path / "fix", tmp_path / "model"
        assert run("synth", "--out", str(fix), "--seed", "3",
                   "--items-per-cluster", "5", "--candidates-per-user", "20") == 0
        items = fix / "items.jsonl"
        first, *rest = items.read_text().splitlines()
        doc = json.loads(first)
        doc["embedding"][0] = 1e200
        items.write_text("".join(line + "\n" for line in (json.dumps(doc), *rest)))
        flags = ["--items", str(items), "--behaviors", str(fix / "behaviors.jsonl")]
        assert run("cluster", *flags, "--out", str(fix / "clusters.jsonl")) == 0
        capsys.readouterr()
        assert run("train-scorer", *flags, "--clusters", str(fix / "clusters.jsonl"), "--out", str(out)) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical error: training diverged in epoch 0 (loss nan at lr=0.1); the scorer's inputs "
            "(item embeddings or interest vectors) overflow at its initial weights; rescale or normalize the catalog"
        ]
        assert not out.exists()

    def test_learning_rate_advice_stays_when_the_initial_loss_is_finite(self, pipeline, tmp_path, capsys):
        fix = pipeline["fix"]
        assert run("train-scorer", "--items", str(fix / "items.jsonl"), "--behaviors", str(fix / "behaviors.jsonl"),
                   "--clusters", str(fix / "clusters.jsonl"), "--out", str(tmp_path / "model"),
                   "--epochs", "2", "--lr", "1e308") == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.endswith("; lower the learning rate")



@pytest.mark.parametrize("module", ["diverank", "diverank.cli"])
def test_python_dash_m_entry_point(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", module, "--version"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "diverank 0.1.0"


# Options a stage accepts without reading, each with the reason it stays.
IGNORED_OPTIONS = {
    ("cluster", "seed"): "bench/run.py passes --seed to every seeded stage, cluster included",
}


def test_every_option_is_read_by_its_stage():
    """A flag its stage never reads silently does nothing; only the listed
    exceptions may exist."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unread = set()
    for command, sub in subparsers.choices.items():
        func = sub.get_default("func")
        source = inspect.getsource(func)
        # Helpers handed the whole namespace, such as _load_experiment_config.
        for helper in re.findall(r"(\w+)\(args\)", source):
            source += inspect.getsource(getattr(cli, helper))
        read = set(re.findall(r"args\.(\w+)", source))
        read |= set(re.findall(r"getattr\(args, \"(\w+)\"", source))
        for action in sub._actions:
            if action.option_strings and action.dest not in ("help", "func"):
                if action.dest not in read:
                    unread.add((command, action.dest))
    assert unread == set(IGNORED_OPTIONS)


def test_every_synthetic_spec_field_is_a_synth_option():
    """A spec field with no `synth` option can be set by no caller; each
    option's default is the field's."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    defaults = {a.dest: a.default for a in subparsers.choices["synth"]._actions if a.dest not in ("help", "out")}
    assert defaults == {f.name: f.default for f in fields(SyntheticSpec)}


def test_every_config_field_is_read():
    """A config field no stage reads silently does nothing.  data.py only
    declares, checks and loads the fields, so its reads do not count."""
    package = Path(cli.__file__).parent
    source = "".join(
        path.read_text(encoding="utf-8")
        for path in sorted(package.glob("*.py"))
        if path.name != "data.py"
    )
    read = set(re.findall(r"\bcfg\w*\.(\w+)", source))
    assert {f.name for f in fields(ExperimentConfig)} - read == set()
