"""The whole system, stage by stage, through the command interface.

synthetic world -> interaction clustering -> scorer training and
profile building -> kernel + greedy re-ranking -> evaluation.  Every
stage reads and writes plain JSONL/CSV files, so each hand-off is
inspectable, and the same seed reproduces every byte.

Run: python3 demos/07_full_pipeline.py
"""

import csv
import json
import tempfile
from pathlib import Path

from diverank import cli


def section(title):
    print("\n" + "-" * 64)
    print(title)
    print("-" * 64)


def peek(path, n=2, label=None):
    print(f"  {label or path.name}:")
    with open(path) as fh:
        for i, line in enumerate(fh):
            if i >= n:
                print("    ...")
                break
            text = line.rstrip()
            if len(text) > 96:
                text = text[:93] + "..."
            print(f"    {text}")


def peek_user_line(path, n=4):
    """The first line of a one-line-per-user file, each list cut to `n` entries."""
    with open(path) as fh:
        doc = json.loads(fh.readline())
    fields = []
    for key, value in doc.items():
        text = json.dumps(value[:n] if isinstance(value, list) else value)
        if isinstance(value, list) and len(value) > n:
            text = f"{text[:-1]}, ... {len(value)} in all]"
        fields.append(f'"{key}": {text}')
    print(f"  {path.name} (one line per user, aligned lists):")
    print("    {" + ",\n     ".join(fields) + "}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        fix = root / "fix"
        model = root / "model"

        section("1. synth: a seeded world with known structure")
        cli.main(["synth", "--out", str(fix), "--seed", "0"])
        peek(fix / "items.jsonl")
        peek_user_line(fix / "behaviors.jsonl")
        peek_user_line(fix / "labels.jsonl")

        section("2. cluster: interaction graph -> item communities")
        cli.main([
            "cluster",
            "--items", str(fix / "items.jsonl"),
            "--behaviors", str(fix / "behaviors.jsonl"),
            "--out", str(fix / "clusters.jsonl"),
        ])
        peek(fix / "clusters.jsonl", n=3)

        section("3. train-scorer: impressions -> model + profiles")
        cli.main([
            "train-scorer",
            "--items", str(fix / "items.jsonl"),
            "--behaviors", str(fix / "behaviors.jsonl"),
            "--clusters", str(fix / "clusters.jsonl"),
            "--out", str(model),
        ])
        peek(model / "training_log.csv", n=3)
        peek(model / "profiles.jsonl", n=1)

        section("4. rerank: kernels + greedy selection per user")
        cli.main([
            "rerank",
            "--candidates", str(fix / "candidates.jsonl"),
            "--profiles", str(model / "profiles.jsonl"),
            "--checkpoint", str(model / "checkpoint.json"),
            "--out", str(root / "results.jsonl"),
            "--alpha", "1.0",
        ])
        peek(root / "results.jsonl", n=1)
        with open(root / "results.jsonl.diag.csv") as fh:
            diag = next(csv.DictReader(fh))
        print(f"  first user diagnostics: {diag['n_candidates']} candidates "
              f"-> {diag['n_selected']} picks, objective {float(diag['objective']):.3f}, "
              f"exhausted={diag['exhausted']}")

        section("5. eval: ranking quality and spread per user")
        cli.main([
            "eval",
            "--results", str(root / "results.jsonl"),
            "--labels", str(fix / "labels.jsonl"),
            "--items", str(fix / "items.jsonl"),
            "--out", str(root / "eval.csv"),
        ])
        with open(root / "eval.csv") as fh:
            rows = list(csv.DictReader(fh))
        mean = next(r for r in rows if r["user_id"] == "__mean__")
        print(f"  users evaluated: {len(rows) - 1}")
        print(f"  mean nDCG@10 {float(mean['ndcg_at_10']):.4f}, "
              f"mean ILAD {float(mean['ilad']):.4f}")

        section("6. Same seed, same bytes")
        cli.main([
            "rerank",
            "--candidates", str(fix / "candidates.jsonl"),
            "--profiles", str(model / "profiles.jsonl"),
            "--checkpoint", str(model / "checkpoint.json"),
            "--out", str(root / "results_again.jsonl"),
            "--alpha", "1.0",
        ])
        a = (root / "results.jsonl").read_bytes()
        b = (root / "results_again.jsonl").read_bytes()
        print("two rerank runs byte-identical:", a == b)
        doc = json.loads(a.splitlines()[0])
        print(f"first user's list: {doc['item_ids'][:5]} ... "
              f"({len(doc['item_ids'])} items)")


if __name__ == "__main__":
    main()
