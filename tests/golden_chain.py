"""The golden chain: the ten pipeline commands on one small config, in process,
and the sha256 of each of their 29 outputs.

    python tests/golden_chain.py                 # check, printing the mode it ran in
    python tests/golden_chain.py --determinism   # that check, whatever the environment
    python tests/golden_chain.py --write         # rewrite tests/golden_chain.json

`--write` prints the names of the outputs whose digest differs from the
record it replaces (or `none`), so a rewritten record shows what changed.

The record holds each output's digest and the environment it was made in
(`environment()`).  Where the running environment is the record's, the check
is exact: every output must match its recorded digest.  Elsewhere, where
numpy or BLAS may round differently, the check is determinism: two runs must
give the same bytes, and `--threads 1` the bytes of `--threads 2`.  The
script imports whichever `pearl` is on the path, an installed one included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from pearl.cli import main as pearl

RECORD = Path(__file__).with_name("golden_chain.json")
SEED = 0
CONFIG = {
    "synth": {
        "n_spots": 48,
        "n_genes": 30,
        "n_pathways": 3,
        "n_slides": 2,
        "d_img": 6,
        "n_subjects": 12,
        "embed_dim": 8,
    },
    "preprocess": {"min_spots_per_gene": 2, "top_hvg": 10},
    "ssgsea": {"null_sets": 3},
    "train": {"batch_size": 8, "max_epochs": 2, "patience": 1},
    "model": {
        "n_heads": 2,
        "d_k": 2,
        "phi_hidden": 4,
        "proj_hidden": 8,
        "head_hidden": 8,
        "embed_dim": 8,
    },
    "survival": {"max_epochs": 5, "patience": 3},
}


def run_chain(out, threads=2):
    """Run the ten commands, every output in the directory `out` and the config
    file beside it, whose path is returned; `threads` is score-pathways' and
    run-cv's --threads."""
    out = Path(out)
    config = out.with_name(out.name + ".config.json")
    config.write_text(json.dumps(CONFIG))

    def at(name):
        return str(out / name)

    seeded = ["--config", str(config), "--seed", str(SEED), "--out-dir", str(out)]
    threaded = [*seeded, "--threads", str(threads)]
    dataset = ["--scores", at("scores.tsv"), "--coords", at("coords.csv"),
               "--features", at("features.tsv"), "--hvg", at("hvg.tsv")]
    cohort = ["--survival", at("survival.csv"), "--embeddings", at("survival_embeddings.tsv")]
    for argv in (
        ["synth", *seeded],
        ["preprocess", "--config", str(config), "--out-dir", str(out),
         "--expression", at("expression.tsv"), "--coords", at("coords.csv")],
        ["score-pathways", *threaded, "--expression", at("normalized.tsv"),
         "--gene-sets", at("gene_sets.gmt")],
        ["train-contrastive", *seeded, *dataset],
        ["train-heads", *seeded, "--checkpoint", at("stage1"), *dataset],
        ["predict", "--out-dir", str(out), "--checkpoint", at("final"),
         "--features", at("features.tsv"), "--coords", at("coords.csv"), "--emit-embeddings"],
        ["evaluate", "--out-dir", str(out), "--pred", at("yhat_path.tsv"),
         "--truth", at("scores.tsv")],
        ["survival-train", *seeded, *cohort],
        ["survival-eval", "--out-dir", str(out), "--checkpoint", at("cox"), *cohort],
        ["run-cv", *threaded, "--folds", "2", "--expression", at("expression.tsv"),
         "--coords", at("coords.csv"), "--gene-sets", at("gene_sets.gmt"),
         "--features", at("features.tsv")],
    ):
        if pearl(argv) != 0:
            raise RuntimeError(f"pearl {argv[0]} exited 1; its error is on stderr")
    return config


def digests(out):
    """{file name: sha256 hex digest} of every file in the directory `out`."""
    files = sorted(Path(out).iterdir())
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def mismatches(expected, actual):
    """Sorted names of the files whose digest differs, or that one side lacks."""
    return sorted(n for n in expected.keys() | actual.keys() if expected.get(n) != actual.get(n))


def environment():
    """What the chain's bytes may depend on besides pearl: the Python, numpy
    and BLAS versions, and the CPU features numpy picks its loops by."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        blas = "unknown"
    core = np._core if hasattr(np, "_core") else np.core  # numpy 2, numpy 1
    features = getattr(core._multiarray_umath, "__cpu_features__", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, on in features.items() if on),
    }


def check_exact(root):
    """Names of the outputs whose digest is not the record's."""
    out = Path(root) / "chain"
    run_chain(out)
    return mismatches(json.loads(RECORD.read_text())["files"], digests(out))


def check_determinism(root):
    """Names of the outputs that differ between two `--threads 2` runs or
    between `--threads 1` and `--threads 2`."""
    runs = {}
    for name, threads in (("first", 2), ("second", 2), ("one_thread", 1)):
        run_chain(Path(root) / name, threads)
        runs[name] = digests(Path(root) / name)
    return sorted(set(mismatches(runs["first"], runs["second"]))
                  | set(mismatches(runs["first"], runs["one_thread"])))


def mode():
    """'exact' where this environment is the record's, else 'determinism'."""
    recorded = json.loads(RECORD.read_text())["environment"]
    return "exact" if recorded == environment() else "determinism"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    choice = parser.add_mutually_exclusive_group()
    choice.add_argument("--determinism", action="store_true")
    choice.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as root:
        if args.write:
            run_chain(Path(root) / "chain")
            record = {"environment": environment(), "files": digests(Path(root) / "chain")}
            old = json.loads(RECORD.read_text())["files"] if RECORD.exists() else {}
            changed = mismatches(old, record["files"])
            RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
            print(f"wrote {len(record['files'])} digests to {RECORD}; "
                  f"changed: {', '.join(changed) or 'none'}")
            return 0
        chosen = "determinism" if args.determinism else mode()
        bad = (check_exact if chosen == "exact" else check_determinism)(root)
    print(f"golden chain, {chosen} mode: " + (f"differ: {', '.join(bad)}" if bad else "all equal"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
