"""The benchmark's three workloads: seeded inputs, the pearl CLI calls each
one makes, and the checks on their outputs.

Run as a script, this module generates one workload's input files; that is
the set-up step the benchmark times (imports, generation and writing):

    PYTHONPATH=src python3 perfbench/workloads.py <workload> <seed> <input dir>

The pearl CLI only ever sees the files written here.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

# -- sizes ------------------------------------------------------------------

# score-panel: expression I/O, preprocessing and ssGSEA
PANEL_SPOTS = 300
PANEL_GENES = 300
PANEL_PATHWAYS = 20
PANEL_MIN_SPOTS = 50
PANEL_HVG = 100
PANEL_DECOY_SIZES = [int(k) for k in np.linspace(5, 80, 20).round()]
PANEL_NULL_SETS = 30
PANEL_ALPHA = 0.75  # ssGSEA weight exponent
PANEL_ORACLE_SPOTS = 4
NES_TOLERANCE = 1e-12  # the bound of acceptance criterion 2

# train-infer: transformer training on two slides, inference on the rest
TI_SLIDES = 12
TI_TRAIN_SLIDES = 2
TI_SPOTS_PER_SLIDE = 200
TI_GENES = 200
TI_PATHWAYS = 20
TI_HVG = 100
TI_D_IMG = 64
TI_EPOCHS = 4
TI_EMBED_DIM = 256  # the ModelConfig default
PATH_PCC_FLOOR = 0.5

# cohort: Cox head on variable-size bags of spot embeddings
COHORT_SUBJECTS = 240
COHORT_EMBED_DIM = 256
COHORT_BAG_SIZES = (4, 48)
COHORT_EPOCHS = 20
COHORT_RISK_STRENGTH = 5.0
C_INDEX_FLOOR = 0.55


class CheckFailed(Exception):
    """An output of a CLI call is missing, malformed or wrong."""


@dataclass
class Call:
    """One pearl subcommand with its arguments and the check of its outputs.

    `inputs` lists the files the call reads (for byte counts); `check(out)`
    raises CheckFailed or returns a dict of named quality values.
    """

    command: str
    args: list
    inputs: list
    check: object
    full_check: object = None  # slower check, run once per benchmark run


# -- small independent readers for checking outputs --------------------------


def _read_table(path, first_col, sep="\t"):
    """(row ids, column names, float matrix) of a table whose first
    `first_col` columns are labels."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(sep)
            ids, rows = [], []
            for line in fh:
                fields = line.rstrip("\n").split(sep)
                ids.append(fields[0])
                rows.append([float(v) for v in fields[first_col:]])
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{os.path.basename(path)}: {exc}") from None
    values = np.array(rows, dtype=np.float64)
    if values.ndim != 2 or not np.all(np.isfinite(values)):
        raise CheckFailed(f"{os.path.basename(path)}: ragged or non-finite table")
    return ids, header[first_col:], values


def _expect_shape(path, shape, first_col=1, sep="\t"):
    ids, cols, values = _read_table(path, first_col, sep)
    if values.shape != shape:
        raise CheckFailed(f"{os.path.basename(path)}: shape {values.shape}, expected {shape}")
    return ids, cols, values


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{os.path.basename(path)}: {exc}") from None


def _expect_files(out, names):
    for name in names:
        if not os.path.isfile(os.path.join(out, name)):
            raise CheckFailed(f"missing output {name}")


def _read_triplets(path):
    """{spot: {gene: value}} from a sparse-triplet expression TSV."""
    cells = {}
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline().rstrip("\n") != "spot\tgene\tvalue":
                raise CheckFailed(f"{os.path.basename(path)}: bad header")
            for line in fh:
                spot, gene, value = line.rstrip("\n").split("\t")
                cells.setdefault(spot, {})[gene] = float(value)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{os.path.basename(path)}: {exc}") from None
    return cells


def _read_gmt(path):
    """{set name: member genes} of a GMT file."""
    with open(path, encoding="utf-8") as fh:
        return {f[0]: set(f[2:]) for f in (ln.rstrip("\n").split("\t") for ln in fh if ln.strip())}


# -- brute-force ssGSEA oracle ------------------------------------------------


def oracle_es(values, member, alpha):
    """Running-sum enrichment score by walking the ranked list one gene at a time.

    `values` and `member` are in canonical (sorted gene id) order; genes are
    ranked by value descending, ties by canonical position, and the gene at
    0-based rank j carries weight (n - j) ** alpha.
    """
    n = len(values)
    ranked = sorted(range(n), key=lambda j: (-values[j], j))
    n_hit = sum(member)
    hit_norm = sum((n - pos) ** alpha for pos, j in enumerate(ranked) if member[j])
    hit_sum, miss_count, steps = 0.0, 0, []
    for pos, j in enumerate(ranked):
        if member[j]:
            hit_sum += (n - pos) ** alpha
        else:
            miss_count += 1
        steps.append(hit_sum / hit_norm - miss_count / (n - n_hit))
    return math.fsum(steps)


def oracle_nes(values, member, null_masks, alpha):
    null = [abs(oracle_es(values, list(mask), alpha)) for mask in null_masks]
    return oracle_es(values, member, alpha) / max(math.fsum(null) / len(null), 1e-12)


# -- score-panel -------------------------------------------------------------


def _panel_config():
    return {
        "preprocess": {"min_spots_per_gene": PANEL_MIN_SPOTS, "top_hvg": PANEL_HVG},
        "ssgsea": {"null_sets": PANEL_NULL_SETS, "weight_exponent": PANEL_ALPHA},
    }


def generate_score_panel(seed, d):
    from pearl import data_io, synthgen
    from pearl.data_io import GeneSet, GeneSetCollection

    t0 = time.perf_counter()
    expr, geoms, sets, _, _ = synthgen.gen_st_dataset(
        seed=seed, n_spots=PANEL_SPOTS, n_genes=PANEL_GENES, n_pathways=PANEL_PATHWAYS
    )
    gen_s = time.perf_counter() - t0
    # decoy sets: a fixed multiset of sizes in seeded order with seeded members,
    # so each seed does the same amount of work on different draws
    rng = np.random.default_rng(seed + 1)
    decoys = [
        GeneSet(
            f"DECOY{i:02d}",
            f"seeded decoy of {k} genes",
            frozenset(expr.gene_ids[j] for j in rng.choice(PANEL_GENES, size=k, replace=False)),
        )
        for i, k in enumerate(rng.permutation(PANEL_DECOY_SIZES))
    ]
    data_io.write_expression(expr, os.path.join(d, "expression.tsv"))
    data_io.write_coords(geoms, os.path.join(d, "coords.csv"))
    data_io.write_gmt(GeneSetCollection(sets.sets + decoys), os.path.join(d, "gene_sets.gmt"))
    _write_json(os.path.join(d, "config.json"), _panel_config())
    return gen_s


def calls_score_panel(seed, d, out):
    cfg = os.path.join(d, "config.json")
    n_sets = PANEL_PATHWAYS + len(PANEL_DECOY_SIZES)

    def check_preprocess():
        _expect_files(out, ["normalized.tsv", "hvg_genes.txt"])
        hvg = _read_triplets(os.path.join(out, "hvg.tsv"))
        n_genes = len({g for row in hvg.values() for g in row})
        if (len(hvg), n_genes) != (PANEL_SPOTS, PANEL_HVG):
            raise CheckFailed(f"hvg.tsv: {len(hvg)} spots x {n_genes} genes")

    def check_scores():
        _expect_shape(os.path.join(out, "scores.tsv"), (PANEL_SPOTS, n_sets))
        with open(os.path.join(out, "dropped_pathways.txt"), encoding="utf-8") as fh:
            if fh.read().strip():
                raise CheckFailed("score-pathways dropped a pathway")

    def oracle_check():
        """NES of a seeded sample of spots against the brute-force oracle."""
        from pearl.ssgsea import _null_masks

        spots, names, scores = _read_table(os.path.join(out, "scores.tsv"), 1)
        cells = _read_triplets(os.path.join(out, "normalized.tsv"))
        genes = sorted({g for row in cells.values() for g in row})
        sets = _read_gmt(os.path.join(d, "gene_sets.gmt"))
        rng = np.random.default_rng(seed + 2)
        worst = 0.0
        for si in rng.choice(len(spots), size=PANEL_ORACLE_SPOTS, replace=False):
            row = cells[spots[si]]
            values = [row.get(g, 0.0) for g in genes]
            for pi, name in enumerate(names):
                member = [g in sets[name] for g in genes]
                null = _null_masks(seed, sum(member), len(genes), PANEL_NULL_SETS)
                worst = max(worst, abs(scores[si, pi] - oracle_nes(values, member, null, PANEL_ALPHA)))
        if worst > NES_TOLERANCE:
            raise CheckFailed(f"NES differs from the oracle by {worst:.3e}")

    return [
        Call(
            "preprocess",
            ["--config", cfg, "--expression", f"{d}/expression.tsv", "--coords", f"{d}/coords.csv"],
            [cfg, f"{d}/expression.tsv", f"{d}/coords.csv"],
            check_preprocess,
        ),
        Call(
            "score-pathways",
            ["--config", cfg, "--seed", str(seed), "--threads", "2",
             "--expression", f"{out}/normalized.tsv", "--gene-sets", f"{d}/gene_sets.gmt"],
            [cfg, f"{out}/normalized.tsv", f"{d}/gene_sets.gmt"],
            check_scores,
            oracle_check,
        ),
    ]


# -- train-infer -------------------------------------------------------------


def _ti_config():
    # patience = max_epochs - 1 never stops early; with so few epochs the
    # learning rate is 10x the default so that the heads learn the signal
    return {"train": {"max_epochs": TI_EPOCHS, "patience": TI_EPOCHS - 1, "lr": 1e-3}}


def generate_train_infer(seed, d):
    from pearl import data_io, synthgen
    from pearl.data_io import (
        NORMALIZED_LOG, ExpressionMatrix, PatchFeatureMatrix, PathwayScoreMatrix)
    import scipy.sparse as sp

    t0 = time.perf_counter()
    expr, geoms, _, patch, activities = synthgen.gen_st_dataset(
        seed=seed,
        n_spots=TI_SLIDES * TI_SPOTS_PER_SLIDE,
        n_genes=TI_GENES,
        n_pathways=TI_PATHWAYS,
        noise_sigma=0.02,
        coupling=0.95,
        n_slides=TI_SLIDES,
        d_img=TI_D_IMG,
        activity_strength=2.0,
        activity_noise=0.1,
    )
    gen_s = time.perf_counter() - t0
    # scores are the planted activities and HVG values log-normalised counts,
    # so neither preprocessing nor ssGSEA runs in this workload
    counts = expr.matrix.toarray()
    lognorm = np.log1p(counts / counts.sum(axis=1, keepdims=True) * 1e4)
    hvg_cols = np.sort(np.argsort(-lognorm.var(axis=0), kind="stable")[:TI_HVG])
    train_slides = {f"slide{k}" for k in range(TI_TRAIN_SLIDES)}
    train = np.array([g.slide_id in train_slides for g in geoms])
    ids = np.array(expr.spot_ids)
    names = [f"PW{k:03d}" for k in range(TI_PATHWAYS)]

    def scores(mask):
        return PathwayScoreMatrix(list(ids[mask]), names, activities[mask])

    data_io.write_scores(scores(train), os.path.join(d, "train_scores.tsv"))
    data_io.write_scores(scores(~train), os.path.join(d, "heldout_truth.tsv"))
    data_io.write_expression(
        ExpressionMatrix(
            list(ids[train]),
            [expr.gene_ids[j] for j in hvg_cols],
            sp.csr_matrix(lognorm[train][:, hvg_cols]),
            NORMALIZED_LOG,
        ),
        os.path.join(d, "train_hvg.tsv"),
    )
    data_io.write_coords(geoms, os.path.join(d, "coords.csv"))
    data_io.write_features(
        PatchFeatureMatrix(list(ids[train]), patch.features[train]),
        os.path.join(d, "train_features.tsv"),
    )
    data_io.write_features(
        PatchFeatureMatrix(list(ids[~train]), patch.features[~train]),
        os.path.join(d, "heldout_features.tsv"),
    )
    _write_json(os.path.join(d, "config.json"), _ti_config())
    return gen_s


def calls_train_infer(seed, d, out):
    cfg = os.path.join(d, "config.json")
    n_held = (TI_SLIDES - TI_TRAIN_SLIDES) * TI_SPOTS_PER_SLIDE
    data = {
        "--scores": f"{d}/train_scores.tsv",
        "--coords": f"{d}/coords.csv",
        "--features": f"{d}/train_features.tsv",
        "--hvg": f"{d}/train_hvg.tsv",
    }
    data_args = [x for kv in data.items() for x in kv]
    common = ["--config", cfg, "--seed", str(seed)]

    def checkpoint(prefix):
        return [f"{out}/{prefix}.manifest.json", f"{out}/{prefix}.params.bin"]

    def check_stage(curve, ckpt):
        def check():
            _expect_files(out, [f"{ckpt}.manifest.json", f"{ckpt}.params.bin"])
            _expect_shape(f"{out}/{curve}", (TI_EPOCHS, 2), sep=",")

        return check

    def check_predict():
        _expect_shape(f"{out}/yhat_path.tsv", (n_held, TI_PATHWAYS))
        _expect_shape(f"{out}/yhat_gene.tsv", (n_held, TI_HVG))
        _expect_shape(f"{out}/embeddings.tsv", (n_held, TI_EMBED_DIM), first_col=2)

    def check_evaluate():
        report = _read_json(f"{out}/report.json")
        if report.get("n_spots") != n_held or report.get("n_targets") != TI_PATHWAYS:
            raise CheckFailed(f"report.json: unexpected shape {report}")
        pcc = report.get("mean_pcc")
        if not isinstance(pcc, float) or not pcc >= PATH_PCC_FLOOR:
            raise CheckFailed(f"held-out pathway PCC {pcc} below {PATH_PCC_FLOOR}")
        return {"path_pcc": pcc}

    return [
        Call(
            "train-contrastive",
            common + data_args,
            [cfg, *data.values()],
            check_stage("stage1_loss.csv", "stage1"),
        ),
        Call(
            "train-heads",
            common + ["--checkpoint", f"{out}/stage1"] + data_args,
            [cfg, *data.values(), *checkpoint("stage1")],
            check_stage("stage2_loss.csv", "final"),
        ),
        Call(
            "predict",
            ["--checkpoint", f"{out}/final", "--features", f"{d}/heldout_features.tsv",
             "--coords", f"{d}/coords.csv", "--emit-embeddings"],
            [*checkpoint("final"), f"{d}/heldout_features.tsv", f"{d}/coords.csv"],
            check_predict,
        ),
        Call(
            "evaluate",
            ["--pred", f"{out}/yhat_path.tsv", "--truth", f"{d}/heldout_truth.tsv"],
            [f"{out}/yhat_path.tsv", f"{d}/heldout_truth.tsv"],
            check_evaluate,
        ),
    ]


# -- cohort ------------------------------------------------------------------


def _cohort_config():
    return {"survival": {"max_epochs": COHORT_EPOCHS, "patience": COHORT_EPOCHS, "lr": 3e-2}}


def _write_embeddings(embeddings, slides, path):
    """Slide-embedding TSV as survival-train reads it, at float32 precision."""
    dim = next(iter(embeddings.values())).shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("spot_id\tslide_id\t" + "\t".join(f"e{j}" for j in range(dim)) + "\n")
        for slide in slides:
            for i, row in enumerate(embeddings[slide]):
                fh.write(f"{slide}_s{i}\t{slide}\t" + "\t".join(f"{v:.7g}" for v in row) + "\n")


def generate_cohort(seed, d):
    from pearl import data_io, synthgen
    from pearl.data_io import SurvivalTable

    lo, hi = COHORT_BAG_SIZES
    t0 = time.perf_counter()
    table, embeddings, _ = synthgen.gen_survival_cohort(
        seed=seed,
        n_subjects=COHORT_SUBJECTS,
        spots_per_slide=hi,
        embed_dim=COHORT_EMBED_DIM,
        risk_strength=COHORT_RISK_STRENGTH,
    )
    gen_s = time.perf_counter() - t0
    # bag sizes: a fixed multiset in seeded order, so the total spot count
    # (and with it the work) is the same for every seed
    rng = np.random.default_rng(seed + 1)
    sizes = rng.permutation(np.linspace(lo, hi, COHORT_SUBJECTS).round().astype(int))
    for row, k in zip(table.rows, sizes):
        slide = row.slide_ids[0]
        embeddings[slide] = embeddings[slide][:k]
    n_train = 2 * COHORT_SUBJECTS // 3
    for name, rows in (("train", table.rows[:n_train]), ("heldout", table.rows[n_train:])):
        data_io.write_survival(SurvivalTable(rows), os.path.join(d, f"{name}_survival.csv"))
        _write_embeddings(
            embeddings, [r.slide_ids[0] for r in rows], os.path.join(d, f"{name}_embeddings.tsv")
        )
    _write_json(os.path.join(d, "config.json"), _cohort_config())
    return gen_s


def calls_cohort(seed, d, out):
    cfg = os.path.join(d, "config.json")
    n_heldout = COHORT_SUBJECTS - 2 * COHORT_SUBJECTS // 3
    train = [f"{d}/train_survival.csv", f"{d}/train_embeddings.tsv"]
    heldout = [f"{d}/heldout_survival.csv", f"{d}/heldout_embeddings.tsv"]

    def check_train():
        _expect_files(out, ["cox.manifest.json", "cox.params.bin"])
        _expect_shape(f"{out}/cox_loss.csv", (COHORT_EPOCHS, 1), sep=",")

    def check_eval():
        report = _read_json(f"{out}/survival_report.json")
        ci = report.get("c_index")
        if report.get("n_subjects") != n_heldout:
            raise CheckFailed(f"survival_report.json: unexpected {report}")
        if not isinstance(ci, float) or not ci >= C_INDEX_FLOOR:
            raise CheckFailed(f"held-out C-index {ci} below {C_INDEX_FLOOR}")
        return {"c_index": ci}

    return [
        Call(
            "survival-train",
            ["--config", cfg, "--seed", str(seed), "--survival", train[0], "--embeddings", train[1]],
            [cfg, *train],
            check_train,
        ),
        Call(
            "survival-eval",
            ["--checkpoint", f"{out}/cox", "--survival", heldout[0], "--embeddings", heldout[1]],
            [f"{out}/cox.manifest.json", f"{out}/cox.params.bin", *heldout],
            check_eval,
        ),
    ]


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: object  # (seed, input dir) -> seconds spent in synthgen
    calls: object  # (seed, input dir, output dir) -> [Call]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "score-panel",
            "preprocess + score-pathways, 300 spots x 300 genes, 40 gene sets of 20 sizes: "
            "expression text I/O, preprocessing and ssGSEA null normalisation dominate; autodiff idle",
            generate_score_panel,
            calls_score_panel,
        ),
        Workload(
            "train-infer",
            "train-contrastive + train-heads on 2 slides, predict + evaluate on 10 unseen: "
            "transformer autodiff at batch 256 and inference I/O dominate; ssGSEA, preprocess idle",
            generate_train_infer,
            calls_train_infer,
        ),
        Workload(
            "cohort",
            "survival-train + survival-eval, 240 subjects of 4-48 spots: thousands of tiny "
            "autodiff nodes per step, bound by per-node overhead; ssGSEA, transformer idle",
            generate_cohort,
            calls_cohort,
        ),
    )
}


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv):
    name, seed, d = argv[0], int(argv[1]), argv[2]
    os.makedirs(d, exist_ok=True)
    gen_s = WORKLOADS[name].generate(seed, d)
    _write_json(os.path.join(d, "setup.json"), {"synthgen.gen_s": gen_s})


if __name__ == "__main__":
    main(sys.argv[1:])
