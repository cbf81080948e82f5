"""Command-line orchestration of the pipeline.

Every subcommand reads declared inputs, writes declared outputs under
--out-dir, and exits 0 on success; failures print a machine-readable JSON
object to stderr and exit nonzero.  Hyperparameters come from a single JSON
config file, checked section by section before any subcommand runs; paths
come from flags (run-cv also accepts a "paths" section).  Every table is read
and written through data_io.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import autodiff as ad
from . import data_io, preprocess, ssgsea, synthgen, survival, trainer
from .encoders import CoordNormalizer, ModelConfig, PearlModel, load_model, save_model
from .errors import ConfigError, PearlError
from .metrics import evaluate_expression
from .preprocess import PreprocessConfig
from .ssgsea import SsgseaConfig
from .survival import SurvivalTrainConfig
from .synthgen import SynthConfig
from .trainer import SpotDataset, TrainConfig

_CONFIG_SECTIONS = {
    "synth": SynthConfig,
    "preprocess": PreprocessConfig,
    "ssgsea": SsgseaConfig,
    "train": TrainConfig,
    "model": ModelConfig,
    "survival": SurvivalTrainConfig,
}


def load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    for section, values in cfg.items():
        if section not in _CONFIG_SECTIONS and section != "paths":
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be a JSON object")
        if section in _CONFIG_SECTIONS:
            _section(cfg, section, _CONFIG_SECTIONS[section])  # validate field names eagerly
    return cfg


def _section(cfg, name, cls, **overrides):
    """Build a config dataclass from a config section, naming bad fields."""
    values = dict(cfg.get(name, {}))
    allowed = set(cls.__dataclass_fields__)
    for key in values:
        if key not in allowed:
            raise ConfigError(f"unknown field {name}.{key}")
    values.update(overrides)
    return cls(**values)


def _require_path(cfg, dotted):
    cur = cfg
    for part in dotted.split("."):
        if not isinstance(cur, dict) or part not in cur:
            raise ConfigError(f"missing config field: {dotted}")
        cur = cur[part]
    return cur


def _outpath(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_curve(path, columns):
    """CSV of per-epoch values: the epoch, then one column per key of `columns`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["epoch", *columns]) + "\n")
        for e, row in enumerate(zip(*columns.values())):
            fh.write(",".join([str(e), *map(repr, row)]) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg):
    # the section's fields are the generators' keyword arguments
    spatial = asdict(_section(cfg, "synth", SynthConfig))
    cohort = {k: spatial.pop(k) for k in ("n_subjects", "censor_rate", "embed_dim")}
    expr, geoms, sets, patch, _ = synthgen.gen_st_dataset(seed=args.seed, **spatial)
    data_io.write_expression(expr, _outpath(args, "expression.tsv"))
    data_io.write_coords(geoms, _outpath(args, "coords.csv"))
    data_io.write_gmt(sets, _outpath(args, "gene_sets.gmt"))
    data_io.write_features(patch, _outpath(args, "features.tsv"))
    table, embeddings, _ = synthgen.gen_survival_cohort(seed=args.seed, **cohort)
    data_io.write_survival(table, _outpath(args, "survival.csv"))
    slides = sorted(embeddings)
    data_io.write_embeddings(
        [f"{s}_s{i}" for s in slides for i in range(len(embeddings[s]))],
        [s for s in slides for _ in embeddings[s]],
        np.concatenate([embeddings[s] for s in slides]),
        _outpath(args, "survival_embeddings.tsv"),
    )
    return 0


def _read_slide_embeddings(path):
    """{slide id: (spots, dim) embeddings}, slides and spots in file order."""
    _, slide_ids, values = data_io.read_embeddings(path)
    rows = {}
    for i, slide in enumerate(slide_ids):
        rows.setdefault(slide, []).append(i)
    return {slide: values[idx] for slide, idx in rows.items()}


def cmd_preprocess(args, cfg):
    pcfg = _section(cfg, "preprocess", PreprocessConfig)
    m = data_io.parse_expression(args.expression)
    geoms = data_io.read_coords(args.coords)
    normed, hvg, hvg_ids = preprocess.run_pipeline(m, geoms, pcfg)
    data_io.write_expression(normed, _outpath(args, "normalized.tsv"))
    data_io.write_expression(hvg, _outpath(args, "hvg.tsv"))
    with open(_outpath(args, "hvg_genes.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(hvg_ids) + "\n")
    return 0


def cmd_score_pathways(args, cfg):
    scfg = _section(cfg, "ssgsea", SsgseaConfig, rng_seed=args.seed)
    m = data_io.parse_expression(args.expression, value_kind=data_io.NORMALIZED_LOG)
    sets = data_io.read_gmt(args.gene_sets)
    sm, dropped = ssgsea.score_matrix(m, sets, scfg, threads=args.threads)
    data_io.write_scores(sm, _outpath(args, "scores.tsv"))
    with open(_outpath(args, "dropped_pathways.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(dropped) + ("\n" if dropped else ""))
    return 0


def _load_dataset(args):
    return SpotDataset.from_tables(
        data_io.read_scores(args.scores),
        data_io.read_coords(args.coords),
        data_io.read_features(args.features),
        data_io.parse_expression(args.hvg, value_kind=data_io.NORMALIZED_LOG),
    )


def _model_config(cfg, dataset, seed):
    return _section(
        cfg,
        "model",
        ModelConfig,
        n_pathways=dataset.scores.shape[1],
        n_genes=dataset.y_gene.shape[1],
        d_img=dataset.features.shape[1],
        seed=seed,
    )


def cmd_train_contrastive(args, cfg):
    tcfg = _section(cfg, "train", TrainConfig, seed=args.seed)
    dataset = _load_dataset(args)
    model = PearlModel(_model_config(cfg, dataset, args.seed))
    model, history, normalizer = trainer.train_stage1(dataset, model, tcfg)
    save_model(model, _outpath(args, "stage1"), normalizer=normalizer)
    _write_curve(_outpath(args, "stage1_loss.csv"), history)
    return 0


def cmd_train_heads(args, cfg):
    tcfg = _section(cfg, "train", TrainConfig, seed=args.seed)
    dataset = _load_dataset(args)
    model, normalizer, _ = load_model(args.checkpoint)
    model, history = trainer.train_stage2(dataset, model, tcfg)
    save_model(model, _outpath(args, "final"), normalizer=normalizer)
    _write_curve(_outpath(args, "stage2_loss.csv"), history)
    return 0


def cmd_predict(args, cfg):
    model, _, _ = load_model(args.checkpoint)
    patch = data_io.read_features(args.features)
    h = trainer.embed_images(model, patch.features)
    with ad.no_grad():
        yp, yg = model.predict_heads(h)
    path_names = [f"p{j}" for j in range(yp.values.shape[1])]
    gene_names = [f"g{j}" for j in range(yg.values.shape[1])]
    data_io.write_scores(
        data_io.PathwayScoreMatrix(patch.spot_ids, path_names, yp.values.astype(np.float64)),
        _outpath(args, "yhat_path.tsv"),
    )
    data_io.write_scores(
        data_io.PathwayScoreMatrix(patch.spot_ids, gene_names, yg.values.astype(np.float64)),
        _outpath(args, "yhat_gene.tsv"),
    )
    if args.emit_embeddings:
        slide_of = {}
        if args.coords:
            slide_of = {g.spot_id: g.slide_id for g in data_io.read_coords(args.coords)}
        data_io.write_embeddings(
            patch.spot_ids,
            [slide_of.get(sid, "") for sid in patch.spot_ids],
            h,
            _outpath(args, "embeddings.tsv"),
        )
    return 0


def cmd_evaluate(args, cfg):
    pred = data_io.read_scores(args.pred)
    truth = data_io.read_scores(args.truth)
    if pred.spot_ids != truth.spot_ids:
        raise PearlError("prediction and truth spot ids differ")
    report = evaluate_expression(pred.scores, truth.scores, truth.pathway_names)
    _write_json(_outpath(args, "report.json"), report.to_dict())
    with open(_outpath(args, "per_target_pcc.csv"), "w", encoding="utf-8") as fh:
        fh.write("target,pcc\n")
        names = report.target_names or [str(j) for j in range(report.n_targets)]
        for name, v in zip(names, report.per_target_pcc):
            fh.write(f"{name},{v!r}\n")
    return 0


def _load_cohort(args):
    table = data_io.read_survival(args.survival)
    embeddings = _read_slide_embeddings(args.embeddings)
    mats, times, events = [], [], []
    for r in table.rows:
        rows = [embeddings[s] for s in r.slide_ids if s in embeddings]
        if not rows:
            raise PearlError(f"subject {r.subject_id!r}: no embeddings for its slides")
        mats.append(np.concatenate(rows, axis=0))
        times.append(r.time)
        events.append(r.event)
    return mats, np.array(times), np.array(events)


def cmd_survival_train(args, cfg):
    scfg = _section(cfg, "survival", SurvivalTrainConfig, seed=args.seed)
    mats, times, events = _load_cohort(args)
    head, history = survival.train_cox(mats, times, events, scfg)
    survival.save_cox(head, _outpath(args, "cox"))
    _write_curve(_outpath(args, "cox_loss.csv"), {"loss": history})
    return 0


def cmd_survival_eval(args, cfg):
    mats, times, events = _load_cohort(args)
    head = survival.load_cox(args.checkpoint)
    risks = survival.predict_risks(head, mats)
    ci = survival.c_index(risks, times, events)
    _write_json(_outpath(args, "survival_report.json"), {"c_index": ci, "n_subjects": len(times)})
    return 0


def cmd_gradcheck(args, cfg):
    from . import gradsuite

    results = gradsuite.run_all()
    ok = True
    for name, err in results:
        status = "PASS" if err <= 1e-4 else "FAIL"
        ok = ok and err <= 1e-4
        print(f"{status} {name}: rel err {err:.3e}")
    return 0 if ok else 1


def cmd_run_cv(args, cfg):
    paths = {
        key: _require_path(cfg, f"paths.{key}")
        for key in ("expression", "coords", "gene_sets", "features")
    }
    pcfg = _section(cfg, "preprocess", PreprocessConfig)
    scfg = _section(cfg, "ssgsea", SsgseaConfig, rng_seed=args.seed)
    tcfg = _section(cfg, "train", TrainConfig, seed=args.seed)

    m = data_io.parse_expression(paths["expression"])
    geoms = data_io.read_coords(paths["coords"])
    sets = data_io.read_gmt(paths["gene_sets"])
    patch = data_io.read_features(paths["features"])
    normed, hvg, hvg_ids = preprocess.run_pipeline(m, geoms, pcfg)
    sm, _ = ssgsea.score_matrix(normed, sets, scfg, threads=args.threads)
    dataset = SpotDataset.from_tables(sm, geoms, patch, hvg)

    slides = sorted(set(dataset.slide_ids))
    if len(slides) < args.folds:
        raise PearlError(f"{len(slides)} slides cannot form {args.folds} slide-disjoint folds")
    fold_of = {s: i % args.folds for i, s in enumerate(slides)}
    fold_reports = []
    for fold in range(args.folds):
        test_idx = [i for i, s in enumerate(dataset.slide_ids) if fold_of[s] == fold]
        train_idx = [i for i, s in enumerate(dataset.slide_ids) if fold_of[s] != fold]
        train_ds = dataset.subset(train_idx)
        test_ds = dataset.subset(test_idx)
        mcfg = _model_config(cfg, dataset, args.seed + fold)
        model = PearlModel(mcfg)
        model, _, normalizer = trainer.train_stage1(train_ds, model, tcfg)
        model, _ = trainer.train_stage2(train_ds, model, tcfg)
        h_test = trainer.embed_images(model, test_ds.features, tcfg.batch_size)
        with ad.no_grad():
            yp, yg = model.predict_heads(h_test)
        path_rep = evaluate_expression(yp.values, test_ds.y_path)
        gene_rep = evaluate_expression(yg.values, test_ds.y_gene)
        top1 = trainer.retrieval_top1(model, test_ds, normalizer, tcfg.batch_size, seed=args.seed)
        report = {
            "fold": fold,
            "pathway": path_rep.to_dict(),
            "gene": gene_rep.to_dict(),
            "retrieval_top1": top1,
            "n_test_spots": test_ds.n_spots,
        }
        fold_reports.append(report)
        _write_json(_outpath(args, f"fold_{fold}.json"), report)

    def agg(path_key, metric):
        vals = np.array([r[path_key][metric] for r in fold_reports], dtype=np.float64)
        return {"mean": float(vals.mean()), "std": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0}

    aggregate = {
        "folds": args.folds,
        "seed": args.seed,
        "pathway": {m: agg("pathway", m) for m in ("mean_pcc", "mse", "mae")},
        "gene": {m: agg("gene", m) for m in ("mean_pcc", "mse", "mae")},
        "retrieval_top1": {
            "mean": float(np.mean([r["retrieval_top1"] for r in fold_reports])),
            "std": float(np.std([r["retrieval_top1"] for r in fold_reports], ddof=1))
            if len(fold_reports) > 1
            else 0.0,
        },
    }
    _write_json(_outpath(args, "aggregate.json"), aggregate)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="pearl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out-dir", default=".")
        for flag, required in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", required=required, default=None)
        return p

    add("synth", cmd_synth)
    add("preprocess", cmd_preprocess, expression=True, coords=True)
    add("score-pathways", cmd_score_pathways, expression=True, gene_sets=True)
    add(
        "train-contrastive",
        cmd_train_contrastive,
        scores=True,
        coords=True,
        features=True,
        hvg=True,
    )
    add(
        "train-heads",
        cmd_train_heads,
        checkpoint=True,
        scores=True,
        coords=True,
        features=True,
        hvg=True,
    )
    p = add("predict", cmd_predict, checkpoint=True, features=True, coords=False)
    p.add_argument("--emit-embeddings", action="store_true")
    add("evaluate", cmd_evaluate, pred=True, truth=True)
    add("survival-train", cmd_survival_train, embeddings=True, survival=True)
    add("survival-eval", cmd_survival_eval, checkpoint=True, embeddings=True, survival=True)
    add("gradcheck", cmd_gradcheck)
    p = add("run-cv", cmd_run_cv)
    p.add_argument("--folds", type=int, default=5)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, load_config(args.config))
    except PearlError as exc:
        return _fail(exc.code, exc)
    except OSError as exc:  # e.g. a missing, unreadable or directory path
        return _fail("io", exc)


def _fail(code, exc):
    json.dump({"error": code, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
