"""Command-line orchestration of the pipeline.

Every subcommand reads declared inputs, writes declared outputs under
--out-dir (gradcheck prints its report), and exits 0 on success; every
failure, a usage error included, prints a machine-readable JSON object to
stderr and exits 1.  A subcommand declares only the flags it reads, so any
other flag is a usage error.  Hyperparameters come from a single JSON config
file, built into one dataclass per section before any subcommand runs; a
field that a command fills in itself (from --seed or the input tables) is
refused.  Paths come from flags.  Input tables are read, and expression,
coordinate and float tables written, through data_io; the command writes its
own JSON reports, loss curves and id lists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import autodiff as ad
from . import data_io, preprocess, ssgsea, synthgen, survival, trainer
from .encoders import ModelConfig, PearlModel, load_model, save_model
from .errors import ConfigError, DataFormatError, PearlError, UsageError
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
# fields a command fills in from --seed or its input tables; a config may not set them
COMMAND_SET = {
    "ssgsea": ("rng_seed",),
    "train": ("seed",),
    "model": ("n_pathways", "n_genes", "d_img", "seed"),
    "survival": ("seed",),
}


def load_config(path):
    """{section name: config dataclass} for every section, defaults where the
    file (or a missing `path`) gives none.  A field must be known, not set by
    a command, and of its default's type (an int may stand for a float)."""
    raw = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
                raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for section, values in raw.items():
        if section not in _CONFIG_SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise ConfigError(f"config section {section!r} must be a JSON object")
    config = {}
    for section, cls in _CONFIG_SECTIONS.items():
        defaults = {f.name: f.default for f in fields(cls)}
        values = dict(raw.get(section, {}))
        for key, value in values.items():
            name = f"{section}.{key}"
            if key in COMMAND_SET.get(section, ()):
                raise ConfigError(f"{name} is set by the command from --seed or its inputs")
            if key not in defaults:
                raise ConfigError(f"unknown field {name}")
            kind = type(defaults[key])
            if kind is float and type(value) is int:
                values[key] = float(value)
            elif type(value) is not kind:
                raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
        config[section] = cls(**values)
    return config


def _outpath(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _write_json(path, obj):
    """Write `obj` as JSON, a float with no finite value (an undefined metric,
    e.g. the PCC of a constant column) as null: RFC 8259 has no NaN."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(obj), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _finite_or_null(obj):
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


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
    spatial = asdict(cfg["synth"])
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
    """({slide id: its row indices}, float64 (rows, dim) embeddings), slides
    and rows in file order."""
    _, slide_ids, values = data_io.read_embeddings(path)
    rows = {}
    for i, slide in enumerate(slide_ids):
        rows.setdefault(slide, []).append(i)
    return rows, values


def cmd_preprocess(args, cfg):
    m = data_io.parse_expression(args.expression)
    geoms = data_io.read_coords(args.coords)
    normed, hvg = preprocess.run_pipeline(m, geoms, cfg["preprocess"])
    data_io.write_expression(normed, _outpath(args, "normalized.tsv"))
    data_io.write_expression(hvg, _outpath(args, "hvg.tsv"))
    with open(_outpath(args, "hvg_genes.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(hvg.gene_ids) + "\n")
    return 0


def cmd_score_pathways(args, cfg):
    scfg = replace(cfg["ssgsea"], rng_seed=args.seed)
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
    return replace(
        cfg["model"],
        n_pathways=dataset.scores.shape[1],
        n_genes=dataset.y_gene.shape[1],
        d_img=dataset.features.shape[1],
        seed=seed,
    )


def cmd_train_contrastive(args, cfg):
    tcfg = replace(cfg["train"], seed=args.seed)
    dataset = _load_dataset(args)
    model = PearlModel(_model_config(cfg, dataset, args.seed))
    model, history = trainer.train_stage1(dataset, model, tcfg)
    save_model(model, _outpath(args, "stage1"))
    _write_curve(_outpath(args, "stage1_loss.csv"), history)
    return 0


def cmd_train_heads(args, cfg):
    tcfg = replace(cfg["train"], seed=args.seed)
    dataset = _load_dataset(args)
    model = load_model(args.checkpoint)
    model, history = trainer.train_stage2(dataset, model, tcfg)
    save_model(model, _outpath(args, "final"))
    _write_curve(_outpath(args, "stage2_loss.csv"), history)
    return 0


def cmd_predict(args, cfg):
    if args.emit_embeddings != (args.coords is not None):
        raise UsageError("pearl predict: --emit-embeddings and --coords go together")
    model = load_model(args.checkpoint)
    patch = data_io.read_features(args.features)
    if args.emit_embeddings:
        slide_of = {g.spot_id: g.slide_id for g in data_io.read_coords(args.coords)}
        absent = next((sid for sid in patch.spot_ids if sid not in slide_of), None)
        if absent is not None:
            raise DataFormatError(f"no coordinates for feature spot {absent!r}", path=args.coords)
    h = trainer.embed_images(model, patch.features)
    with ad.no_grad():
        yp, yg = model.predict_heads(h)
    path_names = [f"p{j}" for j in range(yp.values.shape[1])]
    gene_names = [f"g{j}" for j in range(yg.values.shape[1])]
    data_io.write_scores(
        data_io.PathwayScoreMatrix(patch.spot_ids, path_names, yp.values),
        _outpath(args, "yhat_path.tsv"),
    )
    data_io.write_scores(
        data_io.PathwayScoreMatrix(patch.spot_ids, gene_names, yg.values),
        _outpath(args, "yhat_gene.tsv"),
    )
    if args.emit_embeddings:
        data_io.write_embeddings(
            patch.spot_ids,
            [slide_of[sid] for sid in patch.spot_ids],
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
        for name, v in zip(report.target_names, report.per_target_pcc):
            fh.write(f"{name},{v!r}\n")
    return 0


def _load_cohort(args):
    """(E, sizes, times, events): every subject's spot embeddings in one
    float32 (N, dim) array, subjects in survival-table order, each subject's
    slides in the order it lists them, and sizes[i] rows for subject i.
    Every slide a subject lists must have embeddings."""
    table = data_io.read_survival(args.survival)
    rows, values = _read_slide_embeddings(args.embeddings)
    idx, sizes = [], []
    for r in table.rows:
        start = len(idx)
        for s in r.slide_ids:
            if s not in rows:
                raise DataFormatError(
                    f"subject {r.subject_id!r}: no embeddings for slide {s!r}", path=args.survival
                )
            idx += rows[s]
        if len(idx) == start:
            raise DataFormatError(f"subject {r.subject_id!r} lists no slide", path=args.survival)
        sizes.append(len(idx) - start)
    E = values.astype(np.float32)  # the Cox head's dtype; cast before the gather
    del values  # so the float64 table is gone before the gather copies
    times = np.array([r.time for r in table.rows])
    events = np.array([r.event for r in table.rows])
    return E[idx], np.array(sizes), times, events


def cmd_survival_train(args, cfg):
    scfg = replace(cfg["survival"], seed=args.seed)
    E, sizes, times, events = _load_cohort(args)
    head, history = survival.train_cox(E, sizes, times, events, scfg)
    survival.save_cox(head, _outpath(args, "cox"))
    _write_curve(_outpath(args, "cox_loss.csv"), {"loss": history})
    return 0


def cmd_survival_eval(args, cfg):
    E, sizes, times, events = _load_cohort(args)
    head = survival.load_cox(args.checkpoint)
    risks = survival.predict_risks(head, E, sizes)
    ci = survival.c_index(risks, times, events)
    _write_json(_outpath(args, "survival_report.json"), {"c_index": ci, "n_subjects": len(times)})
    return 0


def cmd_gradcheck(args, cfg):
    from . import gradsuite

    # ad.gradcheck raises on a failing kernel, so every result printed passed
    for name, err in gradsuite.run_all():
        print(f"PASS {name}: rel err {err:.3e}")
    return 0


def cmd_run_cv(args, cfg):
    scfg = replace(cfg["ssgsea"], rng_seed=args.seed)
    tcfg = replace(cfg["train"], seed=args.seed)

    m = data_io.parse_expression(args.expression)
    geoms = data_io.read_coords(args.coords)
    sets = data_io.read_gmt(args.gene_sets)
    patch = data_io.read_features(args.features)
    normed, hvg = preprocess.run_pipeline(m, geoms, cfg["preprocess"])
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
        model, _ = trainer.train_stage1(train_ds, model, tcfg)
        model, _ = trainer.train_stage2(train_ds, model, tcfg)
        h_test = trainer.embed_images(model, test_ds.features, tcfg.batch_size)
        with ad.no_grad():
            yp, yg = model.predict_heads(h_test)
        path_rep = evaluate_expression(yp.values, test_ds.scores)
        gene_rep = evaluate_expression(yg.values, test_ds.y_gene)
        top1 = trainer.retrieval_top1(model, test_ds, tcfg.batch_size, seed=args.seed)
        report = {
            "fold": fold,
            "pathway": path_rep.to_dict(),
            "gene": gene_rep.to_dict(),
            "retrieval_top1": top1,
            "n_test_spots": test_ds.n_spots,
        }
        fold_reports.append(report)
        _write_json(_outpath(args, f"fold_{fold}.json"), report)

    def agg(values):  # the parser refuses --folds < 2, so the sample std is defined
        vals = np.array(values, dtype=np.float64)
        return {"mean": float(vals.mean()), "std": float(vals.std(ddof=1))}

    metrics = ("mean_pcc", "mse", "mae")
    aggregate = {
        "folds": args.folds,
        "seed": args.seed,
        "pathway": {m: agg([r["pathway"][m] for r in fold_reports]) for m in metrics},
        "gene": {m: agg([r["gene"][m] for r in fold_reports]) for m in metrics},
        "retrieval_top1": agg([r["retrieval_top1"] for r in fold_reports]),
    }
    _write_json(_outpath(args, "aggregate.json"), aggregate)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises a usage error instead of printing usage and exiting 2, so it
    leaves through main's JSON error boundary like every other failure."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _bounded_int(lo, hi=math.inf):
    """argparse type: an int in [lo, hi), else a usage error naming the flag."""

    def parse(text):
        value = int(text)  # argparse reports a ValueError as "invalid int value"
        if not lo <= value < hi:
            raise argparse.ArgumentTypeError(
                f"must be >= {lo}" if hi == math.inf else f"must be in [{lo}, {hi})"
            )
        return value

    parse.__name__ = "int"
    return parse


# the flags several subcommands share; each command declares only those it reads
_COMMON = {
    "config": {"default": None},
    "seed": {"type": _bounded_int(0, 2**64), "default": 0},  # numpy seeds and Philox keys
    "threads": {"type": _bounded_int(1), "default": 1},
    "out_dir": {"default": "."},
}
_SEEDED = ("config", "seed", "out_dir")
_THREADED = ("config", "seed", "threads", "out_dir")


def build_parser():
    parser = _Parser(prog="pearl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, common, **flags):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for flag in common:
            p.add_argument(f"--{flag.replace('_', '-')}", **_COMMON[flag])
        for flag, required in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", required=required, default=None)
        return p

    dataset = {"scores": True, "coords": True, "features": True, "hvg": True}
    cohort = {"embeddings": True, "survival": True}
    add("synth", cmd_synth, _SEEDED)
    add("preprocess", cmd_preprocess, ("config", "out_dir"), expression=True, coords=True)
    add("score-pathways", cmd_score_pathways, _THREADED, expression=True, gene_sets=True)
    add("train-contrastive", cmd_train_contrastive, _SEEDED, **dataset)
    add("train-heads", cmd_train_heads, _SEEDED, checkpoint=True, **dataset)
    p = add("predict", cmd_predict, ("out_dir",), checkpoint=True, features=True, coords=False)
    p.add_argument("--emit-embeddings", action="store_true")
    add("evaluate", cmd_evaluate, ("out_dir",), pred=True, truth=True)
    add("survival-train", cmd_survival_train, _SEEDED, **cohort)
    add("survival-eval", cmd_survival_eval, ("out_dir",), checkpoint=True, **cohort)
    add("gradcheck", cmd_gradcheck, ())
    p = add("run-cv", cmd_run_cv, _THREADED, expression=True, coords=True, gene_sets=True,
            features=True)
    p.add_argument("--folds", type=_bounded_int(2), default=5)  # 1 fold trains on no slide
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args, load_config(getattr(args, "config", None)))
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
